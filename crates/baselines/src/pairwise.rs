//! The pairwise (binary-join) relational baseline — the SociaLite /
//! traditional-RDBMS architectural class (paper §1, §5.1.2).
//!
//! Every plan here composes binary hash joins with materialized
//! intermediates. On the triangle query this is provably Ω(N²): the
//! two-path intermediate `R(x,y) ⋈ S(y,z)` must be materialized before the
//! closing edge filters it (paper: "any pairwise relational algebra plan
//! takes at least Ω(N²)"), which is exactly why these engines lose by
//! orders of magnitude on cyclic patterns while remaining fine on simple
//! aggregations.

use std::collections::HashMap;

/// Hash index of an edge list keyed by source.
fn by_src(edges: &[(u32, u32)]) -> HashMap<u32, Vec<u32>> {
    let mut m: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(s, d) in edges {
        m.entry(s).or_default().push(d);
    }
    m
}

/// Membership set for the closing-edge probe.
fn edge_set(edges: &[(u32, u32)]) -> std::collections::HashSet<(u32, u32)> {
    edges.iter().copied().collect()
}

/// Triangle counting the pairwise way: materialize all two-paths, then
/// probe the closing edge.
pub fn triangle_count(edges: &[(u32, u32)]) -> u64 {
    let idx = by_src(edges);
    let close = edge_set(edges);
    let mut count = 0u64;
    // Materialized two-path intermediate (the Ω(N²) step), streamed here
    // tuple-at-a-time but with the same join structure and cost.
    for &(x, y) in edges {
        if let Some(zs) = idx.get(&y) {
            for &z in zs {
                if close.contains(&(x, z)) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// 4-clique counting with pairwise joins: triangles ⋈ edges with three
/// closing probes.
pub fn four_clique_count(edges: &[(u32, u32)]) -> u64 {
    let idx = by_src(edges);
    let close = edge_set(edges);
    let mut count = 0u64;
    for &(x, y) in edges {
        if let Some(zs) = idx.get(&y) {
            for &z in zs {
                if !close.contains(&(x, z)) {
                    continue;
                }
                // (x,y,z) is a triangle; extend by w adjacent to x.
                if let Some(ws) = idx.get(&z) {
                    for &w in ws {
                        if close.contains(&(x, w)) && close.contains(&(y, w)) {
                            count += 1;
                        }
                    }
                }
            }
        }
    }
    count
}

/// Lollipop counting: each triangle (x,y,z) times each pendant edge (x,w).
pub fn lollipop_count(edges: &[(u32, u32)]) -> u64 {
    let idx = by_src(edges);
    let close = edge_set(edges);
    let mut count = 0u64;
    for &(x, y) in edges {
        if let Some(zs) = idx.get(&y) {
            for &z in zs {
                if close.contains(&(x, z)) {
                    count += idx.get(&x).map_or(0, |ws| ws.len() as u64);
                }
            }
        }
    }
    count
}

/// Barbell counting: triangles joined to triangles through a bridge edge.
/// The pairwise plan enumerates triangle × bridge × triangle tuples — the
/// O(N³)-intermediate strategy a binary-join engine is forced into.
pub fn barbell_count(edges: &[(u32, u32)]) -> u64 {
    let idx = by_src(edges);
    let close = edge_set(edges);
    // Materialize triangles grouped by their first vertex.
    let mut tri_by_x: HashMap<u32, u64> = HashMap::new();
    for &(x, y) in edges {
        if let Some(zs) = idx.get(&y) {
            for &z in zs {
                if close.contains(&(x, z)) {
                    *tri_by_x.entry(x).or_insert(0) += 1;
                }
            }
        }
    }
    let mut count = 0u64;
    for &(a, b) in edges {
        if let (Some(&ta), Some(&tb)) = (tri_by_x.get(&a), tri_by_x.get(&b)) {
            count += ta * tb;
        }
    }
    count
}

/// PageRank in the datalog-over-hash-tables style of a high-level engine.
pub fn pagerank(edges: &[(u32, u32)], num_nodes: u32, iterations: usize) -> Vec<f64> {
    let n = num_nodes as usize;
    if n == 0 {
        return Vec::new();
    }
    let mut deg = vec![0u32; n];
    for &(s, _) in edges {
        deg[s as usize] += 1;
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        // "Join" PageRank with Edge, "group by" destination, SUM.
        let mut sums: HashMap<u32, f64> = HashMap::new();
        for &(s, d) in edges {
            let contribution = rank[s as usize] / deg[s as usize].max(1) as f64;
            *sums.entry(d).or_insert(0.0) += contribution;
        }
        for v in 0..n {
            rank[v] = 0.15 + 0.85 * sums.get(&(v as u32)).copied().unwrap_or(0.0);
        }
    }
    rank
}

/// SSSP as naive datalog iteration over hash-map relations (SociaLite-ish,
/// without seminaive deltas: the full relation is rejoined every round).
pub fn sssp_naive_datalog(edges: &[(u32, u32)], num_nodes: u32, src: u32) -> Vec<u32> {
    let n = num_nodes as usize;
    let mut dist: HashMap<u32, u32> = HashMap::new();
    dist.insert(src, 0);
    loop {
        let mut changed = false;
        // Join SSSP(w) with Edge(w,x); MIN aggregate.
        let mut derived: HashMap<u32, u32> = HashMap::new();
        for &(w, x) in edges {
            if let Some(&dw) = dist.get(&w) {
                let cand = dw.saturating_add(1);
                derived
                    .entry(x)
                    .and_modify(|v| *v = (*v).min(cand))
                    .or_insert(cand);
            }
        }
        for (x, d) in derived {
            match dist.get(&x) {
                Some(&old) if old <= d => {}
                _ => {
                    dist.insert(x, d);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (0..n as u32)
        .map(|v| dist.get(&v).copied().unwrap_or(u32::MAX))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_graph::gen;

    #[test]
    fn triangle_on_k5() {
        let g = gen::complete(5).prune_by_degree();
        assert_eq!(triangle_count(&g.edges), 10);
    }

    #[test]
    fn star_has_no_triangles() {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 1..=50u32 {
            edges.push((0, i));
            edges.push((i, 0));
        }
        let g = eh_graph::Graph::from_dense(51, edges);
        assert_eq!(triangle_count(&g.edges), 0);
    }

    #[test]
    fn four_clique_on_k5() {
        let g = gen::complete(5).prune_by_degree();
        // K5 has C(5,4) = 5 four-cliques.
        assert_eq!(four_clique_count(&g.edges), 5);
    }

    #[test]
    fn lollipop_on_k4_undirected() {
        let g = gen::complete(4);
        // Undirected K4: ordered triangles (x,y,z) = 4*3*2 = 24; each x has
        // 3 pendant choices → 72.
        assert_eq!(lollipop_count(&g.edges), 72);
    }

    #[test]
    fn barbell_counts_products() {
        let g = gen::complete(4);
        // tri_by_x[x] = ordered triangles anchored at x = 6 each; every
        // directed edge (a,b) contributes 6*6; 12 directed edges → 432.
        assert_eq!(barbell_count(&g.edges), 432);
    }

    #[test]
    fn pagerank_matches_lowlevel() {
        let g = gen::erdos_renyi(80, 500, 12).symmetrize();
        let pw = pagerank(&g.edges, g.num_nodes, 5);
        let ll = crate::lowlevel::pagerank(&g, 5);
        for (a, b) in pw.iter().zip(&ll) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn sssp_matches_bfs() {
        let g = gen::power_law(200, 800, 2.4, 8);
        let src = g.max_degree_node();
        let pw = sssp_naive_datalog(&g.edges, g.num_nodes, src);
        let ll = crate::lowlevel::sssp_bfs(&g, src);
        assert_eq!(pw, ll);
    }
}
