//! Synthetic graph generators.
//!
//! The paper's Appendix A.1 experiments use the "Snap Random Power-Law
//! graph generator" with exponents 1–3; we implement a Chung–Lu style
//! expected-degree model, which produces the same power-law degree
//! distributions, plus Erdős–Rényi and complete graphs for worst-case
//! join inputs (the AGM bound is tight on complete graphs).

use crate::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, m)`: `m` distinct directed edges drawn uniformly.
pub fn erdos_renyi(n: u32, m: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = std::collections::HashSet::with_capacity(m);
    let cap = (n as u64 * (n as u64 - 1)).min(usize::MAX as u64) as usize;
    let target = m.min(cap);
    while edges.len() < target {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            edges.insert((s, d));
        }
    }
    Graph::from_dense(n, edges.into_iter().collect())
}

/// Chung–Lu power-law graph: node `i` gets expected weight
/// `w_i ∝ (i+1)^{-1/(exponent-1)}`, and ~`m` undirected edges are sampled
/// with probability proportional to `w_i · w_j`. Smaller exponents mean
/// heavier tails (more density skew) — the x-axis of paper Figure 7.
pub fn power_law(n: u32, m: usize, exponent: f64, seed: u64) -> Graph {
    assert!(n >= 2);
    assert!(exponent > 1.0, "power-law exponent must exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = 1.0 / (exponent - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    // Cumulative distribution for O(log n) weighted sampling.
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for &w in &weights {
        acc += w;
        cdf.push(acc);
    }
    let total = acc;
    let sample = |rng: &mut StdRng| -> u32 {
        let x = rng.gen_range(0.0..total);
        match cdf.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) | Err(i) => (i as u32).min(n - 1),
        }
    };
    let mut edges = std::collections::HashSet::with_capacity(m);
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(50).max(1000);
    while edges.len() < m && attempts < max_attempts {
        attempts += 1;
        let a = sample(&mut rng);
        let b = sample(&mut rng);
        if a != b {
            let (s, d) = if a < b { (a, b) } else { (b, a) };
            edges.insert((s, d));
        }
    }
    // Return the undirected graph (both directions).
    let mut dir = Vec::with_capacity(edges.len() * 2);
    for (s, d) in edges {
        dir.push((s, d));
        dir.push((d, s));
    }
    Graph::from_dense(n, dir)
}

impl Graph {
    /// Preferential-attachment (Barabási–Albert) power-law graph: nodes
    /// arrive one at a time and attach `edges_per_node` undirected edges
    /// to existing nodes sampled proportionally to their current degree,
    /// so early nodes become hubs. This is the heavy-tailed degree
    /// distribution that makes static level-0 range partitioning straggle
    /// — the workload the morsel scheduler exists for. Both edge
    /// directions are emitted (undirected), and the result is
    /// deterministic in `seed`.
    pub fn power_law(nodes: u32, edges_per_node: usize, seed: u64) -> Graph {
        assert!(nodes >= 2);
        assert!(edges_per_node >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = edges_per_node;
        // `endpoints` lists every edge endpoint seen so far; sampling an
        // index uniformly is sampling a node ∝ its degree.
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * m * nodes as usize);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m * nodes as usize * 2);
        // Seed clique over the first min(m+1, nodes) nodes so the
        // attachment pool starts non-degenerate.
        let seed_n = (m as u32 + 1).min(nodes);
        for a in 0..seed_n {
            for b in (a + 1)..seed_n {
                edges.push((a, b));
                edges.push((b, a));
                endpoints.push(a);
                endpoints.push(b);
            }
        }
        for v in seed_n..nodes {
            let mut added = 0usize;
            let mut attempts = 0usize;
            // Sample m distinct targets by degree; a bounded retry loop
            // handles collisions on tiny graphs.
            let base = edges.len();
            while added < m && attempts < m * 20 + 16 {
                attempts += 1;
                let t = endpoints[rng.gen_range(0..endpoints.len())];
                if t == v || edges[base..].iter().any(|&(_, d)| d == t) {
                    continue;
                }
                edges.push((v, t));
                added += 1;
            }
            // Register endpoints only after sampling so this node's own
            // edges don't skew its remaining draws.
            for i in 0..added {
                let (s, d) = edges[base + i];
                endpoints.push(s);
                endpoints.push(d);
            }
            for i in 0..added {
                let (s, d) = edges[base + i];
                edges.push((d, s));
            }
        }
        Graph::from_dense(nodes, edges)
    }
}

/// The complete graph `K_n` (both edge directions): the worst-case input
/// for the triangle query — AGM's `N^{3/2}` bound is tight on it
/// (paper Example 2.1).
pub fn complete(n: u32) -> Graph {
    let mut edges = Vec::with_capacity((n as usize) * (n as usize - 1));
    for s in 0..n {
        for d in 0..n {
            if s != d {
                edges.push((s, d));
            }
        }
    }
    Graph::from_dense(n, edges)
}

/// The undirected `cols × rows` grid (both edge directions), node `v` at
/// column `v % cols` and row `v / cols`; a path of `n` nodes is
/// `grid(n, 1)`. Its diameter is `cols + rows - 2`, so SSSP from node 0
/// runs that many seminaive iterations over a frontier of one
/// anti-diagonal — the high-diameter end of the analytics workloads.
pub fn grid(cols: u32, rows: u32) -> Graph {
    let mut edges = Vec::new();
    for v in 0..cols * rows {
        if v % cols + 1 < cols {
            edges.extend([(v, v + 1), (v + 1, v)]);
        }
        if v / cols + 1 < rows {
            edges.extend([(v, v + cols), (v + cols, v)]);
        }
    }
    Graph::from_dense(cols * rows, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_shape() {
        let g = erdos_renyi(100, 500, 42);
        assert_eq!(g.num_nodes, 100);
        assert_eq!(g.num_edges(), 500);
        assert!(g.edges.iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(50, 200, 7);
        let b = erdos_renyi(50, 200, 7);
        assert_eq!(a.edges, b.edges);
        let c = erdos_renyi(50, 200, 8);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn power_law_skew_increases_with_smaller_exponent() {
        let heavy = power_law(2000, 10_000, 2.0, 1);
        let light = power_law(2000, 10_000, 3.0, 1);
        assert!(
            heavy.degree_skewness() > light.degree_skewness(),
            "exp 2.0 skewness {} must exceed exp 3.0 skewness {}",
            heavy.degree_skewness(),
            light.degree_skewness()
        );
    }

    #[test]
    fn power_law_is_undirected() {
        let g = power_law(100, 300, 2.3, 5);
        for &(s, d) in &g.edges {
            assert!(
                g.edges.binary_search(&(d, s)).is_ok(),
                "missing reverse of ({s},{d})"
            );
        }
    }

    #[test]
    fn preferential_attachment_is_deterministic_and_undirected() {
        let a = Graph::power_law(500, 4, 11);
        let b = Graph::power_law(500, 4, 11);
        assert_eq!(a.edges, b.edges);
        let c = Graph::power_law(500, 4, 12);
        assert_ne!(a.edges, c.edges);
        assert_eq!(a.num_nodes, 500);
        for &(s, d) in &a.edges {
            assert_ne!(s, d);
            assert!(
                a.edges.binary_search(&(d, s)).is_ok(),
                "missing reverse of ({s},{d})"
            );
        }
    }

    #[test]
    fn preferential_attachment_is_heavy_tailed() {
        // Degree-proportional attachment must be visibly more skewed than
        // a uniform graph of the same size, and hubs must dominate.
        let pa = Graph::power_law(2000, 4, 7);
        let uniform = erdos_renyi(2000, pa.num_edges(), 7);
        assert!(
            pa.degree_skewness() > uniform.degree_skewness() + 1.0,
            "PA skewness {} must clearly exceed uniform {}",
            pa.degree_skewness(),
            uniform.degree_skewness()
        );
        let deg = pa.total_degrees();
        let max = *deg.iter().max().unwrap() as f64;
        let mean = deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64;
        assert!(max > mean * 8.0, "hub degree {max} vs mean {mean}");
    }

    #[test]
    fn preferential_attachment_small_graphs() {
        // nodes <= edges_per_node collapses to (near-)complete seeds.
        let g = Graph::power_law(2, 3, 1);
        assert_eq!(g.num_edges(), 2);
        let g = Graph::power_law(5, 8, 1);
        assert!(g.num_edges() <= 20);
        assert!(g.total_degrees().iter().all(|&d| d > 0));
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 30);
        // K6 has C(6,3)=20 triangles; directed closed triangles = 20*6.
        let csr = g.to_csr();
        let mut tri = 0;
        for s in 0..6u32 {
            for &d in csr.neighbors(s) {
                for &e in csr.neighbors(d) {
                    if csr.neighbors(e).contains(&s) {
                        tri += 1;
                    }
                }
            }
        }
        assert_eq!(tri, 120);
    }

    #[test]
    fn grid_edge_count_and_symmetry() {
        // A c×r grid has r(c-1) horizontal and c(r-1) vertical undirected
        // edges, each emitted in both directions.
        for (cols, rows) in [(1, 1), (7, 1), (1, 5), (4, 3), (10, 10)] {
            let g = grid(cols, rows);
            assert_eq!(g.num_nodes, cols * rows);
            let undirected = rows * (cols - 1) + cols * (rows - 1);
            assert_eq!(g.num_edges(), 2 * undirected as usize, "{cols}x{rows}");
            for &(s, d) in &g.edges {
                assert!(s.abs_diff(d) == 1 || s.abs_diff(d) == cols);
                assert!(
                    g.edges.binary_search(&(d, s)).is_ok(),
                    "missing reverse of ({s},{d})"
                );
            }
        }
        // A path: the interior nodes have degree 2, the ends degree 1.
        let deg = grid(6, 1).total_degrees();
        assert_eq!(deg, vec![2, 4, 4, 4, 4, 2]);
    }
}
