//! Graph substrate: edge lists, CSR, generators, node orderings, and the
//! paper's dataset analogs (paper §5.1.1, Appendix A.1).
//!
//! EmptyHeaded's evaluation runs on six real social/citation graphs. Those
//! exact files are not shipped here; [`datasets`] generates scaled synthetic
//! analogs whose degree distributions match each dataset's published
//! density-skew profile (`paper_tables table3` prints both). Real SNAP
//! edge-list files load through [`Graph::from_tsv`] when available.

pub mod datasets;
pub mod gen;
pub mod ordering;

pub use datasets::{paper_datasets, DatasetSpec};
pub use ordering::{apply_ordering, compute_ordering, OrderingScheme};

use std::collections::HashMap;
use std::io::BufRead;

/// An in-memory graph: a deduplicated directed edge list over dense node
/// ids `0..num_nodes`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Number of nodes (max id + 1).
    pub num_nodes: u32,
    /// Directed edges (src, dst), sorted and deduplicated.
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Build from an arbitrary edge list; ids are remapped densely in
    /// first-seen order, self-loops dropped, duplicates collapsed.
    pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(iter: I) -> Graph {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut next = 0u32;
        let intern = |v: u32, next: &mut u32, remap: &mut HashMap<u32, u32>| {
            *remap.entry(v).or_insert_with(|| {
                let id = *next;
                *next += 1;
                id
            })
        };
        for (s, d) in iter {
            if s == d {
                continue;
            }
            let s = intern(s, &mut next, &mut remap);
            let d = intern(d, &mut next, &mut remap);
            edges.push((s, d));
        }
        edges.sort_unstable();
        edges.dedup();
        Graph {
            num_nodes: next,
            edges,
        }
    }

    /// Build from already-dense ids without remapping (panics on self-loops
    /// in debug builds); sorts and dedups.
    pub fn from_dense(num_nodes: u32, mut edges: Vec<(u32, u32)>) -> Graph {
        edges.retain(|(s, d)| s != d);
        edges.sort_unstable();
        edges.dedup();
        debug_assert!(edges.iter().all(|&(s, d)| s < num_nodes && d < num_nodes));
        Graph { num_nodes, edges }
    }

    /// Parse a whitespace-separated edge-list file (SNAP format); lines
    /// starting with `#` are comments.
    pub fn from_tsv<R: BufRead>(reader: R) -> std::io::Result<Graph> {
        let mut edges = Vec::new();
        for line in reader.lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (Some(a), Some(b)) = (it.next(), it.next()) else {
                continue;
            };
            let (Ok(a), Ok(b)) = (a.parse::<u32>(), b.parse::<u32>()) else {
                continue;
            };
            edges.push((a, b));
        }
        Ok(Graph::from_edges(edges))
    }

    /// Load an edge list through the storage layer's streaming reader:
    /// two `u64` key columns sharing one dictionary domain, so arbitrary
    /// (even 64-bit) node ids are densely remapped in first-seen order —
    /// the same dictionary-encoding path typed relations take. Malformed
    /// rows follow `opts.malformed`; self-loops are dropped and
    /// duplicate edges collapsed, as in [`Graph::from_edges`].
    pub fn from_edge_list<R: BufRead>(
        reader: R,
        opts: &eh_storage::CsvOptions,
    ) -> Result<Graph, eh_storage::StorageError> {
        let mut catalog = eh_storage::StorageCatalog::new();
        let schema = eh_storage::RelationSchema::new("Edge")
            .column_in("src", eh_storage::ColumnType::U64, "node")
            .column_in("dst", eh_storage::ColumnType::U64, "node");
        let (buf, _) = catalog.load_csv_schema(schema, reader, opts)?;
        let num_nodes = catalog.domain("node").map(|d| d.len()).unwrap_or(0) as u32;
        let edges: Vec<(u32, u32)> = buf.iter().map(|r| (r[0], r[1])).collect();
        Ok(Graph::from_dense(num_nodes, edges))
    }

    /// [`Graph::from_edge_list`] on a file path, with the SNAP
    /// edge-list defaults (whitespace-separated, headerless, `#`
    /// comments, malformed rows skipped — matching [`Graph::from_tsv`]).
    pub fn from_edge_list_path(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Graph, eh_storage::StorageError> {
        let file = std::fs::File::open(path)?;
        Graph::from_edge_list(
            std::io::BufReader::new(file),
            &eh_storage::CsvOptions::edge_list().skip_malformed(),
        )
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list as a flat columnar [`eh_trie::TupleBuffer`] — the
    /// zero-copy-per-tuple path into the engine's relation storage.
    pub fn tuple_buffer(&self) -> eh_trie::TupleBuffer {
        eh_trie::TupleBuffer::from_pairs(&self.edges)
    }

    /// Make the graph undirected: add the reverse of every edge.
    pub fn symmetrize(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for &(s, d) in &self.edges {
            edges.push((s, d));
            edges.push((d, s));
        }
        Graph::from_dense(self.num_nodes, edges)
    }

    /// Out-degree of every node.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes as usize];
        for &(s, _) in &self.edges {
            deg[s as usize] += 1;
        }
        deg
    }

    /// Total degree (in+out) of every node.
    pub fn total_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes as usize];
        for &(s, d) in &self.edges {
            deg[s as usize] += 1;
            deg[d as usize] += 1;
        }
        deg
    }

    /// The standard symmetric-query pruning (paper §5.2.1): relabel nodes
    /// by descending degree, then keep only edges with `src > dst`. Halves
    /// an undirected graph while preserving triangle counts.
    pub fn prune_by_degree(&self) -> Graph {
        let perm = ordering::compute_ordering(self, OrderingScheme::Degree);
        let relabeled = apply_ordering(self, &perm);
        let edges: Vec<(u32, u32)> = relabeled
            .edges
            .iter()
            .copied()
            .filter(|&(s, d)| s > d)
            .collect();
        Graph::from_dense(relabeled.num_nodes, edges)
    }

    /// Keep only edges with `src > dst` under the current labeling.
    pub fn prune_current_order(&self) -> Graph {
        let edges: Vec<(u32, u32)> = self.edges.iter().copied().filter(|&(s, d)| s > d).collect();
        Graph::from_dense(self.num_nodes, edges)
    }

    /// Compressed sparse row view of the out-adjacency.
    pub fn to_csr(&self) -> Csr {
        let n = self.num_nodes as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0u32; self.edges.len()];
        let mut cursor = offsets.clone();
        for &(s, d) in &self.edges {
            neighbors[cursor[s as usize]] = d;
            cursor[s as usize] += 1;
        }
        Csr { offsets, neighbors }
    }

    /// Density-skew statistic of the degree distribution (Pearson's first
    /// coefficient, paper footnote 4) — the Table 3 "Density Skew" column.
    pub fn density_skew(&self) -> f64 {
        let degrees = self.total_degrees();
        eh_skew(&degrees)
    }

    /// Standardized third-moment skewness `E[(d−μ)³]/σ³` of the degree
    /// distribution. Unlike Pearson's first coefficient this is monotone in
    /// tail heaviness, so generator tests use it; Table 3 reports
    /// [`Graph::density_skew`] for fidelity with the paper.
    pub fn degree_skewness(&self) -> f64 {
        let degrees = self.total_degrees();
        if degrees.is_empty() {
            return 0.0;
        }
        let n = degrees.len() as f64;
        let mean = degrees.iter().map(|&v| v as f64).sum::<f64>() / n;
        let m2 = degrees
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        let m3 = degrees
            .iter()
            .map(|&v| (v as f64 - mean).powi(3))
            .sum::<f64>()
            / n;
        if m2 == 0.0 {
            return 0.0;
        }
        m3 / m2.powf(1.5)
    }

    /// Node with the maximum total degree (the paper's SSSP start node).
    pub fn max_degree_node(&self) -> u32 {
        let deg = self.total_degrees();
        deg.iter()
            .enumerate()
            .max_by_key(|(_, &d)| d)
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }
}

/// Pearson's first skewness coefficient `3(mean − mode)/σ` of a sample.
fn eh_skew(sample: &[u32]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let n = sample.len() as f64;
    let mean = sample.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = sample
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let sd = var.sqrt();
    if sd == 0.0 {
        return 0.0;
    }
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &v in sample {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mode = counts
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&v, _)| v as f64)
        .unwrap();
    3.0 * (mean - mode) / sd
}

/// Compressed sparse row adjacency (sorted neighbor runs).
#[derive(Clone, Debug)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`.
    pub offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    pub neighbors: Vec<u32>,
}

impl Csr {
    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // Triangle 0-1-2 plus pendant 2-3.
        Graph::from_dense(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn from_edges_remaps_and_dedups() {
        let g = Graph::from_edges(vec![(10, 20), (20, 10), (10, 20), (7, 7)]);
        assert_eq!(g.num_nodes, 2);
        assert_eq!(g.num_edges(), 2, "self-loop dropped, dup collapsed");
    }

    #[test]
    fn symmetrize_doubles() {
        let g = toy();
        let u = g.symmetrize();
        assert_eq!(u.num_edges(), 8);
        assert!(u.edges.contains(&(1, 0)));
        // Symmetrizing twice is idempotent.
        assert_eq!(u.symmetrize().num_edges(), 8);
    }

    #[test]
    fn degrees_and_max_degree_node() {
        let g = toy().symmetrize();
        let deg = g.degrees();
        assert_eq!(deg, vec![2, 2, 3, 1]);
        assert_eq!(g.max_degree_node(), 2);
    }

    #[test]
    fn tuple_buffer_matches_edge_list() {
        let g = toy();
        let buf = g.tuple_buffer();
        assert_eq!(buf.arity(), 2);
        assert_eq!(buf.len(), g.num_edges());
        for (row, &(s, d)) in buf.iter().zip(&g.edges) {
            assert_eq!(row, &[s, d]);
        }
    }

    #[test]
    fn csr_roundtrip() {
        let g = toy();
        let csr = g.to_csr();
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(2), &[3]);
        assert_eq!(csr.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn prune_preserves_triangle_structure() {
        let g = toy().symmetrize();
        let p = g.prune_by_degree();
        // Undirected triangle has 3 pruned edges + pendant = 4 total.
        assert_eq!(p.num_edges(), 4);
        for &(s, d) in &p.edges {
            assert!(s > d);
        }
    }

    #[test]
    fn tsv_parsing() {
        let input = "# comment\n0 1\n1 2\nbad line\n2 0\n";
        let g = Graph::from_tsv(std::io::Cursor::new(input)).unwrap();
        assert_eq!(g.num_nodes, 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_loader_matches_from_tsv() {
        let input = "# comment\n0 1\n1 2\nbad line\n2 0\n2 2\n";
        let via_storage = Graph::from_edge_list(
            std::io::Cursor::new(input),
            &eh_storage::CsvOptions::edge_list().skip_malformed(),
        )
        .unwrap();
        let via_tsv = Graph::from_tsv(std::io::Cursor::new(input)).unwrap();
        assert_eq!(via_storage.num_nodes, via_tsv.num_nodes);
        assert_eq!(via_storage.edges, via_tsv.edges);
    }

    #[test]
    fn edge_list_loader_remaps_64bit_ids() {
        let input = "99999999999 7\n7 99999999999\n";
        let g = Graph::from_edge_list(
            std::io::Cursor::new(input),
            &eh_storage::CsvOptions::edge_list(),
        )
        .unwrap();
        assert_eq!(g.num_nodes, 2);
        assert_eq!(g.edges, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn edge_list_loader_strict_mode_errors() {
        let input = "0 1\nbad line\n";
        assert!(Graph::from_edge_list(
            std::io::Cursor::new(input),
            &eh_storage::CsvOptions::edge_list(),
        )
        .is_err());
    }

    #[test]
    fn skew_of_star_is_positive() {
        // Star: hub has high degree, leaves degree 1 → right-skewed.
        let edges: Vec<(u32, u32)> = (1..50).map(|i| (0, i)).collect();
        let g = Graph::from_dense(50, edges).symmetrize();
        assert!(g.density_skew() > 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::default();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density_skew(), 0.0);
        assert_eq!(g.max_degree_node(), 0);
    }
}
