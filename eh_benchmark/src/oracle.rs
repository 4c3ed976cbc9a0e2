//! The answer oracle: every statement's expected answer, computed on
//! whatever `--seed` produced by a path that shares nothing with the
//! engine — scalar merges over plain CSR adjacency and the closed forms
//! that follow from per-node triangle counts. No count is hard-coded.
//!
//! Conventions (they mirror the query texts in `workloads/`): an
//! *undirected* graph stores both directions of every edge, and a join
//! variable may bind any node, so `ordered_triangles[x]` counts ordered
//! pairs `(y, z)` with `x–y`, `y–z`, `x–z` — twice the triangles at `x`.

use crate::api::Csr;
use crate::stats::Fnv;

/// What a timed operation returned, reduced to two words: a scalar is
/// `(1, value)`, a row set is `(row count, FNV-1a of the rows in order)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    pub fn scalar(v: u64) -> Digest {
        Digest { rows: 1, hash: v }
    }

    /// Digest of rows of `arity` columns laid out row after row.
    pub fn of_flat(arity: usize, flat: &[u32]) -> Digest {
        let mut h = Fnv::new();
        for &w in flat {
            h.word(w);
        }
        Digest {
            rows: (flat.len() / arity.max(1)) as u64,
            hash: h.finish(),
        }
    }

    /// Digest of a vector of floats, bit for bit.
    pub fn of_f64(values: &[f64]) -> Digest {
        let mut h = Fnv::new();
        for v in values {
            h.word64(v.to_bits());
        }
        Digest {
            rows: values.len() as u64,
            hash: h.finish(),
        }
    }
}

/// Incremental row digest, for answers produced row by row.
pub struct RowDigest {
    rows: u64,
    hash: Fnv,
}

impl RowDigest {
    pub fn new() -> RowDigest {
        RowDigest {
            rows: 0,
            hash: Fnv::new(),
        }
    }

    #[inline]
    pub fn row(&mut self, row: &[u32]) {
        self.rows += 1;
        for &w in row {
            self.hash.word(w);
        }
    }

    pub fn finish(self) -> Digest {
        Digest {
            rows: self.rows,
            hash: self.hash.finish(),
        }
    }
}

fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn nodes(csr: &Csr) -> std::ops::Range<u32> {
    0..csr.num_nodes() as u32
}

/// Per node `x`: ordered pairs `(y, z)` with `x→y`, `y→z`, `x→z`.
pub fn ordered_triangles(csr: &Csr) -> Vec<u64> {
    nodes(csr)
        .map(|x| {
            let nx = csr.neighbors(x);
            nx.iter().map(|&y| merge_count(nx, csr.neighbors(y))).sum()
        })
        .collect()
}

/// Per node `x`: ordered triples `(y, z, u)` closing a 4-clique along the
/// stored edge directions (`x→y, y→z, x→z, x→u, y→u, z→u`).
pub fn ordered_four_cliques(csr: &Csr) -> Vec<u64> {
    let mut xy = Vec::new();
    nodes(csr)
        .map(|x| {
            let nx = csr.neighbors(x);
            let mut n = 0u64;
            for &y in nx {
                merge_into(nx, csr.neighbors(y), &mut xy);
                for &z in &xy {
                    n += merge_count(&xy, csr.neighbors(z));
                }
            }
            n
        })
        .collect()
}

/// `COUNT(*)` of `E(x,y),E(y,z)`: every edge extended by every out-edge
/// of its head.
pub fn two_paths(csr: &Csr) -> u64 {
    csr.neighbors
        .iter()
        .map(|&y| csr.neighbors(y).len() as u64)
        .sum()
}

/// `COUNT(*)` of `E(x,y),E(y,z),E(z,u)` with `x` fixed.
pub fn three_paths_from(csr: &Csr, x: u32) -> u64 {
    csr.neighbors(x)
        .iter()
        .flat_map(|&y| csr.neighbors(y))
        .map(|&z| csr.neighbors(z).len() as u64)
        .sum()
}

/// `COUNT(*)` of the lollipop `E(x,y),E(y,z),E(x,z),E(x,u)`.
pub fn lollipops(csr: &Csr, tri: &[u64]) -> u64 {
    nodes(csr)
        .map(|x| tri[x as usize] * csr.neighbors(x).len() as u64)
        .sum()
}

/// `COUNT(*)` of the barbell: a triangle at `x`, a bridge `x→a`, a
/// triangle at `a`.
pub fn barbells(csr: &Csr, tri: &[u64]) -> u64 {
    nodes(csr)
        .map(|x| tri[x as usize] * bridged(csr, tri, x))
        .sum()
}

/// Sum of `tri[a]` over the out-neighbours `a` of `x`.
pub fn bridged(csr: &Csr, tri: &[u64], x: u32) -> u64 {
    csr.neighbors(x).iter().map(|&a| tri[a as usize]).sum()
}

/// Rows of `T(x,y,z) :- E(x,y),E(y,z),E(x,z)` in the engine's output
/// order (ascending, lexicographic).
pub fn triangle_rows(csr: &Csr) -> Digest {
    let mut d = RowDigest::new();
    let mut zs = Vec::new();
    for x in nodes(csr) {
        let nx = csr.neighbors(x);
        for &y in nx {
            merge_into(nx, csr.neighbors(y), &mut zs);
            for &z in &zs {
                d.row(&[x, y, z]);
            }
        }
    }
    d.finish()
}

/// Rows of `H(x,z) :- E(x,y),E(y,z)` (distinct pairs, ascending).
pub fn two_hop_rows(csr: &Csr) -> Digest {
    let mut d = RowDigest::new();
    let mut zs: Vec<u32> = Vec::new();
    for x in nodes(csr) {
        two_hop_of(csr, x, &mut zs);
        for &z in &zs {
            d.row(&[x, z]);
        }
    }
    d.finish()
}

/// Distinct 2-hop neighbourhood of one node, ascending.
pub fn two_hop_of(csr: &Csr, x: u32, out: &mut Vec<u32>) {
    out.clear();
    for &y in csr.neighbors(x) {
        out.extend_from_slice(csr.neighbors(y));
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Graph;

    fn complete(n: u32) -> Graph {
        let mut e = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    e.push((a, b));
                }
            }
        }
        Graph::from_dense(n, e)
    }

    #[test]
    fn closed_forms_on_k4_match_the_engine_crate_tests() {
        // K4, both directions: the same totals `eh_core::algorithms`
        // asserts (lollipop 72, barbell 432) and 4! ordered 4-cliques.
        let csr = complete(4).to_csr();
        let tri = ordered_triangles(&csr);
        assert_eq!(tri, vec![6; 4]);
        assert_eq!(lollipops(&csr, &tri), 72);
        assert_eq!(barbells(&csr, &tri), 432);
        assert_eq!(ordered_four_cliques(&csr).iter().sum::<u64>(), 24);
        assert_eq!(two_paths(&csr), 4 * 3 * 3);
        assert_eq!(three_paths_from(&csr, 0), 3 * 3 * 3);
    }

    #[test]
    fn pruned_graph_counts_each_clique_once() {
        let pruned = complete(6).prune_by_degree().to_csr();
        assert_eq!(ordered_triangles(&pruned).iter().sum::<u64>(), 20);
        assert_eq!(ordered_four_cliques(&pruned).iter().sum::<u64>(), 15);
        assert_eq!(triangle_rows(&pruned).rows, 20);
    }

    #[test]
    fn row_digests_depend_on_content_and_order() {
        assert_eq!(Digest::of_flat(2, &[1, 2, 3, 4]).rows, 2);
        assert_ne!(
            Digest::of_flat(2, &[1, 2, 3, 4]),
            Digest::of_flat(2, &[3, 4, 1, 2])
        );
        let mut d = RowDigest::new();
        d.row(&[1, 2]);
        d.row(&[3, 4]);
        assert_eq!(d.finish(), Digest::of_flat(2, &[1, 2, 3, 4]));
        assert_ne!(Digest::scalar(5), Digest::scalar(6));
        let mut zs = Vec::new();
        two_hop_of(&complete(3).to_csr(), 0, &mut zs);
        assert_eq!(zs, vec![0, 1, 2]);
    }
}
