//! Trie construction (paper Figure 2, right-hand side).
//!
//! Rows arrive in a flat columnar [`TupleBuffer`], are sorted
//! lexicographically in the chosen attribute (index) order via the
//! buffer's radix pass (duplicates collapsed, annotations combined with
//! the aggregate's `⊕`), and the sorted run is recursively grouped into
//! nested distinct-value sets — all over borrowed views into one flat
//! allocation. The [`eh_set::LayoutPolicy`] decides each set's physical
//! layout.

use crate::tuple::TupleBuffer;
use crate::{NodeId, Trie, TrieNode};
use eh_semiring::{AggOp, DynValue};
use eh_set::LayoutPolicy;

/// Builder for [`Trie`]s.
#[derive(Clone, Debug)]
pub struct TrieBuilder {
    arity: usize,
    policy: LayoutPolicy,
    /// How to combine annotations of duplicate tuples.
    combine: AggOp,
    /// Worker threads for the sort phase (1 = serial).
    threads: usize,
}

impl TrieBuilder {
    /// New builder for relations of the given arity.
    pub fn new(arity: usize) -> TrieBuilder {
        TrieBuilder {
            arity,
            policy: LayoutPolicy::SetLevel,
            combine: AggOp::Sum,
            threads: 1,
        }
    }

    /// Set the layout policy (default: set-level optimizer).
    pub fn policy(mut self, policy: LayoutPolicy) -> TrieBuilder {
        self.policy = policy;
        self
    }

    /// Set the duplicate-annotation combiner (default: SUM).
    pub fn combine(mut self, op: AggOp) -> TrieBuilder {
        self.combine = op;
        self
    }

    /// Set the sort-phase thread count (default 1). The build chunks the
    /// input across `std::thread::scope` workers and merges sorted runs.
    pub fn threads(mut self, threads: usize) -> TrieBuilder {
        self.threads = threads.max(1);
        self
    }

    /// Build an unannotated trie from per-row tuples (convenience seam
    /// for tests/examples; hot paths use [`TrieBuilder::build_buffer`]).
    /// Per-row arity is asserted by the buffer conversion.
    pub fn build<R: AsRef<[u32]>>(&self, rows: &[R]) -> Trie {
        self.build_buffer(&TupleBuffer::from_rows(self.arity, rows))
    }

    /// Build an annotated trie from per-row tuples and parallel values.
    pub fn build_annotated<R: AsRef<[u32]>>(&self, rows: &[R], annots: &[DynValue]) -> Trie {
        self.build_buffer(&TupleBuffer::from_annotated_rows(
            self.arity,
            rows,
            annots.to_vec(),
        ))
    }

    /// Build a trie from a flat columnar buffer — the engine's path. The
    /// buffer's annotation column (if any) becomes trie annotations.
    /// Canonical (strictly ascending) input — every executor result and
    /// recursion frontier — is grouped in place, without a sorted copy.
    pub fn build_buffer(&self, tuples: &TupleBuffer) -> Trie {
        if tuples.is_strictly_sorted() {
            self.build_sorted(tuples)
        } else {
            self.build_sorted(&tuples.sorted_dedup_parallel(self.combine, self.threads))
        }
    }

    /// [`TrieBuilder::build_buffer`] of a buffer the caller is done with
    /// (a relation's reordered copy): a serial build sorts it in place
    /// instead of sorting a second copy.
    pub fn build_owned(&self, tuples: TupleBuffer) -> Trie {
        if self.threads == 1 {
            self.build_sorted(&tuples.into_sorted_dedup(self.combine))
        } else {
            self.build_buffer(&tuples)
        }
    }

    /// Group canonical rows into the nested sets of a trie.
    fn build_sorted(&self, sorted: &TupleBuffer) -> Trie {
        assert_eq!(sorted.arity(), self.arity, "buffer arity mismatch");
        if sorted.is_empty() || self.arity == 0 {
            return Trie::empty(self.arity);
        }
        let tuple_count = sorted.len();
        // One carrier for the whole trie's raw annotation columns: f64 as
        // soon as any annotation is one (integers convert exactly enough,
        // floats would truncate).
        let float = sorted
            .annotations()
            .map(|annots| annots.iter().any(|a| a.is_float()));
        let mut nodes: Vec<TrieNode> = Vec::new();
        // Reserve the root slot.
        nodes.push(TrieNode {
            set: eh_set::Set::empty(),
            children: Vec::new(),
            annots: Vec::new(),
        });
        self.build_level(
            sorted,
            float == Some(true),
            0,
            0,
            tuple_count,
            0,
            &mut nodes,
        );
        Trie::from_arena(self.arity, nodes, tuple_count, float)
    }

    /// Build the node for sorted rows `lo..hi` at attribute `level`,
    /// writing into arena slot `slot`. Rows in the range share a prefix of
    /// length `level`. Leaf annotations are stored raw, as `f64` bits when
    /// `float`.
    #[allow(clippy::too_many_arguments)]
    fn build_level(
        &self,
        sorted: &TupleBuffer,
        float: bool,
        level: usize,
        lo: usize,
        hi: usize,
        slot: usize,
        nodes: &mut Vec<TrieNode>,
    ) {
        let is_leaf = level + 1 == self.arity;
        // Gather distinct values and their sub-ranges straight off the
        // flat buffer — no per-row indirection.
        let flat = sorted.flat();
        let arity = self.arity;
        let mut values: Vec<u32> = Vec::new();
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut i = lo;
        while i < hi {
            let v = flat[i * arity + level];
            let mut j = i + 1;
            while j < hi && flat[j * arity + level] == v {
                j += 1;
            }
            values.push(v);
            ranges.push((i, j));
            i = j;
        }
        let mut node = TrieNode {
            set: self.policy.build(&values),
            children: Vec::new(),
            annots: Vec::new(),
        };
        if is_leaf {
            if let Some(annots) = sorted.annotations() {
                // One annotation per distinct leaf value: ⊕ over duplicates
                // (duplicates were already collapsed, so each range is 1).
                node.annots = ranges
                    .iter()
                    .map(|&(a, b)| {
                        let mut acc = annots[a];
                        for k in a + 1..b {
                            acc = self.combine.plus(acc, annots[k]);
                        }
                        if float {
                            acc.as_f64().to_bits()
                        } else {
                            acc.as_u64()
                        }
                    })
                    .collect();
            }
            nodes[slot] = node;
        } else {
            // Allocate child slots first so ids are stable.
            let first_child = nodes.len() as NodeId;
            for _ in 0..values.len() {
                nodes.push(TrieNode {
                    set: eh_set::Set::empty(),
                    children: Vec::new(),
                    annots: Vec::new(),
                });
            }
            node.children = (0..values.len() as u32).map(|k| first_child + k).collect();
            nodes[slot] = node;
            for (k, &(a, b)) in ranges.iter().enumerate() {
                self.build_level(
                    sorted,
                    float,
                    level + 1,
                    a,
                    b,
                    (first_child + k as u32) as usize,
                    nodes,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotated_build_figure2() {
        // Paper Figure 2: Manages(managerID, employeeID) annotated with
        // employeeRating, after dictionary encoding.
        let rows = vec![vec![0, 4], vec![1, 0], vec![0, 3], vec![2, 1]];
        let annots = vec![
            DynValue::F64(1.7),
            DynValue::F64(3.8),
            DynValue::F64(9.5),
            DynValue::F64(6.4),
        ];
        let t = TrieBuilder::new(2).build_annotated(&rows, &annots);
        assert!(t.is_annotated());
        assert_eq!(t.annotation(&[0, 3]), Some(DynValue::F64(9.5)));
        assert_eq!(t.annotation(&[0, 4]), Some(DynValue::F64(1.7)));
        assert_eq!(t.annotation(&[1, 0]), Some(DynValue::F64(3.8)));
        assert_eq!(t.annotation(&[2, 1]), Some(DynValue::F64(6.4)));
        assert_eq!(t.annotation(&[2, 9]), None);
    }

    #[test]
    fn buffer_build_matches_row_build() {
        let rows = vec![vec![0, 4], vec![1, 0], vec![0, 3], vec![2, 1], vec![1, 0]];
        let via_rows = TrieBuilder::new(2).build(&rows);
        let via_buffer = TrieBuilder::new(2).build_buffer(&TupleBuffer::from_rows(2, &rows));
        assert_eq!(via_rows.scan(), via_buffer.scan());
        assert_eq!(via_rows.tuple_count(), via_buffer.tuple_count());
    }

    #[test]
    fn parallel_build_matches_serial() {
        let rows: Vec<Vec<u32>> = (0..500u32)
            .map(|i| vec![i.wrapping_mul(2654435761) % 40, i % 23])
            .collect();
        let serial = TrieBuilder::new(2).build(&rows);
        let parallel = TrieBuilder::new(2).threads(4).build(&rows);
        assert_eq!(serial.scan(), parallel.scan());
    }

    #[test]
    fn owned_build_matches_borrowed_build() {
        let rows: Vec<Vec<u32>> = (0..500u32)
            .map(|i| vec![i.wrapping_mul(2654435761) % 40, i % 23])
            .collect();
        let annots: Vec<DynValue> = (0..500).map(|i| DynValue::U64(i % 7)).collect();
        for threads in [1, 3] {
            let builder = TrieBuilder::new(2).combine(AggOp::Count).threads(threads);
            for buf in [
                TupleBuffer::from_rows(2, &rows),
                TupleBuffer::from_annotated_rows(2, &rows, annots.clone()),
            ] {
                let borrowed = builder.build_buffer(&buf);
                assert_eq!(builder.build_owned(buf).scan(), borrowed.scan());
            }
        }
    }

    #[test]
    fn duplicate_annotations_combine_with_plus() {
        let rows = vec![vec![1, 2], vec![1, 2]];
        let annots = vec![DynValue::F64(2.0), DynValue::F64(3.0)];
        let t = TrieBuilder::new(2)
            .combine(AggOp::Sum)
            .build_annotated(&rows, &annots);
        assert_eq!(t.tuple_count(), 1);
        assert_eq!(t.annotation(&[1, 2]), Some(DynValue::F64(5.0)));
    }

    #[test]
    fn duplicate_annotations_min() {
        let rows = vec![vec![1, 2], vec![1, 2], vec![1, 2]];
        let annots = vec![DynValue::U64(7), DynValue::U64(3), DynValue::U64(5)];
        let t = TrieBuilder::new(2)
            .combine(AggOp::Min)
            .build_annotated(&rows, &annots);
        assert_eq!(t.annotation(&[1, 2]), Some(DynValue::U64(3)));
    }

    #[test]
    fn unannotated_scan_has_no_values() {
        let rows = vec![vec![1, 2], vec![3, 4]];
        let t = TrieBuilder::new(2).build(&rows);
        assert!(!t.is_annotated());
        for (_, a) in t.scan() {
            assert!(a.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let rows = vec![vec![1, 2, 3]];
        TrieBuilder::new(2).build(&rows);
    }

    #[test]
    #[should_panic(expected = "one annotation per row")]
    fn annotation_length_mismatch_panics() {
        let rows = vec![vec![1, 2]];
        TrieBuilder::new(2).build_annotated(&rows, &[]);
    }

    #[test]
    fn forced_uint_policy() {
        let rows: Vec<Vec<u32>> = (0..1000u32).map(|i| vec![0, i]).collect();
        let t = TrieBuilder::new(2)
            .policy(LayoutPolicy::Fixed(eh_set::LayoutKind::Uint))
            .build(&rows);
        let (uint, bitset, block) = t.layout_census();
        assert_eq!(bitset + block, 0);
        assert_eq!(uint, 2);
    }
}
