//! Relations and catalogs: the executor's view of stored data.
//!
//! A [`Relation`] owns its tuples as one flat columnar [`TupleBuffer`]
//! (dictionary-encoded u32 values, stride = arity, optional annotation
//! column) and lazily materializes [`eh_trie::Trie`]s per column order —
//! the paper stores "both orders for each edge relation" (§2.2 "Column
//! (Index) Order"); we generalize to caching any requested order.
//!
//! A cached trie is written once, when its `(order, policy)` is first
//! requested, and never replaced: each set's layout is the one the
//! [`LayoutPolicy`] picked from its density at build time (§4.3), so the
//! kernels a query runs depend on the data and the config, never on which
//! queries ran before it.

use eh_ghd::RelationStats;
use eh_semiring::{AggOp, DynValue};
use eh_set::LayoutPolicy;
use eh_trie::{Trie, TrieBuilder, TrieNode, TupleBuffer};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A stored relation: a flat tuple buffer + trie cache.
#[derive(Debug)]
pub struct Relation {
    tuples: TupleBuffer,
    /// ⊕ used to combine duplicate-tuple annotations.
    combine: AggOp,
    tries: RwLock<TrieCache>,
    /// Per-column distinct count, Σf² and largest id, filled
    /// opportunistically at trie build (the root of a trie ordered
    /// `[c, ...]` holds exactly column `c`'s distinct values, and the
    /// tuples below each of them) and on demand otherwise. A
    /// `Relation`'s tuples are immutable — catalog mutations replace the
    /// whole relation — so the cache can never go stale; the database's
    /// epoch machinery invalidates at that granularity.
    columns: RwLock<Vec<Option<ColumnExtent>>>,
}

/// What one column's id space looks like: how many distinct ids it holds,
/// how skewed their frequencies are, and the largest of them. The planner
/// reads `distinct` and `freq_sq`; the executor compares `distinct` with
/// `max` to decide whether a group-by keyed on the column can fold into a
/// flat id-indexed array (see [`crate::plan_sink_kinds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnExtent {
    /// Number of distinct ids in the column.
    pub distinct: u64,
    /// Σf²: over the column's ids, each id's number of stored tuples,
    /// squared (see [`RelationStats::freq_sq`]).
    pub freq_sq: u64,
    /// Largest id in the column.
    pub max: u32,
}

/// Cache of materialized tries, keyed by attribute order + layout policy.
type TrieCache = HashMap<(Vec<usize>, LayoutPolicy), Arc<Trie>>;

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            tuples: self.tuples.clone(),
            combine: self.combine,
            tries: RwLock::new(self.tries.read().clone()),
            columns: RwLock::new(self.columns.read().clone()),
        }
    }
}

impl Relation {
    /// Relation over a flat tuple buffer — the engine's primary
    /// constructor; annotations travel inside the buffer.
    pub fn from_buffer(tuples: TupleBuffer, combine: AggOp) -> Relation {
        let arity = tuples.arity();
        Relation {
            tuples,
            combine,
            tries: RwLock::new(HashMap::new()),
            columns: RwLock::new(vec![None; arity]),
        }
    }

    /// A scalar relation (arity 0) holding one annotation value.
    pub fn new_scalar(value: DynValue) -> Relation {
        let mut tuples = TupleBuffer::nullary(1);
        tuples.set_annotations(vec![value]);
        Relation::from_buffer(tuples, AggOp::Sum)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.tuples.arity()
    }

    /// The ⊕ used to combine duplicate-tuple annotations.
    pub fn combine(&self) -> AggOp {
        self.combine
    }

    /// The stored tuples (flat columnar buffer; iterate for row views).
    pub fn rows(&self) -> &TupleBuffer {
        &self.tuples
    }

    /// Parallel annotations, if any.
    pub fn annotations(&self) -> Option<&[DynValue]> {
        self.tuples.annotations()
    }

    /// Whether tuples carry annotation values.
    pub fn is_annotated(&self) -> bool {
        self.tuples.is_annotated()
    }

    /// Number of rows (before dedup).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// For a scalar (arity-0) relation: its single value.
    pub fn scalar_value(&self) -> Option<DynValue> {
        if self.arity() == 0 && !self.tuples.is_empty() {
            self.tuples.annot(0)
        } else {
            None
        }
    }

    /// Alias of [`Relation::scalar_value`], also usable for 0-ary results.
    pub fn scalar(&self) -> Option<DynValue> {
        self.scalar_value()
    }

    /// Trie of this relation with columns permuted by `order`
    /// (`order[level] = source column`), cached per `(order, policy)`.
    /// Builds serially; the executor passes its worker count through
    /// [`Relation::trie_threads`].
    pub fn trie(&self, order: &[usize], policy: LayoutPolicy) -> Arc<Trie> {
        self.trie_threads(order, policy, 1)
    }

    /// [`Relation::trie`] with the construction sort fanned out across
    /// `threads` workers (cache misses only; the result is identical).
    pub fn trie_threads(&self, order: &[usize], policy: LayoutPolicy, threads: usize) -> Arc<Trie> {
        assert_eq!(order.len(), self.arity(), "order must cover all columns");
        let key = (order.to_vec(), policy);
        if let Some(t) = self.tries.read().get(&key) {
            return Arc::clone(t);
        }
        let reordered = self.tuples.reorder(order);
        let builder = TrieBuilder::new(self.arity())
            .policy(policy)
            .combine(self.combine)
            .threads(threads);
        let trie = Arc::new(builder.build_owned(reordered));
        // Opportunistic stats seeding: the root set of this trie holds
        // exactly the distinct values of the order's first source column,
        // and the tuples below each one are its frequency — unless the
        // build merged duplicate rows, which the column scan counts. Then
        // the scan computes the extent, so either way the statistics are
        // the same whichever trie was built first.
        if let (Some(&first), Some(max)) = (order.first(), trie.root().set.max()) {
            if trie.tuple_count() == self.len() {
                self.columns.write()[first].get_or_insert_with(|| ColumnExtent {
                    distinct: trie.root().set.len() as u64,
                    freq_sq: root_freq_sq(&trie),
                    max,
                });
            }
        }
        // Two sessions may miss at once; the first build to land wins, so a
        // cached trie is never replaced.
        Arc::clone(self.tries.write().entry(key).or_insert(trie))
    }

    /// Planner statistics: row count plus per-column distinct counts and
    /// Σf². Both are cached — seeded at trie build where possible,
    /// computed by a one-off column scan otherwise — so repeated calls
    /// (one per atom per planning pass) are O(columns) lookups.
    pub fn stats(&self) -> RelationStats {
        let extents: Vec<Option<ColumnExtent>> =
            (0..self.arity()).map(|c| self.column_extent(c)).collect();
        RelationStats {
            cardinality: self.tuples.len() as u64,
            distinct: extents
                .iter()
                .map(|e| e.map_or(0, |e| e.distinct))
                .collect(),
            freq_sq: extents.iter().map(|e| e.map_or(0, |e| e.freq_sq)).collect(),
        }
    }

    /// Distinct count, Σf² and largest id of one column (cached, see
    /// [`Relation::stats`]). `None` for an out-of-range column or an empty
    /// relation.
    pub fn column_extent(&self, column: usize) -> Option<ColumnExtent> {
        if column >= self.arity() || self.tuples.is_empty() {
            return None;
        }
        if let Some(extent) = self.columns.read()[column] {
            return Some(extent);
        }
        let mut vals: Vec<u32> = self
            .tuples
            .flat()
            .iter()
            .skip(column)
            .step_by(self.arity())
            .copied()
            .collect();
        vals.sort_unstable();
        let max = *vals.last()?;
        let (mut distinct, mut freq_sq) = (0u64, 0u64);
        for run in vals.chunk_by(|a, b| a == b) {
            distinct += 1;
            freq_sq = freq_sq.saturating_add((run.len() as u64).pow(2));
        }
        let extent = ColumnExtent {
            distinct,
            freq_sq,
            max,
        };
        self.columns.write()[column] = Some(extent);
        Some(extent)
    }

    /// Distinct count of one column (cached, see [`Relation::stats`]).
    pub fn column_distinct(&self, column: usize) -> Option<u64> {
        if column >= self.arity() {
            return None;
        }
        Some(self.column_extent(column).map_or(0, |e| e.distinct))
    }
}

/// Σf² of a trie's first column: the number of tuples below each root
/// value, squared and summed.
fn root_freq_sq(trie: &Trie) -> u64 {
    fn tuples_below(trie: &Trie, node: &TrieNode, depth: usize) -> u64 {
        if depth + 1 >= trie.arity() {
            return node.set.len() as u64;
        }
        let below = |&c: &u32| tuples_below(trie, trie.node(c), depth + 1);
        node.children.iter().map(below).sum()
    }
    let root = trie.root();
    if trie.arity() == 1 {
        return root.set.len() as u64;
    }
    let squared = |&c: &u32| tuples_below(trie, trie.node(c), 1).pow(2);
    root.children.iter().map(squared).sum()
}

/// The executor's access to named relations and constant resolution.
pub trait Catalog: Sync {
    /// Look up a relation by name.
    fn relation(&self, name: &str) -> Option<&Relation>;

    /// Resolve a query-text constant (e.g. `'alice'` or `'42'`) appearing
    /// at column `column` of `relation` to its dictionary-encoded id.
    /// Typed catalogs consult the column's dictionary domain (so
    /// `Follows('alice', x)` encodes `alice` through the same dictionary
    /// the loader used). `None` means the key cannot match — the executor
    /// turns the atom into an empty result.
    fn resolve_const_at(&self, relation: &str, column: usize, text: &str) -> Option<u32>;
}

/// The planner reads a catalog's statistics through this impl, so
/// `eh_ghd` stays ignorant of executor types: O(1) after the relation's
/// first computation (see [`Relation::stats`]).
impl eh_ghd::StatsSource for &dyn Catalog {
    fn stats(&self, name: &str) -> Option<RelationStats> {
        self.relation(name).map(Relation::stats)
    }
}

/// A simple in-memory catalog.
#[derive(Default)]
pub struct MemCatalog {
    relations: HashMap<String, Relation>,
    constants: HashMap<String, u32>,
}

impl MemCatalog {
    /// Empty catalog.
    pub fn new() -> MemCatalog {
        MemCatalog::default()
    }

    /// Insert or replace a relation.
    pub fn insert(&mut self, name: &str, rel: Relation) {
        self.relations.insert(name.to_string(), rel);
    }

    /// Register a named constant (dictionary entry) for selections.
    pub fn define_const(&mut self, text: &str, id: u32) {
        self.constants.insert(text.to_string(), id);
    }

    /// Remove a relation.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Iterate relation names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Resolve a query-text constant through the named constants, else
    /// as an integer.
    pub fn resolve_const(&self, text: &str) -> Option<u32> {
        self.constants
            .get(text)
            .copied()
            .or_else(|| text.parse().ok())
    }
}

/// Untyped: every column resolves through [`MemCatalog::resolve_const`].
impl Catalog for MemCatalog {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    fn resolve_const_at(&self, _relation: &str, _column: usize, text: &str) -> Option<u32> {
        self.resolve_const(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_caching_and_reordering() {
        let r = Relation::from_buffer(
            TupleBuffer::from_rows(2, &[vec![1, 10], vec![2, 20], vec![1, 30]]),
            AggOp::Sum,
        );
        let fwd = r.trie(&[0, 1], LayoutPolicy::SetLevel);
        let fwd2 = r.trie(&[0, 1], LayoutPolicy::SetLevel);
        assert!(Arc::ptr_eq(&fwd, &fwd2), "cache hit");
        assert_eq!(fwd.select(&[1]).unwrap().to_vec(), vec![10, 30]);
        let rev = r.trie(&[1, 0], LayoutPolicy::SetLevel);
        assert_eq!(rev.select(&[10]).unwrap().to_vec(), vec![1]);
        assert_eq!(rev.root().set.to_vec(), vec![10, 20, 30]);
    }

    #[test]
    fn concurrent_misses_share_the_first_build() {
        // Four sessions miss on the same order at once; each builds, but
        // only the first build is cached and every caller gets that one.
        let data: Vec<u32> = (0..400_000u32).flat_map(|i| [i % 997, i]).collect();
        let r = Relation::from_buffer(TupleBuffer::from_flat(2, data), AggOp::Count);
        let barrier = std::sync::Barrier::new(4);
        let tries: Vec<Arc<Trie>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        r.trie(&[1, 0], LayoutPolicy::SetLevel)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let cached = r.trie(&[1, 0], LayoutPolicy::SetLevel);
        for t in &tries {
            assert!(Arc::ptr_eq(t, &cached), "a cached trie was replaced");
        }
    }

    #[test]
    fn policies_cached_separately() {
        let rows: Vec<Vec<u32>> = (0..600u32).map(|i| vec![0, i]).collect();
        let r = Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum);
        let auto = r.trie(&[0, 1], LayoutPolicy::SetLevel);
        let uint = r.trie(&[0, 1], LayoutPolicy::Fixed(eh_set::LayoutKind::Uint));
        assert_ne!(auto.layout_census(), uint.layout_census());
    }

    #[test]
    fn annotated_relation_roundtrip() {
        let r = Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                1,
                &[vec![3], vec![5]],
                vec![DynValue::F64(0.5), DynValue::F64(0.25)],
            ),
            AggOp::Sum,
        );
        let t = r.trie(&[0], LayoutPolicy::SetLevel);
        assert_eq!(t.annotation(&[3]), Some(DynValue::F64(0.5)));
        assert_eq!(t.annotation(&[5]), Some(DynValue::F64(0.25)));
    }

    #[test]
    fn scalar_relation() {
        let r = Relation::new_scalar(DynValue::U64(42));
        assert_eq!(r.arity(), 0);
        assert_eq!(r.scalar_value(), Some(DynValue::U64(42)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn stats_scan_and_trie_seed_agree() {
        // Column 0 has 2 distinct values, column 1 has 4; one duplicate
        // row. Σf² counts stored rows: 3² + 2² and 2² + 1 + 1 + 1.
        let rows = [
            vec![1, 10],
            vec![2, 20],
            vec![1, 30],
            vec![2, 40],
            vec![1, 10],
        ];
        let fresh = || Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum);
        let scanned = fresh().stats();
        assert_eq!(scanned.cardinality, 5);
        assert_eq!(scanned.distinct, vec![2, 4]);
        assert_eq!(scanned.freq_sq, vec![13, 7]);
        // A fresh relation whose tries were built first reports the same
        // statistics in either build order: the builds merged the
        // duplicate row, so they leave Σf² to the scan.
        for orders in [[[0, 1], [1, 0]], [[1, 0], [0, 1]]] {
            let r = fresh();
            for order in orders {
                r.trie(&order, LayoutPolicy::SetLevel);
            }
            assert_eq!(r.stats(), scanned);
            assert_eq!(r.column_distinct(0), Some(2));
            assert_eq!(r.column_distinct(2), None);
        }
        // Without duplicates the builds seed every column they lead, and
        // the seeds equal the scan, for binary and ternary tries alike.
        for arity in [2, 3] {
            let flat: Vec<u32> = (0..60u32)
                .flat_map(|i| [i % 7, i, i % 5][..arity].to_vec())
                .collect();
            let scan =
                Relation::from_buffer(TupleBuffer::from_flat(arity, flat.clone()), AggOp::Sum);
            let seeded = Relation::from_buffer(TupleBuffer::from_flat(arity, flat), AggOp::Sum);
            for first in 0..arity {
                let mut order: Vec<usize> = (0..arity).collect();
                order.swap(0, first);
                seeded.trie(&order, LayoutPolicy::SetLevel);
            }
            assert!(seeded.columns.read().iter().all(Option::is_some));
            assert_eq!(seeded.stats(), scan.stats());
        }
    }

    #[test]
    fn catalog_stats_source() {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![0, 2]]),
                AggOp::Sum,
            ),
        );
        use eh_ghd::StatsSource;
        let src: &dyn Catalog = &cat;
        let st = src.stats("E").unwrap();
        assert_eq!(st.cardinality, 2);
        assert_eq!(st.distinct, vec![1, 2]);
        assert_eq!(st.freq_sq, vec![4, 2]);
        assert!(src.stats("missing").is_none());
    }

    #[test]
    fn catalog_lookup_and_consts() {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &[vec![0, 1]]), AggOp::Sum),
        );
        cat.define_const("start", 7);
        assert!(cat.relation("E").is_some());
        assert!(cat.relation("missing").is_none());
        assert_eq!(cat.resolve_const("start"), Some(7));
        assert_eq!(cat.resolve_const("123"), Some(123));
        assert_eq!(cat.resolve_const("nope"), None);
    }
}
