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
use eh_trie::{Trie, TrieBuilder, TupleBuffer};
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
    /// Per-column distinct count and largest id, filled opportunistically
    /// at trie build (the root set of a trie ordered `[c, ...]` is exactly
    /// column `c`'s distinct values) and on demand otherwise. A
    /// `Relation`'s tuples are immutable — catalog mutations replace the
    /// whole relation — so the cache can never go stale; the database's
    /// epoch machinery invalidates at that granularity.
    columns: RwLock<Vec<Option<ColumnExtent>>>,
}

/// What one column's id space looks like: how many distinct ids it holds
/// and the largest of them. The planner reads `distinct`; the executor
/// compares the two to decide whether a group-by keyed on the column can
/// fold into a flat id-indexed array (see [`crate::plan_sink_kinds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnExtent {
    /// Number of distinct ids in the column.
    pub distinct: u64,
    /// Largest id in the column.
    pub max: u32,
}

/// Cache of materialized tries, keyed by attribute order + layout policy.
type TrieCache = HashMap<(Vec<usize>, LayoutPolicyKey), Arc<Trie>>;

/// Hashable stand-in for [`LayoutPolicy`] (which holds no Eq-unfriendly
/// data but lives in another crate without Hash).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum LayoutPolicyKey {
    FixedUint,
    FixedBitset,
    FixedBlock,
    SetLevel,
    BlockLevel,
}

fn policy_key(p: LayoutPolicy) -> LayoutPolicyKey {
    match p {
        LayoutPolicy::Fixed(eh_set::LayoutKind::Uint) => LayoutPolicyKey::FixedUint,
        LayoutPolicy::Fixed(eh_set::LayoutKind::Bitset) => LayoutPolicyKey::FixedBitset,
        LayoutPolicy::Fixed(eh_set::LayoutKind::Block) => LayoutPolicyKey::FixedBlock,
        LayoutPolicy::SetLevel => LayoutPolicyKey::SetLevel,
        LayoutPolicy::BlockLevel => LayoutPolicyKey::BlockLevel,
    }
}

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

    /// Unannotated relation from per-row tuples (convenience seam for
    /// tests and examples).
    pub fn from_rows<R: AsRef<[u32]>>(arity: usize, rows: Vec<R>) -> Relation {
        Relation::from_buffer(TupleBuffer::from_rows(arity, &rows), AggOp::Sum)
    }

    /// Annotated relation from per-row tuples and parallel values.
    pub fn from_annotated_rows<R: AsRef<[u32]>>(
        arity: usize,
        rows: Vec<R>,
        annots: Vec<DynValue>,
        combine: AggOp,
    ) -> Relation {
        Relation::from_buffer(
            TupleBuffer::from_annotated_rows(arity, &rows, annots),
            combine,
        )
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
        let key = (order.to_vec(), policy_key(policy));
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
        // exactly the distinct values of the order's first source column.
        if let (Some(&first), Some(max)) = (order.first(), trie.root().set.max()) {
            self.columns.write()[first].get_or_insert(ColumnExtent {
                distinct: trie.root().set.len() as u64,
                max,
            });
        }
        self.tries.write().insert(key, Arc::clone(&trie));
        trie
    }

    /// Identity-order trie.
    pub fn trie_default(&self, policy: LayoutPolicy) -> Arc<Trie> {
        let order: Vec<usize> = (0..self.arity()).collect();
        self.trie(&order, policy)
    }

    /// Planner statistics: row count plus per-column distinct counts.
    /// Distinct counts are cached — seeded at trie build where possible,
    /// computed by a one-off column scan otherwise — so repeated calls
    /// (one per atom per planning pass) are O(columns) lookups.
    pub fn stats(&self) -> RelationStats {
        RelationStats {
            cardinality: self.tuples.len() as u64,
            distinct: (0..self.arity())
                .map(|c| self.column_extent(c).map_or(0, |e| e.distinct))
                .collect(),
        }
    }

    /// Distinct count and largest id of one column (cached, see
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
        vals.dedup();
        let extent = ColumnExtent {
            distinct: vals.len() as u64,
            max: *vals.last()?,
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

/// The executor's access to named relations and constant resolution.
pub trait Catalog: Sync {
    /// Look up a relation by name.
    fn relation(&self, name: &str) -> Option<&Relation>;

    /// Resolve a query-text constant (e.g. `'start'` or `'42'`) to its
    /// dictionary-encoded id. The default parses integers directly —
    /// callers with string dictionaries override this.
    fn resolve_const(&self, text: &str) -> Option<u32> {
        text.parse().ok()
    }

    /// Resolve a constant appearing at a specific column of a specific
    /// relation. Typed catalogs override this to consult the column's
    /// dictionary domain (so `Follows('alice', x)` encodes `alice`
    /// through the same dictionary the loader used); the default ignores
    /// the position. `None` means the key cannot match — the executor
    /// turns the atom into an empty result.
    fn resolve_const_at(&self, relation: &str, column: usize, text: &str) -> Option<u32> {
        let _ = (relation, column);
        self.resolve_const(text)
    }

    /// Planner statistics for a named relation, O(1) after the relation's
    /// first computation (see [`Relation::stats`]).
    fn relation_stats(&self, name: &str) -> Option<RelationStats> {
        self.relation(name).map(|r| r.stats())
    }
}

/// Adapter exposing a [`Catalog`] to the planner as a
/// [`eh_ghd::StatsSource`], so `eh_ghd` stays ignorant of executor types.
pub struct CatalogStats<'a>(pub &'a dyn Catalog);

impl eh_ghd::StatsSource for CatalogStats<'_> {
    fn stats(&self, name: &str) -> Option<RelationStats> {
        self.0.relation_stats(name)
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
}

impl Catalog for MemCatalog {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    fn resolve_const(&self, text: &str) -> Option<u32> {
        self.constants
            .get(text)
            .copied()
            .or_else(|| text.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_caching_and_reordering() {
        let r = Relation::from_rows(2, vec![vec![1, 10], vec![2, 20], vec![1, 30]]);
        let fwd = r.trie(&[0, 1], LayoutPolicy::SetLevel);
        let fwd2 = r.trie(&[0, 1], LayoutPolicy::SetLevel);
        assert!(Arc::ptr_eq(&fwd, &fwd2), "cache hit");
        assert_eq!(fwd.select(&[1]).unwrap().to_vec(), vec![10, 30]);
        let rev = r.trie(&[1, 0], LayoutPolicy::SetLevel);
        assert_eq!(rev.select(&[10]).unwrap().to_vec(), vec![1]);
        assert_eq!(rev.root().set.to_vec(), vec![10, 20, 30]);
    }

    #[test]
    fn policies_cached_separately() {
        let rows: Vec<Vec<u32>> = (0..600u32).map(|i| vec![0, i]).collect();
        let r = Relation::from_rows(2, rows);
        let auto = r.trie(&[0, 1], LayoutPolicy::SetLevel);
        let uint = r.trie(&[0, 1], LayoutPolicy::Fixed(eh_set::LayoutKind::Uint));
        assert_ne!(auto.layout_census(), uint.layout_census());
    }

    #[test]
    fn buffer_relation_equals_rows_relation() {
        let rows = vec![vec![1u32, 10], vec![2, 20], vec![1, 30]];
        let via_rows = Relation::from_rows(2, rows.clone());
        let via_buffer = Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum);
        assert_eq!(via_rows.rows(), via_buffer.rows());
        let a = via_rows.trie(&[0, 1], LayoutPolicy::SetLevel);
        let b = via_buffer.trie(&[0, 1], LayoutPolicy::SetLevel);
        assert_eq!(a.scan(), b.scan());
    }

    #[test]
    fn annotated_relation_roundtrip() {
        let r = Relation::from_annotated_rows(
            1,
            vec![vec![3], vec![5]],
            vec![DynValue::F64(0.5), DynValue::F64(0.25)],
            AggOp::Sum,
        );
        let t = r.trie_default(LayoutPolicy::SetLevel);
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
        // Column 0 has 2 distinct values, column 1 has 4; one duplicate row.
        let r = Relation::from_rows(
            2,
            vec![
                vec![1, 10],
                vec![2, 20],
                vec![1, 30],
                vec![2, 40],
                vec![1, 10],
            ],
        );
        let scanned = r.stats();
        assert_eq!(scanned.cardinality, 5);
        assert_eq!(scanned.distinct, vec![2, 4]);
        // A fresh relation seeded through trie builds reports identical
        // distinct counts (the root set is the first column's value set).
        let r2 = Relation::from_rows(
            2,
            vec![
                vec![1, 10],
                vec![2, 20],
                vec![1, 30],
                vec![2, 40],
                vec![1, 10],
            ],
        );
        r2.trie(&[0, 1], LayoutPolicy::SetLevel);
        r2.trie(&[1, 0], LayoutPolicy::SetLevel);
        assert_eq!(r2.stats(), scanned);
        assert_eq!(r2.column_distinct(0), Some(2));
        assert_eq!(r2.column_distinct(2), None);
    }

    #[test]
    fn catalog_relation_stats_default() {
        let mut cat = MemCatalog::new();
        cat.insert("E", Relation::from_rows(2, vec![vec![0, 1], vec![0, 2]]));
        let st = cat.relation_stats("E").unwrap();
        assert_eq!(st.cardinality, 2);
        assert_eq!(st.distinct, vec![1, 2]);
        assert!(cat.relation_stats("missing").is_none());
        // The planner-facing adapter sees the same numbers.
        use eh_ghd::StatsSource;
        let src = CatalogStats(&cat);
        assert_eq!(src.stats("E"), Some(st));
    }

    #[test]
    fn catalog_lookup_and_consts() {
        let mut cat = MemCatalog::new();
        cat.insert("E", Relation::from_rows(2, vec![vec![0, 1]]));
        cat.define_const("start", 7);
        assert!(cat.relation("E").is_some());
        assert!(cat.relation("missing").is_none());
        assert_eq!(cat.resolve_const("start"), Some(7));
        assert_eq!(cat.resolve_const("123"), Some(123));
        assert_eq!(cat.resolve_const("nope"), None);
    }
}
