//! Emission sinks and result assembly: where Generic-Join bindings land.
//!
//! A [`Sink`] absorbs contributions — one binding's value, one folded
//! subtree, or one scattered set — into a scalar `⊕`-accumulator, a
//! group-by accumulator, or a flat row buffer, with no per-emit allocation
//! for the common key arities. A one-key group-by over a dense id space
//! folds into a flat id-indexed array ([`DenseAgg`]); the hash map is the
//! fallback for sparse raw-id spaces ([`sink_kind`] decides, from column
//! statistics alone). Per-chunk sinks from the parallel runtime merge in
//! range order with [`Sink::merge`]. The Yannakakis top-down pass
//! ([`assemble`]) and the final projection/group-by ([`finalize`]) also
//! live here.

use crate::executor::NodeResult;
use crate::plan::{AtomPlan, PhysicalPlan, PlanNode};
use crate::program::JoinProgram;
use crate::storage::{Catalog, Relation};
use eh_query::ast::Expr;
use eh_semiring::{with_carrier, AggOp, Carrier, DynValue};
use eh_set::Set;
use eh_trie::TupleBuffer;
use std::collections::HashMap;

/// A pass-through hasher for u32 keys: node ids are already uniformly
/// distributed after dictionary encoding, so SipHash is pure overhead in
/// the aggregation hot loop.
#[derive(Clone, Copy, Default)]
pub struct IdentityHasher(u64);

impl std::hash::Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }
    fn write_u32(&mut self, v: u32) {
        // Multiplicative scramble keeps clustering harmless.
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_u64(&mut self, v: u64) {
        // Scramble packed two-column keys, then fold the high half down:
        // the map picks buckets from the low bits, which after a bare
        // multiply would depend only on the packed key's second column.
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// `BuildHasher` for [`IdentityHasher`].
#[derive(Clone, Copy, Default)]
pub struct IdentityBuild;

impl std::hash::BuildHasher for IdentityBuild {
    type Hasher = IdentityHasher;
    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

/// Which accumulator a plan node's bindings fold into — decided per
/// execution from the plan node and catalog statistics (see
/// [`plan_sink_kinds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// Not an aggregate: rows collect into a flat buffer.
    Rows,
    /// Aggregate with no group-by key: one accumulator.
    Scalar,
    /// One group-by key whose id space is dense: a flat array of this many
    /// slots, indexed by the key's dictionary id.
    Dense(usize),
    /// Any other group-by: a hash map keyed on the (packed) key columns.
    Hash,
}

/// A one-key group-by takes the dense array only when the key column's id
/// space (`max id + 1`) is within this factor of its distinct count, so
/// the array is never more than a small multiple of the data it indexes.
const DENSE_SLACK: u64 = 4;

/// The dense array may have at most this many slots (one presence word)
/// per row of the node's smallest input: allocating and draining O(id
/// space) pays off against a join that can fill it, not against a
/// recursion's frontier of a handful of rows, thousands of times over.
const DENSE_FILL: u64 = 64;

/// Pick the sink for one plan node. A one-key aggregate goes dense when
/// some catalog atom binding the key has a dense id space in the bound
/// column — every key the join can produce is one of that column's ids, so
/// `max id + 1` slots hold them all — and the node's smallest input is
/// not tiny next to that space; raw sparse ids, keys bound only by child
/// results and near-empty frontiers keep the hash map. Both fold a key's
/// contributions in arrival order, so the choice never shows in a result.
pub(crate) fn sink_kind(node: &PlanNode, is_agg: bool, catalog: &dyn Catalog) -> SinkKind {
    if !is_agg {
        return SinkKind::Rows;
    }
    let key = match node.output_attrs.as_slice() {
        [] => return SinkKind::Scalar,
        [key] => key,
        _ => return SinkKind::Hash,
    };
    let level = node.attrs.iter().position(|a| a == key);
    let relation = |ap: &AtomPlan| catalog.relation(&ap.relation);
    let smallest_input = node
        .atoms
        .iter()
        .filter_map(relation)
        .map(Relation::len)
        .min();
    let max_slots = DENSE_FILL.saturating_mul(smallest_input.unwrap_or(0) as u64);
    // The first dense binding column decides: any of them bounds the key,
    // and a later atom's statistics may not be cached yet.
    node.atoms
        .iter()
        .find_map(|ap| {
            let depth = ap.attr_levels.iter().position(|&l| Some(l) == level)?;
            let column = *ap.trie_order.get(ap.const_prefix.len() + depth)?;
            let extent = relation(ap)?.column_extent(column)?;
            let slots = extent.max as u64 + 1;
            (slots <= DENSE_SLACK * extent.distinct && slots <= max_slots).then_some(slots as usize)
        })
        .map_or(SinkKind::Hash, SinkKind::Dense)
}

/// The sink every node of `plan` would fold into against `catalog`, in
/// plan (bottom-up) order — the executor's own decision, exposed so tests
/// and tools can see which accumulator a query takes.
pub fn plan_sink_kinds(plan: &PhysicalPlan, catalog: &dyn Catalog) -> Vec<SinkKind> {
    let is_agg = plan.agg.is_some();
    plan.nodes
        .iter()
        .map(|node| sink_kind(node, is_agg, catalog))
        .collect()
}

/// Emission sink: scalar accumulator (no key vars), aggregate fold, or
/// flat row collection.
pub(crate) enum Sink {
    /// Scalar aggregate (COUNT(*)-style) — no hashing in the hot loop.
    Scalar { acc: DynValue, any: bool },
    /// Single-key aggregate over a dense id space — no hashing at all.
    Dense1(DenseAgg),
    /// Single-key aggregate over sparse raw ids — u32 keys, cheap hash.
    Agg1(HashMap<u32, DynValue, IdentityBuild>),
    /// Single-key `f64` aggregate of one parallel chunk: the contributions
    /// in arrival order, never O(id space), replayed into the node's
    /// `Dense1`/`Agg1` in range order — so every key folds exactly the
    /// contribution sequence the serial loop would have fed it. `runs`
    /// holds `(number of keys, value)`: a scatter is one run however many
    /// keys it covers, so its log costs four bytes a contribution.
    Log1 {
        keys: Vec<u32>,
        runs: Vec<(usize, DynValue)>,
    },
    /// Two-key aggregate — both u32 keys packed into one u64 so multi-key
    /// group-bys stop allocating per emitted row.
    Agg2(HashMap<u64, DynValue, IdentityBuild>),
    /// Three-or-more-key aggregate (rare): heap-keyed fallback.
    AggN(HashMap<Vec<u32>, DynValue>),
    /// Row collection into a flat columnar buffer.
    Rows(TupleBuffer),
}

/// One-key `⊕`-accumulator over a dense id space: a flat value array plus
/// a presence bitmap, both indexed by the key's dictionary id. Values are
/// stored as the carrier's raw 64 bits ([`Carrier::to_bits`]) so both
/// arrays come zeroed straight from the allocator.
pub(crate) struct DenseAgg {
    vals: Vec<u64>,
    present: Vec<u64>,
}

// lint:region-start(alloc-free): per-binding sink paths — emit, scatter and the dense fold run once per join binding (or per innermost set) and must never allocate
impl DenseAgg {
    /// `⊕` slot `k`, known to be present, with `raw`.
    #[inline(always)]
    fn fold<K: Carrier>(&mut self, k: usize, raw: u64) {
        self.vals[k] = K::to_bits(K::plus(K::from_bits(self.vals[k]), K::from_bits(raw)));
    }

    /// `⊕` one contribution, already in raw form, into `key`'s slot.
    #[inline(always)]
    fn add<K: Carrier>(&mut self, key: u32, raw: u64) {
        let k = key as usize;
        let (word, bit) = (k >> 6, 1u64 << (k & 63));
        if self.present[word] & bit != 0 {
            self.fold::<K>(k, raw);
        } else {
            self.present[word] |= bit;
            self.vals[k] = raw;
        }
    }

    /// `⊕` the same contribution into every key of `keys`: one plain loop
    /// per layout over the raw contribution, dispatching on the layout
    /// once instead of once per key as [`Set::iter`] must. Measured on the
    /// `analytics` yardstick's `ops_per_s`: a runtime operator costs 20 %,
    /// dropping the bitset word split a further 12 %, dispatching on the
    /// layout per key instead of per set a further 28 %.
    fn scatter<K: Carrier>(&mut self, keys: Keys<'_>, v: K::T) {
        let raw = K::to_bits(v);
        match keys {
            Keys::Values(values) => {
                for &k in values {
                    self.add::<K>(k, raw);
                }
            }
            Keys::Set(Set::Uint(s)) => {
                for &k in s.values() {
                    self.add::<K>(k, raw);
                }
            }
            Keys::Set(Set::Bitset(s)) => {
                // A block's words line up with presence words: split each
                // into first-touch and already-present keys with two ANDs,
                // then walk both with no per-key presence test.
                for (&offset, block) in s.offsets().iter().zip(s.blocks()) {
                    let first_word = offset as usize * eh_set::BLOCK_WORDS;
                    for (w, &word) in block.iter().enumerate() {
                        let base = (first_word + w) * 64;
                        let seen = self.present[first_word + w];
                        self.present[first_word + w] = seen | word;
                        let (mut fresh, mut again) = (word & !seen, word & seen);
                        while fresh != 0 {
                            self.vals[base + fresh.trailing_zeros() as usize] = raw;
                            fresh &= fresh - 1;
                        }
                        while again != 0 {
                            self.fold::<K>(base + again.trailing_zeros() as usize, raw);
                            again &= again - 1;
                        }
                    }
                }
            }
            Keys::Set(Set::Block(s)) => {
                for k in s.iter() {
                    self.add::<K>(k, raw);
                }
            }
        }
    }
}

/// The group keys of one scatter: a trie set walked in place, or the
/// merged candidates of a multi-participant level.
#[derive(Clone, Copy)]
pub(crate) enum Keys<'a> {
    Set(&'a Set),
    Values(&'a [u32]),
}

impl Keys<'_> {
    fn for_each(self, f: impl FnMut(u32)) {
        match self {
            Keys::Set(set) => set.iter().for_each(f),
            Keys::Values(values) => values.iter().copied().for_each(f),
        }
    }
}

impl Sink {
    /// Emit one contribution under the current `bindings`: fold into the
    /// scalar/aggregate accumulator or push a row. The join hands its
    /// carrier's plain value over; this is where it becomes a
    /// [`DynValue`] again (the dense array keeps raw bits).
    #[inline]
    pub(crate) fn emit<K: Carrier>(
        &mut self,
        program: &JoinProgram,
        bindings: &[u32],
        product: K::T,
    ) {
        let key = |i: usize| bindings[program.output_levels[i]];
        match self {
            Sink::Scalar { acc, any } => {
                *acc = K::to_dyn(K::plus(K::from_dyn(*acc), product));
                *any = true;
            }
            Sink::Dense1(dense) => dense.add::<K>(key(0), K::to_bits(product)),
            Sink::Agg1(map) => fold_entry::<K, _, _>(map, key(0), product),
            Sink::Log1 { keys, runs } => {
                keys.push(key(0));
                runs.push((1, K::to_dyn(product)));
            }
            Sink::Agg2(map) => fold_entry::<K, _, _>(map, pack2(key(0), key(1)), product),
            Sink::AggN(map) => emit_wide::<K>(map, program, bindings, product),
            Sink::Rows(rows) => {
                rows.extend_row(program.output_levels.iter().map(|&l| bindings[l]));
            }
        }
    }

    /// Scatter-`⊕`: fold `product` into every key of `keys` (a one-key
    /// aggregate grouped by its innermost attribute, see
    /// [`JoinProgram::scatter`]).
    pub(crate) fn scatter<K: Carrier>(&mut self, keys: Keys<'_>, product: K::T) {
        match self {
            Sink::Dense1(dense) => dense.scatter::<K>(keys, product),
            Sink::Agg1(map) => keys.for_each(|k| fold_entry::<K, _, _>(map, k, product)),
            Sink::Log1 { keys: log, runs } => {
                let before = log.len();
                keys.for_each(|k| log.push(k));
                runs.push((log.len() - before, K::to_dyn(product)));
            }
            _ => unreachable!("scatter needs a one-key aggregate sink"),
        }
    }
}

/// `⊕` one contribution into a hash-keyed group.
#[inline(always)]
fn fold_entry<K: Carrier, Key: std::hash::Hash + Eq, S: std::hash::BuildHasher>(
    map: &mut HashMap<Key, DynValue, S>,
    key: Key,
    v: K::T,
) {
    map.entry(key)
        .and_modify(|x| *x = K::to_dyn(K::plus(K::from_dyn(*x), v)))
        .or_insert(K::to_dyn(v));
}
// lint:region-end(alloc-free)

/// The ≥3-key emit: the heap-keyed fallback allocates its key per call.
fn emit_wide<K: Carrier>(
    map: &mut HashMap<Vec<u32>, DynValue>,
    program: &JoinProgram,
    bindings: &[u32],
    product: K::T,
) {
    let tuple: Vec<u32> = program.output_levels.iter().map(|&l| bindings[l]).collect();
    fold_entry::<K, _, _>(map, tuple, product);
}

impl Sink {
    /// The sink of one node: `kind` as chosen by [`sink_kind`], `keys`
    /// output columns.
    pub(crate) fn new(kind: SinkKind, keys: usize, op: AggOp) -> Sink {
        match kind {
            SinkKind::Rows => Sink::Rows(TupleBuffer::new(keys)),
            SinkKind::Scalar => Sink::Scalar {
                acc: op.zero(),
                any: false,
            },
            SinkKind::Dense(slots) => Sink::Dense1(DenseAgg {
                vals: vec![0; slots],
                // Whole 256-bit blocks, so a bitset block's words always
                // have presence words to line up with.
                present: vec![0; slots.div_ceil(eh_set::BLOCK_BITS as usize) * eh_set::BLOCK_WORDS],
            }),
            SinkKind::Hash => match keys {
                1 => Sink::Agg1(HashMap::with_hasher(IdentityBuild)),
                2 => Sink::Agg2(HashMap::with_hasher(IdentityBuild)),
                _ => Sink::AggN(HashMap::new()),
            },
        }
    }

    /// An empty sink for one parallel chunk of the join feeding `self`:
    /// the same shape, except that a one-key aggregate's chunk is never
    /// O(id space). `⊕` on the `u64` carriers (COUNT, MIN) is exactly
    /// associative, so those pre-fold per chunk into a hash map — O(keys
    /// touched), on the worker; the `f64` carriers (SUM rounds, MAX is
    /// order-sensitive around NaN) log their contributions instead (see
    /// [`Sink::Log1`]) so that regrouping can never show in a result.
    pub(crate) fn chunk(&self, keys: usize, op: AggOp) -> Sink {
        match (self, op) {
            (Sink::Dense1(_) | Sink::Agg1(_), AggOp::Sum | AggOp::Max) => Sink::Log1 {
                keys: Vec::new(),
                runs: Vec::new(),
            },
            (Sink::Scalar { .. }, _) => Sink::new(SinkKind::Scalar, keys, op),
            (Sink::Rows(_), _) => Sink::new(SinkKind::Rows, keys, op),
            (Sink::Log1 { .. }, _) => unreachable!("chunk sinks are not chunked again"),
            _ => Sink::new(SinkKind::Hash, keys, op),
        }
    }

    /// Merge a chunk's sink (from [`Sink::chunk`]) into this one: replay
    /// or `⊕` on one-key aggregates, `⊕` on the others, one flat append on
    /// rows.
    pub(crate) fn merge<K: Carrier>(&mut self, other: Sink) {
        match (self, other) {
            (Sink::Scalar { acc, any }, Sink::Scalar { acc: a2, any: n2 }) => {
                if n2 {
                    *acc = K::OP.plus(*acc, a2);
                    *any = true;
                }
            }
            (node @ (Sink::Dense1(_) | Sink::Agg1(_)), Sink::Log1 { keys, runs }) => {
                let mut rest = keys.as_slice();
                for (n, v) in runs {
                    let (run, tail) = rest.split_at(n);
                    node.scatter::<K>(Keys::Values(run), K::from_dyn(v));
                    rest = tail;
                }
            }
            (Sink::Dense1(dense), Sink::Agg1(m2)) => {
                for (k, v) in m2 {
                    dense.add::<K>(k, K::to_bits(K::from_dyn(v)));
                }
            }
            (Sink::Agg1(map), Sink::Agg1(m2)) => {
                for (k, v) in m2 {
                    fold_entry::<K, _, _>(map, k, K::from_dyn(v));
                }
            }
            (Sink::Agg2(map), Sink::Agg2(m2)) => {
                for (k, v) in m2 {
                    fold_entry::<K, _, _>(map, k, K::from_dyn(v));
                }
            }
            (Sink::AggN(map), Sink::AggN(m2)) => {
                for (k, v) in m2 {
                    fold_entry::<K, _, _>(map, k, K::from_dyn(v));
                }
            }
            // Per-thread row buffers merge with one flat copy each.
            (Sink::Rows(rows), Sink::Rows(r2)) => rows.append(&r2),
            _ => unreachable!("chunk sinks come from Sink::chunk"),
        }
    }

    /// Drain the sink into a node's canonical tuple buffer: the dense
    /// array drains in key order, hash groups sort by key, rows
    /// sort-and-dedup, scalars become a nullary row.
    pub(crate) fn into_node_tuples(self, keys: usize, op: AggOp) -> TupleBuffer {
        match self {
            Sink::Scalar { acc, any } => {
                let mut t = TupleBuffer::nullary(if any { 1 } else { 0 });
                t.set_annotations(if any { vec![acc] } else { Vec::new() });
                t
            }
            Sink::Dense1(dense) => {
                let float = with_carrier!(op, K => K::FLOAT);
                let groups = dense.present.iter().map(|w| w.count_ones() as usize).sum();
                let mut t = TupleBuffer::with_capacity(1, groups);
                for (word, &bits) in dense.present.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let k = word * 64 + bits.trailing_zeros() as usize;
                        t.push_annotated(&[k as u32], DynValue::from_bits(dense.vals[k], float));
                        bits &= bits - 1;
                    }
                }
                t
            }
            Sink::Agg1(map) => {
                let mut entries: Vec<(u32, DynValue)> = map.into_iter().collect();
                entries.sort_unstable_by_key(|e| e.0);
                let mut t = TupleBuffer::with_capacity(1, entries.len());
                for (k, v) in entries {
                    t.push_annotated(&[k], v);
                }
                t
            }
            Sink::Agg2(map) => {
                let mut entries: Vec<(u64, DynValue)> = map.into_iter().collect();
                entries.sort_unstable_by_key(|e| e.0);
                let mut t = TupleBuffer::with_capacity(2, entries.len());
                for (k, v) in entries {
                    t.push_annotated(&[(k >> 32) as u32, k as u32], v);
                }
                t
            }
            Sink::AggN(map) => {
                let mut entries: Vec<(Vec<u32>, DynValue)> = map.into_iter().collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                let mut t = TupleBuffer::with_capacity(keys, entries.len());
                for (k, v) in entries {
                    t.push_annotated(&k, v);
                }
                t
            }
            Sink::Rows(rows) => rows.into_sorted_dedup(op),
            Sink::Log1 { .. } => unreachable!("chunk sinks merge, never drain"),
        }
    }
}

/// Pack two u32 key columns into one u64 preserving lexicographic order.
#[inline]
pub(crate) fn pack2(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Yannakakis top-down pass: extend each node's rows with its children's
/// non-interface output columns (joined on the interface), multiplying
/// annotations for aggregate queries.
pub(crate) fn assemble(
    node_id: usize,
    plan: &PhysicalPlan,
    results: &[Option<NodeResult>],
    is_agg: bool,
    op: AggOp,
) -> (Vec<String>, TupleBuffer) {
    let node = &plan.nodes[node_id];
    let own = results[node_id].as_ref().unwrap();
    let mut attrs = own.attrs.clone();
    let mut tuples = TupleBuffer::clone(&own.tuples);
    if is_agg {
        tuples.fill_annotations(op.one());
    }
    for &child_id in &node.children {
        let (child_attrs, child_tuples) = assemble(child_id, plan, results, is_agg, op);
        let child_plan: &PlanNode = &plan.nodes[child_id];
        // Index child extensions by interface tuple; each bucket is a
        // flat buffer of the non-interface columns (plus annotations).
        let iface_idx: Vec<usize> = child_plan
            .interface
            .iter()
            .map(|a| child_attrs.iter().position(|x| x == a).unwrap())
            .collect();
        let ext_idx: Vec<usize> = (0..child_attrs.len())
            .filter(|i| !iface_idx.contains(i))
            .collect();
        let mut index: HashMap<Vec<u32>, TupleBuffer> = HashMap::new();
        for (ri, row) in child_tuples.iter().enumerate() {
            let key: Vec<u32> = iface_idx.iter().map(|&i| row[i]).collect();
            let bucket = index
                .entry(key)
                .or_insert_with(|| TupleBuffer::new(ext_idx.len()));
            let ext = ext_idx.iter().map(|&i| row[i]);
            if is_agg {
                let an = child_tuples.annot(ri).unwrap_or_else(|| op.one());
                bucket.extend_row_annotated(ext, an);
            } else {
                bucket.extend_row(ext);
            }
        }
        // Parent-side interface column positions.
        let parent_iface_idx: Vec<usize> = child_plan
            .interface
            .iter()
            .map(|a| attrs.iter().position(|x| x == a).unwrap())
            .collect();
        let mut joined = TupleBuffer::new(attrs.len() + ext_idx.len());
        let mut key: Vec<u32> = Vec::with_capacity(parent_iface_idx.len());
        for (ri, row) in tuples.iter().enumerate() {
            key.clear();
            key.extend(parent_iface_idx.iter().map(|&i| row[i]));
            if let Some(bucket) = index.get(key.as_slice()) {
                for (mi, ext) in bucket.iter().enumerate() {
                    let values = row.iter().chain(ext.iter()).copied();
                    if is_agg {
                        let base = tuples.annot(ri).unwrap_or_else(|| op.one());
                        let an = bucket.annot(mi).unwrap_or_else(|| op.one());
                        joined.extend_row_annotated(values, op.times(base, an));
                    } else {
                        joined.extend_row(values);
                    }
                }
            }
        }
        for &i in &ext_idx {
            attrs.push(child_attrs[i].clone());
        }
        tuples = joined;
    }
    (attrs, tuples)
}

/// Project to the head variables, fold duplicates, and apply the head
/// expression.
pub(crate) fn finalize(
    plan: &PhysicalPlan,
    attrs: &[String],
    tuples: TupleBuffer,
    catalog: &dyn Catalog,
    is_agg: bool,
    op: AggOp,
) -> Result<Relation, crate::executor::ExecError> {
    let key_idx: Vec<usize> = plan
        .output_vars
        .iter()
        .map(|a| {
            attrs
                .iter()
                .position(|x| x == a)
                .expect("output var must be in assembled attrs")
        })
        .collect();
    // The assembled columns usually ARE the head keys, in order (a
    // single-node plan's sink output): no projection copy then.
    let in_head_order = key_idx.iter().copied().eq(0..attrs.len());
    let mut out = if in_head_order {
        tuples
    } else {
        tuples.reorder(&key_idx)
    };
    if !is_agg {
        out.drop_annotations();
        return Ok(Relation::from_buffer(out.into_sorted_dedup(op), op));
    }
    let spec = plan.agg.as_ref().unwrap();
    let scalars = |name: &str| -> Option<f64> {
        catalog
            .relation(name)
            .and_then(|r| r.scalar_value())
            .map(|v| v.as_f64())
    };
    let apply = |v: DynValue| -> DynValue {
        match &spec.expr {
            Expr::Agg(..) => v,
            e => {
                let out = e.eval(v.as_f64(), &scalars).unwrap_or(f64::NAN);
                match op {
                    AggOp::Count | AggOp::Min => DynValue::U64(out as u64),
                    AggOp::Sum | AggOp::Max => DynValue::F64(out),
                }
            }
        }
    };
    out.fill_annotations(op.one());
    if plan.output_vars.is_empty() {
        // Scalar result: ⊕-fold every assembled row.
        let annots = out.annotations().unwrap_or_default();
        let total = annots.iter().fold(op.zero(), |acc, &an| op.plus(acc, an));
        return Ok(Relation::new_scalar(apply(total)));
    }
    // Group by key, ⊕-folding duplicates in row order (the radix sort is
    // stable). A sink's output is already grouped and key-sorted, so the
    // usual case is just the head expression applied in place.
    let mut out = out.into_sorted_dedup(op);
    if !matches!(spec.expr, Expr::Agg(..)) {
        for an in out.annotations_mut().unwrap_or_default() {
            *an = apply(*an);
        }
    }
    Ok(Relation::from_buffer(out, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack2_preserves_lexicographic_order() {
        assert!(pack2(0, 5) < pack2(1, 0));
        assert!(pack2(3, 1) < pack2(3, 2));
        assert_eq!(pack2(7, 9) >> 32, 7);
        assert_eq!(pack2(7, 9) as u32, 9);
    }

    #[test]
    fn one_key_sinks_merge_chunks_in_order() {
        // Dense and hash fallback fold the same chunk contributions to the
        // same key-sorted groups, for every carrier: u64 carriers through
        // pre-folded chunks, f64 carriers through replayed logs.
        let log = |sink: &Sink, op: AggOp, entries: &[(u32, DynValue)]| {
            let mut chunk = sink.chunk(1, op);
            match op {
                AggOp::Count | AggOp::Min => assert!(matches!(chunk, Sink::Agg1(_))),
                AggOp::Sum | AggOp::Max => assert!(matches!(chunk, Sink::Log1 { .. })),
            }
            let program = JoinProgram::compile(1, vec![0], &[], Vec::new(), true, op);
            for &(k, v) in entries {
                with_carrier!(op, K => chunk.emit::<K>(&program, &[k], K::from_dyn(v)));
            }
            chunk
        };
        let u = DynValue::U64;
        let f = DynValue::F64;
        for (op, first, second, want) in [
            (
                AggOp::Count,
                vec![(1, u(2)), (2, u(5)), (1, u(1))],
                vec![(1, u(3)), (70, u(1))],
                vec![(1, u(6)), (2, u(5)), (70, u(1))],
            ),
            (
                AggOp::Min,
                vec![(9, u(7)), (0, u(4))],
                vec![(9, u(3)), (0, u(8))],
                vec![(0, u(4)), (9, u(3))],
            ),
            (
                AggOp::Sum,
                vec![(64, f(0.5)), (3, f(-0.0))],
                vec![(64, f(0.25)), (64, f(1.0))],
                vec![(3, f(-0.0)), (64, f(1.75))],
            ),
            (
                AggOp::Max,
                vec![(5, f(-2.0))],
                vec![(5, f(-3.0)), (6, f(0.0))],
                vec![(5, f(-2.0)), (6, f(0.0))],
            ),
        ] {
            for kind in [SinkKind::Dense(71), SinkKind::Hash] {
                let mut sink = Sink::new(kind, 1, op);
                let (a, b) = (log(&sink, op, &first), log(&sink, op, &second));
                with_carrier!(op, K => {
                    sink.merge::<K>(a);
                    sink.merge::<K>(b);
                });
                let t = sink.into_node_tuples(1, op);
                let got: Vec<(u32, DynValue)> = t
                    .iter()
                    .zip(t.annotations().unwrap())
                    .map(|(r, &v)| (r[0], v))
                    .collect();
                assert_eq!(got, want, "{op:?} {kind:?}");
                // -0.0 == 0.0 under PartialEq: pin the sign bit too.
                for ((_, g), (_, w)) in got.iter().zip(&want) {
                    assert_eq!(g.as_f64().to_bits(), w.as_f64().to_bits(), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn scatter_equals_repeated_emit() {
        let keys = [3u32, 4, 64, 65, 200];
        let set = Set::from_sorted(&keys, eh_set::LayoutKind::Bitset);
        // SUM chunks log their scatters as runs, COUNT chunks pre-fold;
        // either way a chunk merges to what the node sink folds directly.
        for (op, v) in [
            (AggOp::Sum, DynValue::F64 as fn(f64) -> DynValue),
            (AggOp::Count, |x| DynValue::U64((x * 4.0) as u64)),
        ] {
            for kind in [SinkKind::Dense(201), SinkKind::Hash] {
                for chunked in [false, true] {
                    let mut node = Sink::new(kind, 1, op);
                    let mut target = if chunked {
                        node.chunk(1, op)
                    } else {
                        Sink::new(kind, 1, op)
                    };
                    with_carrier!(op, K => {
                        target.scatter::<K>(Keys::Set(&set), K::from_dyn(v(0.5)));
                        target.scatter::<K>(Keys::Values(&keys[1..3]), K::from_dyn(v(0.25)));
                        if chunked {
                            node.merge::<K>(target);
                        } else {
                            node = target;
                        }
                    });
                    let t = node.into_node_tuples(1, op);
                    assert_eq!(t.flat(), &keys);
                    let want: Vec<DynValue> = [0.5, 0.75, 0.75, 0.5, 0.5].map(v).to_vec();
                    assert_eq!(t.annotations().unwrap(), want, "{op:?} {kind:?} {chunked}");
                }
            }
        }
    }

    #[test]
    fn dense_sink_only_for_dense_id_spaces() {
        use crate::storage::MemCatalog;
        let plan_for = |q: &str| {
            let rule = eh_query::parse_rule(q).unwrap();
            let ghd = eh_ghd::plan_rule(&rule, &Default::default()).unwrap();
            PhysicalPlan::compile(&rule, &ghd)
        };
        let mut cat = MemCatalog::new();
        let dense: Vec<[u32; 2]> = (0..50u32).map(|i| [i, (i * 7) % 50]).collect();
        let sparse: Vec<[u32; 2]> = dense.iter().map(|r| [u32::MAX - 60 + r[0], r[1]]).collect();
        cat.insert("D", Relation::from_rows(2, dense));
        cat.insert("S", Relation::from_rows(2, sparse));
        let grouped = |rel: &str| format!("G(x;w:long) :- {rel}(x,y); w=<<COUNT(*)>>.");
        assert_eq!(
            plan_sink_kinds(&plan_for(&grouped("D")), &cat),
            vec![SinkKind::Dense(50)]
        );
        // Raw ids near u32::MAX: nothing O(max id) may be allocated.
        assert_eq!(
            plan_sink_kinds(&plan_for(&grouped("S")), &cat),
            vec![SinkKind::Hash]
        );
        // Keyed on S's dense second column instead: dense again.
        assert_eq!(
            plan_sink_kinds(&plan_for("G(y;w:long) :- S(x,y); w=<<COUNT(*)>>."), &cat),
            vec![SinkKind::Dense(50)]
        );
        // Two binding columns in one node: the dense one bounds the key.
        let rule = eh_query::parse_rule("G(x;w:long) :- S(x,y),D(x,z); w=<<COUNT(*)>>.").unwrap();
        let single_node = eh_ghd::PlanOptions {
            ghd_optimizations: false,
            ..Default::default()
        };
        let plan = PhysicalPlan::compile(&rule, &eh_ghd::plan_rule(&rule, &single_node).unwrap());
        assert_eq!(plan_sink_kinds(&plan, &cat), vec![SinkKind::Dense(50)]);
        // A two-row frontier against 50 ids still fills a presence word
        // per row; against 5 000 it would not — hash, whatever the ids.
        let wide: Vec<[u32; 2]> = (0..5000u32).map(|i| [i, (i + 1) % 5000]).collect();
        cat.insert("W", Relation::from_rows(2, wide));
        cat.insert("F", Relation::from_rows(1, vec![[3u32], [4]]));
        let via = |rel: &str| format!("G(y;w:long) :- {rel}(x,y),F(x); w=<<COUNT(*)>>.");
        assert_eq!(
            plan_sink_kinds(&plan_for(&via("D")), &cat),
            vec![SinkKind::Dense(50)]
        );
        assert_eq!(
            plan_sink_kinds(&plan_for(&via("W")), &cat),
            vec![SinkKind::Hash]
        );
        for (q, want) in [
            ("C(;w:long) :- D(x,y); w=<<COUNT(*)>>.", SinkKind::Scalar),
            ("L(x,y) :- D(x,y).", SinkKind::Rows),
            ("P(x,y;w:long) :- D(x,y); w=<<COUNT(*)>>.", SinkKind::Hash),
        ] {
            assert_eq!(plan_sink_kinds(&plan_for(q), &cat), vec![want], "{q}");
        }
    }

    #[test]
    fn sink_merge_appends_rows_then_dedups() {
        let op = AggOp::Count;
        let mut a = Sink::new(SinkKind::Rows, 2, op);
        let mut b = a.chunk(2, op);
        if let Sink::Rows(r) = &mut a {
            r.push_row(&[4, 5]);
            r.push_row(&[1, 2]);
        }
        if let Sink::Rows(r) = &mut b {
            r.push_row(&[1, 2]);
            r.push_row(&[0, 9]);
        }
        a.merge::<eh_semiring::CountOp>(b);
        let t = a.into_node_tuples(2, op);
        assert_eq!(t.flat(), &[0, 9, 1, 2, 4, 5], "sorted, duplicate folded");
    }

    #[test]
    fn scalar_sink_roundtrip() {
        let op = AggOp::Count;
        let mut a = Sink::new(SinkKind::Scalar, 0, op);
        let b = Sink::Scalar {
            acc: DynValue::U64(4),
            any: true,
        };
        a.merge::<eh_semiring::CountOp>(b);
        let t = a.into_node_tuples(0, op);
        assert_eq!(t.len(), 1);
        assert_eq!(t.annot(0).unwrap().as_u64(), 4);
        // An untouched scalar sink drains to zero rows.
        let empty = Sink::new(SinkKind::Scalar, 0, op).into_node_tuples(0, op);
        assert_eq!(empty.len(), 0);
    }
}
