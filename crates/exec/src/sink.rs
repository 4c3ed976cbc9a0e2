//! Emission sinks and result assembly: where Generic-Join bindings land.
//!
//! A [`Sink`] absorbs contributions — one binding's value, one folded
//! subtree, or one scattered set — into a scalar `⊕`-accumulator, a flat
//! id-indexed array, or a flat buffer of rows. A one-key group-by over a
//! dense id space folds into the array ([`DenseAgg`]); every other
//! group-by appends one annotated row per contribution and folds them on
//! drain with the stable sort-and-⊕ that listings and [`finalize`] use
//! ([`TupleBuffer::into_sorted_dedup`]) — nothing is hashed between the
//! join and a node result ([`sink_kind`] decides, from column statistics
//! alone). Per-chunk sinks from the parallel runtime merge in range order
//! with [`Sink::merge`], so every keyed group-by folds each key's
//! contributions in the serial order, whatever the partitioning. The
//! Yannakakis top-down pass ([`assemble`]) and the final
//! projection/group-by ([`finalize`]) also live here.

use crate::executor::NodeResult;
use crate::plan::{AtomPlan, PhysicalPlan, PlanNode};
use crate::program::JoinProgram;
use crate::recursion::seek;
use crate::storage::{Catalog, Relation};
use eh_query::ast::Expr;
use eh_semiring::{with_carrier, AggOp, Carrier, DynValue};
use eh_set::Set;
use eh_trie::TupleBuffer;
use std::sync::Arc;

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
    /// Any other group-by, of any number of keys: one annotated row per
    /// contribution, sorted and ⊕-folded when the node drains.
    Sorted,
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
/// results and near-empty frontiers take the sorted rows. Both fold a
/// key's contributions in arrival order, so the choice never shows in a
/// result.
pub(crate) fn sink_kind(node: &PlanNode, is_agg: bool, catalog: &dyn Catalog) -> SinkKind {
    if !is_agg {
        return SinkKind::Rows;
    }
    let key = match node.output_attrs.as_slice() {
        [] => return SinkKind::Scalar,
        [key] => key,
        _ => return SinkKind::Sorted,
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
        .map_or(SinkKind::Sorted, SinkKind::Dense)
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

/// Emission sink: scalar accumulator (no key vars), dense group-by array,
/// or flat row collection.
pub(crate) enum Sink {
    /// Scalar aggregate (COUNT(*)-style): one accumulator.
    Scalar { acc: DynValue, any: bool },
    /// Single-key aggregate over a dense id space: an array by key id.
    Dense1(DenseAgg),
    /// The chunk of a parallel run feeding a `Dense1`, on every carrier:
    /// the contributions in arrival order, never O(id space), replayed
    /// into the node's array in range order — so every key folds exactly
    /// the contribution sequence the serial loop would have fed it. `runs`
    /// holds `(number of keys, value)`: a scatter is one run however many
    /// keys it covers, so its log costs four bytes a contribution.
    Log1 {
        keys: Vec<u32>,
        runs: Vec<(usize, DynValue)>,
    },
    /// Any other group-by: one `(keys, value)` row per contribution, in
    /// arrival order, annotated from construction. The drain's stable sort
    /// ⊕-folds each key's rows left to right, and chunks append in range
    /// order, so a key folds the serial sequence whatever the partitioning.
    Keyed(TupleBuffer),
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
            Sink::Log1 { keys, runs } => {
                keys.push(key(0));
                runs.push((1, K::to_dyn(product)));
            }
            Sink::Keyed(rows) => rows.extend_row_annotated(
                program.output_levels.iter().map(|&l| bindings[l]),
                K::to_dyn(product),
            ),
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
            Sink::Log1 { keys: log, runs } => {
                let before = log.len();
                keys.for_each(|k| log.push(k));
                runs.push((log.len() - before, K::to_dyn(product)));
            }
            Sink::Keyed(rows) => {
                let v = K::to_dyn(product);
                keys.for_each(|k| rows.push_annotated(&[k], v));
            }
            _ => unreachable!("scatter needs a one-key aggregate sink"),
        }
    }
}
// lint:region-end(alloc-free)

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
            SinkKind::Sorted => {
                let mut rows = TupleBuffer::new(keys);
                rows.set_annotations(Vec::new());
                Sink::Keyed(rows)
            }
        }
    }

    /// An empty sink for one parallel chunk of the join feeding `self`:
    /// the same shape, except that a dense array's chunk is a [`Sink::Log1`]
    /// — O(contributions), never O(id space).
    pub(crate) fn chunk(&self, op: AggOp) -> Sink {
        match self {
            Sink::Scalar { .. } => Sink::new(SinkKind::Scalar, 0, op),
            Sink::Dense1(_) => Sink::Log1 {
                keys: Vec::new(),
                runs: Vec::new(),
            },
            Sink::Keyed(rows) => Sink::new(SinkKind::Sorted, rows.arity(), op),
            Sink::Rows(rows) => Sink::new(SinkKind::Rows, rows.arity(), op),
            Sink::Log1 { .. } => unreachable!("chunk sinks are not chunked again"),
        }
    }

    /// Merge a chunk's sink (from [`Sink::chunk`]) into this one: `⊕` on
    /// scalars, a replay on the dense array, one flat append on buffers.
    pub(crate) fn merge<K: Carrier>(&mut self, other: Sink) {
        match (self, other) {
            (Sink::Scalar { acc, any }, Sink::Scalar { acc: a2, any: n2 }) => {
                if n2 {
                    *acc = K::OP.plus(*acc, a2);
                    *any = true;
                }
            }
            (Sink::Dense1(dense), Sink::Log1 { keys, runs }) => {
                let mut rest = keys.as_slice();
                for (n, v) in runs {
                    let (run, tail) = rest.split_at(n);
                    dense.scatter::<K>(Keys::Values(run), K::from_dyn(v));
                    rest = tail;
                }
            }
            (Sink::Keyed(rows), Sink::Keyed(r2)) | (Sink::Rows(rows), Sink::Rows(r2)) => {
                rows.append(&r2)
            }
            _ => unreachable!("chunk sinks come from Sink::chunk"),
        }
    }

    /// Drain the sink into a node's canonical tuple buffer: the dense
    /// array drains in key order, keyed and plain rows sort, fold and
    /// dedup, scalars become a nullary row.
    pub(crate) fn into_node_tuples(self, op: AggOp) -> TupleBuffer {
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
            Sink::Keyed(rows) | Sink::Rows(rows) => rows.into_sorted_dedup(op),
            Sink::Log1 { .. } => unreachable!("chunk sinks merge, never drain"),
        }
    }
}

/// Yannakakis top-down pass (paper §3.3.2): walk the GHD from the root,
/// extending each node's rows with the head variables bound in its
/// children's subtrees, joined on the interface; aggregate queries
/// multiply annotations along the way. Returns the assembled rows with
/// the head variables as columns, in head order.
///
/// A sort-merge pass over the sorted node results — no hash index, no
/// per-row key. Three rules fix what it produces:
///
/// * **Grouping.** A child hands its rows over grouped ascending on the
///   interface columns: already so when the interface leads the child's
///   own attributes (node results are sorted), else by one stable sort on
///   them.
/// * **Merge, else seek.** Parent rows are walked in their own order and
///   find their child run by a galloping [`seek`] that resumes at the end
///   of the previous run whenever the key grew — a forward merge cursor
///   when the interface leads the parent's columns too — and starts over
///   when it shrank. An empty interface's run is the whole child.
/// * **Pushdown.** A join writes only the columns still needed — head
///   variables and the interfaces of children not yet joined — once, into
///   an exactly sized buffer, so the root's rows arrive in head order and
///   [`finalize`] has nothing to project. A subtree that binds no head
///   variable outside its interface is not joined at all unless its
///   annotations still have to be multiplied in.
///
/// **Output order**: parent row order, then child row order within a key —
/// the sequence [`finalize`]'s stable ⊕-fold has always seen, so `f64`
/// aggregates keep their bits. Inputs are released as they are consumed.
pub(crate) fn assemble(
    plan: &PhysicalPlan,
    results: &mut [Option<NodeResult>],
    is_agg: bool,
    op: AggOp,
) -> (Vec<String>, TupleBuffer) {
    let mut head: Vec<String> = Vec::with_capacity(plan.output_vars.len());
    for v in &plan.output_vars {
        if !head.contains(v) {
            head.push(v.clone());
        }
    }
    let mut pass = TopDown {
        plan,
        results,
        head: &head,
        is_agg,
        op,
    };
    let rows = pass.node(plan.root().id, &head);
    let rows = Arc::try_unwrap(rows).unwrap_or_else(|shared| (*shared).clone());
    (head, rows)
}

/// The state of one top-down pass.
struct TopDown<'a> {
    plan: &'a PhysicalPlan,
    results: &'a mut [Option<NodeResult>],
    /// The head variables, each once, in head order.
    head: &'a [String],
    is_agg: bool,
    op: AggOp,
}

impl TopDown<'_> {
    /// The head variables `id`'s subtree binds outside its interface —
    /// what its parent needs from it beside the join key — in head order.
    fn extension(&self, id: usize) -> Vec<String> {
        fn binds(plan: &PhysicalPlan, id: usize, v: &String) -> bool {
            let node = &plan.nodes[id];
            node.output_attrs.contains(v) || node.children.iter().any(|&c| binds(plan, c, v))
        }
        let interface = &self.plan.nodes[id].interface;
        self.head
            .iter()
            .filter(|v| !interface.contains(v) && binds(self.plan, id, v))
            .cloned()
            .collect()
    }

    /// Whether `id`'s own annotations were multiplied into its parent on
    /// the way up (its output is exactly its interface, see
    /// `program::child_as_relation`), so this pass must not do it again.
    fn folded(&self, id: usize) -> bool {
        let node = &self.plan.nodes[id];
        self.is_agg && node.parent.is_some() && node.output_attrs == node.interface
    }

    /// Whether joining `id`'s subtree would add nothing: no head variable
    /// beyond the interface, and (aggregates) no annotation the bottom-up
    /// pass has not already multiplied in. Every parent row has a match —
    /// the bottom-up pass semijoined — so skipping loses no row either.
    fn adds_nothing(&self, id: usize) -> bool {
        self.extension(id).is_empty()
            && (!self.is_agg
                || (self.folded(id)
                    && self.plan.nodes[id]
                        .children
                        .iter()
                        .all(|&c| self.adds_nothing(c))))
    }

    /// Assemble `id`'s subtree into rows with exactly the columns
    /// `target`, which start with `id`'s interface; the rows are grouped
    /// ascending on those leading columns.
    fn node(&mut self, id: usize, target: &[String]) -> Arc<TupleBuffer> {
        let plan = self.plan;
        let node = &plan.nodes[id];
        let own = self.results[id].take().expect("every node ran bottom-up");
        let mut attrs = own.attrs;
        let mut rows = own.tuples;
        // Until the first join replaces them, a folded node's annotations
        // count as ⊗-identities.
        let mut unit_annots = self.folded(id);
        let children: Vec<usize> = node
            .children
            .iter()
            .copied()
            .filter(|&c| !self.adds_nothing(c))
            .collect();
        for (i, &c) in children.iter().enumerate() {
            let interface = &plan.nodes[c].interface;
            let extension = self.extension(c);
            let child_attrs = [interface.as_slice(), &extension].concat();
            let child_rows = self.node(c, &child_attrs);
            let later = &children[i + 1..];
            let out_attrs: Vec<String> = if later.is_empty() {
                target.to_vec()
            } else {
                let needed = |a: &&String| {
                    target.contains(a) || later.iter().any(|&d| plan.nodes[d].interface.contains(a))
                };
                attrs
                    .iter()
                    .chain(&extension)
                    .filter(needed)
                    .cloned()
                    .collect()
            };
            let joined = Join {
                parent: &rows,
                parent_attrs: &attrs,
                unit_annots,
                child: &child_rows,
                child_attrs: &child_attrs,
                key_len: interface.len(),
                out_attrs: &out_attrs,
                annotate: self.is_agg,
                op: self.op,
            }
            .run();
            rows = Arc::new(joined);
            attrs = out_attrs;
            unit_annots = false;
        }
        if attrs != target {
            // A leaf whose columns come in another order than asked for.
            let order: Vec<usize> = target
                .iter()
                .map(|a| attrs.iter().position(|x| x == a).expect("target is bound"))
                .collect();
            rows = Arc::new(rows.reorder(&order));
        }
        if !node.output_attrs.starts_with(&node.interface) {
            rows = Arc::new(rows.sorted_by_prefix(node.interface.len()));
        }
        rows
    }
}

/// One join of the top-down pass: `parent` rows, in order, each extended
/// by the `child` rows that share its interface key.
struct Join<'a> {
    parent: &'a TupleBuffer,
    parent_attrs: &'a [String],
    /// Read every parent annotation as the ⊗-identity.
    unit_annots: bool,
    /// Rows ascending on their first `key_len` columns, the interface.
    child: &'a TupleBuffer,
    child_attrs: &'a [String],
    key_len: usize,
    /// The columns to write, each bound by the parent or the child.
    out_attrs: &'a [String],
    /// Whether the output carries `parent ⊗ child` annotations.
    annotate: bool,
    op: AggOp,
}

impl Join<'_> {
    fn run(&self) -> TupleBuffer {
        let (parent, child, k) = (self.parent, self.child, self.key_len);
        let position = |attrs: &[String], a: &String| attrs.iter().position(|x| x == a);
        let key_cols: Vec<usize> = self.child_attrs[..k]
            .iter()
            .map(|a| position(self.parent_attrs, a).expect("the parent binds the interface"))
            .collect();
        // First pass: each parent row's run of child rows, so the output
        // can be sized exactly before a value is written.
        assert!(child.len() <= u32::MAX as usize, "row counts are u32");
        let mut runs: Vec<(u32, u32)> = Vec::with_capacity(parent.len());
        let mut total = 0usize;
        let (mut key, mut prev) = (vec![0u32; k], vec![0u32; k]);
        let mut first = true;
        let (mut start, mut end) = (0usize, 0usize);
        for row in parent.iter() {
            for (slot, &c) in key.iter_mut().zip(&key_cols) {
                *slot = row[c];
            }
            if first || key != prev {
                let from = if !first && key > prev { end } else { 0 };
                start = seek(child, from, &key);
                end = start;
                while end < child.len() && child.row(end)[..k] == key[..] {
                    end += 1;
                }
                prev.copy_from_slice(&key);
                first = false;
            }
            runs.push((start as u32, (end - start) as u32));
            total += end - start;
        }
        // Second pass: write each joined row once.
        let width = self.out_attrs.len();
        let (mut from_parent, mut from_child) = (Vec::new(), Vec::new());
        for (slot, a) in self.out_attrs.iter().enumerate() {
            match position(self.parent_attrs, a) {
                Some(c) => from_parent.push((slot, c)),
                None => {
                    let c = position(self.child_attrs, a).expect("an output column is bound");
                    from_child.push((slot, c));
                }
            }
        }
        let mut data = vec![0u32; total * width];
        let mut annots: Vec<DynValue> = Vec::with_capacity(if self.annotate { total } else { 0 });
        let one = self.op.one();
        let mut written = 0usize;
        for (ri, &(start, len)) in runs.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let row = parent.row(ri);
            let base = match parent.annot(ri) {
                Some(a) if !self.unit_annots => a,
                _ => one,
            };
            for ci in start as usize..(start + len) as usize {
                let child_row = child.row(ci);
                let out = &mut data[written * width..(written + 1) * width];
                for &(slot, c) in &from_parent {
                    out[slot] = row[c];
                }
                for &(slot, c) in &from_child {
                    out[slot] = child_row[c];
                }
                written += 1;
                if self.annotate {
                    annots.push(self.op.times(base, child.annot(ci).unwrap_or(one)));
                }
            }
        }
        let mut out = if width == 0 {
            TupleBuffer::nullary(total)
        } else {
            TupleBuffer::from_flat(width, data)
        };
        if self.annotate {
            out.set_annotations(annots);
        }
        out
    }
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
    fn keyed_sinks_drain_to_the_serial_fold_however_chunked() {
        // Non-dyadic SUM contributions, emitted (and, for one key,
        // scattered) into range-ordered chunks that merge one by one: every
        // key folds left to right in arrival order, to the bit — the
        // serial fold. The key whose only contributions are -0.0 stays
        // negative, which a fold from the ⊕-identity would not.
        use eh_semiring::SumOp;
        use std::collections::BTreeMap;
        let op = AggOp::Sum;
        for arity in 1..=3usize {
            let program =
                JoinProgram::compile(arity, (0..arity).collect(), &[], Vec::new(), true, op);
            // (scatter?, a key tuple — or a scatter's one-column keys, value)
            let mut steps: Vec<(bool, Vec<u32>, f64)> = (0..60u32)
                .map(|i| {
                    let key = [i * 7 % 5, i * 3 % 4, i * 11 % 3];
                    (false, key[..arity].to_vec(), 1.0 / (3.0 + i as f64))
                })
                .collect();
            steps.insert(10, (false, vec![9; arity], -0.0));
            steps.push((false, vec![9; arity], -0.0));
            if arity == 1 {
                steps.insert(20, (true, vec![0, 2, 4], 0.1));
                steps.insert(45, (true, vec![1, 3], 0.3));
            }
            let run = |sink: &mut Sink, steps: &[(bool, Vec<u32>, f64)]| {
                for (scatter, keys, v) in steps {
                    if *scatter {
                        sink.scatter::<SumOp>(Keys::Values(keys), *v);
                    } else {
                        sink.emit::<SumOp>(&program, keys, *v);
                    }
                }
            };
            let drain = |sink: Sink| -> Vec<(Vec<u32>, u64)> {
                let t = sink.into_node_tuples(op);
                t.iter()
                    .zip(t.annotations().unwrap())
                    .map(|(r, v)| (r.to_vec(), v.as_f64().to_bits()))
                    .collect()
            };
            let mut serial: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
            for (scatter, keys, v) in &steps {
                let groups = match scatter {
                    true => keys.iter().map(|&k| vec![k]).collect(),
                    false => vec![keys.clone()],
                };
                for key in groups {
                    serial.entry(key).and_modify(|a| *a += v).or_insert(*v);
                }
            }
            let want: Vec<(Vec<u32>, u64)> =
                serial.into_iter().map(|(k, v)| (k, v.to_bits())).collect();
            assert!(want.contains(&(vec![9; arity], (-0.0f64).to_bits())));
            let mut whole = Sink::new(SinkKind::Sorted, arity, op);
            run(&mut whole, &steps);
            assert_eq!(drain(whole), want, "{arity} key(s), unchunked");
            for cuts in [vec![7, 8, 8, 23, 40], vec![1, 2, 3], vec![31]] {
                let mut node = Sink::new(SinkKind::Sorted, arity, op);
                let bounds = [vec![0], cuts.clone(), vec![steps.len()]].concat();
                for range in bounds.windows(2) {
                    let mut chunk = node.chunk(op);
                    run(&mut chunk, &steps[range[0]..range[1]]);
                    node.merge::<SumOp>(chunk);
                }
                assert_eq!(drain(node), want, "{arity} key(s), cut at {cuts:?}");
            }
        }
    }

    #[test]
    fn one_key_sinks_merge_chunks_in_order() {
        // Dense and sorted sinks fold the same chunk contributions to the
        // same key-sorted groups, for every carrier; a dense array's chunk
        // is a log replayed in range order whatever the carrier.
        let log = |sink: &Sink, op: AggOp, entries: &[(u32, DynValue)]| {
            let mut chunk = sink.chunk(op);
            match sink {
                Sink::Dense1(_) => assert!(matches!(chunk, Sink::Log1 { .. }), "{op:?}"),
                _ => assert!(matches!(chunk, Sink::Keyed(_)), "{op:?}"),
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
            for kind in [SinkKind::Dense(71), SinkKind::Sorted] {
                let mut sink = Sink::new(kind, 1, op);
                let (a, b) = (log(&sink, op, &first), log(&sink, op, &second));
                with_carrier!(op, K => {
                    sink.merge::<K>(a);
                    sink.merge::<K>(b);
                });
                let t = sink.into_node_tuples(op);
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
        // Dense chunks log their scatters as runs, sorted chunks append a
        // row per key; either way a chunk merges to what the node sink
        // folds directly.
        for (op, v) in [
            (AggOp::Sum, DynValue::F64 as fn(f64) -> DynValue),
            (AggOp::Count, |x| DynValue::U64((x * 4.0) as u64)),
        ] {
            for kind in [SinkKind::Dense(201), SinkKind::Sorted] {
                for chunked in [false, true] {
                    let mut node = Sink::new(kind, 1, op);
                    let mut target = if chunked {
                        node.chunk(op)
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
                    let t = node.into_node_tuples(op);
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
        cat.insert(
            "D",
            Relation::from_buffer(TupleBuffer::from_rows(2, &dense), AggOp::Sum),
        );
        cat.insert(
            "S",
            Relation::from_buffer(TupleBuffer::from_rows(2, &sparse), AggOp::Sum),
        );
        let grouped = |rel: &str| format!("G(x;w:long) :- {rel}(x,y); w=<<COUNT(*)>>.");
        assert_eq!(
            plan_sink_kinds(&plan_for(&grouped("D")), &cat),
            vec![SinkKind::Dense(50)]
        );
        // Raw ids near u32::MAX: nothing O(max id) may be allocated.
        assert_eq!(
            plan_sink_kinds(&plan_for(&grouped("S")), &cat),
            vec![SinkKind::Sorted]
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
        // per row; against 5 000 it would not — sorted, whatever the ids.
        let wide: Vec<[u32; 2]> = (0..5000u32).map(|i| [i, (i + 1) % 5000]).collect();
        cat.insert(
            "W",
            Relation::from_buffer(TupleBuffer::from_rows(2, &wide), AggOp::Sum),
        );
        cat.insert(
            "F",
            Relation::from_buffer(TupleBuffer::from_rows(1, &[[3u32], [4]]), AggOp::Sum),
        );
        let via = |rel: &str| format!("G(y;w:long) :- {rel}(x,y),F(x); w=<<COUNT(*)>>.");
        assert_eq!(
            plan_sink_kinds(&plan_for(&via("D")), &cat),
            vec![SinkKind::Dense(50)]
        );
        assert_eq!(
            plan_sink_kinds(&plan_for(&via("W")), &cat),
            vec![SinkKind::Sorted]
        );
        for (q, want) in [
            ("C(;w:long) :- D(x,y); w=<<COUNT(*)>>.", SinkKind::Scalar),
            ("L(x,y) :- D(x,y).", SinkKind::Rows),
            ("P(x,y;w:long) :- D(x,y); w=<<COUNT(*)>>.", SinkKind::Sorted),
        ] {
            assert_eq!(plan_sink_kinds(&plan_for(q), &cat), vec![want], "{q}");
        }
    }

    #[test]
    fn top_down_regroups_a_child_whose_interface_trails() {
        // The planner's pre-order attribute orders always put a node's
        // interface first; a hand-built plan need not. Child rows sorted on
        // (z, y) are regrouped on y, keeping their z order within a key,
        // and the root's x-major rows find their runs by restarting seeks.
        let rule = eh_query::parse_rule("P(x,z;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.").unwrap();
        let ghd = eh_ghd::plan_rule(&rule, &Default::default()).unwrap();
        let mut plan = PhysicalPlan::compile(&rule, &ghd);
        assert_eq!(plan.nodes.len(), 2);
        assert_eq!(plan.nodes[0].interface, ["y"]);
        let names = |attrs: &[&str]| attrs.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        plan.nodes[0].attrs = names(&["z", "y"]);
        plan.nodes[0].output_attrs = names(&["z", "y"]);
        plan.nodes[1].attrs = names(&["x", "y"]);
        plan.nodes[1].output_attrs = names(&["x", "y"]);
        let result = |attrs: &[&str], rows: &[[u32; 2]], annots: &[u64]| {
            let annots = annots.iter().map(|&a| DynValue::U64(a)).collect();
            Some(NodeResult {
                attrs: names(attrs),
                tuples: Arc::new(TupleBuffer::from_annotated_rows(2, rows, annots)),
            })
        };
        let mut results = vec![
            result(
                &["z", "y"],
                &[[1, 7], [2, 5], [2, 7], [3, 5]],
                &[2, 3, 5, 7],
            ),
            result(
                &["x", "y"],
                &[[0, 5], [0, 7], [1, 5], [1, 6]],
                &[1, 10, 100, 1000],
            ),
        ];
        let (attrs, rows) = assemble(&plan, &mut results, true, AggOp::Count);
        assert_eq!(attrs, ["x", "z"]);
        // Parent row order, then child row order within the key.
        let want: [([u32; 2], u64); 6] = [
            ([0, 2], 3),
            ([0, 3], 7),
            ([0, 1], 20),
            ([0, 2], 50),
            ([1, 2], 300),
            ([1, 3], 700),
        ];
        let got: Vec<([u32; 2], u64)> = rows
            .iter()
            .zip(rows.annotations().unwrap())
            .map(|(r, a)| ([r[0], r[1]], a.as_u64()))
            .collect();
        assert_eq!(got, want);
        assert!(results.iter().all(Option::is_none), "inputs are consumed");
    }

    #[test]
    fn sink_merge_appends_rows_then_dedups() {
        let op = AggOp::Count;
        let mut a = Sink::new(SinkKind::Rows, 2, op);
        let mut b = a.chunk(op);
        if let Sink::Rows(r) = &mut a {
            r.push_row(&[4, 5]);
            r.push_row(&[1, 2]);
        }
        if let Sink::Rows(r) = &mut b {
            r.push_row(&[1, 2]);
            r.push_row(&[0, 9]);
        }
        a.merge::<eh_semiring::CountOp>(b);
        let t = a.into_node_tuples(op);
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
        let t = a.into_node_tuples(op);
        assert_eq!(t.len(), 1);
        assert_eq!(t.annot(0).unwrap().as_u64(), 4);
        // An untouched scalar sink drains to zero rows.
        let empty = Sink::new(SinkKind::Scalar, 0, op).into_node_tuples(op);
        assert_eq!(empty.len(), 0);
    }
}
