//! The Generic-Join recursion (paper Algorithm 1): allocation-free,
//! aggregation-aware, and typed.
//!
//! Every loop level runs off the tables precomputed in
//! [`crate::program::JoinProgram`] and scratch owned by
//! [`crate::program::GjContext`]: candidate values merge into reusable
//! per-level buffers via [`eh_set::intersect::intersect_all_with`], a
//! level with a single participant walks that atom's trie set in place,
//! and the innermost count fast path folds through
//! [`eh_set::intersect::count_all_with`] — no heap allocation happens
//! anywhere in this module's recursion: no `Vec::new()`, no `collect()`,
//! scratch must come from `GjContext`. The `alloc-free` rule of `eh_lint`
//! enforces this whole-file.
//!
//! Binding a value follows the level's compiled **bind plan**
//! ([`crate::program::Bind`]): a candidate list is the exact intersection
//! of every participant, so an unannotated leaf has nothing to do, and a
//! descent or an annotation fetch takes its rank from where it is already
//! known — the walk position, or a subtraction on a complete-range set —
//! before falling back to the atom's forward cursor.
//!
//! The whole nest is monomorphised over the node's [`Carrier`] (chosen
//! once in `executor::run_node`): running products and accumulators are
//! plain `u64`/`f64`, leaf annotations are read out of the trie's raw
//! column, and a [`eh_semiring::DynValue`] exists only past the sink.
//!
//! Aggregates never pay a sink emit per binding (paper §3.3 "early
//! aggregation"): from [`JoinProgram::fold_from`] down, [`fold`] `⊕`-folds
//! the subtree into a local accumulator and [`gj`] emits once per output
//! prefix; when the group-by key is the innermost attribute instead,
//! [`scatter`] pushes the constant running product over the whole
//! innermost set in one sink call. The fold order this fixes — per output
//! prefix, contributions in ascending attribute-order position; per key,
//! prefix folds in the same order — is the engine's specified outcome for
//! non-associative `⊕` (`f64` sums); see README "Aggregation and
//! recursion".
//!
//! The level-0 prologue ([`fill_level`] + [`step_value`]) is shared
//! between the serial driver ([`gj`]) and the parallel schedulers in
//! [`crate::parallel`], so the two can no longer drift.
//!
//! Which kernel an intersection runs is decided by the layouts of the
//! sets it reads, fixed when their trie was built; the recursion charges
//! profiling counters only when [`crate::Config::profile`] asks for them.

use crate::program::{AtomExec, Bind, GjContext, JoinProgram, RankBy, ValueBuf};
use crate::sink::{Keys, Sink};
use eh_semiring::Carrier;
use eh_set::intersect::{count_all_with, intersect_all_with};
use eh_set::MultiwayScratch;
use eh_trie::TrieNode;
use std::time::Instant;

/// Only 1 in `CLOCK_SAMPLE_MASK + 1` profiled intersections reads the
/// clock — two `Instant` calls per intersection cost more than the
/// intersection itself on small sets (and hundreds of nanoseconds on
/// hosts where `clock_gettime` leaves the vDSO), blowing the <2%
/// overhead ceiling. Span timings are estimates either way; counters
/// stay exact.
pub(crate) const CLOCK_SAMPLE_MASK: u64 = 1023;

/// Deterministic clock sampling for per-level span timings: every
/// profiled merge call ticks its level's tally, but only every
/// `CLOCK_SAMPLE_MASK + 1`-th tick reads the clock (and bumps
/// `samples`). The profile fold scales the sampled `ns`/`values` by the
/// exact `ticks / samples` ratio, so reported spans are sampled
/// estimates while the call and work counters stay exact.
#[inline]
pub(crate) fn sample_clock(ctx: &mut GjContext<'_>, level: usize) -> Option<Instant> {
    let cell = &mut ctx.level_prof[level];
    let tick = cell.ticks;
    cell.ticks = tick.wrapping_add(1);
    if tick & CLOCK_SAMPLE_MASK == 0 {
        cell.samples += 1;
        Some(Instant::now())
    } else {
        None
    }
}

/// Stateless ~1-in-(`CLOCK_SAMPLE_MASK`+1) child sampling: xor the value
/// bits into the loop index so the rate holds even when every parent
/// loop is shorter than the mask period.
#[inline]
pub(crate) fn child_sample(v: u32, idx: usize) -> bool {
    (v as u64 ^ idx as u64) & CLOCK_SAMPLE_MASK == 0
}

/// Merge the candidate values for `level` into `out` (cleared first):
/// the multiway intersection of every participating atom's current set,
/// smallest-first, through the reusable `mw` scratch. This is the level
/// prologue shared by the serial recursion and the parallel level-0
/// drivers.
pub(crate) fn fill_level(
    program: &JoinProgram,
    level: usize,
    atoms: &[AtomExec<'_>],
    cfg: &crate::config::Config,
    mw: &mut MultiwayScratch,
    out: &mut ValueBuf,
) {
    out.clear();
    let steps = &program.levels[level].steps;
    intersect_all_with(
        steps.len(),
        |k| &atoms[steps[k].atom].node_at(steps[k].depth).set,
        &cfg.intersect,
        mw,
        out,
    );
}

/// The candidate values of one loop level (the level prologue of the
/// serial recursion): a level with a single participant hands back that
/// atom's trie node, to be walked in place — no copy into `merged`; any
/// other level intersects its participants into `merged`, rewinds their
/// rank cursors for the fresh ascent, and returns `None`. Work counters
/// and profile tallies are charged exactly as [`fill_level`] charges them
/// either way.
#[inline]
fn level_candidates<'c>(
    program: &JoinProgram,
    ctx: &mut GjContext<'c>,
    level: usize,
    merged: &mut ValueBuf,
) -> Option<&'c TrieNode> {
    let started = if ctx.cfg.profile {
        sample_clock(ctx, level)
    } else {
        None
    };
    let steps = &program.levels[level].steps;
    let (single, len) = if let [st] = steps.as_slice() {
        let node = ctx.atoms[st.atom].node_at(st.depth);
        ctx.mw.stats.values_scanned += node.set.len() as u64;
        (Some(node), node.set.len())
    } else {
        fill_level(program, level, &ctx.atoms, ctx.cfg, &mut ctx.mw, merged);
        for st in steps {
            ctx.atoms[st.atom].hints[st.depth] = 0;
        }
        (None, merged.len())
    };
    if let Some(t) = started {
        let cell = &mut ctx.level_prof[level];
        cell.ns += t.elapsed().as_nanos() as u64;
        cell.values += len as u64;
    }
    single
}

/// Bind `v` — the `idx`-th candidate of `level` — by the level's bind
/// plan: advance the trie cursor of every atom that descends here and `⊗`
/// in the annotation of every annotated atom that bottoms out here.
/// Candidates are the exact intersection of the participants, so every
/// rank exists.
#[inline(always)]
fn bind<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    v: u32,
    idx: usize,
    product: K::T,
) -> K::T {
    ctx.bindings[level] = v;
    let mut prod = product;
    for st in &program.levels[level].steps {
        let (by, descend) = match st.bind {
            Bind::Member => continue,
            Bind::Descend(by) => (by, true),
            Bind::Annot(by) => (by, false),
        };
        let a = &mut ctx.atoms[st.atom];
        let n = a.node_at(st.depth);
        let rank = match by {
            RankBy::Position => idx,
            RankBy::Range(base) => (v - base) as usize,
            RankBy::Cursor => n
                .set
                .rank_hinted(v, &mut a.hints[st.depth])
                .expect("a candidate value is in every participant's set"),
        };
        if descend {
            a.descend(st.depth, n.children[rank]);
        } else if let Some(&bits) = n.annots.get(rank) {
            prod = K::times(prod, K::read(bits, a.float_annots));
        }
    }
    prod
}

/// Bind `v` (candidate `idx` of `level`) and recurse into the next level
/// — the per-value body the parallel level-0 drivers run. `sample` marks
/// this value as a profiling timing sample — derived from the caller's
/// loop index (see [`child_sample`]), so the innermost count fast path
/// never touches a counter to decide whether to read the clock.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_value<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    v: u32,
    idx: usize,
    product: K::T,
    sink: &mut Sink,
    sample: bool,
) {
    let prod = bind::<K>(program, ctx, level, v, idx, product);
    gj::<K>(program, ctx, level + 1, prod, sink, sample);
}

/// Run `body(ctx, product, sample)` once per binding of `level`, cursors
/// advanced and leaf annotations multiplied in — the loop both [`gj`]
/// (recurse and emit) and [`fold`] (recurse and accumulate) are built
/// from. Each binding's `sample` comes from its own loop index (see
/// [`child_sample`]).
#[inline(always)]
fn for_each_binding<'c, K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'c>,
    level: usize,
    product: K::T,
    mut body: impl FnMut(&mut GjContext<'c>, K::T, bool),
) {
    let mut merged = std::mem::take(&mut ctx.scratch[level]);
    let mut visit = |ctx: &mut GjContext<'c>, idx: usize, v: u32| {
        let prod = bind::<K>(program, ctx, level, v, idx, product);
        body(ctx, prod, child_sample(v, idx));
    };
    match level_candidates(program, ctx, level, &mut merged) {
        Some(node) => node
            .set
            .iter()
            .enumerate()
            .for_each(|(idx, v)| visit(ctx, idx, v)),
        None => merged
            .iter()
            .enumerate()
            .for_each(|(idx, &v)| visit(ctx, idx, v)),
    }
    // Return the buffer for reuse by sibling invocations at this level.
    ctx.scratch[level] = merged;
}

/// The generic worst-case optimal join over one node (Algorithm 1). All
/// scratch comes from `ctx`; nothing is allocated per call.
pub(crate) fn gj<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: K::T,
    sink: &mut Sink,
    sample: bool,
) {
    if level == program.attrs_len {
        sink.emit::<K>(program, &ctx.bindings, product);
        return;
    }
    if level >= program.fold_from {
        // Nothing below is output: one emit for the whole subtree.
        let mut acc = Acc::<K>::default();
        fold::<K>(program, ctx, level, product, &mut acc, sample);
        if acc.seen {
            sink.emit::<K>(program, &ctx.bindings, acc.value);
        }
        return;
    }
    if program.levels[level].steps.is_empty() {
        // Attribute bound by no live atom at this node (can happen when a
        // selection removed the only binding atom): nothing to iterate.
        return;
    }
    if program.scatter && level + 1 == program.attrs_len {
        scatter::<K>(program, ctx, level, product, sink);
        return;
    }
    for_each_binding::<K>(program, ctx, level, product, |ctx, prod, s| {
        gj::<K>(program, ctx, level + 1, prod, sink, s)
    });
}

/// A local `⊕`-accumulator: the carrier's plain value plus whether
/// anything was folded yet — a fold starts from its first contribution,
/// not from the ⊕-identity (`0.0 + -0.0` is not `-0.0`).
struct Acc<K: Carrier> {
    value: K::T,
    seen: bool,
}

impl<K: Carrier> Default for Acc<K> {
    fn default() -> Self {
        Acc {
            value: K::ZERO,
            seen: false,
        }
    }
}

impl<K: Carrier> Acc<K> {
    /// `⊕` one contribution in.
    #[inline(always)]
    fn add(&mut self, c: K::T) {
        self.value = if self.seen { K::plus(self.value, c) } else { c };
        self.seen = true;
    }
}

/// `⊕`-fold every binding of levels `level..` under the current prefix
/// into `acc`, in ascending attribute-order position: the
/// early-aggregation half of the recursion, entered at
/// [`JoinProgram::fold_from`] with an empty accumulator.
fn fold<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: K::T,
    acc: &mut Acc<K>,
    sample: bool,
) {
    if level == program.attrs_len {
        acc.add(product);
        return;
    }
    if program.levels[level].steps.is_empty() {
        return;
    }
    let innermost = level + 1 == program.attrs_len;
    if innermost && program.count_fast {
        fold_count::<K>(program, ctx, level, product, acc, sample);
    } else if innermost {
        // The annotated sibling of the count fast path: one fused Σ⊗ over
        // the innermost candidates, leaf annotations fetched by rank.
        for_each_binding::<K>(program, ctx, level, product, |_, prod, _| acc.add(prod));
    } else {
        for_each_binding::<K>(program, ctx, level, product, |ctx, prod, s| {
            fold::<K>(program, ctx, level + 1, prod, acc, s)
        });
    }
}

/// The innermost count fast path (paper §5.3: aggregate queries never
/// materialize the deepest intersection; applicability precomputed in
/// [`JoinProgram::count_fast`]): count the innermost level's candidates
/// and fold `product` that many times into `acc`.
///
/// The hottest loop in the engine: even one counter bump per call shows
/// up against the <2% profiling-overhead ceiling, so this path keeps NO
/// per-call state. The timing decision rides in on `sample` (the parent
/// loop index), and the profile fold reconstructs the exact call count
/// from the kernel-dispatch stats (see `fold_node_profile`).
#[inline(always)]
fn fold_count<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: K::T,
    acc: &mut Acc<K>,
    sample: bool,
) {
    let steps = &program.levels[level].steps;
    let started = if ctx.cfg.profile && sample {
        ctx.level_prof[level].samples += 1;
        Some(Instant::now())
    } else {
        None
    };
    let atoms = &ctx.atoms;
    let count = count_all_with(
        steps.len(),
        |k| &atoms[steps[k].atom].node_at(steps[k].depth).set,
        &ctx.cfg.intersect,
        &mut ctx.mw,
    );
    if let Some(t) = started {
        let cell = &mut ctx.level_prof[level];
        cell.ns += t.elapsed().as_nanos() as u64;
        cell.values += count as u64;
    }
    if count > 0 {
        acc.add(K::repeat(product, count));
    }
}

/// Innermost level of a query grouped by its innermost attribute, no
/// annotated atom bottoming out there: every candidate value is a group
/// key receiving the same `product`, so the whole set goes to the sink in
/// one scatter-`⊕` — no per-value bind, recursion or emit.
fn scatter<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: K::T,
    sink: &mut Sink,
) {
    let mut merged = std::mem::take(&mut ctx.scratch[level]);
    match level_candidates(program, ctx, level, &mut merged) {
        Some(node) => sink.scatter::<K>(Keys::Set(&node.set), product),
        None => sink.scatter::<K>(Keys::Values(&merged), product),
    }
    ctx.scratch[level] = merged;
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::executor::execute_rule;
    use crate::storage::{MemCatalog, Relation};
    use eh_query::parse_rule;
    use eh_semiring::AggOp;
    use eh_trie::TupleBuffer;

    fn path_catalog() -> MemCatalog {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![1, 3]]),
                AggOp::Sum,
            ),
        );
        cat
    }

    #[test]
    fn two_hop_join() {
        let cat = path_catalog();
        let rule = parse_rule("P(x,z) :- E(x,y),E(y,z).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        let mut rows: Vec<Vec<u32>> = out.rows().iter().map(|r| r.to_vec()).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![0, 2], vec![0, 3], vec![1, 3]]);
    }

    #[test]
    fn projection_dedups() {
        let cat = path_catalog();
        let rule = parse_rule("S(x) :- E(x,y).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert_eq!(out.rows().flat(), &[0, 1, 2]);
    }

    #[test]
    fn count_two_hops() {
        let cat = path_catalog();
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert_eq!(out.scalar().unwrap().as_u64(), 3);
    }

    #[test]
    fn count_grouped_by_key() {
        let cat = path_catalog();
        let rule = parse_rule("D(x;w:long) :- E(x,y); w=<<COUNT(*)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert_eq!(out.rows().flat(), &[0, 1, 2]);
        let annots = out.annotations().unwrap();
        assert_eq!(annots[0].as_u64(), 1); // 0 -> {1}
        assert_eq!(annots[1].as_u64(), 2); // 1 -> {2,3}
        assert_eq!(annots[2].as_u64(), 1); // 2 -> {3}
    }

    #[test]
    fn selection_filters() {
        let cat = path_catalog();
        let rule = parse_rule("Q(y) :- E('1',y).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert_eq!(out.rows().flat(), &[2, 3]);
    }

    #[test]
    fn selection_missing_constant_is_empty() {
        let cat = path_catalog();
        let rule = parse_rule("Q(y) :- E('99',y).").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert!(out.is_empty());
    }

    #[test]
    fn annotated_sum_aggregation() {
        // Weighted edges; total weight of 2-paths = sum over (x,y,z) of
        // w(x,y)*w(y,z).
        use eh_semiring::{AggOp, DynValue};
        let mut cat = MemCatalog::new();
        cat.insert(
            "W",
            Relation::from_buffer(
                TupleBuffer::from_annotated_rows(
                    2,
                    &[vec![0, 1], vec![1, 2], vec![1, 3]],
                    vec![DynValue::F64(2.0), DynValue::F64(3.0), DynValue::F64(5.0)],
                ),
                AggOp::Sum,
            ),
        );
        let rule = parse_rule("C(;w:float) :- W(x,y),W(y,z); w=<<SUM(z)>>.").unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        // paths: (0,1,2): 2*3=6, (0,1,3): 2*5=10 → 16.
        assert_eq!(out.scalar().unwrap().as_f64(), 16.0);
    }
}
