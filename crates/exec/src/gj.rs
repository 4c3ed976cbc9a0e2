//! The Generic-Join recursion (paper Algorithm 1), allocation-free and
//! aggregation-aware.
//!
//! Every loop level runs off the participation tables precomputed in
//! [`crate::program::JoinProgram`] and scratch owned by
//! [`crate::program::GjContext`]: candidate values merge into reusable
//! per-level buffers via [`eh_set::intersect::intersect_all_with`], a
//! level with a single participant walks that atom's trie set in place by
//! `(rank, value)`, trie cursors advance in fixed-size slot arrays, and
//! the innermost count fast path folds through
//! [`eh_set::intersect::count_all_with`] — no heap allocation happens
//! anywhere in this module's recursion: no `Vec::new()`, no `collect()`,
//! scratch must come from `GjContext`. The `alloc-free` rule of `eh_lint`
//! enforces this whole-file (it lexes real tokens, so this very sentence
//! naming `Vec::new()` no longer trips the gate the way the old CI grep
//! would have).
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

use crate::program::{AtomExec, GjContext, JoinProgram, ObsCell, ValueBuf};
use crate::sink::{Keys, Sink};
use eh_semiring::{AggOp, DynValue};
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

/// Observation cells keep recording every intersection until they have
/// this many reads; past the warm-up only `sample`d calls record, so a
/// cell's cost is bounded at `OBS_WARMUP + ticks / (CLOCK_SAMPLE_MASK+1)`
/// regardless of workload size. Cells reset per execution, so one run must
/// gather all the evidence a re-layout decision needs: the warm-up is
/// sized to cover typical runs outright (matching full observation, which
/// matters on heavy-tailed set-size distributions where a thin sample can
/// flip the fig. 5 crossover), while truly huge runs decay to the
/// stateless 1-in-`CLOCK_SAMPLE_MASK + 1` rate.
pub(crate) const OBS_WARMUP: u64 = 4096;

/// Record one intersection's participating sets into the adaptive-layout
/// observation cells (`obs[atom][depth]`): counter increments only, no
/// allocation. Shared by the merge prologue and the count fast path.
/// Atoms whose (relation, order) layout already converged opt out
/// entirely (`AtomExec::observe`); warm cells record only on `sample`d
/// calls so steady-state adaptive runs stay within noise of `static`.
#[inline]
fn observe_level(
    program: &JoinProgram,
    level: usize,
    atoms: &[AtomExec<'_>],
    obs: &mut [Vec<ObsCell>],
    sample: bool,
) {
    for st in &program.levels[level].steps {
        if !atoms[st.atom].observe {
            continue;
        }
        let cell = &mut obs[st.atom][st.depth];
        if sample || cell.reads < OBS_WARMUP {
            let set = &atoms[st.atom].node_at(st.depth).set;
            cell.record(set.len(), set.span());
        }
    }
}

/// Merge the candidate values for `level` into `out` (cleared first):
/// the multiway intersection of every participating atom's current set,
/// smallest-first, through the reusable `mw` scratch. This is the level
/// prologue shared by the serial recursion and the parallel level-0
/// drivers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_level(
    program: &JoinProgram,
    level: usize,
    atoms: &[AtomExec<'_>],
    cfg: &crate::config::Config,
    mw: &mut MultiwayScratch,
    obs: &mut [Vec<ObsCell>],
    out: &mut ValueBuf,
    observe: bool,
    sample: bool,
) {
    out.clear();
    if observe {
        observe_level(program, level, atoms, obs, sample);
    }
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
/// atom's trie node, to be walked in place by `(rank, value)` — no copy
/// into `merged`, and no rank probe later, since a value's position in
/// its own set *is* its rank; any other level intersects its participants
/// into `merged` and returns `None`. Work counters and profile tallies
/// are charged exactly as [`fill_level`] charges them either way.
#[inline]
fn level_candidates<'c>(
    program: &JoinProgram,
    ctx: &mut GjContext<'c>,
    level: usize,
    merged: &mut ValueBuf,
    sample: bool,
) -> Option<&'c TrieNode> {
    let started = if ctx.cfg.profile {
        sample_clock(ctx, level)
    } else {
        None
    };
    let steps = &program.levels[level].steps;
    let (single, len) = if let [st] = steps.as_slice() {
        if ctx.observe_any {
            observe_level(program, level, &ctx.atoms, &mut ctx.obs, sample);
        }
        let node = ctx.atoms[st.atom].node_at(st.depth);
        ctx.mw.stats.values_scanned += node.set.len() as u64;
        (Some(node), node.set.len())
    } else {
        fill_level(
            program,
            level,
            &ctx.atoms,
            ctx.cfg,
            &mut ctx.mw,
            &mut ctx.obs,
            merged,
            ctx.observe_any,
            sample,
        );
        // Fresh ascent at this level: reset each participant's cursor.
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

/// Bind `v` at `level`: advance every participating atom's trie cursor
/// and multiply in leaf annotations. `None` when some atom lacks `v` (a
/// larger participant produced it): the binding dies, nothing to undo.
#[inline]
fn bind(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    v: u32,
    product: DynValue,
) -> Option<DynValue> {
    ctx.bindings[level] = v;
    let mut prod = product;
    for st in &program.levels[level].steps {
        let a = &mut ctx.atoms[st.atom];
        let n = a.node_at(st.depth);
        let mut hint = a.hints[st.depth];
        let rank = n.set.rank_hinted(v, &mut hint);
        a.hints[st.depth] = hint;
        let rank = rank?;
        if !st.leaf {
            a.stack[st.depth + 1] = n.children[rank];
            a.hints[st.depth + 1] = 0;
        } else if a.annotated {
            if let Some(an) = n.annots.get(rank).copied() {
                prod = program.op.times(prod, an);
            }
        }
    }
    Some(prod)
}

/// Bind `v` at `level` and recurse into the next level if every atom
/// still matches — the per-value body the parallel level-0 drivers run.
/// `sample` marks this value as a profiling timing sample — derived from
/// the caller's loop index (see [`child_sample`]), so the innermost count
/// fast path never touches a counter to decide whether to read the clock.
#[inline]
pub(crate) fn step_value(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    v: u32,
    product: DynValue,
    sink: &mut Sink,
    sample: bool,
) {
    if let Some(prod) = bind(program, ctx, level, v, product) {
        gj(program, ctx, level + 1, prod, sink, sample);
    }
}

/// Run `body(ctx, product, sample)` once per binding of `level` that
/// survives every participating atom, cursors advanced and leaf
/// annotations multiplied in — the loop both [`gj`] (recurse and emit)
/// and [`fold`] (recurse and accumulate) are built from.
#[inline(always)]
fn for_each_binding<'c>(
    program: &JoinProgram,
    ctx: &mut GjContext<'c>,
    level: usize,
    product: DynValue,
    sample: bool,
    mut body: impl FnMut(&mut GjContext<'c>, DynValue, bool),
) {
    let mut merged = std::mem::take(&mut ctx.scratch[level]);
    if let Some(node) = level_candidates(program, ctx, level, &mut merged, sample) {
        let st = program.levels[level].steps[0];
        let annotated = st.leaf && ctx.atoms[st.atom].annotated;
        for (rank, v) in node.set.iter().enumerate() {
            ctx.bindings[level] = v;
            let mut prod = product;
            if !st.leaf {
                let a = &mut ctx.atoms[st.atom];
                a.stack[st.depth + 1] = node.children[rank];
                a.hints[st.depth + 1] = 0;
            } else if annotated {
                if let Some(an) = node.annots.get(rank).copied() {
                    prod = program.op.times(prod, an);
                }
            }
            body(ctx, prod, child_sample(v, rank));
        }
    } else {
        for idx in 0..merged.len() {
            let v = merged[idx];
            if let Some(prod) = bind(program, ctx, level, v, product) {
                body(ctx, prod, child_sample(v, idx));
            }
        }
    }
    // Return the buffer for reuse by sibling invocations at this level.
    ctx.scratch[level] = merged;
}

/// The generic worst-case optimal join over one node (Algorithm 1). All
/// scratch comes from `ctx`; nothing is allocated per call.
pub(crate) fn gj(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: DynValue,
    sink: &mut Sink,
    sample: bool,
) {
    if level == program.attrs_len {
        sink.emit(program, &ctx.bindings, product);
        return;
    }
    if level >= program.fold_from {
        // Nothing below is output: one emit for the whole subtree.
        let mut acc = None;
        fold(program, ctx, level, product, &mut acc, sample);
        if let Some(folded) = acc {
            sink.emit(program, &ctx.bindings, folded);
        }
        return;
    }
    if program.levels[level].steps.is_empty() {
        // Attribute bound by no live atom at this node (can happen when a
        // selection removed the only binding atom): nothing to iterate.
        return;
    }
    if program.scatter && level + 1 == program.attrs_len {
        scatter(program, ctx, level, product, sink, sample);
        return;
    }
    for_each_binding(program, ctx, level, product, sample, |ctx, prod, s| {
        gj(program, ctx, level + 1, prod, sink, s)
    });
}

/// `⊕` one contribution into a local accumulator (`None` = nothing yet:
/// a fold starts from its first contribution, not from the ⊕-identity).
#[inline(always)]
fn accumulate(acc: &mut Option<DynValue>, op: AggOp, c: DynValue) {
    *acc = Some(match *acc {
        Some(a) => op.plus(a, c),
        None => c,
    });
}

/// `⊕`-fold every binding of levels `level..` under the current prefix
/// into `acc`, in ascending attribute-order position: the
/// early-aggregation half of the recursion, entered at
/// [`JoinProgram::fold_from`] with an empty accumulator.
fn fold(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: DynValue,
    acc: &mut Option<DynValue>,
    sample: bool,
) {
    if level == program.attrs_len {
        accumulate(acc, program.op, product);
        return;
    }
    let steps = &program.levels[level].steps;
    if steps.is_empty() {
        return;
    }
    let innermost = level + 1 == program.attrs_len;
    // Innermost count fast path (paper §5.3: aggregate queries never
    // materialize the deepest intersection) — applicability precomputed.
    if innermost && program.count_fast {
        // The hottest loop in the engine: even one counter bump per call
        // shows up against the <2% profiling-overhead ceiling, so this
        // path keeps NO per-call state. The timing decision rides in on
        // `sample` (the parent loop index), and the fold reconstructs the
        // exact call count from the kernel-dispatch stats (see
        // `fold_node_profile`).
        let started = if ctx.cfg.profile && sample {
            ctx.level_prof[level].samples += 1;
            Some(Instant::now())
        } else {
            None
        };
        let count = {
            let atoms = &ctx.atoms;
            if ctx.observe_any {
                observe_level(program, level, atoms, &mut ctx.obs, sample);
            }
            count_all_with(
                steps.len(),
                |k| &atoms[steps[k].atom].node_at(steps[k].depth).set,
                &ctx.cfg.intersect,
                &mut ctx.mw,
            )
        };
        if let Some(t) = started {
            let cell = &mut ctx.level_prof[level];
            cell.ns += t.elapsed().as_nanos() as u64;
            cell.values += count as u64;
        }
        if count > 0 {
            accumulate(acc, program.op, fold_count(program.op, product, count));
        }
        return;
    }
    if innermost {
        // The annotated sibling of the count fast path: one fused Σ⊗ over
        // the innermost candidates, leaf annotations fetched by rank.
        for_each_binding(program, ctx, level, product, sample, |_, prod, _| {
            accumulate(acc, program.op, prod)
        });
    } else {
        for_each_binding(program, ctx, level, product, sample, |ctx, prod, s| {
            fold(program, ctx, level + 1, prod, acc, s)
        });
    }
}

/// Innermost level of a query grouped by its innermost attribute, no
/// annotated atom bottoming out there: every candidate value is a group
/// key receiving the same `product`, so the whole set goes to the sink in
/// one scatter-`⊕` — no per-value bind, recursion or emit.
fn scatter(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    level: usize,
    product: DynValue,
    sink: &mut Sink,
    sample: bool,
) {
    let mut merged = std::mem::take(&mut ctx.scratch[level]);
    match level_candidates(program, ctx, level, &mut merged, sample) {
        Some(node) => sink.scatter(Keys::Set(&node.set), product, program.op),
        None => sink.scatter(Keys::Values(&merged), product, program.op),
    }
    ctx.scratch[level] = merged;
}

/// Fold `count` identical contributions of `product` into one value:
/// `⊕`-ing `product` with itself `count` times.
fn fold_count(op: AggOp, product: DynValue, count: usize) -> DynValue {
    match op {
        // x ⊕ ... ⊕ x (count times) = count·x in ℕ/ℝ semirings.
        AggOp::Count => DynValue::U64(product.as_u64().wrapping_mul(count as u64)),
        AggOp::Sum => DynValue::F64(product.as_f64() * count as f64),
        // min(x, x, ...) = x.
        AggOp::Min | AggOp::Max => product,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::executor::execute_rule;
    use crate::storage::{MemCatalog, Relation};
    use eh_query::parse_rule;

    fn path_catalog() -> MemCatalog {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_rows(2, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![1, 3]]),
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
        use eh_semiring::DynValue;
        let mut cat = MemCatalog::new();
        cat.insert(
            "W",
            Relation::from_annotated_rows(
                2,
                vec![vec![0, 1], vec![1, 2], vec![1, 3]],
                vec![DynValue::F64(2.0), DynValue::F64(3.0), DynValue::F64(5.0)],
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

    #[test]
    fn fold_count_semantics() {
        assert_eq!(fold_count(AggOp::Count, DynValue::U64(3), 4).as_u64(), 12);
        assert_eq!(fold_count(AggOp::Sum, DynValue::F64(2.5), 4).as_f64(), 10.0);
        assert_eq!(fold_count(AggOp::Min, DynValue::U64(7), 9).as_u64(), 7);
    }
}
