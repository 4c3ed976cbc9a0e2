//! Plan execution entry points: Generic-Join within GHD nodes, Yannakakis
//! across them (paper §3.3.2, Algorithm 1, Example 3.3).
//!
//! This module is the thin public face of a layered runtime:
//!
//! * `program` — compiles each GHD node into a `JoinProgram` (per-level
//!   participation tables, output/agg flags, leaf-annotation markers) and
//!   owns all scratch in a `GjContext`;
//! * `gj` — the allocation-free Generic-Join recursion;
//! * `parallel` — the morsel-driven (default) and static-partition
//!   level-0 schedulers;
//! * `sink` — emission sinks, the Yannakakis top-down pass, and the final
//!   projection/group-by.

use crate::config::Config;
use crate::plan::{PhysicalPlan, PlanNode};
use crate::program::{GjContext, JoinProgram};
use crate::sink::Sink;
use crate::storage::{Catalog, Relation};
use eh_obs::{QueryProfile, Span, WorkCounters};
use eh_query::Rule;
use eh_semiring::{with_carrier, AggOp, Carrier, DynValue};
use eh_trie::TupleBuffer;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub use crate::sink::{plan_sink_kinds, SinkKind};

/// Execution failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A body relation is not in the catalog.
    UnknownRelation(String),
    /// The atom's term count does not match the stored relation's arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity expected by the query atom.
        expected: usize,
        /// Arity of the stored relation.
        actual: usize,
    },
    /// Query-compiler failure.
    Plan(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation '{r}'"),
            ExecError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "relation '{relation}' has arity {actual}, query uses {expected}"
            ),
            ExecError::Plan(m) => write!(f, "planning failed: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Intermediate result of one GHD node's bottom-up evaluation.
#[derive(Clone, Debug, Default)]
pub struct NodeResult {
    /// Attribute names of the columns.
    pub attrs: Vec<String>,
    /// Result tuples, flat and columnar; the buffer's annotation column
    /// holds the early-aggregated value per row (aggregate queries only).
    /// Shared, not copied, between equivalent nodes and with the final
    /// projection.
    pub tuples: Arc<TupleBuffer>,
}

/// What one plan execution produced.
#[derive(Debug)]
pub struct Executed {
    /// The head relation.
    pub relation: Relation,
    /// Level-0 values the root node's scheduler loop owned: the shard's
    /// slice under [`Config::shard`] (the coordinator's skew signal), the
    /// whole merged range for an unsharded parallel run, 0 when the root
    /// ran the serial recursion (which never materialises the range).
    pub level0: u64,
    /// `Some` when [`Config::profile`] is on: the planner's estimated
    /// intersection work next to the observed counters and the span tree
    /// (per-node and per-level timings, per-worker balance). Rows and
    /// annotations are byte-identical either way — profiling only
    /// observes.
    pub profile: Option<QueryProfile>,
}

/// Compile and execute a single (non-recursive) rule. Planning reads the
/// catalog's statistics (cardinalities, per-column distinct counts) so the
/// attribute-order search is cost-based whenever stats are available.
pub fn execute_rule(
    rule: &Rule,
    catalog: &dyn Catalog,
    cfg: &Config,
) -> Result<Executed, ExecError> {
    let plan = compile_rule(rule, catalog, cfg).map_err(ExecError::Plan)?;
    execute(&plan, &rule.consts, catalog, cfg)
}

/// Plan `rule` against `catalog`'s statistics and compile the physical
/// plan; `Err` carries the query compiler's message.
pub fn compile_rule(
    rule: &Rule,
    catalog: &dyn Catalog,
    cfg: &Config,
) -> Result<PhysicalPlan, String> {
    let stats = crate::storage::CatalogStats(catalog);
    let ghd_plan = eh_ghd::plan_rule_with_stats(rule, &cfg.plan, &stats)?;
    Ok(PhysicalPlan::compile(rule, &ghd_plan))
}

/// Execute a compiled physical plan with `params` bound to its constant
/// slots — the engine's one entry point; profiling and sharding are read
/// off `cfg`.
///
/// Under [`Config::shard`] only the ROOT node is sharded: children run in
/// full on every shard (broadcast inputs), so the top-down assembly sees
/// complete child results while each root-level binding lands in exactly
/// one contiguous shard. The per-shard partial results therefore ⊕-merge
/// (in shard order) to exactly the single-process answer, and the
/// scheduler's range-ordered sink merge makes every shard's rows — and
/// so the merged fold order — independent of thread count.
pub fn execute(
    plan: &PhysicalPlan,
    params: &[String],
    catalog: &dyn Catalog,
    cfg: &Config,
) -> Result<Executed, ExecError> {
    // Profiling: the query's start, the origin of every span offset.
    let origin = cfg.profile.then(Instant::now);
    let mut profile = cfg.profile.then(|| QueryProfile {
        estimated_work: plan.estimated_cost,
        ..QueryProfile::default()
    });
    let mut level0 = 0u64;
    let is_agg = plan.agg.is_some();
    let op = plan.agg.as_ref().map(|a| a.op).unwrap_or(AggOp::Count);
    let root_id = plan.root().id;
    // Bottom-up pass: children execute before parents (plan order).
    let mut results: Vec<Option<NodeResult>> = vec![None; plan.nodes.len()];
    for node in &plan.nodes {
        let is_root = node.id == root_id;
        let shard = if is_root { cfg.shard } else { None };
        if shard.is_none() {
            if let Some(j) = node.equiv_to {
                // Redundant-work elimination (paper App. B.2): reuse the
                // earlier node's rows, relabeled to this node's output
                // attributes. The planner marks nodes equivalent only when
                // their positional signatures match, so the buffers are
                // byte-identical and the relabel is exact column for
                // column. Never taken for a sharded root: node j holds the
                // FULL result, and reusing it would return the whole
                // answer from every shard (an n-fold overcount after the
                // merge).
                if let Some(prev) = &results[j] {
                    debug_assert_eq!(
                        output_positions(&plan.nodes[j]),
                        output_positions(node),
                        "equivalent nodes keep the same output positions"
                    );
                    results[node.id] = Some(NodeResult {
                        attrs: node.output_attrs.clone(),
                        tuples: Arc::clone(&prev.tuples),
                    });
                    continue;
                }
            }
        }
        let result = run_node(
            node,
            plan,
            params,
            catalog,
            cfg,
            &results,
            is_agg,
            op,
            profile.as_mut().zip(origin),
            shard,
            is_root.then_some(&mut level0),
        )?;
        results[node.id] = Some(result);
    }
    // Top-down pass (Yannakakis): assemble full tuples unless skippable —
    // then the root's buffer is the answer and moves out (copied only if
    // an equivalent node still shares it).
    let top_down_started = origin.map(|_| Instant::now());
    let (attrs, tuples) = if plan.skip_top_down {
        let root = results[root_id].take().expect("the root node ran");
        drop(results);
        let tuples = Arc::try_unwrap(root.tuples).unwrap_or_else(|shared| (*shared).clone());
        (root.attrs, tuples)
    } else {
        let assembled = crate::sink::assemble(plan, &mut results, is_agg, op);
        drop(results);
        assembled
    };
    let finalize_started = origin.map(|_| Instant::now());
    let relation = crate::sink::finalize(plan, &attrs, tuples, catalog, is_agg, op)?;
    if let (Some(p), Some(origin), Some(t0), Some(t1)) =
        (&mut profile, origin, top_down_started, finalize_started)
    {
        let ended = Instant::now();
        p.close(origin, ended, relation.rows().len());
        let phases = [("top-down", t0, t1), ("finalize", t1, ended)];
        p.root
            .children
            .extend(phases.map(|(name, a, b)| Span::timed(name, origin, a, b)));
    }
    Ok(Executed {
        relation,
        level0,
        profile,
    })
}

/// Execute Generic-Join at one GHD node: compile the join program, then
/// run the recursion serially or fan level 0 out to the scheduler.
#[allow(clippy::too_many_arguments)]
fn run_node(
    node: &PlanNode,
    plan: &PhysicalPlan,
    params: &[String],
    catalog: &dyn Catalog,
    cfg: &Config,
    results: &[Option<NodeResult>],
    is_agg: bool,
    op: AggOp,
    profile: Option<(&mut QueryProfile, Instant)>,
    shard: Option<(u32, u32)>,
    level0_out: Option<&mut u64>,
) -> Result<NodeResult, ExecError> {
    // Profiling: the query's origin and this node's start.
    let mut profile = profile.map(|(p, origin)| (p, origin, Instant::now()));
    let build = crate::program::build_node(node, plan, params, catalog, cfg, results, is_agg, op)?;
    let program = JoinProgram::compile(
        node.attrs.len(),
        output_positions(node),
        &build.atoms,
        build.tries,
        is_agg,
        op,
    );
    let mut sink = Sink::new(
        crate::sink::sink_kind(node, is_agg, catalog),
        node.output_attrs.len(),
        op,
    );
    let mut sink_merge_ns = 0;
    let mut children = Vec::new();
    // A node is level-0-splittable when there is an outer loop to slice:
    // more than one attribute and at least one atom participating at
    // level 0. Non-splittable sharded nodes degrade gracefully — shard 0
    // runs the whole join, every other shard emits nothing, and the
    // coordinator's ⊕-merge still sees the full answer exactly once.
    let splittable = program.attrs_len > 1 && !program.levels[0].steps.is_empty();
    let run_here = !build.empty && (shard.is_none() || splittable || shard.unwrap().0 == 0);
    if run_here {
        let mut ctx = GjContext::new(&build.atoms, &program, cfg);
        ctx.origin = profile.as_ref().map(|&(_, origin, _)| origin);
        // The one place the runtime operator becomes a type: everything
        // below runs monomorphised over the node's carrier.
        with_carrier!(op, K => run_join::<K>(
            &program,
            &mut ctx,
            build.base_product,
            &mut sink,
            shard.filter(|_| splittable),
            splittable,
            level0_out,
        ));
        if let Some((p, origin, node_started)) = &mut profile {
            let start = node_started.saturating_duration_since(*origin);
            children = node_children(&mut ctx, &program, &mut p.work, start.as_nanos() as u64);
            sink_merge_ns = ctx.sink_merge_ns;
        }
    }
    let tuples = sink.into_node_tuples(op);
    if let Some((p, origin, node_started)) = profile {
        let name = format!("node {}", p.root.children.len());
        let mut span = Span::timed(name, origin, node_started, Instant::now())
            .with_value("rows", tuples.len() as u64);
        if sink_merge_ns > 0 {
            span.values.push(("sink_merge_ns".into(), sink_merge_ns));
        }
        span.children = children;
        p.root.children.push(span);
    }
    Ok(NodeResult {
        attrs: node.output_attrs.clone(),
        tuples: Arc::new(tuples),
    })
}

/// The index in `node.attrs` of each of its output columns.
fn output_positions(node: &PlanNode) -> Vec<usize> {
    node.output_attrs
        .iter()
        .map(|a| {
            node.attrs
                .iter()
                .position(|x| x == a)
                .expect("an output attribute is one of the node's attributes")
        })
        .collect()
}

/// Run one node's join into `sink`: the serial recursion, or — sharded,
/// or with more than one thread on a node with an outer loop to slice —
/// the shared level-0 prologue followed by the scheduler.
fn run_join<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    base_product: DynValue,
    sink: &mut Sink,
    shard: Option<(u32, u32)>,
    splittable: bool,
    level0_out: Option<&mut u64>,
) {
    let cfg = ctx.cfg;
    let base_product = K::from_dyn(base_product);
    let threads = cfg.effective_threads();
    if shard.is_none() && !(threads > 1 && splittable) {
        crate::gj::gj::<K>(program, ctx, 0, base_product, sink, true);
        return;
    }
    // Shared level-0 prologue: merge the outermost values once, then hand
    // the (shard's slice of the) range to the scheduler. Every shard
    // computes the identical merged list from its full local inputs, so
    // the contiguous index slice `[len*k/n, len*(k+1)/n)` partitions the
    // range exactly with no coordination beyond the two shard integers.
    let level0_started = cfg
        .profile
        .then(|| crate::gj::sample_clock(ctx, 0))
        .flatten();
    let mut merged = std::mem::take(&mut ctx.scratch[0]);
    crate::gj::fill_level(program, 0, &ctx.atoms, cfg, &mut ctx.mw, &mut merged);
    let range = match shard {
        Some((k, n)) => {
            let len = merged.len() as u64;
            let (k, n) = (k as u64, n as u64);
            (len * k / n) as usize..(len * (k + 1) / n) as usize
        }
        None => 0..merged.len(),
    };
    if let Some(out) = level0_out {
        *out = range.len() as u64;
    }
    if let Some(t) = level0_started {
        let cell = &mut ctx.level_prof[0];
        cell.ns += t.elapsed().as_nanos() as u64;
        cell.values += range.len() as u64;
    }
    if !range.is_empty() {
        crate::parallel::run::<K>(program, ctx, &merged, range, base_product, sink, threads);
    }
    ctx.scratch[0] = merged;
}

/// Drain a finished context's profiling state: fold its kernel-dispatch
/// stats and count-fast hits into `work`, and return the node span's
/// children — one `level k` span per level that recorded anything (all
/// starting at the node's offset `start`: levels interleave inside the
/// recursion, so their times are totals, not disjoint intervals), then
/// the workers' `thread k` spans.
fn node_children(
    ctx: &mut GjContext<'_>,
    program: &JoinProgram,
    work: &mut WorkCounters,
    start: u64,
) -> Vec<Span> {
    let kernels = std::mem::take(&mut ctx.mw.stats);
    // The innermost count fast path keeps no per-call tick (see `gj`):
    // reconstruct its exact call count from the kernel-dispatch stats.
    // Every n≥2 multiway call bumps `kernels.intersections` exactly once,
    // and every other level's calls are ticked exactly, so the innermost
    // count is the difference. Each call is one hit per participant.
    if program.count_fast && program.attrs_len > 0 {
        let last = program.attrs_len - 1;
        let steps = program.levels[last].steps.len();
        if steps >= 2 {
            let outer = program
                .levels
                .iter()
                .enumerate()
                .filter(|(l, lp)| *l != last && lp.steps.len() >= 2)
                .map(|(l, _)| ctx.level_prof[l].ticks)
                .fold(0u64, u64::wrapping_add);
            ctx.level_prof[last].ticks = kernels.intersections.wrapping_sub(outer);
        } else {
            // A single-participant count level never dispatches a kernel;
            // the sampled calls are the only signal, so estimate.
            let samples = ctx.level_prof[last].samples;
            ctx.level_prof[last].ticks = samples.saturating_mul(crate::gj::CLOCK_SAMPLE_MASK + 1);
        }
        let hits = ctx.level_prof[last].ticks.wrapping_mul(steps as u64);
        work.count_fast_hits = work.count_fast_hits.wrapping_add(hits);
    }
    work.merge(&kernels);
    let mut children: Vec<Span> = ctx
        .level_prof
        .iter()
        .enumerate()
        .filter_map(|(k, lt)| {
            // `ns` and `values` accumulated only over the sampled calls
            // (see `sample_clock`); scale back up by the exact
            // tick/sample ratio to estimate the full level.
            let scale = |x: u64| {
                if lt.samples > 0 {
                    (x as u128 * lt.ticks as u128 / lt.samples as u128) as u64
                } else {
                    x
                }
            };
            let (ns, values) = (scale(lt.ns), scale(lt.values));
            (ns > 0 || values > 0)
                .then(|| Span::new(format!("level {k}"), start, ns).with_value("values", values))
        })
        .collect();
    children.append(&mut ctx.threads);
    children
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheduler;
    use crate::storage::MemCatalog;
    use eh_query::parse_rule;

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
    fn unknown_relation_errors() {
        let cat = path_catalog();
        let rule = parse_rule("Q(x) :- Nope(x,y).").unwrap();
        match execute_rule(&rule, &cat, &Config::default()) {
            Err(ExecError::UnknownRelation(r)) => assert_eq!(r, "Nope"),
            other => panic!("expected UnknownRelation, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_errors() {
        let cat = path_catalog();
        let rule = parse_rule("Q(x) :- E(x,y,z).").unwrap();
        assert!(matches!(
            execute_rule(&rule, &cat, &Config::default()),
            Err(ExecError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn execution_never_rewrites_a_cached_trie() {
        use eh_set::LayoutPolicy;
        // E: 20 hub sources with dense (consecutive) neighbour sets, plus
        // 500 tail sources with singleton neighbours, so level 1 is
        // uint-majority at build time. F shares only the hub sources: the
        // join reads nothing but E's dense sets. Whatever it reads, the
        // catalog's cached trie is the one the build made.
        let mut e_rows: Vec<Vec<u32>> = Vec::new();
        for x in 0..20u32 {
            for y in 0..100u32 {
                e_rows.push(vec![x, 1000 + y]);
            }
        }
        for t in 0..500u32 {
            e_rows.push(vec![100 + t, 5000 + t]);
        }
        let f_rows: Vec<Vec<u32>> = (0..20u32)
            .flat_map(|x| (0..100u32).map(move |y| vec![x, 1000 + y]))
            .collect();
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &e_rows), AggOp::Sum),
        );
        cat.insert(
            "F",
            Relation::from_buffer(TupleBuffer::from_rows(2, &f_rows), AggOp::Sum),
        );
        let rule = parse_rule("C(;w:long) :- E(x,y),F(x,y); w=<<COUNT(*)>>.").unwrap();
        let cached = || {
            cat.relation("E")
                .unwrap()
                .trie(&[0, 1], LayoutPolicy::SetLevel)
        };
        let before = cached();
        let census = before.level_census(1);
        assert!(census.0 > census.1, "uint majority at build time");
        for threads in [1, 4] {
            let cfg = Config::default().with_threads(threads);
            for run in 0..3 {
                let out = execute_rule(&rule, &cat, &cfg).unwrap().relation;
                assert_eq!(out.scalar().unwrap().as_u64(), 2000, "x{threads} run {run}");
                assert!(Arc::ptr_eq(&before, &cached()), "x{threads} run {run}");
                assert_eq!(cached().level_census(1), census, "x{threads} run {run}");
            }
        }
    }

    fn compile(rule: &Rule, cat: &dyn Catalog, cfg: &Config) -> PhysicalPlan {
        compile_rule(rule, cat, cfg).unwrap()
    }

    fn skewed_catalog() -> MemCatalog {
        // A hub (vertex 0) with a long tail: level-0 shards see very
        // different work, which is exactly what the contiguous-range
        // partition must survive without changing the answer.
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for b in 1..40u32 {
            edges.push(vec![0, b]);
            edges.push(vec![b, 0]);
        }
        for a in 1..40u32 {
            for b in (a + 1)..40u32 {
                if (a * 7 + b * 13) % 11 == 0 {
                    edges.push(vec![a, b]);
                    edges.push(vec![b, a]);
                }
            }
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &edges), AggOp::Sum),
        );
        cat
    }

    #[test]
    fn sharded_count_partials_sum_to_full() {
        let cat = skewed_catalog();
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.").unwrap();
        let cfg = Config::default();
        let plan = compile(&rule, &cat, &cfg);
        let full = execute(&plan, &rule.consts, &cat, &cfg).unwrap().relation;
        let want = full.scalar().unwrap().as_u64();
        assert!(want > 0);
        for n in [1u32, 2, 3, 5, 8] {
            let mut got = 0u64;
            let mut level0_total = 0u64;
            for k in 0..n {
                let shard_cfg = cfg.with_shard(k, n);
                let Executed {
                    relation: rel,
                    level0,
                    ..
                } = execute(&plan, &rule.consts, &cat, &shard_cfg).unwrap();
                // Scalar plans always emit exactly one row, even for an
                // empty shard (the ⊕-identity) — the coordinator never
                // needs a missing-row special case.
                assert_eq!(rel.rows().len(), 1, "{k}/{n}");
                got += rel.scalar().unwrap().as_u64();
                level0_total += level0;
            }
            assert_eq!(got, want, "{n} shards");
            if n > 1 {
                assert!(level0_total > 0, "level-0 ownership reported");
            }
        }
    }

    #[test]
    fn sharded_rows_concat_sorted_equals_full() {
        let cat = skewed_catalog();
        let rule = parse_rule("P(x,z) :- E(x,y),E(y,z).").unwrap();
        let cfg = Config::default();
        let plan = compile(&rule, &cat, &cfg);
        let full = execute(&plan, &rule.consts, &cat, &cfg).unwrap().relation;
        for n in [2u32, 4] {
            let mut merged = TupleBuffer::new(2);
            for k in 0..n {
                let shard_cfg = cfg.with_shard(k, n);
                let rel = execute(&plan, &rule.consts, &cat, &shard_cfg)
                    .unwrap()
                    .relation;
                merged.append(rel.rows());
            }
            // Rows may repeat across shards after projection (two root
            // bindings in different shards can project to one output
            // row); the coordinator's sort+dedup collapses them.
            let merged = merged.sorted_dedup(AggOp::Count);
            assert_eq!(merged.len(), full.rows().len(), "{n} shards");
            assert_eq!(merged.flat(), full.rows().flat(), "{n} shards");
        }
    }

    #[test]
    fn sharded_multinode_plan_skips_root_equiv_reuse() {
        // Barbell with node dedup: the GHD contains equivalent triangle
        // nodes. If a sharded root reused the earlier node's FULL result
        // (the equiv_to shortcut), every shard would return the whole
        // answer and the merged count would overcount n-fold.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    edges.push(vec![a, b]);
                }
            }
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &edges), AggOp::Sum),
        );
        let rule = parse_rule(
            "B(;w:long) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c); w=<<COUNT(*)>>.",
        )
        .unwrap();
        let cfg = Config::default();
        let plan = compile(&rule, &cat, &cfg);
        let want = execute(&plan, &rule.consts, &cat, &cfg)
            .unwrap()
            .relation
            .scalar()
            .unwrap()
            .as_u64();
        for n in [2u32, 3] {
            let got: u64 = (0..n)
                .map(|k| {
                    execute(&plan, &rule.consts, &cat, &cfg.with_shard(k, n))
                        .unwrap()
                        .relation
                        .scalar()
                        .unwrap()
                        .as_u64()
                })
                .sum();
            assert_eq!(got, want, "{n} shards");
        }
    }

    #[test]
    fn sharding_composes_with_threads() {
        let cat = skewed_catalog();
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.").unwrap();
        let cfg = Config::default();
        let plan = compile(&rule, &cat, &cfg);
        let want = execute(&plan, &rule.consts, &cat, &cfg)
            .unwrap()
            .relation
            .scalar()
            .unwrap()
            .as_u64();
        let threaded = cfg.with_threads(4);
        let got: u64 = (0..3u32)
            .map(|k| {
                execute(&plan, &rule.consts, &cat, &threaded.with_shard(k, 3))
                    .unwrap()
                    .relation
                    .scalar()
                    .unwrap()
                    .as_u64()
            })
            .sum();
        assert_eq!(got, want, "sharded + 4 threads");
    }

    #[test]
    fn profiled_run_observes_work_without_changing_results() {
        let cat = path_catalog();
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.").unwrap();
        let plain = execute_rule(&rule, &cat, &Config::default()).unwrap();
        // Off by default: no profile comes back.
        assert!(plain.profile.is_none());
        let plain = plain.relation;
        let profiled = execute_rule(&rule, &cat, &Config::default().with_profile(true)).unwrap();
        assert_eq!(plain.scalar(), profiled.relation.scalar());
        let p = profiled.profile.expect("profile requested");
        assert!(p.observed_work() > 0, "values were scanned: {p:?}");
        assert!(p.work.count_fast_hits > 0, "innermost count path profiled");
        assert_eq!(p.root.value("observed_work"), Some(p.observed_work()));
        // Parallel runs observe the same totals.
        let cfg = Config::default().with_profile(true).with_threads(4);
        let par = execute_rule(&rule, &cat, &cfg).unwrap();
        assert_eq!(plain.scalar(), par.relation.scalar());
        assert_eq!(par.profile.unwrap().work, p.work);
    }

    /// 20 000 edges: big enough that the untimed glue between the spans
    /// is noise, and that every node has a level-0 range to split.
    fn listing_catalog() -> MemCatalog {
        let rows: Vec<[u32; 2]> = (0..20_000u32)
            .map(|i| [i % 1_999, i.wrapping_mul(2_654_435_761) % 1_999])
            .collect();
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum),
        );
        cat
    }

    fn keys(span: &Span) -> Vec<&str> {
        span.values.iter().map(|(k, _)| k.as_str()).collect()
    }

    fn names(spans: &[Span]) -> Vec<&str> {
        spans.iter().map(|s| s.name.as_str()).collect()
    }

    fn end(span: &Span) -> u64 {
        span.start_ns_rel + span.elapsed_ns
    }

    #[test]
    fn profile_span_tree_skeleton() {
        // A 2-path listing spends most of its time after the join; the
        // tree must say where, in disjoint intervals measured from the
        // query's start.
        let cat = listing_catalog();
        let rule = parse_rule("P(x,z) :- E(x,y),E(y,z).").unwrap();
        let cfg = Config::default().with_profile(true);
        let run = execute_rule(&rule, &cat, &cfg).unwrap();
        let p = run.profile.unwrap();
        let root = &p.root;
        assert_eq!((root.name.as_str(), root.start_ns_rel), ("query", 0));
        assert!(
            p.estimated_work.is_some(),
            "catalog stats make the order cost-based"
        );
        assert_eq!(keys(root), ["rows", "observed_work", "estimated_work"]);
        assert_eq!(root.value("rows"), Some(run.relation.rows().len() as u64));
        assert_eq!(
            names(&root.children),
            ["node 0", "node 1", "top-down", "finalize"]
        );
        for node in &root.children[..2] {
            assert_eq!(keys(node), ["rows"], "{node:?}");
            assert!(!node.children.is_empty(), "{node:?}");
            for (k, level) in node.children.iter().enumerate() {
                assert_eq!(level.name, format!("level {k}"), "{node:?}");
                assert_eq!(keys(level), ["values"]);
                assert_eq!(level.start_ns_rel, node.start_ns_rel);
            }
        }
        for phase in &root.children[2..] {
            assert!(phase.values.is_empty() && phase.children.is_empty());
        }
        for pair in root.children.windows(2) {
            assert!(end(&pair[0]) <= pair[1].start_ns_rel, "{pair:?}");
        }
        assert!(end(&root.children[3]) <= root.elapsed_ns, "{root:?}");
        let covered: u64 = root.children.iter().map(|c| c.elapsed_ns).sum();
        assert!(covered <= root.elapsed_ns, "{covered} of {root:?}");
        assert!(covered * 10 >= root.elapsed_ns * 9, "{covered} of {root:?}");
        assert!(root.children[2].elapsed_ns > 0 && root.children[3].elapsed_ns > 0);
        // A plan that skips the pass reports no time in it.
        let count = parse_rule("C(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.").unwrap();
        let root = execute_rule(&count, &cat, &cfg)
            .unwrap()
            .profile
            .unwrap()
            .root;
        assert_eq!(root.children[root.children.len() - 2].name, "top-down");
        assert!(root.children[root.children.len() - 2].elapsed_ns < root.elapsed_ns / 10);
    }

    #[test]
    fn parallel_nodes_carry_one_thread_span_per_worker() {
        let cat = listing_catalog();
        let rule = parse_rule("P(x,z) :- E(x,y),E(y,z).").unwrap();
        for scheduler in [Scheduler::Morsel, Scheduler::Static] {
            let cfg = Config::default()
                .with_profile(true)
                .with_threads(4)
                .with_scheduler(scheduler);
            let run = execute_rule(&rule, &cat, &cfg).unwrap();
            let root = run.profile.unwrap().root;
            assert_eq!(names(&root.children[..2]), ["node 0", "node 1"]);
            for node in &root.children[..2] {
                assert!(node.value("workers").is_none(), "{node:?}");
                let threads: Vec<&Span> = node
                    .children
                    .iter()
                    .filter(|c| c.name.starts_with("thread "))
                    .collect();
                // Both schedulers spawn every worker.
                assert_eq!(threads.len(), 4, "{node:?}");
                for (k, t) in threads.iter().enumerate() {
                    assert_eq!(t.name, format!("thread {k}"));
                    assert_eq!(keys(t), ["morsels", "values"]);
                    assert!(t.start_ns_rel >= node.start_ns_rel && end(t) <= end(node));
                }
                let sum = |key: &str| -> u64 { threads.iter().filter_map(|t| t.value(key)).sum() };
                let values = sum("values");
                if node.name == "node 1" {
                    // The root node's workers split exactly its range.
                    assert!(run.level0 > 0);
                    assert_eq!(values, run.level0, "{scheduler:?}");
                }
                // Which worker claims which chunk races; how many chunks
                // the range is cut into does not.
                let chunk = cfg.effective_morsel(values as usize, 4) as u64;
                assert_eq!(sum("morsels"), values.div_ceil(chunk), "{scheduler:?}");
            }
        }
        // A serial run has no worker lanes.
        let cfg = Config::default().with_profile(true);
        let root = execute_rule(&rule, &cat, &cfg)
            .unwrap()
            .profile
            .unwrap()
            .root;
        let rendered = root.render();
        assert!(!rendered.contains("thread "), "{rendered}");
    }

    #[test]
    fn barbell_count_with_dedup_matches_no_dedup() {
        // Small undirected clique graph where barbells exist.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    edges.push(vec![a, b]);
                }
            }
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &edges), AggOp::Sum),
        );
        let rule = parse_rule(
            "B(;w:long) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c); w=<<COUNT(*)>>.",
        )
        .unwrap();
        let with = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        let mut cfg = Config::default();
        cfg.plan.dedup_nodes = false;
        let without = execute_rule(&rule, &cat, &cfg).unwrap().relation;
        assert_eq!(
            with.scalar().unwrap().as_u64(),
            without.scalar().unwrap().as_u64()
        );
        let single = execute_rule(&rule, &cat, &Config::no_ghd())
            .unwrap()
            .relation;
        assert_eq!(
            with.scalar().unwrap().as_u64(),
            single.scalar().unwrap().as_u64()
        );
    }

    #[test]
    fn constant_bridge_gives_child_with_empty_interface() {
        // Both triangle groups anchor on the constant '0', so after
        // selection resolution the GHD child shares no *variables* with
        // its parent — a cross-product child whose folded count must
        // multiply into the parent as a constant factor (regression:
        // this used to be silently dropped, undercounting by the whole
        // child's fold).
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a != b {
                    edges.push(vec![a, b]);
                }
            }
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &edges), AggOp::Sum),
        );
        let rule = parse_rule(
            "S(;w:long) :- E(x,y),E(y,z),E(x,z),E(x,'0'),E('0',a),E(a,b),E(b,c),E(a,c); w=<<COUNT(*)>>.",
        )
        .unwrap();
        let ghd = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        let single = execute_rule(&rule, &cat, &Config::no_ghd())
            .unwrap()
            .relation;
        assert_eq!(
            ghd.scalar().unwrap().as_u64(),
            single.scalar().unwrap().as_u64()
        );
        assert!(ghd.scalar().unwrap().as_u64() > 0);
    }

    #[test]
    fn barbell_materialization_top_down() {
        // Two triangles joined by a bridge: (0,1,2) and (3,4,5), bridge 0-3.
        let tri = |a: u32, b: u32, c: u32| vec![(a, b), (b, a), (b, c), (c, b), (a, c), (c, a)];
        let mut edges: Vec<(u32, u32)> = tri(0, 1, 2);
        edges.extend(tri(3, 4, 5));
        edges.push((0, 3));
        edges.push((3, 0));
        let rows: Vec<Vec<u32>> = edges.into_iter().map(|(a, b)| vec![a, b]).collect();
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum),
        );
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).")
                .unwrap();
        let out = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        assert!(!out.is_empty());
        // Every emitted row must satisfy all seven body atoms.
        let has = |a: u32, b: u32| cat.relation("E").unwrap().rows().contains_row(&[a, b]);
        for row in out.rows() {
            let (x, y, z, a, b, c) = (row[0], row[1], row[2], row[3], row[4], row[5]);
            assert!(has(x, y) && has(y, z) && has(x, z), "left triangle {row:?}");
            assert!(
                has(a, b) && has(b, c) && has(a, c),
                "right triangle {row:?}"
            );
            assert!(has(x, a), "bridge {row:?}");
        }
        // Cross-triangle barbells over the explicit 0-3 bridge must appear.
        assert!(out
            .rows()
            .iter()
            .any(|r| (r[0] == 0 && r[3] == 3) || (r[0] == 3 && r[3] == 0)));
        // Cross-check the full result against the single-node plan.
        let single = execute_rule(&rule, &cat, &Config::no_ghd())
            .unwrap()
            .relation;
        assert_eq!(out.rows().len(), single.rows().len());
        assert_eq!(out.rows(), single.rows());
    }
}
