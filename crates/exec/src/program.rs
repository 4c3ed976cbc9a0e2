//! The compiled join program: everything Generic-Join needs to know about
//! one GHD node, discovered **once** before the loop nest runs.
//!
//! The paper's code generator emits loops whose participation structure is
//! baked in at compile time; the interpreted engine recovers that property
//! here. [`JoinProgram`] precomputes, per attribute level, which atoms
//! participate (and at what trie depth), what binding a value does to each
//! of them and where the rank that needs comes from (the **bind plan**:
//! [`Bind`], [`RankBy`]), whether the level is retained in the output, and
//! whether the innermost count fast path applies — so the recursion in
//! [`crate::gj`] does zero per-call discovery. [`GjContext`] owns every
//! scratch buffer the recursion touches (per-level value buffers,
//! multiway-intersection ping-pong buffers, the binding vector, and the
//! per-atom cursor stacks), so the loop nest allocates nothing.
//!
//! The tries a program walks are shared and read-only: their layouts are
//! the ones the catalog's build picked (paper §4.3), and running the
//! program reads them without recording anything about them.

use crate::config::Config;
use crate::executor::{ExecError, NodeResult};
use crate::plan::{AtomPlan, PhysicalPlan, PlanNode};
use crate::storage::{Catalog, Relation};
use eh_obs::{Span, WorkCounters};
use eh_semiring::{AggOp, DynValue};
use eh_set::MultiwayScratch;
use eh_trie::{NodeId, Trie, TrieNode, TupleBuffer};
use std::sync::Arc;
use std::time::Instant;

/// A reusable per-level set-value scratch buffer (not a tuple table —
/// one flat run of candidate values per Generic-Join level).
pub(crate) type ValueBuf = Vec<u32>;

/// One live atom of a node as [`build_node`] produces it: where its trie
/// cursor starts and how it participates. The trie itself travels beside
/// it ([`NodeBuild::tries`]) and ends up owned by the [`JoinProgram`].
#[derive(Clone, Debug)]
pub(crate) struct AtomSpec {
    /// Node-attr indices this atom binds, ascending.
    pub(crate) attr_levels: Vec<usize>,
    /// Trie node the cursor starts at (past the constant prefix).
    pub(crate) start: NodeId,
    /// Whether leaf values carry annotations to multiply in.
    pub(crate) annotated: bool,
}

/// Per-atom cursor state during Generic-Join.
///
/// `trie` is a plain borrow of the program's trie, so a loop can hold a
/// `&'a TrieNode` — iterate a set in place — while the recursion below it
/// advances the cursors. `stack` and `hints` are fixed-length (one slot
/// per bound level), preallocated here so descending the trie writes
/// slots instead of pushing — the recursion never grows them. Whether the
/// atom multiplies annotations in is compiled into its leaf step
/// ([`Bind::Annot`]), not asked per binding.
#[derive(Clone)]
pub(crate) struct AtomExec<'a> {
    pub(crate) trie: &'a Trie,
    /// Trie path: `stack[k]` is the node consulted when binding the
    /// atom's `k`-th attribute level — resolved to a reference when the
    /// level above descends, so every later read is one load.
    pub(crate) stack: Vec<&'a TrieNode>,
    /// Monotone rank cursors parallel to `stack` — values at each depth
    /// arrive ascending, so rank probes only ever move forward.
    pub(crate) hints: Vec<usize>,
    /// Whether the trie's raw annotation columns hold `f64` bits
    /// ([`Trie::float_annotations`]), hoisted next to the cursor.
    pub(crate) float_annots: bool,
}

impl<'a> AtomExec<'a> {
    fn new(spec: &AtomSpec, trie: &'a Trie) -> AtomExec<'a> {
        // A child atom with an empty interface binds no level at all (it
        // joins the parent as a bare cross product); keep one slot so the
        // root cursor exists but nothing ever advances it.
        let depth = spec.attr_levels.len().max(1);
        let stack = vec![trie.node(spec.start); depth];
        AtomExec {
            trie,
            stack,
            hints: vec![0; depth],
            float_annots: trie.float_annotations(),
        }
    }

    /// The trie node this cursor currently stands on at stack depth `d`.
    /// The borrow is of the trie, not of the cursor.
    #[inline]
    pub(crate) fn node_at(&self, d: usize) -> &'a TrieNode {
        self.stack[d]
    }

    /// Move the cursor below depth `d` onto `child` of the node there.
    #[inline]
    pub(crate) fn descend(&mut self, d: usize, child: NodeId) {
        self.stack[d + 1] = self.trie.node(child);
    }
}

/// Where a bind step's rank comes from — decided at compile time, so the
/// loop nest never searches for the position of a value the intersection
/// just produced when it is already known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RankBy {
    /// The atom is the level's only participant: its set is walked in
    /// place, and a value's position in the walk *is* its rank.
    Position,
    /// The set is the complete range starting here
    /// ([`eh_set::Set::dense_base`] — the root level of a relation over
    /// dense ids): the rank is a subtraction.
    Range(u32),
    /// Neither: the atom's forward rank cursor finds it.
    Cursor,
}

/// What binding a value does to one participating atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Bind {
    /// Unannotated leaf: the candidate list is already the exact
    /// intersection of every participant, so membership is known and
    /// nothing hangs off the value — no rank, no work.
    Member,
    /// Internal level: move the atom's cursor to the value's child node.
    Descend(RankBy),
    /// Annotated leaf: `⊗` the value's annotation into the product.
    Annot(RankBy),
}

/// One participation entry: atom `atom` is consulted at trie depth `depth`
/// when binding this level, and `bind` is what binding a value does to it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LevelStep {
    pub(crate) atom: usize,
    pub(crate) depth: usize,
    pub(crate) bind: Bind,
}

/// The participation table for one attribute level.
#[derive(Clone, Debug, Default)]
pub(crate) struct LevelProgram {
    /// Atoms participating at this level, with their stack depth.
    pub(crate) steps: Vec<LevelStep>,
    /// Whether the attribute is retained in the node's output.
    pub(crate) is_output: bool,
}

/// The compiled program for one GHD node: per-level participation tables,
/// output positions, and aggregate flags, precomputed once so the
/// recursion in [`crate::gj`] does no per-call discovery or allocation.
pub(crate) struct JoinProgram {
    /// The trie each atom walks, parallel to [`GjContext::atoms`], whose
    /// cursors borrow from here.
    pub(crate) tries: Vec<Arc<Trie>>,
    /// Number of attribute levels (`levels.len()`).
    pub(crate) attrs_len: usize,
    /// One participation table per level.
    pub(crate) levels: Vec<LevelProgram>,
    /// For each output column, the node-attr index it reads.
    pub(crate) output_levels: Vec<usize>,
    /// The carrier semiring operator.
    pub(crate) op: AggOp,
    /// The innermost count fast path applies (paper §5.3: aggregate
    /// queries never materialize the deepest intersection): the last
    /// level is not output and no annotated atom bottoms out there.
    pub(crate) count_fast: bool,
    /// Early aggregation (paper §3.3): the first level below which nothing
    /// is output — last output level + 1, so 0 for a scalar. From here
    /// down an aggregate folds into a local accumulator and emits once per
    /// output prefix. `usize::MAX` when the rule does not aggregate.
    pub(crate) fold_from: usize,
    /// The push-side dual of the count fast path: the last level is the
    /// only output key and no annotated atom bottoms out there, so the
    /// running product is constant across the innermost set and scatters
    /// `⊕` straight into the sink.
    pub(crate) scatter: bool,
}

impl JoinProgram {
    /// Compile the participation tables from the built atoms.
    pub(crate) fn compile(
        attrs_len: usize,
        output_levels: Vec<usize>,
        atoms: &[AtomSpec],
        tries: Vec<Arc<Trie>>,
        is_agg: bool,
        op: AggOp,
    ) -> JoinProgram {
        debug_assert_eq!(atoms.len(), tries.len());
        let mut levels: Vec<LevelProgram> = Vec::with_capacity(attrs_len);
        for level in 0..attrs_len {
            let participants: Vec<(usize, usize)> = atoms
                .iter()
                .enumerate()
                .filter_map(|(i, a)| Some((i, a.attr_levels.iter().position(|&l| l == level)?)))
                .collect();
            let steps = participants
                .iter()
                .map(|&(i, depth)| {
                    let a = &atoms[i];
                    let rank = if participants.len() == 1 {
                        RankBy::Position
                    } else if depth > 0 {
                        RankBy::Cursor
                    } else {
                        // Depth 0 reads one fixed set for the whole run.
                        match tries[i].node(a.start).set.dense_base() {
                            Some(base) => RankBy::Range(base),
                            None => RankBy::Cursor,
                        }
                    };
                    let bind = if depth + 1 < a.attr_levels.len() {
                        Bind::Descend(rank)
                    } else if a.annotated {
                        Bind::Annot(rank)
                    } else {
                        Bind::Member
                    };
                    LevelStep {
                        atom: i,
                        depth,
                        bind,
                    }
                })
                .collect();
            levels.push(LevelProgram {
                steps,
                is_output: output_levels.contains(&level),
            });
        }
        // No annotated atom bottoms out at the last level: every binding
        // there carries the same running product.
        let plain_last = levels.last().is_some_and(|last| {
            last.steps
                .iter()
                .all(|st| !matches!(st.bind, Bind::Annot(_)))
        });
        let last_is_output = levels.last().is_some_and(|last| last.is_output);
        let fold_from = if is_agg {
            output_levels.iter().max().map_or(0, |&l| l + 1)
        } else {
            usize::MAX
        };
        JoinProgram {
            tries,
            attrs_len,
            levels,
            count_fast: is_agg && plain_last && !last_is_output,
            scatter: is_agg && plain_last && last_is_output && output_levels.len() == 1,
            fold_from,
            output_levels,
            op,
        }
    }
}

/// Everything mutable Generic-Join touches for one GHD node: the per-atom
/// trie cursors plus every scratch buffer the recursion reuses. The
/// recursion itself (see [`crate::gj`]) allocates nothing — all storage
/// comes from here.
pub(crate) struct GjContext<'a> {
    /// Per-atom cursor state (stacks and rank hints).
    pub(crate) atoms: Vec<AtomExec<'a>>,
    /// The current partial assignment, one slot per level.
    pub(crate) bindings: ValueBuf,
    /// Reusable per-level value buffers.
    pub(crate) scratch: Vec<ValueBuf>,
    /// Reusable multiway-intersection intermediates (shared across levels:
    /// only live while one level's merge or count is being computed).
    pub(crate) mw: MultiwayScratch,
    /// Profiling: one [`LevelTally`] per attribute level, consolidated so
    /// the hot path's per-call tick costs one bounds check on one cache
    /// line (see [`crate::gj::sample_clock`]).
    pub(crate) level_prof: Vec<LevelTally>,
    /// Profiling: time spent folding per-worker sinks (parallel only).
    pub(crate) sink_merge_ns: u64,
    /// Profiling: the query's start, which every span offset counts
    /// from (`None` when [`Config::profile`] is off).
    pub(crate) origin: Option<Instant>,
    /// Profiling: one `thread k` span per parallel worker (busy time,
    /// morsels claimed, level-0 values processed).
    pub(crate) threads: Vec<Span>,
    /// Engine configuration (intersection kernels, scheduler knobs).
    pub(crate) cfg: &'a Config,
}

/// Profiling state a parallel worker hands back to the parent context:
/// its level timings and kernel-dispatch stats, drained from the
/// worker's forked context after its share of the join.
pub(crate) struct WorkerTally {
    pub(crate) level_prof: Vec<LevelTally>,
    pub(crate) kernels: WorkCounters,
}

/// Per-level profiling accumulators. `ticks` counts every profiled
/// merge/count call (exact — it is both the sampling trigger and the
/// count fast path's hit source); `samples`, `ns`, and `values` are
/// recorded only on the sampled calls (1 in `CLOCK_SAMPLE_MASK + 1`),
/// so readers scale them by `ticks / samples` (see
/// [`crate::gj::sample_clock`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LevelTally {
    /// Profiled calls at this level (exact).
    pub(crate) ticks: u64,
    /// How many of those calls read the clock.
    pub(crate) samples: u64,
    /// Nanoseconds accumulated over the sampled calls.
    pub(crate) ns: u64,
    /// Candidate values produced by the sampled calls (counts from the
    /// never-materializing count fast path included); scale like `ns`.
    pub(crate) values: u64,
}

impl LevelTally {
    /// Wrapping element-wise fold (order-independent across workers).
    pub(crate) fn merge(&mut self, other: &LevelTally) {
        self.ticks = self.ticks.wrapping_add(other.ticks);
        self.samples = self.samples.wrapping_add(other.samples);
        self.ns = self.ns.wrapping_add(other.ns);
        self.values = self.values.wrapping_add(other.values);
    }
}

impl<'a> GjContext<'a> {
    /// Fresh context: one cursor per atom of `program`, at its start node.
    pub(crate) fn new(
        specs: &[AtomSpec],
        program: &'a JoinProgram,
        cfg: &'a Config,
    ) -> GjContext<'a> {
        let attrs_len = program.attrs_len;
        let atoms: Vec<AtomExec<'a>> = specs
            .iter()
            .zip(&program.tries)
            .map(|(spec, trie)| AtomExec::new(spec, trie))
            .collect();
        GjContext {
            atoms,
            bindings: vec![0; attrs_len],
            scratch: vec![ValueBuf::new(); attrs_len],
            mw: MultiwayScratch::new(),
            level_prof: vec![LevelTally::default(); attrs_len],
            sink_merge_ns: 0,
            origin: None,
            threads: Vec::new(),
            cfg,
        }
    }

    /// Clone for a worker thread: same atom cursors (cheap — tries are
    /// borrowed), fresh scratch. Worker profiling counters start at zero
    /// and are merged back by the parallel driver.
    pub(crate) fn fork(&self) -> GjContext<'a> {
        GjContext {
            atoms: self.atoms.clone(),
            bindings: vec![0; self.bindings.len()],
            scratch: vec![ValueBuf::new(); self.scratch.len()],
            mw: MultiwayScratch::new(),
            level_prof: vec![LevelTally::default(); self.level_prof.len()],
            sink_merge_ns: 0,
            origin: self.origin,
            threads: Vec::new(),
            cfg: self.cfg,
        }
    }

    /// Drain this context's profiling counters into a [`WorkerTally`]
    /// (used by workers just before their contexts are dropped).
    pub(crate) fn take_tally(&mut self) -> WorkerTally {
        WorkerTally {
            level_prof: std::mem::take(&mut self.level_prof),
            kernels: std::mem::take(&mut self.mw.stats),
        }
    }

    /// Fold a worker's tally back into this context. Plain wrapping adds
    /// throughout, so the fold order across workers doesn't matter.
    pub(crate) fn merge_tally(&mut self, tally: &WorkerTally) {
        for (m, t) in self.level_prof.iter_mut().zip(&tally.level_prof) {
            m.merge(t);
        }
        self.mw.stats.merge(&tally.kernels);
    }
}

/// The atoms of one node, built and positioned past their constant
/// prefixes, plus the constant-only annotation product.
pub(crate) struct NodeBuild {
    /// Live atoms (query atoms and child-interface atoms).
    pub(crate) atoms: Vec<AtomSpec>,
    /// The trie each live atom walks, parallel to `atoms`.
    pub(crate) tries: Vec<Arc<Trie>>,
    /// Annotation product of fully-constant atoms and scalar factors.
    pub(crate) base_product: DynValue,
    /// A constant prefix missed or a child was empty: the node is empty.
    pub(crate) empty: bool,
}

/// Build every atom of a node: the plan's own atoms plus one trie per
/// child result joined in over its interface attributes. `params` are
/// the values bound to the rule's constant slots.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_node(
    node: &PlanNode,
    plan: &PhysicalPlan,
    params: &[String],
    catalog: &dyn Catalog,
    cfg: &Config,
    results: &[Option<NodeResult>],
    is_agg: bool,
    op: AggOp,
) -> Result<NodeBuild, ExecError> {
    let mut atoms: Vec<AtomSpec> = Vec::new();
    let mut tries: Vec<Arc<Trie>> = Vec::new();
    let mut base_product = op.one();
    let mut empty = false;
    for ap in &node.atoms {
        match build_atom(ap, node, params, catalog, cfg, is_agg, op)? {
            BuiltAtom::Live(a, trie) => {
                atoms.push(a);
                tries.push(trie);
            }
            BuiltAtom::ConstOnly(annot) => {
                base_product = op.times(base_product, annot);
            }
            BuiltAtom::Empty => {
                empty = true;
            }
        }
    }
    // Children join in as atoms over their interface attributes.
    for &child_id in &node.children {
        let child_plan = &plan.nodes[child_id];
        let child_result = results[child_id].as_ref().unwrap();
        let (rel, fully_folded) = child_as_relation(child_plan, child_result, is_agg, op);
        if rel.is_empty() {
            empty = true;
        }
        if child_plan.interface.is_empty() {
            // Cross-product child (no shared attributes — e.g. two
            // subpatterns bridged only through a selection constant): a
            // non-empty child is a pure existence filter, and a fully
            // folded aggregate child contributes its scalar `⊕`-fold as a
            // constant factor of every parent row. There is no trie to
            // join, so it must not become a live atom.
            if is_agg && fully_folded {
                if let Some(v) = rel.scalar_value() {
                    base_product = op.times(base_product, v);
                }
            }
            continue;
        }
        let attr_levels: Vec<usize> = child_plan
            .interface
            .iter()
            .map(|a| node.attrs.iter().position(|x| x == a).unwrap())
            .collect();
        // Trie order: interface columns sorted by parent attr order.
        let mut order: Vec<usize> = (0..child_plan.interface.len()).collect();
        order.sort_by_key(|&i| attr_levels[i]);
        let sorted_levels: Vec<usize> = order.iter().map(|&i| attr_levels[i]).collect();
        let trie = rel.trie_threads(&order, cfg.layout_policy, cfg.effective_threads());
        atoms.push(AtomSpec {
            attr_levels: sorted_levels,
            start: 0,
            annotated: fully_folded && is_agg,
        });
        tries.push(trie);
    }
    Ok(NodeBuild {
        atoms,
        tries,
        base_product,
        empty,
    })
}

enum BuiltAtom {
    Live(AtomSpec, Arc<Trie>),
    /// All positions constant and present: contributes only an annotation.
    ConstOnly(DynValue),
    /// Constant prefix missing from the relation: node result is empty.
    Empty,
}

fn build_atom(
    ap: &AtomPlan,
    node: &PlanNode,
    params: &[String],
    catalog: &dyn Catalog,
    cfg: &Config,
    is_agg: bool,
    op: AggOp,
) -> Result<BuiltAtom, ExecError> {
    let rel = catalog
        .relation(&ap.relation)
        .ok_or_else(|| ExecError::UnknownRelation(ap.relation.clone()))?;
    if rel.arity() != ap.trie_order.len() {
        return Err(ExecError::ArityMismatch {
            relation: ap.relation.clone(),
            expected: ap.trie_order.len(),
            actual: rel.arity(),
        });
    }
    let trie = rel.trie_threads(&ap.trie_order, cfg.layout_policy, cfg.effective_threads());
    // Resolve and descend the constant prefix once (selection push-down
    // within the node: selections are the first trie levels).
    let mut consts = Vec::with_capacity(ap.const_prefix.len());
    for (i, &slot) in ap.const_prefix.iter().enumerate() {
        // trie_order leads with the constant positions, so the source
        // column of constant i is trie_order[i] — typed catalogs resolve
        // through that column's dictionary domain.
        match catalog.resolve_const_at(&ap.relation, ap.trie_order[i], &params[slot]) {
            Some(id) => consts.push(id),
            None => return Ok(BuiltAtom::Empty),
        }
    }
    if ap.attr_levels.is_empty() {
        // Fully-constant atom: an existence filter (+ annotation).
        let Some((last, prefix)) = consts.split_last() else {
            return Ok(BuiltAtom::Empty);
        };
        let Some(n) = trie.select_node(prefix) else {
            return Ok(BuiltAtom::Empty);
        };
        let Some(rank) = n.set.rank(*last) else {
            return Ok(BuiltAtom::Empty);
        };
        let annot = if is_agg && rel.is_annotated() && !ap.secondary {
            trie.annot_at(n, rank).unwrap_or(op.one())
        } else {
            op.one()
        };
        return Ok(BuiltAtom::ConstOnly(annot));
    }
    // Find the trie node after the constant prefix.
    let start = match descend(&trie, &consts) {
        Some(id) => id,
        None => return Ok(BuiltAtom::Empty),
    };
    // Map attr levels into this node's attr order (already provided).
    let attr_levels: Vec<usize> = ap
        .attr_levels
        .iter()
        .map(|&ai| {
            debug_assert!(ai < node.attrs.len());
            ai
        })
        .collect();
    let annotated = is_agg && rel.is_annotated() && !ap.secondary;
    Ok(BuiltAtom::Live(
        AtomSpec {
            attr_levels,
            start,
            annotated,
        },
        trie,
    ))
}

/// Walk a constant prefix from the root; returns the reached node id.
fn descend(trie: &Trie, prefix: &[u32]) -> Option<NodeId> {
    let mut id: NodeId = 0;
    for &v in prefix {
        let n = trie.node(id);
        let rank = n.set.rank(v)?;
        id = *n.children.get(rank)?;
    }
    Some(id)
}

/// Present a child's bottom-up result to its parent as a relation over the
/// interface attributes. Returns `(relation, fully_folded)`:
/// `fully_folded` is true when the child's output is exactly its interface,
/// so its aggregated annotation can be multiplied in directly.
fn child_as_relation(
    child: &PlanNode,
    result: &NodeResult,
    is_agg: bool,
    op: AggOp,
) -> (Relation, bool) {
    let fully_folded = child.output_attrs == child.interface;
    if fully_folded {
        let mut tuples = TupleBuffer::clone(&result.tuples);
        if is_agg {
            tuples.fill_annotations(op.one());
        } else {
            tuples.drop_annotations();
        }
        return (Relation::from_buffer(tuples, op), true);
    }
    // Project to the interface (semijoin role only); annotations, if any,
    // are applied during the top-down pass.
    let iface_idx: Vec<usize> = child
        .interface
        .iter()
        .map(|a| result.attrs.iter().position(|x| x == a).unwrap())
        .collect();
    let mut proj = result.tuples.reorder(&iface_idx);
    proj.drop_annotations();
    (Relation::from_buffer(proj.into_sorted_dedup(op), op), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemCatalog;
    use eh_ghd::plan_rule;
    use eh_query::parse_rule;

    /// The root node of `query` over a three-edge `E` and a two-edge
    /// annotated `W`, built and compiled the way `run_node` does it.
    fn root_program(query: &str, cfg: &Config) -> (JoinProgram, NodeBuild) {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![1, 2], vec![0, 2]]),
                AggOp::Sum,
            ),
        );
        cat.insert(
            "W",
            Relation::from_buffer(
                TupleBuffer::from_annotated_rows(
                    2,
                    &[vec![0, 1], vec![1, 2]],
                    vec![DynValue::F64(0.5), DynValue::F64(2.0)],
                ),
                AggOp::Sum,
            ),
        );
        let rule = parse_rule(query).unwrap();
        let gp = plan_rule(&rule, &cfg.plan).unwrap();
        let plan = PhysicalPlan::compile(&rule, &gp);
        let is_agg = plan.agg.is_some();
        let op = plan.agg.as_ref().map_or(AggOp::Count, |a| a.op);
        let node = plan.root();
        let build = build_node(node, &plan, &rule.consts, &cat, cfg, &[], is_agg, op).unwrap();
        let output_levels: Vec<usize> = node
            .output_attrs
            .iter()
            .map(|a| node.attrs.iter().position(|x| x == a).unwrap())
            .collect();
        let program = JoinProgram::compile(
            node.attrs.len(),
            output_levels,
            &build.atoms,
            build.tries.clone(),
            is_agg,
            op,
        );
        (program, build)
    }

    fn triangle_program() -> (JoinProgram, NodeBuild) {
        root_program("T(x,y,z) :- E(x,y),E(y,z),E(x,z).", &Config::default())
    }

    #[test]
    fn triangle_participation_tables() {
        let (program, build) = triangle_program();
        assert_eq!(program.attrs_len, 3);
        assert_eq!(build.atoms.len(), 3);
        // Each of the three levels has exactly two participating atoms
        // (each edge atom binds two of x, y, z).
        for (level, lp) in program.levels.iter().enumerate() {
            assert_eq!(lp.steps.len(), 2, "level {level}");
            assert!(lp.is_output);
        }
        // Depths ascend with levels, and leaves appear exactly where an
        // atom's second attribute binds; unannotated, they bind nothing.
        let leaves: usize = program
            .levels
            .iter()
            .flat_map(|l| &l.steps)
            .filter(|st| st.bind == Bind::Member)
            .count();
        assert_eq!(leaves, 3, "each binary atom bottoms out once");
        // The other three steps descend from the root set {0, 1}: a
        // complete range, so their rank is a subtraction.
        let descents: Vec<Bind> = program
            .levels
            .iter()
            .flat_map(|l| &l.steps)
            .map(|st| st.bind)
            .filter(|b| *b != Bind::Member)
            .collect();
        assert_eq!(descents, vec![Bind::Descend(RankBy::Range(0)); 3]);
        // A listing query has no count fast path and never folds.
        assert!(!program.count_fast && !program.scatter);
        assert_eq!(program.fold_from, usize::MAX);
    }

    #[test]
    fn count_fast_path_detected() {
        let (program, _) = root_program(
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
            &Config::default(),
        );
        assert!(program.count_fast, "innermost count never materializes");
        assert_eq!(program.fold_from, 0, "a scalar folds from the top");
        assert!(!program.scatter);
    }

    #[test]
    fn aggregate_shapes_pick_their_fold_paths() {
        // (query, fold_from, scatter, count_fast) as single-node plans
        // under the structural order.
        for (q, fold_from, scatter, count_fast) in [
            // Planned y, x, z — key in the middle: the innermost level
            // folds through the count fast path, once per (y, x) prefix.
            (
                "D(x;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",
                2,
                false,
                true,
            ),
            // Key outermost: everything below it folds.
            ("D(x;w:long) :- E(x,y); w=<<COUNT(*)>>.", 1, false, true),
            // Key innermost over a plain atom: the PageRank/SSSP shape.
            ("P(y;w:long) :- E(x,y); w=<<COUNT(*)>>.", 2, true, false),
            // Key innermost, but its atom's annotation varies per key.
            ("S(y;w:float) :- W(x,y); w=<<SUM(y)>>.", 2, false, false),
            // Annotated innermost below the key: the fused Σ⊗ fold.
            ("S(x;w:float) :- W(x,y); w=<<SUM(y)>>.", 1, false, false),
        ] {
            let (program, _) = root_program(q, &Config::no_ghd());
            assert_eq!(
                (program.fold_from, program.scatter, program.count_fast),
                (fold_from, scatter, count_fast),
                "{q}"
            );
        }
    }

    #[test]
    fn atom_cursors_are_fixed_size() {
        let (program, build) = triangle_program();
        let cfg = Config::default();
        let ctx = GjContext::new(&build.atoms, &program, &cfg);
        for (a, spec) in ctx.atoms.iter().zip(&build.atoms) {
            assert_eq!(a.stack.len(), spec.attr_levels.len());
            assert_eq!(a.hints.len(), spec.attr_levels.len());
        }
    }

    #[test]
    fn fork_copies_cursors_but_not_scratch() {
        let (program, build) = triangle_program();
        let cfg = Config::default();
        let mut ctx = GjContext::new(&build.atoms, &program, &cfg);
        ctx.scratch[0].push(7);
        ctx.bindings[0] = 9;
        let fork = ctx.fork();
        assert!(fork.scratch[0].is_empty(), "fresh scratch per worker");
        assert_eq!(fork.bindings[0], 0);
        assert_eq!(fork.atoms.len(), ctx.atoms.len());
        // Cursors borrow the program's tries; forking copies the borrow.
        assert!(std::ptr::eq(fork.atoms[0].trie, &*program.tries[0]));
    }
}
