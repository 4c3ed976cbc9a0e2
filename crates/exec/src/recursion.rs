//! Recursive rule evaluation (paper §2.3 "Recursion", §3.3.2).
//!
//! EmptyHeaded supports a limited Kleene-star recursion. The optimizer
//! produces a (potentially infinite) linear chain of evaluations; naive
//! evaluation re-derives everything per iteration (used for PageRank's
//! fixed five iterations), while *seminaive* evaluation tracks only the
//! frontier of changed tuples. The engine picks seminaive automatically
//! when the aggregate is monotone (MIN/MAX) — paper: "we check if the
//! aggregation is monotonically increasing or decreasing with a MIN or MAX
//! operator".

use crate::config::Config;
use crate::executor::{ExecError, Executed};
use crate::storage::Relation;
use eh_obs::{QueryProfile, Span};
use eh_query::ast::Recursion;
use eh_query::Rule;
use eh_semiring::{AggOp, DynValue};
use eh_trie::TupleBuffer;
use std::time::Instant;

/// Evaluate a recursive rule to convergence, starting from `initial` (the
/// result of the rule's base case). `iterate` runs the rule's compiled
/// body once over the running state it is handed — the caller's program
/// view reads that state as the newest relation of the rule's head name
/// (the paper: recursion "boils down to a simple unrolling of the join
/// algorithm" — compilation is not repeated per iteration). Under
/// [`Config::profile`] the result carries a `query` span with one
/// `iteration k` child per executed iteration (`rows_in`, `rows_out`) and
/// the iterations' work summed.
///
/// The running state is always *canonical* buffers — annotated, strictly
/// key-ascending — which is also what every iteration's result is, so
/// versions combine by walking them in key order with no hashing, no
/// per-tuple keys and no final sort (one buffer and a lock-step walk for
/// naive evaluation, `Runs` and a galloping one for seminaive).
pub fn execute_recursive_rule(
    rule: &Rule,
    initial: &Relation,
    cfg: &Config,
    mut iterate: impl FnMut(&Relation) -> Result<Executed, ExecError>,
) -> Result<Executed, ExecError> {
    let origin = Instant::now();
    let mut profile = cfg.profile.then(QueryProfile::default);
    let criterion = rule.head.recursion.unwrap_or(Recursion::Fixpoint);
    let op = rule
        .agg
        .as_ref()
        .and_then(|a| a.expr.agg_op())
        .unwrap_or(AggOp::Count);
    // A user-registered base case may be unsorted or repeat keys:
    // canonicalise it under the rule's own ⊕.
    let mut base = initial.rows().clone();
    base.fill_annotations(op.one());
    let mut input = Relation::from_buffer(base.into_sorted_dedup(op), op);
    // Seminaive evaluation (paper: SSSP) joins only the *frontier* of
    // changed tuples — the first is all of them — merges improvements
    // into `state` with ⊕ and stops when the frontier empties. Naive
    // evaluation (PageRank) re-derives the whole relation each iteration.
    let seminaive = !cfg.force_naive_recursion && op.is_monotone();
    let mut state = seminaive.then(|| Runs(vec![input.rows().clone()]));
    let max_iters = match criterion {
        Recursion::Iterations(n) => n,
        _ if seminaive => 1_000_000,
        _ => 10_000,
    };
    for k in 0..max_iters {
        let started = Instant::now();
        let out = iterate(&input)?;
        let rows_in = input.len();
        let (next, converged) = match (&mut state, criterion) {
            // Only strict improvements form the next frontier.
            (Some(state), _) => {
                let frontier = state.absorb(out.relation.rows(), op);
                let empty = frontier.is_empty();
                (Relation::from_buffer(frontier, op), empty)
            }
            // Fixed-iteration rules (PageRank) recompute the whole relation
            // each round: replacement semantics.
            (None, Recursion::Iterations(_)) => (out.relation, false),
            // Fixpoint rules follow the paper's Kleene semantics: "new
            // tuples are added to R" — merge with ⊕ until nothing changes.
            (None, Recursion::Fixpoint) => {
                let (merged, changed) = merge(input.rows(), out.relation.rows(), op);
                (Relation::from_buffer(merged, op), !changed)
            }
            (None, Recursion::Epsilon(eps)) => {
                let delta = max_delta(input.rows(), out.relation.rows(), op);
                (out.relation, delta <= eps)
            }
        };
        input = next;
        if let (Some(p), Some(join)) = (&mut profile, out.profile) {
            p.work.merge(&join.work);
            let span = Span::timed(format!("iteration {k}"), origin, started, Instant::now());
            p.root.children.push(
                span.with_value("rows_in", rows_in as u64)
                    .with_value("rows_out", input.len() as u64),
            );
        }
        if converged {
            break;
        }
    }
    let relation = match state {
        Some(state) => Relation::from_buffer(state.into_buffer(op), op),
        None => input,
    };
    if let Some(p) = &mut profile {
        p.close(origin, Instant::now(), relation.len());
    }
    Ok(Executed {
        relation,
        level0: 0,
        profile,
    })
}

/// The seminaive fixpoint state: every key derived so far with its best
/// annotation, as canonical runs over disjoint key sets, each at least
/// twice the size of the next. There are O(log n) runs, an existing key
/// improves in place and new keys arrive as one more run, so absorbing an
/// iteration costs O(|derived| · log n) — proportional to the frontier,
/// not to the state. (A chain or road grid runs thousands of iterations
/// whose frontier is a handful of rows; rebuilding the state in each is
/// quadratic.)
struct Runs(Vec<TupleBuffer>);

impl Runs {
    /// `⊕` a canonical `derived` into the state. Returns its strict
    /// improvements — new keys and changed annotations — in `derived`'s
    /// order, hence canonical too.
    fn absorb(&mut self, derived: &TupleBuffer, op: AggOp) -> TupleBuffer {
        let mut improved = TupleBuffer::new(derived.arity());
        improved.set_annotations(Vec::new());
        let mut fresh = improved.clone();
        // Keys ascend, so each run is searched forward from its last hit.
        let mut cursors = vec![0; self.0.len()];
        for (i, key) in derived.iter().enumerate() {
            let new = derived.annot(i).unwrap_or_else(|| op.one());
            let held = self.0.iter_mut().zip(&mut cursors).find_map(|(run, at)| {
                *at = seek(run, *at, key);
                let found = *at < run.len() && run.row(*at) == key;
                found.then(|| &mut run.annotations_mut().expect("runs are annotated")[*at])
            });
            match held {
                Some(old) => {
                    let value = op.plus(*old, new);
                    if value != *old {
                        *old = value;
                        improved.push_annotated(key, value);
                    }
                }
                None => {
                    fresh.push_annotated(key, new);
                    improved.push_annotated(key, new);
                }
            }
        }
        if !fresh.is_empty() {
            self.0.push(fresh);
            // Restore the size invariant from the small end.
            while let [.., a, b] = self.0.as_slice() {
                if a.len() >= 2 * b.len() {
                    break;
                }
                let merged = merge(a, b, op).0;
                self.0.truncate(self.0.len() - 2);
                self.0.push(merged);
            }
        }
        improved
    }

    /// The whole state as one canonical buffer (smallest runs first, so
    /// the merges sum to O(n)).
    fn into_buffer(mut self, op: AggOp) -> TupleBuffer {
        let mut out = self.0.pop().expect("the base case is a run");
        while let Some(run) = self.0.pop() {
            out = merge(&run, &out, op).0;
        }
        out
    }
}

/// First row of `run` at or after `from` whose leading `key.len()` columns
/// are `>= key` (`run.len()` if none), for a `run` ascending on those
/// columns: gallop then bisect, so a dense ascending probe sequence costs
/// O(1) a probe and a sparse one O(log gap). The seminaive state probes
/// whole rows; the top-down pass (`sink::assemble`) an interface prefix.
pub(crate) fn seek(run: &TupleBuffer, from: usize, key: &[u32]) -> usize {
    let before = |i: usize| run.row(i)[..key.len()] < *key;
    let (mut lo, mut step) = (from, 1);
    while lo + step <= run.len() && before(lo + step - 1) {
        lo += step;
        step *= 2;
    }
    let mut hi = (lo + step - 1).min(run.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Walk two canonical (strictly key-ascending) buffers in lock step,
/// visiting every key of either once, in ascending order, with its
/// annotation on each side (`None` where the side lacks the key; an
/// unannotated side counts as `op.one()` everywhere).
fn zip_sorted(
    a: &TupleBuffer,
    b: &TupleBuffer,
    op: AggOp,
    mut visit: impl FnMut(&[u32], Option<DynValue>, Option<DynValue>),
) {
    use std::cmp::Ordering;
    debug_assert!(a.is_strictly_sorted() && b.is_strictly_sorted());
    let annot = |t: &TupleBuffer, i: usize| Some(t.annot(i).unwrap_or_else(|| op.one()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let order = if j == b.len() {
            Ordering::Less
        } else if i == a.len() {
            Ordering::Greater
        } else {
            a.row(i).cmp(b.row(j))
        };
        match order {
            Ordering::Less => visit(a.row(i), annot(a, i), None),
            Ordering::Greater => visit(b.row(j), None, annot(b, j)),
            Ordering::Equal => visit(a.row(i), annot(a, i), annot(b, j)),
        }
        i += (order != Ordering::Greater) as usize;
        j += (order != Ordering::Less) as usize;
    }
}

/// One key's annotation in the union of two versions: `⊕` where both hold
/// the key (a [`zip_sorted`] visit always has at least one side).
fn union(op: AggOp, a: Option<DynValue>, b: Option<DynValue>) -> DynValue {
    match (a, b) {
        (Some(x), Some(y)) => op.plus(x, y),
        (Some(v), None) | (None, Some(v)) => v,
        (None, None) => unreachable!("zip_sorted visits present keys"),
    }
}

/// Union two relation versions, combining annotations with `⊕`; also
/// reports whether the union differs from `a` (a new key, or a changed
/// annotation) — the fixpoint test.
fn merge(a: &TupleBuffer, b: &TupleBuffer, op: AggOp) -> (TupleBuffer, bool) {
    let mut out = TupleBuffer::with_capacity(a.arity(), a.len().max(b.len()));
    out.set_annotations(Vec::new());
    let mut changed = false;
    zip_sorted(a, b, op, |key, va, vb| {
        let value = union(op, va, vb);
        changed |= !va.is_some_and(|old| old.approx_eq(value, 0.0));
        out.push_annotated(key, value);
    });
    (out, changed)
}

/// Largest absolute annotation change between two relation versions.
fn max_delta(a: &TupleBuffer, b: &TupleBuffer, op: AggOp) -> f64 {
    let mut delta: f64 = 0.0;
    zip_sorted(a, b, op, |_, va, vb| {
        let change = match (va, vb) {
            (va, Some(vb)) => va.unwrap_or_else(|| op.zero()).as_f64() - vb.as_f64(),
            (Some(va), None) => va.as_f64(),
            (None, None) => unreachable!("zip_sorted visits present keys"),
        };
        delta = delta.max(change.abs());
    });
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, execute_rule};
    use crate::plan::PhysicalPlan;
    use crate::storage::{Catalog, MemCatalog};
    use eh_query::parse_rule;

    /// Undirected path 0-1-2-3 plus shortcut 0-3.
    fn sssp_catalog() -> MemCatalog {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 3)];
        let mut rows = Vec::new();
        for (a, b) in edges {
            rows.push(vec![a, b]);
            rows.push(vec![b, a]);
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "Edge",
            Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum),
        );
        cat
    }

    /// Plan `rule` as a prepared statement does, then evaluate it, each
    /// iteration over a copy of `cat` holding the running state under the
    /// rule's head name.
    fn recurse(rule: &Rule, initial: Relation, cat: &MemCatalog, cfg: &Config) -> Relation {
        let plan = PhysicalPlan::compile(rule, &eh_ghd::plan_rule(rule, &cfg.plan).unwrap());
        let mut view = MemCatalog::new();
        for name in cat.names() {
            view.insert(name, cat.relation(name).unwrap().clone());
        }
        execute_recursive_rule(rule, &initial, cfg, |state| {
            view.insert(&rule.head.relation, state.clone());
            execute(&plan, &rule.consts, &view, cfg)
        })
        .unwrap()
        .relation
    }

    fn dist_of(rel: &Relation, node: u32) -> Option<u64> {
        rel.rows()
            .iter()
            .position(|r| r == [node].as_slice())
            .map(|i| rel.annotations().unwrap()[i].as_u64())
    }

    #[test]
    fn sssp_seminaive_shortest_paths() {
        let cat = sssp_catalog();
        // Base: distance 1 to neighbours of node 0 (paper Table 1 writes
        // the base rule with y=1).
        let base = parse_rule("SSSP(x;y:int) :- Edge('0',x); y=1.").unwrap();
        let initial = execute_rule(&base, &cat, &Config::default())
            .unwrap()
            .relation;
        assert_eq!(dist_of(&initial, 1), Some(1));
        assert_eq!(dist_of(&initial, 3), Some(1));
        let rec = parse_rule("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.").unwrap();
        let out = recurse(&rec, initial, &cat, &Config::default());
        assert_eq!(dist_of(&out, 1), Some(1));
        assert_eq!(dist_of(&out, 2), Some(2), "via 1, not 3→2 (also 2)");
        assert_eq!(dist_of(&out, 3), Some(1), "shortcut edge");
    }

    #[test]
    fn sssp_naive_matches_seminaive() {
        let cat = sssp_catalog();
        let base = parse_rule("SSSP(x;y:int) :- Edge('0',x); y=1.").unwrap();
        let initial = execute_rule(&base, &cat, &Config::default())
            .unwrap()
            .relation;
        let rec = parse_rule("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.").unwrap();
        let semi = recurse(&rec, initial.clone(), &cat, &Config::default());
        let cfg = Config {
            force_naive_recursion: true,
            ..Config::default()
        };
        let naive = recurse(&rec, initial, &cat, &cfg);
        for node in 1..4u32 {
            assert_eq!(dist_of(&semi, node), dist_of(&naive, node), "node {node}");
        }
    }

    #[test]
    fn fixed_iterations_run_exactly_n_times() {
        // P(x;y)*[i=3] :- E(x,z),P(z); y=<<SUM(z)>> on a 2-cycle with
        // initial value 1: each iteration swaps values, sum stays 1.
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![1, 0]]),
                AggOp::Sum,
            ),
        );
        let initial = Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                1,
                &[vec![0], vec![1]],
                vec![DynValue::F64(1.0), DynValue::F64(2.0)],
            ),
            AggOp::Sum,
        );
        let rec = parse_rule("P(x;y:float)*[i=3] :- E(x,z),P(z); y=<<SUM(z)>>.").unwrap();
        let out = recurse(&rec, initial, &cat, &Config::default());
        // After odd number of swaps: values exchanged.
        let annots = out.annotations().unwrap();
        assert_eq!(out.rows().flat(), &[0, 1]);
        assert_eq!(annots[0].as_f64(), 2.0);
        assert_eq!(annots[1].as_f64(), 1.0);
    }

    #[test]
    fn epsilon_criterion_converges() {
        // Contraction y = 0.5 * old value on a self-referential structure:
        // single node with self-loop... use 2-cycle with damping expr.
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![1, 0]]),
                AggOp::Sum,
            ),
        );
        let initial = Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                1,
                &[vec![0], vec![1]],
                vec![DynValue::F64(1.0), DynValue::F64(1.0)],
            ),
            AggOp::Sum,
        );
        let rec = parse_rule("P(x;y:float)*[c=0.001] :- E(x,z),P(z); y=0.5*<<SUM(z)>>.").unwrap();
        let out = recurse(&rec, initial, &cat, &Config::default());
        let annots = out.annotations().unwrap();
        assert!(annots[0].as_f64() <= 0.002, "decayed close to zero");
    }

    fn annotated(rows: &[(u32, u64)]) -> TupleBuffer {
        let mut t = TupleBuffer::new(1);
        t.set_annotations(Vec::new());
        for &(k, v) in rows {
            t.push_annotated(&[k], DynValue::U64(v));
        }
        t
    }

    #[test]
    fn lock_step_merge_and_delta() {
        let a = annotated(&[(1, 5), (3, 2), (9, 7)]);
        let b = annotated(&[(0, 4), (3, 1), (9, 8)]);
        let mut seen = Vec::new();
        zip_sorted(&a, &b, AggOp::Min, |k, x, y| {
            seen.push((k[0], x.map(|v| v.as_u64()), y.map(|v| v.as_u64())));
        });
        assert_eq!(
            seen,
            vec![
                (0, None, Some(4)),
                (1, Some(5), None),
                (3, Some(2), Some(1)),
                (9, Some(7), Some(8)),
            ]
        );
        let (merged, changed) = merge(&a, &b, AggOp::Min);
        assert_eq!(merged, annotated(&[(0, 4), (1, 5), (3, 1), (9, 7)]));
        assert!(changed, "a new key and an improved one");
        // Merging a version into itself — or into a superset of worse
        // values — is the fixpoint.
        assert!(!merge(&merged, &a, AggOp::Min).1);
        assert!(!merge(&merged, &TupleBuffer::new(1), AggOp::Min).1);
        // Largest change: key 0 appears (|zero − 4| is huge under MIN, so
        // use SUM's zero), key 1 vanishes (5), key 3 moves by 1.
        assert_eq!(max_delta(&a, &b, AggOp::Sum), 5.0);
        assert_eq!(max_delta(&a, &a, AggOp::Sum), 0.0);
    }

    #[test]
    fn seek_finds_the_first_row_at_or_after_the_key() {
        let keys = [1u32, 3, 4, 9, 12, 13, 20];
        let run = annotated(&keys.map(|k| (k, 0)));
        for from in 0..=keys.len() {
            for key in 0..22u32 {
                let want = keys.partition_point(|&k| k < key).max(from);
                assert_eq!(seek(&run, from, &[key]), want, "from {from} key {key}");
            }
        }
    }

    #[test]
    fn runs_absorb_in_place_and_stay_logarithmic() {
        // One new key per iteration — a path graph's frontier — arriving
        // out of key order across iterations.
        let mut state = Runs(vec![annotated(&[(500, 9)])]);
        let mut want = std::collections::BTreeMap::from([(500u32, 9u64)]);
        for i in 0..300u32 {
            let key = (i * 7) % 300;
            let improved = state.absorb(&annotated(&[(key, 50), (500, 9)]), AggOp::Min);
            assert_eq!(improved, annotated(&[(key, 50)]), "500 did not improve");
            want.insert(key, 50);
            assert!(state.0.windows(2).all(|w| w[0].len() >= 2 * w[1].len()));
            assert!(
                state.0.len() <= 10,
                "{} runs for {} keys",
                state.0.len(),
                i + 2
            );
        }
        // Improvements land in whichever run holds the key; worse values
        // and equal ones are not improvements.
        let improved = state.absorb(
            &annotated(&[(0, 50), (3, 70), (8, 2), (500, 1)]),
            AggOp::Min,
        );
        assert_eq!(improved, annotated(&[(8, 2), (500, 1)]));
        want.extend([(8, 2), (500, 1)]);
        let rows: Vec<(u32, u64)> = want.into_iter().collect();
        assert_eq!(state.into_buffer(AggOp::Min), annotated(&rows));
    }

    #[test]
    fn non_canonical_min_base_folds_under_the_rules_own_op() {
        // The base case lists node 1 twice (distances 7 and 1), out of
        // key order, and was registered under SUM: the recursion must
        // canonicalise it with MIN — the rule's ⊕ — not add the two up.
        let cat = sssp_catalog();
        let initial = Relation::from_buffer(
            TupleBuffer::from_annotated_rows(
                1,
                &[vec![3], vec![1], vec![1]],
                vec![DynValue::U64(1), DynValue::U64(7), DynValue::U64(1)],
            ),
            AggOp::Sum,
        );
        let rec = parse_rule("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.").unwrap();
        for naive in [false, true] {
            let cfg = Config {
                force_naive_recursion: naive,
                ..Config::default()
            };
            let out = recurse(&rec, initial.clone(), &cat, &cfg);
            assert!(out.rows().is_strictly_sorted(), "naive={naive}");
            assert_eq!(dist_of(&out, 1), Some(1), "naive={naive}");
            assert_eq!(dist_of(&out, 2), Some(2), "naive={naive}");
            assert_eq!(dist_of(&out, 3), Some(1), "naive={naive}");
            assert_eq!(dist_of(&out, 0), Some(2), "naive={naive}");
        }
    }

    #[test]
    fn fixpoint_terminates_on_reachability() {
        // Transitive closure from node 0 over MIN distances on a DAG chain;
        // fixpoint criterion with MIN is seminaive and must terminate.
        let mut cat = MemCatalog::new();
        cat.insert(
            "Edge",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]),
                AggOp::Sum,
            ),
        );
        let base = parse_rule("R(x;y:int) :- Edge('0',x); y=1.").unwrap();
        let initial = execute_rule(&base, &cat, &Config::default())
            .unwrap()
            .relation;
        let rec = parse_rule("R(x;y:int)* :- Edge(w,x),R(w); y=<<MIN(w)>>+1.").unwrap();
        let out = recurse(&rec, initial, &cat, &Config::default());
        assert_eq!(dist_of(&out, 4), Some(4));
        assert_eq!(out.len(), 4);
    }
}
