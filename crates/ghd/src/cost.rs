//! Statistics-driven cost model for attribute orders and GHD choice.
//!
//! Paper §3.2 derives the global attribute order purely structurally: a
//! pre-order walk of the GHD with a frequency sort inside each node. This
//! module adds the measured half. Catalogs expose per-relation
//! [`RelationStats`] (cardinality + per-column distinct counts, computed
//! at trie build and cached); the planner scores candidate within-node
//! attribute orders by the intersection work Generic-Join would do under
//! them — each loop level costs `(bindings so far) × (participants) ×
//! (smallest participating set)`, the min property in expectation — and
//! enumerates candidates iteratively with a beam search (extend every
//! surviving prefix by every remaining attribute, keep the cheapest few)
//! instead of taking the first structural order. The same per-node score
//! summed over a decomposition ranks otherwise-tied GHD roots.
//!
//! Everything here is an estimate over column statistics; no data is
//! scanned at plan time and a missing statistic simply disables the model
//! (falling back to the structural order), so planning stays deterministic
//! for a given catalog state.

use crate::decompose::GhdNode;
use crate::hypergraph::Hypergraph;

/// Per-relation statistics as the planner consumes them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of stored tuples (before trie dedup; an upper bound on the
    /// distinct-tuple count, which is all the model needs).
    pub cardinality: u64,
    /// Distinct values per column, in stored column order.
    pub distinct: Vec<u64>,
}

/// A source of [`RelationStats`] — implemented by executor catalogs. The
/// planner never scans data itself; it only reads whatever the source
/// already knows in O(1).
pub trait StatsSource {
    /// Statistics for relation `name`, if the source has them.
    fn stats(&self, name: &str) -> Option<RelationStats>;
}

/// The empty source: every lookup misses and planning falls back to the
/// structural heuristics unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoStats;

impl StatsSource for NoStats {
    fn stats(&self, _name: &str) -> Option<RelationStats> {
        None
    }
}

/// Beam width for the iterative order search. Node χ sets are small
/// (≤ ~6 attributes), so a narrow beam already sees every order that
/// could win while keeping the search linear in practice.
const BEAM_WIDTH: usize = 8;

/// Reads below which two candidate costs are considered tied (floating
/// point noise from the estimate chain).
const COST_EPS: f64 = 1e-9;

/// One atom of a node, reduced to what the simulation needs: effective
/// cardinality after constant selections and the per-variable distinct
/// counts of the columns its variables occupy.
struct AtomModel {
    /// Effective tuple count after applying selection selectivities.
    card: f64,
    /// For each local variable (indexed like the candidate order's vars):
    /// distinct count of the column bound by that variable in this atom,
    /// or `None` when the atom does not bind it.
    var_distinct: Vec<Option<f64>>,
}

/// Statistics of each edge's relation, indexed by edge id and fetched
/// once per planning call: a relation self-joined k times is looked up
/// once, however many candidate nodes then read it.
pub(crate) fn edge_stats<S: StatsSource + ?Sized>(
    hg: &Hypergraph,
    stats: &S,
) -> Vec<Option<RelationStats>> {
    let mut out: Vec<Option<RelationStats>> = Vec::with_capacity(hg.num_edges());
    for (e, edge) in hg.edges.iter().enumerate() {
        let earlier = hg.edges[..e]
            .iter()
            .position(|p| p.relation == edge.relation);
        out.push(earlier.map_or_else(|| stats.stats(&edge.relation), |p| out[p].clone()));
    }
    out
}

/// Build the per-atom models for a node from its edges' statistics
/// ([`edge_stats`]), or `None` if any atom lacks statistics (mixed
/// information would make scores incomparable).
fn node_models(
    hg: &Hypergraph,
    node: &GhdNode,
    vars: &[usize],
    stats: &[Option<RelationStats>],
) -> Option<Vec<AtomModel>> {
    let mut models = Vec::with_capacity(node.lambda.len());
    for &e in &node.lambda {
        let edge = &hg.edges[e];
        let st = stats[e].as_ref()?;
        let arity = edge.vars.len() + edge.selections.len();
        if st.distinct.len() < arity {
            return None;
        }
        // Column positions occupied by variables: all positions minus the
        // selection (constant) positions, in order.
        let mut var_cols = Vec::with_capacity(edge.vars.len());
        for c in 0..arity {
            if !edge.selections.iter().any(|&(p, _)| p == c) {
                var_cols.push(c);
            }
        }
        // A constant on a column keeps ~ card/distinct(col) tuples.
        let mut card = (st.cardinality.max(1)) as f64;
        for &(p, _) in &edge.selections {
            let d = st.distinct.get(p).copied().unwrap_or(1).max(1) as f64;
            card = (card / d).max(1.0);
        }
        let var_distinct = vars
            .iter()
            .map(|v| {
                edge.vars.iter().position(|ev| ev == v).map(|i| {
                    let col = var_cols[i];
                    (st.distinct[col].max(1) as f64).min(card)
                })
            })
            .collect();
        models.push(AtomModel { card, var_distinct });
    }
    Some(models)
}

/// Simulation state for one candidate prefix: per-atom count of its
/// variables bound so far (drives the prefix-count estimate) plus the
/// running cost and live-binding estimate.
#[derive(Clone)]
struct BeamState {
    order: Vec<usize>,
    chosen: u64,
    /// Product of distinct counts of each atom's bound variables, clamped
    /// to its cardinality — the estimated number of live trie prefixes.
    prefixes: Vec<f64>,
    /// Estimated bindings carried into the next level.
    live: f64,
    cost: f64,
}

/// Estimated average set size the atom exposes for `var` given its
/// current prefix estimate: `prefixes(bound ∪ {var}) / prefixes(bound)`.
fn set_size(model: &AtomModel, prefix: f64, d: f64) -> f64 {
    let next = (prefix * d).min(model.card);
    (next / prefix.max(1.0)).max(1.0)
}

/// Extend `state` by binding `vi` (index into `vars`), updating cost and
/// survivor estimates. Returns `None` when no atom binds the variable
/// (it costs nothing at this node).
fn extend(models: &[AtomModel], state: &BeamState, vi: usize) -> BeamState {
    let mut next = state.clone();
    next.order.push(vi);
    next.chosen |= 1 << vi;
    // Participating atoms and their estimated set sizes at this level.
    let mut min_size = f64::INFINITY;
    let mut domain: f64 = 1.0;
    let mut participants = 0usize;
    for (a, m) in models.iter().enumerate() {
        if let Some(d) = m.var_distinct[vi] {
            let s = set_size(m, state.prefixes[a], d);
            min_size = min_size.min(s);
            domain = domain.max(d);
            participants += 1;
        }
    }
    if participants == 0 {
        return next;
    }
    // Level work: every binding so far merges the participating sets;
    // the intersection is bounded by its smallest input (min property),
    // and each participant is probed once.
    next.cost += state.live * min_size * participants as f64;
    // Survivors: the smallest set, thinned by the chance each *other*
    // participant also contains a given value (containment assumption:
    // set/domain, clamped to 1).
    let mut survivors = min_size;
    for (a, m) in models.iter().enumerate() {
        if let Some(d) = m.var_distinct[vi] {
            let s = set_size(m, state.prefixes[a], d);
            if s < min_size || (s - min_size).abs() < f64::EPSILON {
                continue; // the min itself contributes no thinning
            }
            survivors *= (s / domain).min(1.0);
        }
        // Advance the atom's prefix estimate whether or not it was the
        // minimum — it bound the variable either way.
        if m.var_distinct[vi].is_some() {
            next.prefixes[a] = (state.prefixes[a] * m.var_distinct[vi].unwrap()).min(m.card);
        }
    }
    next.live = (state.live * survivors).max(f64::MIN_POSITIVE);
    next
}

/// Cost-based within-node attribute order: beam search over orders of
/// `vars` (vertex ids of the node's χ), with `sel_first` vars constrained
/// to come first (selection hoisting, paper App. B.1, is kept as a hard
/// constraint so push-down semantics are unchanged). Returns the chosen
/// order and its estimated cost, or `None` when statistics (indexed by
/// edge id, see [`edge_stats`]) are missing and the caller should fall
/// back to the structural order.
pub(crate) fn order_node(
    hg: &Hypergraph,
    node: &GhdNode,
    vars: &[usize],
    sel_first: &[bool],
    stats: &[Option<RelationStats>],
) -> Option<(Vec<usize>, f64)> {
    if vars.is_empty() || vars.len() > 60 {
        return None;
    }
    let models = node_models(hg, node, vars, stats)?;
    let init = BeamState {
        order: Vec::new(),
        chosen: 0,
        prefixes: vec![1.0; models.len()],
        live: 1.0,
        cost: 0.0,
    };
    let mut beam = vec![init];
    for step in 0..vars.len() {
        // While any selected variable remains unchosen, only selected
        // variables are candidates.
        let mut next: Vec<BeamState> = Vec::new();
        for state in &beam {
            let sel_pending = sel_first
                .iter()
                .enumerate()
                .any(|(i, &s)| s && state.chosen & (1 << i) == 0);
            for vi in 0..vars.len() {
                if state.chosen & (1 << vi) != 0 {
                    continue;
                }
                if sel_pending && !sel_first[vi] {
                    continue;
                }
                next.push(extend(&models, state, vi));
            }
        }
        // Keep the cheapest prefixes; ties break toward the structural
        // (index) order so the search is deterministic.
        next.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.order.cmp(&b.order))
        });
        next.truncate(BEAM_WIDTH);
        beam = next;
        debug_assert!(beam.iter().all(|s| s.order.len() == step + 1));
    }
    let best = beam.into_iter().next()?;
    let order = best.order.iter().map(|&vi| vars[vi]).collect();
    Some((order, best.cost))
}

/// Compare two optional costs for the GHD tie-break: both present →
/// numeric order (with an epsilon so float noise cannot reorder
/// structural ties); otherwise equal (stats-free planning is unchanged).
pub(crate) fn cmp_cost(a: Option<f64>, b: Option<f64>) -> std::cmp::Ordering {
    match (a, b) {
        (Some(x), Some(y)) if (x - y).abs() > COST_EPS => {
            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
        }
        _ => std::cmp::Ordering::Equal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Map-backed stats source for tests.
    pub(crate) struct MapStats(pub HashMap<String, RelationStats>);

    impl StatsSource for MapStats {
        fn stats(&self, name: &str) -> Option<RelationStats> {
            self.0.get(name).cloned()
        }
    }

    fn stats(entries: &[(&str, u64, &[u64])]) -> MapStats {
        MapStats(
            entries
                .iter()
                .map(|&(n, card, d)| {
                    (
                        n.to_string(),
                        RelationStats {
                            cardinality: card,
                            distinct: d.to_vec(),
                        },
                    )
                })
                .collect(),
        )
    }

    /// `order_node` on the single-node GHD of `query`.
    fn order_single(
        query: &str,
        source: &dyn StatsSource,
        selected: &str,
    ) -> (Hypergraph, Option<(Vec<usize>, f64)>) {
        let rule = eh_query::parse_rule(query).unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let ghd = crate::decompose::single_node_ghd(&hg);
        let vars = ghd.root.chi.clone();
        let sel: Vec<bool> = vars.iter().map(|&v| hg.vars[v] == selected).collect();
        let ordered = order_node(&hg, &ghd.root, &vars, &sel, &edge_stats(&hg, source));
        (hg, ordered)
    }

    #[test]
    fn no_stats_yields_none() {
        assert!(order_single("T(x,y) :- R(x,y).", &NoStats, "").1.is_none());
    }

    #[test]
    fn missing_one_relation_disables_the_model() {
        let st = stats(&[("R", 100, &[10, 10])]); // S missing
        assert!(order_single("T(x,y,z) :- R(x,y),S(y,z).", &st, "")
            .1
            .is_none());
    }

    #[test]
    fn a_self_joined_relation_is_looked_up_once() {
        struct Counting(std::cell::Cell<usize>);
        impl StatsSource for Counting {
            fn stats(&self, _name: &str) -> Option<RelationStats> {
                self.0.set(self.0.get() + 1);
                Some(RelationStats {
                    cardinality: 10,
                    distinct: vec![5, 5],
                })
            }
        }
        let rule = eh_query::parse_rule("T(x,y,z) :- E(x,y),E(y,z),F(x,z),E(x,x).").unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let source = Counting(std::cell::Cell::new(0));
        let per_edge = edge_stats(&hg, &source);
        assert_eq!(source.0.get(), 2, "one lookup each for E and F");
        assert!(per_edge.iter().all(Option::is_some));
    }

    #[test]
    fn low_cardinality_variable_ordered_first() {
        // Skewed 3-atom star: z's columns are tiny everywhere it appears,
        // x's are huge. The cost model must start from z.
        let st = stats(&[
            ("R", 1_000_000, &[100_000, 50_000]),
            ("S", 1_000_000, &[50_000, 4]),
            ("U", 1_000_000, &[100_000, 4]),
        ]);
        let (hg, ordered) = order_single("T(x,y,z) :- R(x,y),S(y,z),U(x,z).", &st, "");
        let (order, cost) = ordered.unwrap();
        let z = hg.lookup("z").unwrap();
        assert_eq!(order[0], z, "low-distinct attribute must lead: {order:?}");
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn selection_constraint_beats_cost() {
        // y is selected; even though z is cheapest, y must come first.
        let st = stats(&[
            ("R", 1_000_000, &[100_000, 50_000]),
            ("S", 1_000_000, &[50_000, 4]),
            ("U", 1_000_000, &[100_000, 4]),
        ]);
        let (hg, ordered) = order_single("T(x,y,z) :- R(x,y),S(y,z),U(x,z).", &st, "y");
        let (order, _) = ordered.unwrap();
        assert_eq!(
            order[0],
            hg.lookup("y").unwrap(),
            "selected attribute must stay first"
        );
    }

    #[test]
    fn cost_comparison_is_neutral_without_stats() {
        use std::cmp::Ordering;
        assert_eq!(cmp_cost(None, None), Ordering::Equal);
        assert_eq!(cmp_cost(Some(1.0), None), Ordering::Equal);
        assert_eq!(cmp_cost(Some(1.0), Some(1.0 + 1e-12)), Ordering::Equal);
        assert_eq!(cmp_cost(Some(1.0), Some(2.0)), Ordering::Less);
    }
}
