//! Statistics-driven cost model for attribute orders and GHD choice.
//!
//! Paper §3.2 derives the global attribute order purely structurally: a
//! pre-order walk of the GHD with a frequency sort inside each node. This
//! module adds the measured half. Catalogs expose per-relation
//! [`RelationStats`] (cardinality, and per column its distinct count and
//! Σf², computed at trie build and cached); the planner scores candidate
//! within-node attribute orders by the kernel work Generic-Join would do
//! under them, and enumerates candidates iteratively with a beam search
//! (extend every surviving prefix by every remaining attribute, keep the
//! cheapest few) instead of taking the first structural order. The same
//! per-node score summed over a decomposition ranks otherwise-tied GHD
//! roots.
//!
//! **The unit is kernel work.** A loop level costs `live × work`, where
//! `live` is the estimated number of bindings reaching it and `work` is
//! what the set dispatcher does with the participating sets:
//! - one sparse set alone is walked: its size;
//! - two sparse sets merge, `|a| + |b|`, or gallop,
//!   `small · (1 + log₂(large/small))`, where
//!   [`eh_set::uint::gallop_pays_off`] holds; three or more probe from the
//!   smallest when it gallops against the next, and chain pairwise
//!   otherwise;
//! - a dense set (one whose mean size passes the layout optimizer's
//!   bitset rule: 8 values and 1/32 of the level's id range) costs one
//!   probe per candidate, and bitsets alone cost their values (the
//!   block-wise AND reads them all).
//!
//! **Set sizes see skew.** An atom's first level is its column's distinct
//! count. Below a prefix, the set is the prefix's group: `card/distinct`
//! when the prefix value was enumerated without another atom's prefix
//! (the level-0 variable, for one), and the size-biased group `Σf²/card`
//! when it came out of a set some other atom reached through a prefix. A
//! value drawn that way is drawn in proportion to its frequency, so on a
//! degree-pruned graph the in-neighbours of an in-neighbour are far more
//! than the mean in-degree, while out-sets barely move.
//!
//! **Ties.** Estimates within 2 % (`COST_TOLERANCE`) of each other are ties,
//! in the beam and in the GHD choice alike. Within-node ties break toward
//! an order that starts with the node's lead variables, then toward fewer
//! atoms read through a transposed trie, then toward the structural
//! order. The lead variables are the head variables when the node emits
//! the result rows (a listing then comes out sorted, and finalize skips
//! its sort), and otherwise the variables it shares with its parent or,
//! at the root, with its children (the top-down pass then hands rows over
//! grouped and merges instead of seeking).
//!
//! Everything here is an estimate over column statistics; no data is
//! scanned at plan time and a missing statistic simply disables the model
//! (falling back to the structural order), so planning stays deterministic
//! for a given catalog state.

use crate::decompose::GhdNode;
use crate::hypergraph::Hypergraph;
use eh_set::uint::gallop_pays_off;
use std::cmp::Ordering;

/// Per-relation statistics as the planner consumes them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of stored tuples (before trie dedup; an upper bound on the
    /// distinct-tuple count, which is all the model needs).
    pub cardinality: u64,
    /// Distinct values per column, in stored column order.
    pub distinct: Vec<u64>,
    /// Σf² per column, in stored column order: over the column's values,
    /// each value's number of tuples, squared. `Σf²/cardinality` is the
    /// group size a frequency-weighted draw of the value sees. A column
    /// without an entry is priced as uniform (`cardinality²/distinct`).
    pub freq_sq: Vec<u64>,
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

/// Relative difference below which two estimates are ties: the model
/// cannot tell such orders (or decompositions) apart, so the tie-break
/// decides them rather than rounding.
const COST_TOLERANCE: f64 = 0.02;

/// A set of at least [`DENSE_MIN`] values spanning at most 32× its size
/// is a bitset (the layout optimizer's rule, `range ≤ 32·|set|`).
const DENSE_FRACTION: f64 = 1.0 / 32.0;

/// Below this many values a set stays a uint array whatever its range.
const DENSE_MIN: f64 = 8.0;

/// One column an atom binds a variable to.
struct ColumnModel {
    /// Position among the atom's variable columns, in stored order.
    rank: usize,
    /// Distinct values, clamped to the atom's effective cardinality.
    distinct: f64,
    /// How much larger a frequency-weighted group is than the mean one:
    /// `Σf² · distinct / card²` (≥ 1; 1 for a uniform column).
    bias: f64,
}

/// One atom of a node, reduced to what the simulation needs: effective
/// cardinality after constant selections and the column each local
/// variable binds.
struct AtomModel {
    /// Effective tuple count after applying selection selectivities.
    card: f64,
    /// Whether constants select on the atom (its first variable level is
    /// reached through the constants' prefix, not the root).
    selected: bool,
    /// For each local variable (indexed like the candidate order's vars):
    /// the column bound by that variable, or `None` when the atom does not
    /// bind it.
    cols: Vec<Option<ColumnModel>>,
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
        let raw = st.cardinality.max(1) as f64;
        let mut card = raw;
        for &(p, _) in &edge.selections {
            let d = st.distinct.get(p).copied().unwrap_or(1).max(1) as f64;
            card = (card / d).max(1.0);
        }
        let cols = vars
            .iter()
            .map(|v| {
                let rank = edge.vars.iter().position(|ev| ev == v)?;
                let col = var_cols[rank];
                let distinct = st.distinct[col].max(1) as f64;
                let bias = st
                    .freq_sq
                    .get(col)
                    .map_or(1.0, |&sq| (sq as f64 * distinct / (raw * raw)).max(1.0));
                Some(ColumnModel {
                    rank,
                    distinct: distinct.min(card),
                    bias,
                })
            })
            .collect();
        models.push(AtomModel {
            card,
            selected: !edge.selections.is_empty(),
            cols,
        });
    }
    Some(models)
}

/// Where one atom's trie cursor stands in a candidate prefix.
#[derive(Clone, Copy)]
struct AtomState {
    /// Variables bound so far.
    bound: usize,
    /// The first of them (an index into the candidate's vars).
    lead: usize,
    /// Product of the bound columns' distinct counts, clamped to the
    /// cardinality — the estimated number of live trie prefixes.
    prefixes: f64,
    /// Whether every variable so far was bound in stored column order.
    in_order: bool,
}

/// Simulation state for one candidate prefix: per-atom cursor estimates
/// plus the running cost and live-binding estimate.
#[derive(Clone)]
struct BeamState {
    order: Vec<usize>,
    chosen: u64,
    /// Variables whose values came out of a set some atom reached through
    /// a prefix, so were drawn in proportion to their frequency.
    biased: u64,
    atoms: Vec<AtomState>,
    /// Estimated bindings carried into the next level.
    live: f64,
    cost: f64,
    /// Whether the order so far agrees with the node's lead variables
    /// (see [`order_node`]).
    lead_order: bool,
}

impl BeamState {
    /// Atoms whose trie must be built transposed (read out of stored
    /// column order) under this prefix.
    fn transposed(&self) -> usize {
        self.atoms.iter().filter(|a| !a.in_order).count()
    }
}

/// Estimated size of the set `model` exposes for a variable bound to
/// `col`, given the atom's cursor `at` and the prefix's `biased` mask:
/// the size this level's draw sees, and the mean size of such sets (what
/// the layout optimizer saw when it picked their layout).
fn set_size(model: &AtomModel, at: &AtomState, col: &ColumnModel, biased: u64) -> (f64, f64) {
    if at.bound == 0 {
        return (col.distinct, col.distinct);
    }
    let group = ((at.prefixes * col.distinct).min(model.card) / at.prefixes.max(1.0)).max(1.0);
    let weighted = at.bound == 1 && !model.selected && biased & (1 << at.lead) != 0;
    if weighted {
        let lead = model.cols[at.lead].as_ref().map_or(1.0, |c| c.bias);
        ((group * lead).min(col.distinct), group)
    } else {
        (group, group)
    }
}

/// Merge or gallop, as the uint∩uint kernel picks between them.
fn pair_work(a: f64, b: f64) -> f64 {
    let (small, large) = if a <= b { (a, b) } else { (b, a) };
    if gallop_pays_off(small.ceil() as usize, large.ceil() as usize) {
        small * (1.0 + (large / small.max(1.0)).log2())
    } else {
        small + large
    }
}

/// Kernel work of one level's intersection: the sparse participants
/// (`sizes` ascending) run the uint kernels, and each `dense` set costs
/// one probe per candidate; bitsets alone are ANDed block by block over
/// all their values.
fn level_work(sizes: &[f64], dense: &[f64]) -> f64 {
    let Some(&smallest) = sizes.first() else {
        return dense.iter().sum();
    };
    let probes = smallest * dense.len() as f64;
    let sparse = match sizes {
        [_] if dense.is_empty() => smallest,
        [_] => 0.0,
        [a, b] => pair_work(*a, *b),
        [a, b, ..] if gallop_pays_off(a.ceil() as usize, b.ceil() as usize) => sizes[1..]
            .iter()
            .map(|&s| smallest * (1.0 + (s / smallest.max(1.0)).log2()))
            .sum(),
        _ => sizes[1..].iter().map(|&s| pair_work(smallest, s)).sum(),
    };
    sparse + probes
}

/// Extend `state` by binding `vi` (index into `vars`), updating cost and
/// survivor estimates. A variable no atom binds costs nothing.
fn extend(models: &[AtomModel], state: &BeamState, vi: usize, lead: &[usize]) -> BeamState {
    let mut next = state.clone();
    next.lead_order &= lead.get(state.order.len()).is_none_or(|&h| h == vi);
    next.order.push(vi);
    next.chosen |= 1 << vi;
    // Participating atoms: the size of each one's set at this level, and
    // the mean size of such sets.
    let mut parts: Vec<(f64, f64)> = Vec::with_capacity(models.len());
    let mut domain: f64 = 1.0;
    for (a, m) in models.iter().enumerate() {
        let Some(col) = &m.cols[vi] else {
            continue;
        };
        let at = state.atoms[a];
        parts.push(set_size(m, &at, col, state.biased));
        domain = domain.max(col.distinct);
        if at.bound > 0 || m.selected {
            next.biased |= 1 << vi;
        }
        // Advance the atom's cursor: it binds the variable whatever its
        // set's size.
        let moved = &mut next.atoms[a];
        if at.bound == 0 {
            moved.lead = vi;
        }
        moved.in_order &= col.rank == at.bound;
        moved.bound += 1;
        moved.prefixes = (at.prefixes * col.distinct).min(m.card);
    }
    if parts.is_empty() {
        return next;
    }
    // The layout optimizer's rule on the mean set, with the level's
    // largest column as the id range a set spreads over.
    let (mut sizes, mut dense) = (Vec::new(), Vec::new());
    for &(size, mean) in &parts {
        if mean < DENSE_MIN || mean < domain * DENSE_FRACTION {
            sizes.push(size);
        } else {
            dense.push(size);
        }
    }
    sizes.sort_by(f64::total_cmp);
    next.cost += state.live * level_work(&sizes, &dense);
    // Survivors: the smallest set, thinned by the chance each other
    // participant also contains a given value (containment assumption:
    // set/domain, clamped to 1).
    let smallest = (0..parts.len())
        .min_by(|&i, &j| parts[i].0.total_cmp(&parts[j].0))
        .expect("a level has a participant");
    let mut survivors = parts[smallest].0;
    for (i, &(size, _)) in parts.iter().enumerate() {
        if i != smallest {
            survivors *= (size / domain).min(1.0);
        }
    }
    next.live = (state.live * survivors).max(f64::MIN_POSITIVE);
    next
}

/// Whether two estimates are within [`COST_TOLERANCE`] of each other.
fn ties(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_TOLERANCE * a.abs().max(b.abs())
}

/// Sort `items` by estimated cost, cheapest first, where estimates that
/// [`ties`] the cheapest of a run form one class ordered by `tie`. Items
/// without an estimate all tie. The classes are formed after an exact
/// sort, so the result is a total order whatever the tolerance.
pub(crate) fn sort_by_cost<T>(
    items: &mut [T],
    cost: impl Fn(&T) -> Option<f64>,
    tie: impl Fn(&T, &T) -> Ordering,
) {
    let key = |t: &T| cost(t).unwrap_or(0.0);
    items.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let mut start = 0;
    while start < items.len() {
        let low = key(&items[start]);
        let len = items[start..]
            .iter()
            .position(|t| !ties(low, key(t)))
            .unwrap_or(items.len() - start);
        items[start..start + len].sort_by(&tie);
        start += len;
    }
}

/// Cost-based within-node attribute order: beam search over orders of
/// `vars` (vertex ids of the node's χ, in structural order: the final
/// tie-break), with `sel_first` vars constrained to come first (selection
/// hoisting, paper App. B.1, is kept as a hard constraint so push-down
/// semantics are unchanged). `lead` lists, as indices into `vars`, the
/// variables that ties prefer to see first, in that sequence (see the
/// module doc). Returns the chosen order and its estimated cost, or
/// `None` when statistics (indexed by edge id, see [`edge_stats`]) are
/// missing and the caller should fall back to the structural order.
pub(crate) fn order_node(
    hg: &Hypergraph,
    node: &GhdNode,
    vars: &[usize],
    sel_first: &[bool],
    lead: &[usize],
    stats: &[Option<RelationStats>],
) -> Option<(Vec<usize>, f64)> {
    if vars.is_empty() || vars.len() > 60 {
        return None;
    }
    let models = node_models(hg, node, vars, stats)?;
    let init = BeamState {
        order: Vec::new(),
        chosen: 0,
        biased: 0,
        atoms: vec![
            AtomState {
                bound: 0,
                lead: 0,
                prefixes: 1.0,
                in_order: true,
            };
            models.len()
        ],
        live: 1.0,
        cost: 0.0,
        lead_order: true,
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
                next.push(extend(&models, state, vi, lead));
            }
        }
        // Keep the cheapest prefixes; ties break toward the lead order,
        // then stored column order, then the structural order.
        sort_by_cost(
            &mut next,
            |s| Some(s.cost),
            |a, b| {
                b.lead_order
                    .cmp(&a.lead_order)
                    .then_with(|| a.transposed().cmp(&b.transposed()))
                    .then_with(|| a.order.cmp(&b.order))
            },
        );
        next.truncate(BEAM_WIDTH);
        beam = next;
        debug_assert!(beam.iter().all(|s| s.order.len() == step + 1));
    }
    let best = beam.into_iter().next()?;
    let order = best.order.iter().map(|&vi| vars[vi]).collect();
    Some((order, best.cost))
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
                            freq_sq: Vec::new(),
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
        let ordered = order_node(&hg, &ghd.root, &vars, &sel, &[], &edge_stats(&hg, source));
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
                    freq_sq: vec![20, 20],
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

    /// A single-node plan of `query` under `source`: its models, vars and
    /// a fresh beam state.
    fn simulate(query: &str, source: &dyn StatsSource, order: &[&str]) -> (Vec<f64>, f64, usize) {
        let rule = eh_query::parse_rule(query).unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let ghd = crate::decompose::single_node_ghd(&hg);
        let vars = ghd.root.chi.clone();
        let models = node_models(&hg, &ghd.root, &vars, &edge_stats(&hg, source)).unwrap();
        let mut state = BeamState {
            order: Vec::new(),
            chosen: 0,
            biased: 0,
            atoms: vec![
                AtomState {
                    bound: 0,
                    lead: 0,
                    prefixes: 1.0,
                    in_order: true,
                };
                models.len()
            ],
            live: 1.0,
            cost: 0.0,
            lead_order: true,
        };
        let mut live = Vec::new();
        for name in order {
            let vi = vars.iter().position(|&v| hg.vars[v] == *name).unwrap();
            state = extend(&models, &state, vi, &[]);
            live.push(state.live);
        }
        let transposed = state.transposed();
        (live, state.cost, transposed)
    }

    #[test]
    fn every_participant_advances_its_prefix() {
        // R(x,y): 1000 rows, 100 x's, 50 y's; S(y,z): 2000 rows, 40 y's,
        // 400 z's. Order y x z:
        // - y: R's root (50) ∩ S's root (40), domain 50 → 40 · 50/50 = 40;
        // - x: R[y] = 1000/50 = 20 → 40 · 20 = 800;
        // - z: S[y] = 2000/40 = 50 → 800 · 50 = 40 000. S was the smaller
        //   set at y, and its prefix still advanced: priced as the whole
        //   column, S[y] would be 400 and the last level 320 000.
        let st = stats(&[("R", 1000, &[100, 50]), ("S", 2000, &[40, 400])]);
        let (live, cost, transposed) =
            simulate("T(x,y,z) :- R(x,y),S(y,z).", &st, &["y", "x", "z"]);
        assert_eq!(live, vec![40.0, 800.0, 40_000.0]);
        // Both roots are dense, so their AND reads 50 + 40 values; then 40
        // walks of 20, then 800 walks of 50.
        assert_eq!(cost, 90.0 + 40.0 * 20.0 + 800.0 * 50.0);
        assert_eq!(transposed, 1, "R is read as (y, x)");
    }

    /// The Google+ analog's degree-pruned `Edge` (seed 7, scale 0.3):
    /// out-sets are near uniform, in-sets heavy-tailed (size-biased mean
    /// in-degree 432 against a mean of 107).
    fn pruned_edge() -> MapStats {
        MapStats(HashMap::from([(
            "E".to_string(),
            RelationStats {
                cardinality: 90_000,
                distinct: vec![899, 842],
                freq_sq: vec![9_656_144, 38_902_590],
            },
        )]))
    }

    const TRIANGLE: &str = "T(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.";

    #[test]
    fn in_sets_of_in_neighbours_price_as_size_biased() {
        let st = pruned_edge();
        let (_, xyz, _) = simulate(TRIANGLE, &st, &["x", "y", "z"]);
        let (_, yzx, _) = simulate(TRIANGLE, &st, &["y", "z", "x"]);
        // y z x intersects two in-sets at its last level, one of them the
        // in-set of an in-neighbour: 432 values against out-sets of ~100.
        assert!(yzx > 2.0 * xyz, "y z x {yzx} against x y z {xyz}");
        let (hg, ordered) = order_single(TRIANGLE, &st, "");
        let names: Vec<&str> = ordered
            .unwrap()
            .0
            .iter()
            .map(|&v| hg.vars[v].as_str())
            .collect();
        assert_eq!(names, ["x", "y", "z"]);
    }

    #[test]
    fn orders_within_the_tolerance_fall_back_to_the_tie_break() {
        let st = pruned_edge();
        let (_, xyz, _) = simulate(TRIANGLE, &st, &["x", "y", "z"]);
        let (_, yxz, transposed) = simulate(TRIANGLE, &st, &["y", "x", "z"]);
        // y x z is estimated a hair cheaper, but within the tolerance; it
        // reads E(x,y) transposed, so x y z wins the tie.
        assert!(yxz < xyz && ties(xyz, yxz), "{yxz} vs {xyz}");
        assert_eq!(transposed, 1);
        let (hg, ordered) = order_single(TRIANGLE, &st, "");
        assert_eq!(hg.vars[ordered.unwrap().0[0]], "x");
        // A root that emits the rows prefers its head order over both.
        let rule = eh_query::parse_rule("T(y,x,z) :- E(x,y),E(y,z),E(x,z).").unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let ghd = crate::decompose::single_node_ghd(&hg);
        let vars = ghd.root.chi.clone();
        let lead: Vec<usize> = ["y", "x", "z"]
            .iter()
            .map(|n| vars.iter().position(|&v| hg.vars[v] == *n).unwrap())
            .collect();
        let (order, _) = order_node(
            &hg,
            &ghd.root,
            &vars,
            &[false; 3],
            &lead,
            &edge_stats(&hg, &st),
        )
        .unwrap();
        let names: Vec<&str> = order.iter().map(|&v| hg.vars[v].as_str()).collect();
        assert_eq!(names, ["y", "x", "z"]);
    }

    #[test]
    fn ties_are_relative() {
        assert!(ties(1.0, 1.0 + 1e-12));
        assert!(ties(1.0e13, 1.0e13 + 1.0e9), "a 1e-4 gap at 1e13 is a tie");
        assert!(!ties(1.0, 1.0 + 2.0 * COST_TOLERANCE));
        assert!(ties(0.0, 0.0));
        // Classes form after an exact sort: the cheapest of each run
        // anchors it, and `tie` orders inside a class only.
        let mut items = vec![
            (3.0, 'c'),
            (1.0, 'b'),
            (1.0 + COST_TOLERANCE / 2.0, 'a'),
            (2.0, 'd'),
        ];
        sort_by_cost(&mut items, |&(c, _)| Some(c), |a, b| a.1.cmp(&b.1));
        let names: String = items.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, "abdc");
        // Without estimates every item ties.
        let mut items = vec![(None::<f64>, 'b'), (None, 'a')];
        sort_by_cost(&mut items, |&(c, _)| c, |a, b| a.1.cmp(&b.1));
        assert_eq!(items[0].1, 'a');
    }
}
