//! GHD selection, attribute ordering, selection push-down, and redundant
//! node elimination (paper §3.2, Appendix B).

use crate::cost::{edge_stats, order_node, sort_by_cost, NoStats, RelationStats, StatsSource};
use crate::decompose::{enumerate_ghds, single_node_ghd, Ghd, GhdNode};
use crate::hypergraph::Hypergraph;
use eh_query::Rule;

/// Compiler options — the query-compiler ablation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Enumerate GHDs and pick the minimum-width one. `false` forces the
    /// single-node plan (the paper's `-GHD` ablation / LogicBlox's plan).
    pub ghd_optimizations: bool,
    /// Break width ties toward maximal selection depth (App. B.1.1).
    pub push_down_selections: bool,
    /// Detect equivalent GHD nodes so they are computed once (App. B.2).
    pub dedup_nodes: bool,
    /// Score candidate within-node attribute orders (and otherwise-tied
    /// GHD roots) with the catalog-statistics cost model instead of the
    /// purely structural frequency sort. Has no effect when the catalog
    /// has no statistics; `false` keeps the structural order as the
    /// ablation baseline.
    pub cost_based_order: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            ghd_optimizations: true,
            push_down_selections: true,
            dedup_nodes: true,
            cost_based_order: true,
        }
    }
}

/// A compiled logical plan: the chosen GHD plus the global attribute order
/// and bookkeeping the code generator consumes.
#[derive(Clone, Debug)]
pub struct GhdPlan {
    /// The rule's hypergraph.
    pub hypergraph: Hypergraph,
    /// The winning decomposition.
    pub ghd: Ghd,
    /// Global attribute order (variable names), from the pre-order
    /// traversal of the GHD with selected attributes hoisted first.
    pub attr_order: Vec<String>,
    /// For each node (pre-order index), `Some(j)` if it is equivalent to
    /// earlier node `j` and its result can be reused.
    pub node_equiv: Vec<Option<usize>>,
    /// True when the top-down Yannakakis pass can be skipped because every
    /// output attribute already appears in the root node (App. B.2).
    pub skip_top_down: bool,
    /// Estimated total kernel work under the chosen order, from the
    /// statistics cost model. `None` when statistics were unavailable (or
    /// the cost-based order is disabled) and the structural order was used.
    pub estimated_cost: Option<f64>,
    /// Per-node estimated work in pre-order (the numbering plan nodes
    /// carry), so observed per-node counters can be compared against the
    /// model node by node. Entries are `None` where statistics were
    /// missing; the vector length always equals the GHD's node count.
    pub estimated_node_costs: Vec<Option<f64>>,
}

/// Compile a rule into a [`GhdPlan`] with no catalog statistics — the
/// structural planner (pre-order, frequency sort) exactly as before.
pub fn plan_rule(rule: &Rule, opts: &PlanOptions) -> Result<GhdPlan, String> {
    plan_rule_with_stats(rule, opts, &NoStats)
}

/// Compile a rule into a [`GhdPlan`], consulting `stats` to score
/// candidate attribute orders and to break GHD-choice ties by estimated
/// kernel work (when `opts.cost_based_order` is set and the source
/// has statistics for every relation of the rule).
pub fn plan_rule_with_stats(
    rule: &Rule,
    opts: &PlanOptions,
    stats: &dyn StatsSource,
) -> Result<GhdPlan, String> {
    eh_query::validate_rule(rule).map_err(|e| e.to_string())?;
    let hg = Hypergraph::from_rule(rule);
    if hg.num_edges() == 0 {
        return Err("rule has no body atoms".into());
    }
    let costed: &dyn StatsSource = if opts.cost_based_order {
        stats
    } else {
        &NoStats
    };
    let cx = Context::new(&hg, rule, costed, opts.dedup_nodes);
    let (ghd, analysis) = if opts.ghd_optimizations {
        choose_ghd(&cx, opts.push_down_selections)
    } else {
        let ghd = single_node_ghd(&hg);
        let analysis = cx.analyse(&ghd);
        (ghd, analysis)
    };
    // Skip the top-down pass when the root already holds every output
    // attribute (e.g. aggregate-only queries with no key vars).
    let root_vars: Vec<&str> = ghd.root.chi.iter().map(|&v| hg.vars[v].as_str()).collect();
    let skip_top_down = rule
        .head
        .key_vars
        .iter()
        .all(|v| root_vars.contains(&v.as_str()));
    Ok(GhdPlan {
        estimated_cost: analysis.cost(),
        attr_order: analysis.order.iter().map(|&v| hg.vars[v].clone()).collect(),
        hypergraph: hg,
        ghd,
        node_equiv: analysis.equiv,
        skip_top_down,
        estimated_node_costs: analysis.node_costs,
    })
}

/// What one planning call knows before it looks at any candidate: the
/// hypergraph, each edge's statistics (fetched once, see
/// [`edge_stats`]), and which variables are selected or in the head.
struct Context<'h> {
    hg: &'h Hypergraph,
    stats: Vec<Option<RelationStats>>,
    /// Vertices sharing an atom with a constant (hoisted first).
    selected: Vec<usize>,
    /// Head key variables (kept in every node's output).
    head: Vec<usize>,
    /// Look for equivalent nodes (App. B.2) at all.
    dedup: bool,
}

/// One candidate decomposition, analysed in one pre-order pass: every
/// node's within-node order comes from one beam (or the structural sort),
/// and the global order, the cost and the equivalences all follow from
/// those orders.
struct Analysis {
    /// Global attribute order (vertex ids).
    order: Vec<usize>,
    /// Per-node estimated work, pre-order.
    node_costs: Vec<Option<f64>>,
    /// Per node (pre-order), the earlier node whose result it reuses.
    equiv: Vec<Option<usize>>,
}

impl Analysis {
    /// Estimated total work: the node costs summed, `None` when any node
    /// lacks statistics.
    fn cost(&self) -> Option<f64> {
        self.node_costs
            .iter()
            .try_fold(0.0f64, |acc, c| c.map(|x| acc + x))
    }
}

/// A node's result, up to the names of its attributes: two nodes with
/// equal signatures produce byte-identical buffers, so one can reuse the
/// other's by relabeling columns positionally. Every position is an index
/// into the node's compiled attribute order (global order ∩ χ, the
/// `attrs` of the physical plan). Atoms and children keep their plan
/// order — the order the executor multiplies annotations in — so that
/// `f64` products agree bit for bit too.
#[derive(PartialEq)]
struct Signature<'h> {
    /// The node's atoms, then the selection copies it filters on
    /// ([`Hypergraph::selection_copies`], in the physical plan's order).
    atoms: Vec<AtomSignature<'h>>,
    /// Positions shared with the parent.
    interface: Vec<usize>,
    /// Positions holding head key variables.
    head: Vec<usize>,
    /// Per child: the positions it joins on, and its signature class.
    children: Vec<(Vec<usize>, usize)>,
}

/// One atom of a [`Signature`].
#[derive(PartialEq)]
struct AtomSignature<'h> {
    relation: &'h str,
    /// The position each variable column binds.
    columns: Vec<Option<usize>>,
    /// The constants on the other columns.
    selections: &'h [(usize, usize)],
    /// A filter-only copy of a selection atom another node joins.
    copy: bool,
}

impl<'h> Context<'h> {
    fn new(hg: &'h Hypergraph, rule: &Rule, stats: &dyn StatsSource, dedup: bool) -> Context<'h> {
        Context {
            hg,
            stats: edge_stats(hg, stats),
            selected: hg.selected_vars(),
            head: rule
                .head
                .key_vars
                .iter()
                .filter_map(|v| hg.lookup(v))
                .collect(),
            dedup,
        }
    }

    /// Global attribute order: pre-order traversal over the GHD, appending
    /// each node's attributes to a queue (paper §3.2), with the per-node
    /// costs and equivalences that order implies.
    fn analyse(&self, ghd: &Ghd) -> Analysis {
        let mut order: Vec<usize> = Vec::new();
        let mut node_costs = Vec::new();
        self.order_subtree(&ghd.root, None, &mut order, &mut node_costs);
        let equiv = if self.dedup {
            self.equivalences(&ghd.root, &order)
        } else {
            vec![None; node_costs.len()]
        };
        Analysis {
            order,
            node_costs,
            equiv,
        }
    }

    /// Order `node` and then its children, pre-order, appending the
    /// attributes each adds to `order` and each node's cost to `costs`.
    fn order_subtree(
        &self,
        node: &GhdNode,
        parent: Option<&GhdNode>,
        order: &mut Vec<usize>,
        costs: &mut Vec<Option<f64>>,
    ) {
        let (local, cost) = self.node_order(node, &self.lead(node, parent, order));
        costs.push(cost);
        for v in local {
            if !order.contains(&v) {
                order.push(v);
            }
        }
        for child in &node.children {
            self.order_subtree(child, Some(node), order, costs);
        }
    }

    /// The variables that, leading `node`'s order in this sequence, let
    /// its rows reach their consumer without a sort or a seek: the head
    /// variables when the root emits the result rows, the interface with
    /// the parent (in the order the parent already fixed) for any other
    /// node, and its children's interfaces for a root that joins them.
    fn lead(&self, node: &GhdNode, parent: Option<&GhdNode>, order: &[usize]) -> Vec<usize> {
        if let Some(parent) = parent {
            let shared = |v: &&usize| parent.chi.contains(v) && node.chi.contains(v);
            return order.iter().filter(shared).copied().collect();
        }
        if !self.head.is_empty() && self.head.iter().all(|v| node.chi.contains(v)) {
            return self.head.clone();
        }
        let shared = |v: &usize| node.children.iter().any(|c| c.chi.contains(v));
        self.structural_order(node)
            .into_iter()
            .filter(shared)
            .collect()
    }

    /// Within-node order: attributes with selections come first (App. B.1
    /// "Within a Node"), then — when the catalog has statistics — by the
    /// beam-searched cost-model order, falling back to how many of the
    /// node's relations contain them (descending). The structural order
    /// is also the cost model's last tie-break; before it, ties prefer
    /// orders that start with `lead` (see [`Context::lead`]).
    fn node_order(&self, node: &GhdNode, lead: &[usize]) -> (Vec<usize>, Option<f64>) {
        let local = self.structural_order(node);
        let sel_first: Vec<bool> = local.iter().map(|v| self.selected.contains(v)).collect();
        let at = |v: &usize| local.iter().position(|l| l == v);
        let lead: Vec<usize> = lead.iter().filter_map(at).collect();
        match order_node(self.hg, node, &local, &sel_first, &lead, &self.stats) {
            Some((order, cost)) => (order, Some(cost)),
            None => (local, None),
        }
    }

    /// The structural within-node order: selected attributes first, then
    /// by how many of the node's relations contain them (descending).
    fn structural_order(&self, node: &GhdNode) -> Vec<usize> {
        let mut local = node.chi.clone();
        local.sort_by_key(|&v| {
            let freq = node
                .lambda
                .iter()
                .filter(|&&e| self.hg.edges[e].vars.contains(&v))
                .count();
            (
                std::cmp::Reverse(self.selected.contains(&v) as usize),
                std::cmp::Reverse(freq),
                v,
            )
        });
        local
    }

    /// Pre-order node equivalence (paper App. B.2): `result[i] = Some(j)`
    /// when node `i`'s signature equals that of the earlier node `j`.
    fn equivalences(&self, root: &GhdNode, order: &[usize]) -> Vec<Option<usize>> {
        let mut rank = vec![usize::MAX; self.hg.num_vars()];
        for (i, &v) in order.iter().enumerate() {
            rank[v] = i;
        }
        let mut classes: Vec<Signature<'h>> = Vec::new();
        let mut class_of: Vec<usize> = Vec::new();
        self.classify(root, &[], &rank, &mut classes, &mut class_of);
        (0..class_of.len())
            .map(|i| class_of[..i].iter().position(|&c| c == class_of[i]))
            .collect()
    }

    /// Compute `node`'s signature bottom-up and return its class (an index
    /// into `classes`, which interns every distinct signature); records
    /// the class of every node of the subtree in pre-order in `class_of`.
    fn classify(
        &self,
        node: &GhdNode,
        parent_chi: &[usize],
        rank: &[usize],
        classes: &mut Vec<Signature<'h>>,
        class_of: &mut Vec<usize>,
    ) -> usize {
        let slot = class_of.len();
        class_of.push(0);
        let mut attrs = node.chi.clone();
        attrs.sort_by_key(|&v| rank[v]);
        let positions = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
            (0..attrs.len()).filter(|&i| keep(attrs[i])).collect()
        };
        let children = node
            .children
            .iter()
            .map(|child| {
                let joins_on = positions(&|v| child.chi.contains(&v));
                let class = self.classify(child, &node.chi, rank, classes, class_of);
                (joins_on, class)
            })
            .collect();
        let sig = Signature {
            atoms: node
                .lambda
                .iter()
                .map(|&e| (e, false))
                .chain(
                    self.hg
                        .selection_copies(&node.chi, &node.lambda)
                        .map(|e| (e, true)),
                )
                .map(|(e, copy)| {
                    let edge = &self.hg.edges[e];
                    AtomSignature {
                        relation: &edge.relation,
                        columns: edge
                            .vars
                            .iter()
                            .map(|v| attrs.iter().position(|a| a == v))
                            .collect(),
                        selections: &edge.selections,
                        copy,
                    }
                })
                .collect(),
            interface: positions(&|v| parent_chi.contains(&v)),
            head: positions(&|v| self.head.contains(&v)),
            children,
        };
        let class = classes.iter().position(|c| *c == sig).unwrap_or_else(|| {
            classes.push(sig);
            classes.len() - 1
        });
        class_of[slot] = class;
        class
    }
}

/// Pick the minimum-width GHD; tie-break toward maximal selection depth
/// (push-down across nodes), then toward more reusable (equivalent) nodes
/// (App. B.2 dedup pays off only if the shape exposes equivalent subtrees),
/// then by estimated kernel work when statistics are available (within
/// the cost model's tolerance, see [`sort_by_cost`]), then toward fewer
/// nodes, then toward fewer total attributes. Width and
/// selection depth need no attribute order, so only the candidates tied
/// on both are analysed.
fn choose_ghd(cx: &Context, push_down: bool) -> (Ghd, Analysis) {
    let mut candidates = enumerate_ghds(cx.hg);
    // Drop dominated "wrapper" decompositions: a node with a single child
    // whose χ contains the node's entire χ does no join work of its own —
    // it only forces the child to materialize a large interface. Such
    // plans can trick the selection-depth tie-break.
    candidates.retain(|g| !has_wrapper_node(&g.root));
    let sel_depth = |g: &Ghd| {
        if push_down {
            selection_depth(cx.hg, &g.root, 0)
        } else {
            0
        }
    };
    let best = candidates
        .iter()
        .map(|g| (g.width, sel_depth(g)))
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
    let Some(best) = best else {
        let ghd = single_node_ghd(cx.hg);
        let analysis = cx.analyse(&ghd);
        return (ghd, analysis);
    };
    candidates.retain(|g| (g.width, sel_depth(g)) == best);
    let mut analysed: Vec<(Ghd, Analysis)> = candidates
        .into_iter()
        .map(|ghd| {
            let analysis = cx.analyse(&ghd);
            (ghd, analysis)
        })
        .collect();
    let reused = |a: &Analysis| a.equiv.iter().flatten().count();
    let most = analysed.iter().map(|(_, a)| reused(a)).max().unwrap_or(0);
    analysed.retain(|(_, a)| reused(a) == most);
    sort_by_cost(
        &mut analysed,
        |(_, a)| a.cost(),
        |(ga, _), (gb, _)| {
            ga.node_count()
                .cmp(&gb.node_count())
                .then_with(|| total_chi(&ga.root).cmp(&total_chi(&gb.root)))
        },
    );
    analysed.swap_remove(0)
}

/// True if any node has exactly one child whose χ is a superset of the
/// node's χ (a dominated wrapper — the child subsumes it).
fn has_wrapper_node(node: &GhdNode) -> bool {
    if node.children.len() == 1 {
        let child = &node.children[0];
        if node.chi.iter().all(|v| child.chi.contains(v)) {
            return true;
        }
    }
    node.children.iter().any(has_wrapper_node)
}

/// Selection depth: sum over selection-carrying edges of the depth of the
/// node that joins them (paper App. B.1.1 step 3 — deeper selections run
/// earlier in the bottom-up pass).
fn selection_depth(hg: &Hypergraph, node: &GhdNode, depth: usize) -> usize {
    let here: usize = node
        .lambda
        .iter()
        .filter(|&&e| hg.edges[e].has_selection())
        .count()
        * depth;
    here + node
        .children
        .iter()
        .map(|c| selection_depth(hg, c, depth + 1))
        .sum::<usize>()
}

fn total_chi(node: &GhdNode) -> usize {
    node.chi.len() + node.children.iter().map(total_chi).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::enumerate_ghds;
    use eh_query::parse_rule;

    #[test]
    fn barbell_on_same_relation_dedups_triangle_nodes() {
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).")
                .unwrap();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        assert!(
            plan.node_equiv.iter().any(Option::is_some),
            "the two triangle nodes must be recognized as equivalent: {:?}",
            plan.node_equiv
        );
    }

    /// The pre-order equivalences of the candidate GHD of `query` that
    /// `pick` selects, analysed as the planner would.
    fn equiv_of(query: &str, pick: impl Fn(&Hypergraph, &Ghd) -> bool) -> Vec<Option<usize>> {
        let rule = parse_rule(query).unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let ghd = enumerate_ghds(&hg)
            .into_iter()
            .find(|g| pick(&hg, g))
            .expect("the enumeration contains the wanted candidate");
        Context::new(&hg, &rule, &NoStats, true).analyse(&ghd).equiv
    }

    /// A root joining only `E(y,z)` with two single-atom leaves.
    fn two_leaves_under_yz(hg: &Hypergraph, g: &Ghd) -> bool {
        let (y, z) = (hg.lookup("y").unwrap(), hg.lookup("z").unwrap());
        g.root.chi == [y.min(z), y.max(z)]
            && g.root.children.len() == 2
            && g.root.children.iter().all(|c| c.children.is_empty())
    }

    #[test]
    fn directed_three_path_transposed_leaves_are_not_equivalent() {
        // Under χ order (y, x) the leaf E(x,y) holds E's columns swapped;
        // E(z,u) under (z, u) holds them as stored.
        let equiv = equiv_of("P(x,u) :- E(x,y),E(y,z),E(z,u).", two_leaves_under_yz);
        assert_eq!(equiv, vec![None; 3]);
        let plan = plan_rule(
            &parse_rule("P(x,u) :- E(x,y),E(y,z),E(z,u).").unwrap(),
            &PlanOptions::default(),
        )
        .unwrap();
        assert!(plan.node_equiv.iter().all(Option::is_none));
        // Written so both leaves hold E as stored, they are one result.
        let equiv = equiv_of("P(x,u) :- E(y,x),E(y,z),E(z,u).", two_leaves_under_yz);
        assert_eq!(equiv, vec![None, None, Some(1)]);
    }

    #[test]
    fn triangles_keeping_different_head_columns_are_not_equivalent() {
        // The triangles' results keep [x, z] and [a, b]: positions 0, 2
        // against 0, 1 of identically written joins.
        let query = "B(z,b) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).";
        let plan = plan_rule(&parse_rule(query).unwrap(), &PlanOptions::default()).unwrap();
        assert_eq!(plan.ghd.node_count(), 3, "{:?}", plan.ghd);
        assert!(plan.node_equiv.iter().all(Option::is_none));
    }

    #[test]
    fn node_costs_walk_preorder_and_sum_to_the_total() {
        use crate::cost::RelationStats;
        struct E;
        impl StatsSource for E {
            fn stats(&self, _name: &str) -> Option<RelationStats> {
                Some(RelationStats {
                    cardinality: 1000,
                    distinct: vec![100, 50],
                    freq_sq: Vec::new(),
                })
            }
        }
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).")
                .unwrap();
        let plan = plan_rule_with_stats(&rule, &PlanOptions::default(), &E).unwrap();
        assert_eq!(plan.estimated_node_costs.len(), plan.ghd.node_count());
        let total: Option<f64> = plan.estimated_node_costs.iter().copied().sum();
        assert_eq!(total, plan.estimated_cost);
        assert!(total.is_some());
        // Without statistics every node scores None and the total is None.
        let none = plan_rule(&rule, &PlanOptions::default()).unwrap();
        assert!(none.estimated_node_costs.iter().all(Option::is_none));
        assert!(none.estimated_cost.is_none());
    }

    /// Plan `query` in debug or release alike, assert the GHD is valid,
    /// and return how long planning took.
    fn plan_time(query: &str) -> std::time::Duration {
        let rule = parse_rule(query).unwrap();
        let started = std::time::Instant::now();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        let took = started.elapsed();
        plan.ghd.validate(&plan.hypergraph).unwrap();
        assert_eq!(plan.attr_order.len(), plan.hypergraph.num_vars());
        took
    }

    fn path(atoms: usize) -> String {
        let body: Vec<String> = (0..atoms).map(|i| format!("E(v{i},v{})", i + 1)).collect();
        format!("P(;w:long) :- {}; w=<<COUNT(*)>>.", body.join(","))
    }

    #[test]
    fn long_paths_plan_in_linear_time() {
        // Renaming-invariant signatures took 93 s (release) on 16 atoms.
        let took = plan_time(&path(16));
        assert!(took.as_secs_f64() < 2.0, "16-atom path: {took:?}");
        let took = plan_time(&path(40));
        assert!(took.as_secs_f64() < 1.0, "40-atom path: {took:?}");
    }

    #[test]
    fn an_eight_clique_plans_within_the_seed_budget() {
        // 28 atoms: 2.7e8 seed subsets at the top level alone.
        let mut body = Vec::new();
        for a in 0..8 {
            for b in a + 1..8 {
                body.push(format!("E(v{a},v{b})"));
            }
        }
        let took = plan_time(&format!(
            "K(;w:long) :- {}; w=<<COUNT(*)>>.",
            body.join(",")
        ));
        assert!(took.as_secs_f64() < 1.0, "8-clique: {took:?}");
    }

    #[test]
    fn barbell_on_distinct_relations_does_not_dedup() {
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).")
                .unwrap();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        assert!(plan.node_equiv.iter().all(Option::is_none));
    }

    #[test]
    fn aggregate_only_query_skips_top_down() {
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.").unwrap();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        assert!(plan.skip_top_down);
    }

    #[test]
    fn attr_order_covers_all_vars_once() {
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).")
                .unwrap();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        let mut sorted = plan.attr_order.clone();
        sorted.sort();
        let mut expect: Vec<String> = ["a", "b", "c", "x", "y", "z"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn selection_pushdown_prefers_deeper_selected_nodes() {
        // Barbell selection query (paper Table 12): selection on U's
        // endpoint should not sit at the root when push-down is on.
        let rule = parse_rule(
            "SB(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),U(x,'7'),V('7',a),E(a,b),E(b,c),E(a,c).",
        )
        .unwrap();
        let with = plan_rule(&rule, &PlanOptions::default()).unwrap();
        let without = plan_rule(
            &rule,
            &PlanOptions {
                push_down_selections: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Same width either way; push-down must not worsen it.
        assert!(with.ghd.width <= without.ghd.width + 1e-9);
    }

    #[test]
    fn no_body_is_an_error() {
        // Constructed directly since the parser requires a body.
        let rule = eh_query::Rule {
            head: eh_query::HeadAtom {
                relation: "T".into(),
                key_vars: vec![],
                annotation: None,
                recursion: None,
            },
            body: vec![],
            agg: None,
            consts: vec![],
        };
        assert!(plan_rule(&rule, &PlanOptions::default()).is_err());
    }

    #[test]
    fn cost_based_order_prefers_low_cardinality_first() {
        use crate::cost::RelationStats;
        use std::collections::HashMap;
        // Skewed triangle: z's columns hold 4 distinct values, x's 100k.
        // Structurally all three vars tie on frequency (2 atoms each), so
        // the static order starts at x (first by index); the cost model
        // must start at z, the cheapest intersection.
        struct Map(HashMap<String, RelationStats>);
        impl crate::cost::StatsSource for Map {
            fn stats(&self, name: &str) -> Option<RelationStats> {
                self.0.get(name).cloned()
            }
        }
        let stats = Map(HashMap::from([
            (
                "R".to_string(),
                RelationStats {
                    cardinality: 1_000_000,
                    distinct: vec![100_000, 50_000],
                    freq_sq: Vec::new(),
                },
            ),
            (
                "S".to_string(),
                RelationStats {
                    cardinality: 1_000_000,
                    distinct: vec![50_000, 4],
                    freq_sq: Vec::new(),
                },
            ),
            (
                "U".to_string(),
                RelationStats {
                    cardinality: 1_000_000,
                    distinct: vec![100_000, 4],
                    freq_sq: Vec::new(),
                },
            ),
        ]));
        let rule = parse_rule("T(x,y,z) :- R(x,y),S(y,z),U(x,z).").unwrap();
        let costed = plan_rule_with_stats(&rule, &PlanOptions::default(), &stats).unwrap();
        assert_eq!(costed.attr_order[0], "z", "{:?}", costed.attr_order);
        assert!(costed.estimated_cost.is_some());
        // Without stats (or with the knob off) the structural order wins.
        let structural = plan_rule(&rule, &PlanOptions::default()).unwrap();
        assert_eq!(structural.attr_order[0], "x");
        assert!(structural.estimated_cost.is_none());
        let ablated = plan_rule_with_stats(
            &rule,
            &PlanOptions {
                cost_based_order: false,
                ..Default::default()
            },
            &stats,
        )
        .unwrap();
        assert_eq!(ablated.attr_order, structural.attr_order);
        assert!(ablated.estimated_cost.is_none());
    }
}
