//! Physical plans — the executable form of a GHD (paper §3.3 "Code
//! Generation").
//!
//! The paper's code generator emits C++ whose shape is one loop per
//! attribute wrapping set intersections (Figure 1). Here the "generated
//! code" is an explicit IR: a list of [`PlanNode`]s in bottom-up execution
//! order, each holding its local attribute order and the per-atom trie
//! orders. [`PhysicalPlan::render`] prints the loop nest the paper shows in
//! Figure 1 so plans stay inspectable.

use eh_ghd::GhdPlan;
use eh_query::ast::Expr;
use eh_query::Rule;
use eh_semiring::AggOp;

/// One atom (relation occurrence) inside a plan node.
#[derive(Clone, Debug)]
pub struct AtomPlan {
    /// Relation name to look up in the catalog.
    pub relation: String,
    /// Index of the atom in the original rule body.
    pub atom_index: usize,
    /// Column order for the trie: constant positions first (selection
    /// push-down within the node, paper App. B.1), then variable positions
    /// by node-attribute order.
    pub trie_order: Vec<usize>,
    /// Slots (`$k` of the rule's constants) occupying the first trie
    /// levels; execution resolves the values bound to them.
    pub const_prefix: Vec<usize>,
    /// For each trie level after the constants, the index of the bound
    /// attribute in the node's `attrs`.
    pub attr_levels: Vec<usize>,
    /// True for a *duplicated* selection atom (paper App. B.1 step 2:
    /// selection relations are copied into every covering subtree so each
    /// node filters early). Duplicates act as pure filters — their
    /// annotations are multiplied only at the primary occurrence.
    pub secondary: bool,
}

/// One GHD node, compiled.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// Stable id (index into [`PhysicalPlan::nodes`]).
    pub id: usize,
    /// Parent node id (None for the root).
    pub parent: Option<usize>,
    /// Child node ids.
    pub children: Vec<usize>,
    /// Node-local attribute order: global order restricted to χ.
    pub attrs: Vec<String>,
    /// Atoms joined at this node.
    pub atoms: Vec<AtomPlan>,
    /// Attributes retained in the node's materialized result (interface to
    /// the parent, head variables, and child interfaces for the top-down
    /// pass); everything else is aggregated away early.
    pub output_attrs: Vec<String>,
    /// Attributes shared with the parent.
    pub interface: Vec<String>,
    /// If `Some(j)`, this node's result equals node `j`'s — reuse it
    /// (paper App. B.2).
    pub equiv_to: Option<usize>,
    /// Estimated kernel work of this node under the planner's cost
    /// model (`None` when statistics were missing). Paired against the
    /// observed per-node work counters by `\explain`.
    pub estimated_cost: Option<f64>,
}

/// Aggregation specification for the whole rule.
#[derive(Clone, Debug)]
pub struct AggSpec {
    /// The carrier semiring operator.
    pub op: AggOp,
    /// The head expression applied after aggregation (e.g.
    /// `0.15 + 0.85 * <<SUM(z)>>`).
    pub expr: Expr,
}

/// A fully compiled plan.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// Nodes in bottom-up execution order; the root is last.
    pub nodes: Vec<PlanNode>,
    /// Global attribute order.
    pub attr_order: Vec<String>,
    /// Output key variables (head, before `;`).
    pub output_vars: Vec<String>,
    /// Aggregation, if the rule has one.
    pub agg: Option<AggSpec>,
    /// True when the top-down pass is unnecessary.
    pub skip_top_down: bool,
    /// Estimated kernel work of the chosen attribute order under the
    /// planner's cost model — `None` when catalog statistics were missing
    /// (structural order fallback) or cost-based ordering was disabled.
    pub estimated_cost: Option<f64>,
}

impl PhysicalPlan {
    /// Compile a [`GhdPlan`] + rule into a physical plan.
    pub fn compile(rule: &Rule, ghd_plan: &GhdPlan) -> PhysicalPlan {
        let hg = &ghd_plan.hypergraph;
        let head_vars: Vec<String> = rule.head.key_vars.clone();
        let agg = rule.agg.as_ref().map(|a| {
            // Expressions without an aggregate node (initialization rules
            // like `y = 1/N`) still need a carrier semiring; pick it from
            // the declared annotation type so floats stay floats.
            let op = a.expr.agg_op().unwrap_or_else(|| {
                match rule.head.annotation.as_ref().map(|an| an.ty.as_str()) {
                    Some("float") | Some("double") => AggOp::Sum,
                    _ => AggOp::Count,
                }
            });
            AggSpec {
                op,
                expr: a.expr.clone(),
            }
        });

        // Flatten the GHD into post-order (children before parents).
        struct Flat {
            chi: Vec<usize>,
            lambda: Vec<usize>,
            parent: Option<usize>,
            children: Vec<usize>,
            preorder_idx: usize,
        }
        fn flatten(
            node: &eh_ghd::GhdNode,
            parent: Option<usize>,
            out: &mut Vec<Flat>,
            pre_counter: &mut usize,
        ) -> usize {
            let my_pre = *pre_counter;
            *pre_counter += 1;
            let mut children = Vec::new();
            // Reserve our slot index after children are flattened: compute
            // children first (post-order).
            let mut child_ids = Vec::new();
            for c in &node.children {
                let cid = flatten(c, None, out, pre_counter);
                child_ids.push(cid);
            }
            let id = out.len();
            for &cid in &child_ids {
                out[cid].parent = Some(id);
                children.push(cid);
            }
            out.push(Flat {
                chi: node.chi.clone(),
                lambda: node.lambda.clone(),
                parent,
                children,
                preorder_idx: my_pre,
            });
            id
        }
        let mut flats: Vec<Flat> = Vec::new();
        let mut pre = 0usize;
        let root_id = flatten(&ghd_plan.ghd.root, None, &mut flats, &mut pre);
        debug_assert_eq!(root_id, flats.len() - 1);

        // Map pre-order indices (used by node_equiv) to post-order ids.
        let mut pre_to_post = vec![0usize; flats.len()];
        for (post, f) in flats.iter().enumerate() {
            pre_to_post[f.preorder_idx] = post;
        }

        let var_name = |v: usize| hg.vars[v].clone();
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(flats.len());
        for (id, f) in flats.iter().enumerate() {
            // Node-local attribute order = global order ∩ χ.
            let chi_names: Vec<String> = f.chi.iter().map(|&v| var_name(v)).collect();
            let attrs: Vec<String> = ghd_plan
                .attr_order
                .iter()
                .filter(|a| chi_names.contains(a))
                .cloned()
                .collect();
            // Interface with the parent.
            let interface: Vec<String> = match f.parent {
                Some(p) => {
                    let parent_chi: Vec<String> =
                        flats[p].chi.iter().map(|&v| var_name(v)).collect();
                    attrs
                        .iter()
                        .filter(|a| parent_chi.contains(a))
                        .cloned()
                        .collect()
                }
                None => Vec::new(),
            };
            // Child interfaces (needed for the top-down join).
            let mut child_interfaces: Vec<String> = Vec::new();
            for &c in &f.children {
                let child_chi: Vec<String> = flats[c].chi.iter().map(|&v| var_name(v)).collect();
                for a in &attrs {
                    if child_chi.contains(a) && !child_interfaces.contains(a) {
                        child_interfaces.push(a.clone());
                    }
                }
            }
            // When the top-down pass is skipped, children fold into their
            // parents entirely through the interface, so child interfaces
            // need not be retained in the output.
            let mut output_attrs: Vec<String> = Vec::new();
            for a in &attrs {
                let keep = interface.contains(a)
                    || head_vars.contains(a)
                    || (!ghd_plan.skip_top_down && child_interfaces.contains(a));
                if keep {
                    output_attrs.push(a.clone());
                }
            }
            // Compile atoms: the node's own, then a filter-only copy of
            // every selection atom it covers (selection push-down across
            // nodes, paper App. B.1 step 2). Copies are marked secondary
            // so their annotations are not multiplied in twice.
            let copies = hg.selection_copies(&f.chi, &f.lambda);
            let atoms: Vec<AtomPlan> = f
                .lambda
                .iter()
                .map(|&eid| (eid, false))
                .chain(copies.map(|eid| (eid, true)))
                .map(|(eid, secondary)| {
                    let atom_index = hg.edges[eid].atom_index;
                    AtomPlan {
                        secondary,
                        ..compile_atom(&rule.body[atom_index], atom_index, &attrs)
                    }
                })
                .collect();
            nodes.push(PlanNode {
                id,
                parent: f.parent,
                children: f.children.clone(),
                attrs,
                atoms,
                output_attrs,
                interface,
                equiv_to: None,
                estimated_cost: ghd_plan
                    .estimated_node_costs
                    .get(f.preorder_idx)
                    .copied()
                    .flatten(),
            });
        }
        // Translate node equivalences from pre-order to post-order ids.
        for (pre_idx, equiv) in ghd_plan.node_equiv.iter().enumerate() {
            if let Some(target_pre) = equiv {
                let post = pre_to_post[pre_idx];
                nodes[post].equiv_to = Some(pre_to_post[*target_pre]);
            }
        }
        PhysicalPlan {
            nodes,
            attr_order: ghd_plan.attr_order.clone(),
            output_vars: head_vars,
            agg,
            skip_top_down: ghd_plan.skip_top_down,
            estimated_cost: ghd_plan.estimated_cost,
        }
    }

    /// The root node (always the last in execution order).
    pub fn root(&self) -> &PlanNode {
        self.nodes.last().expect("plan has at least one node")
    }

    /// True when per-shard partial results of this plan ⊕-merge to the
    /// single-process answer. Rows and bare aggregates (`<<COUNT(*)>>`,
    /// `<<SUM(x)>>`, ...) qualify; a non-trivial head expression (e.g.
    /// `0.15 + 0.85 * <<SUM(z)>>`) does not, because `finalize` applies
    /// the expression to each shard's PARTIAL total — folding those
    /// transformed values again would double-apply the arithmetic.
    pub fn shard_mergeable(&self) -> bool {
        self.agg
            .as_ref()
            .is_none_or(|a| matches!(a.expr, Expr::Agg(..)))
    }

    /// Render the plan as the pseudo-code loop nest of paper Figure 1,
    /// headed by the chosen attribute order and its estimated cost; a
    /// selection shows the value `params` binds to its slot.
    pub fn render(&self, params: &[String]) -> String {
        let mut out = String::new();
        out.push_str(&format!("order: {}", self.attr_order.join(" ")));
        match self.estimated_cost {
            Some(c) => out.push_str(&format!(" (cost-based, est. work {c:.1})\n")),
            None => out.push_str(" (structural)\n"),
        }
        for node in self.nodes.iter().rev() {
            out.push_str(&format!(
                "node v{} (χ: {:?}, out: {:?}{}{}):\n",
                node.id,
                node.attrs,
                node.output_attrs,
                node.equiv_to
                    .map(|j| format!(", ≡ v{j}"))
                    .unwrap_or_default(),
                node.estimated_cost
                    .map(|c| format!(", est. work {c:.1}"))
                    .unwrap_or_default()
            ));
            let mut indent = String::from("  ");
            for (i, attr) in node.attrs.iter().enumerate() {
                let members: Vec<String> = node
                    .atoms
                    .iter()
                    .filter(|a| a.attr_levels.contains(&i))
                    .map(|a| {
                        if a.const_prefix.is_empty() {
                            format!("π_{attr} {}", a.relation)
                        } else {
                            let values: Vec<&str> =
                                a.const_prefix.iter().map(|&k| params[k].as_str()).collect();
                            format!("π_{attr} {}[{}]", a.relation, values.join(","))
                        }
                    })
                    .collect();
                out.push_str(&format!("{indent}for {attr} in {}:\n", members.join(" ∩ ")));
                indent.push_str("  ");
            }
            out.push_str(&format!("{indent}emit\n"));
        }
        out
    }
}

/// Compile one atom: constants first, then variable positions ordered by
/// the node-local attribute order.
fn compile_atom(atom: &eh_query::BodyAtom, atom_index: usize, attrs: &[String]) -> AtomPlan {
    use eh_query::Term;
    let mut const_positions: Vec<(usize, usize)> = Vec::new();
    let mut var_positions: Vec<(usize, usize)> = Vec::new(); // (position, attr idx)
    for (pos, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(k) => const_positions.push((pos, *k)),
            Term::Var(v) => {
                let ai = attrs
                    .iter()
                    .position(|a| a == v)
                    .expect("atom var must be in node attrs");
                var_positions.push((pos, ai));
            }
        }
    }
    var_positions.sort_by_key(|&(_, ai)| ai);
    let trie_order: Vec<usize> = const_positions
        .iter()
        .map(|&(p, _)| p)
        .chain(var_positions.iter().map(|&(p, _)| p))
        .collect();
    AtomPlan {
        relation: atom.relation.clone(),
        atom_index,
        trie_order,
        const_prefix: const_positions.into_iter().map(|(_, c)| c).collect(),
        attr_levels: var_positions.into_iter().map(|(_, ai)| ai).collect(),
        secondary: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_ghd::{plan_rule, PlanOptions};
    use eh_query::parse_rule;

    fn compile(q: &str) -> PhysicalPlan {
        let rule = parse_rule(q).unwrap();
        let gp = plan_rule(&rule, &PlanOptions::default()).unwrap();
        PhysicalPlan::compile(&rule, &gp)
    }

    #[test]
    fn triangle_plan_shape() {
        let p = compile("T(x,y,z) :- E(x,y),E(y,z),E(x,z).");
        assert_eq!(p.nodes.len(), 1);
        let root = p.root();
        assert_eq!(root.attrs.len(), 3);
        assert_eq!(root.atoms.len(), 3);
        assert!(p.agg.is_none());
        // Each atom binds exactly two attrs, orders ascending.
        for atom in &root.atoms {
            assert_eq!(atom.attr_levels.len(), 2);
            assert!(atom.attr_levels[0] < atom.attr_levels[1]);
            assert!(atom.const_prefix.is_empty());
        }
    }

    #[test]
    fn barbell_post_order_root_last() {
        let p = compile("B(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).");
        assert!(p.nodes.len() >= 3);
        let root = p.root();
        assert!(root.parent.is_none());
        for node in &p.nodes[..p.nodes.len() - 1] {
            assert!(node.parent.is_some());
            // Children execute before parents.
            assert!(node.parent.unwrap() > node.id);
        }
        // Equivalent triangle nodes detected (same relation E everywhere).
        assert!(p.nodes.iter().any(|n| n.equiv_to.is_some()));
    }

    #[test]
    fn count_plan_has_agg_and_empty_output() {
        let p = compile("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.");
        assert!(p.agg.is_some());
        assert_eq!(p.agg.as_ref().unwrap().op, AggOp::Count);
        assert!(p.output_vars.is_empty());
        assert!(p.skip_top_down);
        assert!(p.root().output_attrs.is_empty());
    }

    #[test]
    fn selection_constants_lead_trie_order() {
        let p = compile("Q(x) :- E('5',x).");
        let atom = &p.root().atoms[0];
        assert_eq!(atom.const_prefix, vec![0]);
        assert_eq!(atom.trie_order, vec![0, 1]);
        assert_eq!(atom.attr_levels, vec![0]);
        assert!(p.render(&["5".into()]).contains("π_x E[5]"));
    }

    #[test]
    fn render_mentions_loops() {
        let p = compile("T(x,y,z) :- E(x,y),E(y,z),E(x,z).");
        let s = p.render(&[]);
        assert!(s.contains("for"));
        assert!(s.contains("∩"));
        assert!(s.contains("node v0"));
        // No stats were supplied, so the order is the structural one.
        assert!(s.starts_with("order: "));
        assert!(s.contains("(structural)"));
        assert_eq!(p.estimated_cost, None);
    }

    #[test]
    fn render_shows_cost_based_order() {
        use eh_ghd::{plan_rule_with_stats, RelationStats, StatsSource};
        struct OneRel;
        impl StatsSource for OneRel {
            fn stats(&self, name: &str) -> Option<RelationStats> {
                (name == "E").then(|| RelationStats {
                    cardinality: 1_000,
                    distinct: vec![100, 500],
                    freq_sq: Vec::new(),
                })
            }
        }
        let rule = parse_rule("T(x,y,z) :- E(x,y),E(y,z),E(x,z).").unwrap();
        let gp = plan_rule_with_stats(&rule, &PlanOptions::default(), &OneRel).unwrap();
        let p = PhysicalPlan::compile(&rule, &gp);
        assert!(p.estimated_cost.is_some());
        let s = p.render(&rule.consts);
        assert!(s.contains("cost-based"), "{s}");
    }

    #[test]
    fn interface_attrs_connect_nodes() {
        let p = compile("B(x,y,z,a,b,c) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).");
        for node in &p.nodes {
            if let Some(parent) = node.parent {
                assert!(!node.interface.is_empty());
                let parent_attrs = &p.nodes[parent].attrs;
                for a in &node.interface {
                    assert!(parent_attrs.contains(a));
                    assert!(node.attrs.contains(a));
                }
            }
        }
    }
}
