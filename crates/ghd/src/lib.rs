//! The EmptyHeaded query compiler: GHDs as logical query plans (paper §3).
//!
//! Instead of relational algebra, EmptyHeaded represents every logical plan
//! as a *generalized hypertree decomposition* (GHD) of the query's
//! hypergraph. The optimizer:
//!
//! 1. builds the hypergraph of the rule body ([`hypergraph`]),
//! 2. enumerates valid GHDs by brute force (the number of relations and
//!    attributes is small; finding the minimum-width GHD is NP-hard in
//!    general, paper §3.2) under a fixed budget of seed subsets, so a large
//!    ad-hoc query falls back to the single-node plan instead of planning
//!    for hours,
//! 3. scores each GHD by its fractional hypertree width — the AGM bound of
//!    each node computed with a fractional edge-cover LP ([`lp`]),
//! 4. breaks ties toward maximal *selection depth* so selections are pushed
//!    down across nodes (paper Appendix B.1), then toward more equivalent
//!    nodes (step 6) and lower estimated work,
//! 5. derives the global attribute order by a pre-order traversal of the
//!    winning GHD, with selected attributes hoisted first within each node
//!    (paper §3.2 "Global Attribute Ordering", Appendix B.1); when the
//!    catalog carries statistics, within-node orders are beam-searched
//!    under the intersection-work cost model ([`cost`]) instead of the
//!    structural frequency sort,
//! 6. marks equivalent GHD nodes so the executor computes them once
//!    (paper Appendix B.2 "Eliminating Redundant Work"). Equivalence is
//!    *positional*: a node's signature is computed once, bottom-up, from
//!    its atoms (and the selection atoms copied into it) written over its
//!    compiled attribute order, the positions of its parent interface and
//!    of the head variables, and each child's join positions and
//!    signature. Equal signatures mean byte-identical result buffers, so
//!    the executor's column relabel is exact — a transposed node is never
//!    reused.
//!
//! Steps 5 and 6 and the last two tie-breaks of step 4 come from one pass
//! per candidate: one beam per node fixes its within-node order, and the
//! candidate's global order, estimated cost and equivalences all follow.
//! Only the candidates tied on width and selection depth take that pass.

pub mod cost;
pub mod decompose;
pub mod hypergraph;
pub mod lp;
pub mod optimizer;

pub use cost::{NoStats, RelationStats, StatsSource};
pub use decompose::{enumerate_ghds, Ghd, GhdNode};
pub use hypergraph::{Hyperedge, Hypergraph};
pub use lp::{agm_exponent, solve_cover_lp};
pub use optimizer::{plan_rule, plan_rule_with_stats, GhdPlan, PlanOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::parse_rule;

    #[test]
    fn triangle_is_one_node_width_1_5() {
        let rule = parse_rule("T(x,y,z) :- R(x,y),S(y,z),U(x,z).").unwrap();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        assert!((plan.ghd.width - 1.5).abs() < 1e-6, "fhw(triangle)=3/2");
        assert_eq!(plan.ghd.root.children.len(), 0, "single node optimal");
        assert_eq!(plan.attr_order.len(), 3);
    }

    #[test]
    fn barbell_decomposes_into_three_nodes() {
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).")
                .unwrap();
        let plan = plan_rule(&rule, &PlanOptions::default()).unwrap();
        // fhw of the barbell is 3/2 (each triangle node), vs 3 for the
        // single-node plan (paper Example 3.1).
        assert!((plan.ghd.width - 1.5).abs() < 1e-6);
        let nodes = plan.ghd.node_count();
        assert!(nodes >= 3, "triangles separated from the path, got {nodes}");
    }

    #[test]
    fn single_node_option_reproduces_logicblox_plan() {
        let rule =
            parse_rule("B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).")
                .unwrap();
        let opts = PlanOptions {
            ghd_optimizations: false,
            ..Default::default()
        };
        let plan = plan_rule(&rule, &opts).unwrap();
        assert_eq!(plan.ghd.node_count(), 1);
        assert!((plan.ghd.width - 3.0).abs() < 1e-6, "width 3 single node");
    }
}
