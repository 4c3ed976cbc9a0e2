//! Property-based tests for the trie storage engine and the GHD compiler.

use emptyheaded::ghd::{enumerate_ghds, plan_rule, Hypergraph, PlanOptions};
use emptyheaded::query::parse_rule;
use emptyheaded::set::LayoutPolicy;
use emptyheaded::trie::{Trie, TupleBuffer};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_rows(arity: usize, max_val: u32, max_rows: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(
        prop::collection::vec(0..max_val, arity..=arity),
        0..max_rows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trie_scan_equals_sorted_distinct_rows(rows in arb_rows(2, 50, 200)) {
        let t = Trie::from_buffer(&TupleBuffer::from_rows(2, &rows), LayoutPolicy::SetLevel);
        let expect: BTreeSet<Vec<u32>> = rows.iter().cloned().collect();
        let got: Vec<Vec<u32>> = t.scan().into_iter().map(|(r, _)| r).collect();
        prop_assert_eq!(got.len(), expect.len());
        prop_assert!(got.iter().all(|r| expect.contains(r)));
        // Scan is sorted.
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(t.tuple_count(), expect.len());
    }

    #[test]
    fn trie_contains_agrees_with_rows(rows in arb_rows(3, 20, 150), probe in prop::collection::vec(0u32..20, 3)) {
        let t = Trie::from_buffer(&TupleBuffer::from_rows(3, &rows), LayoutPolicy::SetLevel);
        let expect = rows.iter().any(|r| r == &probe);
        prop_assert_eq!(t.contains(&probe), expect);
    }

    #[test]
    fn trie_select_matches_prefix_filter(rows in arb_rows(2, 30, 150), x in 0u32..30) {
        let t = Trie::from_buffer(&TupleBuffer::from_rows(2, &rows), LayoutPolicy::SetLevel);
        let expect: BTreeSet<u32> = rows
            .iter()
            .filter(|r| r[0] == x)
            .map(|r| r[1])
            .collect();
        match t.select(&[x]) {
            Some(set) => {
                prop_assert_eq!(
                    set.iter().collect::<BTreeSet<u32>>(),
                    expect
                );
            }
            None => prop_assert!(expect.is_empty()),
        }
    }

    #[test]
    fn trie_layout_policies_agree(rows in arb_rows(2, 64, 300)) {
        let buf = TupleBuffer::from_rows(2, &rows);
        let a = Trie::from_buffer(&buf, LayoutPolicy::SetLevel);
        let b = Trie::from_buffer(&buf, LayoutPolicy::Fixed(emptyheaded::set::LayoutKind::Uint));
        let c = Trie::from_buffer(&buf, LayoutPolicy::BlockLevel);
        let sa: Vec<_> = a.scan().into_iter().map(|(r, _)| r).collect();
        let sb: Vec<_> = b.scan().into_iter().map(|(r, _)| r).collect();
        let sc: Vec<_> = c.scan().into_iter().map(|(r, _)| r).collect();
        prop_assert_eq!(&sa, &sb);
        prop_assert_eq!(&sa, &sc);
    }
}

/// All enumerated GHDs for the benchmark queries are valid decompositions
/// and none is wider than the single-node plan.
#[test]
fn enumerated_ghds_are_valid_for_benchmark_queries() {
    for q in [
        "T(x,y,z) :- R(x,y),S(y,z),U(x,z).",
        "K(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w),V(y,w),Q(z,w).",
        "L(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w).",
        "B(x,y,z,a,b,c) :- R(x,y),S(y,z),T(x,z),U(x,a),R2(a,b),S2(b,c),T2(a,c).",
        "P(x,y,z,w) :- R(x,y),S(y,z),T(z,w).",
    ] {
        let rule = parse_rule(q).unwrap();
        let hg = Hypergraph::from_rule(&rule);
        let ghds = enumerate_ghds(&hg);
        assert!(!ghds.is_empty(), "{q}");
        for g in &ghds {
            g.validate(&hg).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
        let single = emptyheaded::ghd::decompose::single_node_ghd(&hg);
        let best = ghds.iter().map(|g| g.width).fold(f64::INFINITY, f64::min);
        assert!(best <= single.width + 1e-9, "{q}");
    }
}

/// The planner's attribute order always covers exactly the body variables.
#[test]
fn plans_cover_all_variables_once() {
    for q in [
        "T(x,y,z) :- R(x,y),S(y,z),U(x,z).",
        "L(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w).",
        "Q(a) :- R(a,b),S(b,c),T(c,d).",
        "S(x) :- R(x,y),P(x,'7').",
    ] {
        let rule = parse_rule(q).unwrap();
        for opts in [
            PlanOptions::default(),
            PlanOptions {
                ghd_optimizations: false,
                ..Default::default()
            },
        ] {
            let plan = plan_rule(&rule, &opts).unwrap();
            let mut sorted = plan.attr_order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), plan.attr_order.len(), "{q}: duplicates");
            let mut body_vars = rule.body_vars();
            body_vars.sort();
            assert_eq!(sorted, body_vars, "{q}");
        }
    }
}

/// Acyclic queries plan at width 1; cyclic at > 1.
#[test]
fn width_separates_acyclic_from_cyclic() {
    let acyclic = parse_rule("P(x,z) :- R(x,y),S(y,z).").unwrap();
    let plan = plan_rule(&acyclic, &PlanOptions::default()).unwrap();
    assert!((plan.ghd.width - 1.0).abs() < 1e-9);
    let cyclic = parse_rule("T(x,y,z) :- R(x,y),S(y,z),U(x,z).").unwrap();
    let plan = plan_rule(&cyclic, &PlanOptions::default()).unwrap();
    assert!(plan.ghd.width > 1.0 + 1e-9);
}
