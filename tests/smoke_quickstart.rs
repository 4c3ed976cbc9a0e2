//! End-to-end smoke test of the quickstart pipeline: load edges → parse the
//! query → build a GHD plan → compile a physical plan → execute → count.
//! Mirrors `examples/quickstart.rs` so the engine plumbing the example
//! demonstrates is covered by `cargo test`, not just by humans running the
//! example.

use emptyheaded::{ghd, query, Config, Database};

const EDGES: [(u32, u32); 6] = [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (0, 3)];

#[test]
fn quickstart_pipeline_end_to_end() {
    let mut db = Database::new();
    db.load_edges("Edge", &EDGES);

    // Triangle listing under directed semantics: (0,1,2), (0,1,3),
    // (0,2,3), (1,2,3).
    let triangles = db
        .query("Triangle(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")
        .expect("valid query");
    let mut got: Vec<(u32, u32, u32)> = triangles
        .rows()
        .iter()
        .map(|r| (r[0], r[1], r[2]))
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]);

    // COUNT(*) via early aggregation agrees with the listing.
    let count = db
        .query("TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")
        .expect("valid query");
    assert_eq!(count.scalar_u64(), Some(4));

    // The compiler path the example inspects: parse → GHD plan → physical.
    let rule = query::parse_rule("Triangle(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")
        .expect("parsable rule");
    let plan = ghd::plan_rule(&rule, &ghd::PlanOptions::default()).expect("plannable rule");
    assert!(plan.ghd.node_count() >= 1);
    // The triangle query is cyclic: fractional width 1.5, strictly > 1.
    assert!(plan.ghd.width > 1.0);
    assert_eq!(plan.attr_order.len(), 3);

    let physical = emptyheaded::exec::PhysicalPlan::compile(&rule, &plan);
    let rendered = physical.render(&rule.consts);
    assert!(
        !rendered.is_empty(),
        "physical plan should render a loop nest"
    );
}

#[test]
fn quickstart_count_is_stable_across_ablation_configs() {
    // The paper's ablations (-SIMD, -layouts, -GHD, …) must not change
    // results, only performance.
    for cfg in [
        Config::default(),
        Config::no_simd(),
        Config::uint_only(),
        Config::no_layout_no_algorithms(),
        Config::no_ghd(),
        Config::block_level(),
    ] {
        let mut db = Database::with_config(cfg);
        db.load_edges("Edge", &EDGES);
        let count = db
            .query("TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")
            .expect("valid query");
        assert_eq!(count.scalar_u64(), Some(4));
    }
}
