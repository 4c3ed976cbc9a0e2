//! Quickstart: load a tiny graph, list and count triangles, and inspect
//! the compiled plan.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use emptyheaded::{ghd, query, Database};

fn main() {
    // A small directed graph: triangle 0-1-2, plus edges toward node 3.
    let edges = [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (0, 3)];
    let mut db = Database::new();
    db.load_edges("Edge", &edges);

    // Triangle listing — the one-liner the paper contrasts with 100+ lines
    // of hand-written engine code (paper Table 1).
    let triangles = db
        .query("Triangle(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")
        .expect("valid query");
    println!("triangles ({}):", triangles.num_rows());
    for row in triangles.rows() {
        println!("  {:?}", row);
    }

    // The COUNT(*) variant exercises early aggregation.
    let count = db
        .query("TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")
        .expect("valid query");
    println!("triangle count: {}", count.scalar_u64().unwrap());

    // Peek under the hood: the GHD logical plan and the generated loop
    // nest (paper Figure 1).
    let rule = query::parse_rule("Triangle(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).").unwrap();
    let plan = ghd::plan_rule(&rule, &ghd::PlanOptions::default()).unwrap();
    println!(
        "\nGHD: {} node(s), fractional width {:.2}",
        plan.ghd.node_count(),
        plan.ghd.width
    );
    println!("attribute order: {:?}", plan.attr_order);
    let physical = emptyheaded::exec::PhysicalPlan::compile(&rule, &plan);
    println!("\ngenerated loop nest:\n{}", physical.render(&rule.consts));
}
