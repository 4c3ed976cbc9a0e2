//! Inspect the GHD and generated loop nest for any query (paper Figure 1).
//!
//! ```sh
//! cargo run --release -p eh-bench --example plan_inspect -- "T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z)."
//! ```

use eh_exec::PhysicalPlan;
use eh_ghd::{plan_rule, PlanOptions};
use eh_query::parse_rule;

fn main() {
    let q = std::env::args().nth(1).unwrap_or_else(|| {
        "SK4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),Edge(y,u),Edge(z,u),Edge(x,'5'); w=<<COUNT(*)>>.".to_string()
    });
    let rule = parse_rule(&q).expect("query parses");
    for (name, opts) in [
        ("optimized", PlanOptions::default()),
        (
            "single-node (-GHD)",
            PlanOptions {
                ghd_optimizations: false,
                ..Default::default()
            },
        ),
    ] {
        let gp = plan_rule(&rule, &opts).expect("query plans");
        println!(
            "=== {name}: fractional width {:.2}, {} node(s), attribute order {:?}",
            gp.ghd.width,
            gp.ghd.node_count(),
            gp.attr_order
        );
        let pp = PhysicalPlan::compile(&rule, &gp);
        println!("{}", pp.render(&rule.consts));
    }
}
