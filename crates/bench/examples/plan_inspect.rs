//! Inspect the GHD and generated loop nest for any query (paper Figure 1).
//!
//! ```sh
//! cargo run --release -p eh_bench --example plan_inspect -- "T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z)."
//! cargo run --release -p eh_bench --example plan_inspect -- --power-law 2000,20,7 --prune "T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z)."
//! ```
//!
//! Without a graph the planner has no statistics, so it prints the
//! structural order, with and without GHD optimizations. With
//! `--power-law N,DEG,SEED` (`Graph::power_law`, optionally
//! `prune_by_degree`d by `--prune`) loaded under every relation the query
//! names, it prints `Database::explain`: the cost-based order the catalog
//! statistics choose, then the profile of one run.

use eh_core::Database;
use eh_exec::PhysicalPlan;
use eh_ghd::{plan_rule, PlanOptions};
use eh_graph::Graph;
use eh_query::parse_rule;

const USAGE: &str = "usage: plan_inspect [--power-law N,DEG,SEED [--prune]] [QUERY]";

fn main() {
    let mut query = None;
    let mut graph = None;
    let mut prune = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--power-law" => {
                graph = Some(
                    args.next()
                        .and_then(|s| power_law(&s))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--prune" => prune = true,
            _ if query.is_none() => query = Some(arg),
            _ => usage(),
        }
    }
    let q = query.unwrap_or_else(|| {
        "SK4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),Edge(y,u),Edge(z,u),Edge(x,'5'); w=<<COUNT(*)>>.".to_string()
    });
    let rule = parse_rule(&q).expect("query parses");
    if let Some(g) = graph {
        let g = if prune { g.prune_by_degree() } else { g };
        let mut db = Database::new();
        for atom in &rule.body {
            db.load_graph(&atom.relation, &g);
        }
        println!(
            "=== cost-based, over {} edges{}",
            g.edges.len(),
            if prune { " (pruned by degree)" } else { "" }
        );
        println!("{}", db.explain(&q).expect("query explains"));
        return;
    }
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

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// `N,DEG,SEED` → `Graph::power_law(N, DEG, SEED)`.
fn power_law(spec: &str) -> Option<Graph> {
    let parts: Vec<&str> = spec.split(',').collect();
    let [n, deg, seed] = parts.as_slice() else {
        return None;
    };
    Some(Graph::power_law(
        n.parse().ok()?,
        deg.parse().ok()?,
        seed.parse().ok()?,
    ))
}
