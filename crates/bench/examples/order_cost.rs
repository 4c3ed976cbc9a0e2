//! Measure the cost-based attribute-order search against the structural
//! fallback on a skewed three-atom join — the "Cost-based attribute order"
//! number quoted in the README's "Benchmarks and paper tables" section.
//!
//! ```sh
//! cargo run --release -p eh_bench --example order_cost
//! ```
//!
//! The workload joins power-law edges `E(x,y)` against two node-label
//! relations `S(y,z)` and `U(x,z)` whose `z` column holds only 4 distinct
//! values (counting same-label edges). Structurally all three variables tie
//! on atom frequency, so the static order starts at `x` (~4k distinct); the
//! cost model reads the catalog statistics and starts at `z`, shrinking the
//! outermost loop from thousands of iterations to 4.

use eh_bench::measure_median;
use eh_core::{Config, Database};
use eh_graph::Graph;

fn main() {
    let g = Graph::power_law(4000, 8, 42).prune_by_degree();
    let labels: Vec<(u32, u32)> = (0..g.num_nodes).map(|v| (v, v % 4)).collect();
    let q = "C(;w:long) :- E(x,y),S(y,z),U(x,z); w=<<COUNT(*)>>.";
    println!(
        "|E| = {} rows, |S| = |U| = {} rows (4 distinct labels), query: {q}",
        g.edges.len(),
        labels.len()
    );
    let mut results = Vec::new();
    for (name, cost_based) in [("structural", false), ("cost-based", true)] {
        let mut cfg = Config::default();
        cfg.plan.cost_based_order = cost_based;
        let mut db = Database::with_config(cfg);
        db.load_edges("E", &g.edges);
        db.load_edges("S", &labels);
        db.load_edges("U", &labels);
        let stmt = db.prepare(q).expect("query compiles");
        let count = stmt
            .execute(&db)
            .expect("query runs")
            .scalar_u64()
            .unwrap_or(0); // warm the trie cache
        let d = measure_median(7, || stmt.execute(&db).expect("query runs"));
        println!(
            "  {name:<11} median {:>10.1} us (count {count})\n{}",
            d.as_secs_f64() * 1e6,
            db.explain(q).expect("query explains")
        );
        results.push((count, d));
    }
    assert_eq!(results[0].0, results[1].0, "orders must agree on the count");
    let (ts, tc) = (results[0].1, results[1].1);
    println!(
        "cost-based / structural = {:.2}x",
        tc.as_secs_f64() / ts.as_secs_f64()
    );
}
