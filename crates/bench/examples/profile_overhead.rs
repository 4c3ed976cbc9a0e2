//! Measure the cost of `Config::profile` on three small count workloads
//! (uniform and skewed triangle, uniform 2-hop) — the overhead number quoted in the README's "Observability &
//! profiling" section. The counters live in plain struct fields bumped
//! inside the already-memory-bound intersection loops, so the profiled
//! run must stay within a ~2% ceiling of the plain one.
//!
//! ```sh
//! cargo run --release -p eh_bench --example profile_overhead
//! ```

use eh_core::{Config, Database, Prepared};
use eh_graph::{gen, Graph};
use std::time::{Duration, Instant};

fn main() {
    let uniform = gen::erdos_renyi(2000, 16_000, 7).prune_by_degree();
    let skewed = Graph::power_law(2000, 8, 42).prune_by_degree();
    let suite: [(&str, &Graph, &str); 3] = [
        (
            "uniform/triangle",
            &uniform,
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
        ),
        (
            "skew/triangle",
            &skewed,
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
        ),
        (
            "uniform/2hop",
            &uniform,
            "H2(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",
        ),
    ];
    let reps = 41;
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "query", "plain[us]", "profiled[us]", "overhead"
    );
    let mut worst = f64::MIN;
    for (name, graph, q) in suite {
        let prep = |profile: bool| -> (Database, Prepared) {
            let mut db =
                Database::with_config(Config::default().with_threads(1).with_profile(profile));
            db.load_edges("E", &graph.edges);
            let stmt = db.prepare(q).expect("query compiles");
            stmt.execute(&db).expect("query runs"); // warm the trie cache
            (db, stmt)
        };
        let (plain_db, plain_stmt) = prep(false);
        let (prof_db, prof_stmt) = prep(true);
        // Interleave the two variants rep-by-rep so slow clock drift
        // (thermal / frequency scaling) hits both sides equally, and
        // compare minimum times — the minimum estimates the undisturbed
        // cost, which is what an overhead ratio should divide.
        let mut plain = Duration::MAX;
        let mut profiled = Duration::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            plain_stmt.execute(&plain_db).expect("query runs");
            plain = plain.min(t.elapsed());
            let t = Instant::now();
            prof_stmt.execute(&prof_db).expect("query runs");
            profiled = profiled.min(t.elapsed());
        }
        let overhead = profiled.as_secs_f64() / plain.as_secs_f64() - 1.0;
        worst = worst.max(overhead);
        println!(
            "{:<18} {:>12} {:>12} {:>8.1}%",
            name,
            plain.as_micros(),
            profiled.as_micros(),
            overhead * 100.0
        );
    }
    println!("worst-case overhead: {:.1}%", worst * 100.0);
}
