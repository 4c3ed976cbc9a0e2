//! Benchmark harness utilities shared by the Criterion benches and the
//! `paper-tables` binary.
//!
//! Measurement methodology follows paper §5.1.3: index (trie) construction
//! is excluded — queries are *prepared* (run once to warm every cached
//! trie) before timing; reported numbers are the average of repeated runs
//! with the extremes dropped.

use eh_core::{Config, Database};
use eh_graph::Graph;
use std::time::{Duration, Instant};

pub mod paper_tables;

/// A query compiled once against a warmed database, ready for repeated
/// timing: planning (GHD search) and index (trie) construction are paid at
/// construction, not in [`PreparedQuery::run`].
pub struct PreparedQuery {
    db: Database,
    stmt: eh_core::database::Prepared,
}

impl PreparedQuery {
    /// Build the database, register the graph as `Edge`, compile the rule,
    /// and run it once so every trie the plan needs is materialized.
    pub fn new(graph: &Graph, config: Config, query: &str) -> PreparedQuery {
        Self::with_setup(graph, config, query, |_| {})
    }

    /// Like [`PreparedQuery::new`] with extra setup on the database (extra
    /// relations, constants) before warming.
    pub fn with_setup(
        graph: &Graph,
        config: Config,
        query: &str,
        setup: impl FnOnce(&mut Database),
    ) -> PreparedQuery {
        let mut db = Database::with_config(config);
        db.load_graph("Edge", graph);
        setup(&mut db);
        let stmt = db.prepare(query).expect("query must compile");
        let mut pq = PreparedQuery { db, stmt };
        let _ = pq.run();
        pq
    }

    /// Execute once, returning the scalar count (0 if not scalar).
    pub fn run(&mut self) -> u64 {
        self.stmt
            .execute(&self.db)
            .expect("prepared query must run")
            .scalar_u64()
            .unwrap_or(0)
    }

    /// Access the underlying database.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }
}

/// Time `f` with `reps` repetitions, dropping the fastest and slowest and
/// averaging the rest (paper §5.1.3 uses 7 runs, drop 2, average 5).
pub fn measure<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(reps >= 3);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    let kept = &times[1..times.len() - 1];
    kept.iter().sum::<Duration>() / kept.len() as u32
}

/// Time `f` with `reps` repetitions and report the **median** run —
/// robust to one-off scheduler hiccups, so small differences between
/// two measured alternatives (the `order_cost` example) stay readable.
pub fn measure_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

/// One timed run (for long-running configurations where repetition is
/// impractical).
pub fn measure_once<T>(mut f: impl FnMut() -> T) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed()
}

/// Render seconds compactly.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Render a slowdown ratio relative to a base time.
pub fn ratio(d: Duration, base: Duration) -> String {
    if base.is_zero() {
        return "-".into();
    }
    format!("{:.2}x", d.as_secs_f64() / base.as_secs_f64())
}

/// Fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table with the given column widths; prints the header row.
    pub fn new(headers: &[(&str, usize)]) -> Table {
        let widths: Vec<usize> = headers.iter().map(|&(_, w)| w).collect();
        let row: Vec<String> = headers.iter().map(|&(h, w)| format!("{h:>w$}")).collect();
        println!("{}", row.join(" "));
        Table { widths }
    }

    /// Print one data row.
    pub fn row(&self, cells: &[String]) {
        let row: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        println!("{}", row.join(" "));
    }
}

/// The standard benchmark queries (paper Table 1 / §5.3).
pub mod queries {
    /// Triangle COUNT(*) (symmetric; run on the pruned graph).
    pub const TRIANGLE: &str = "TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.";
    /// 4-clique COUNT(*) (symmetric; pruned graph).
    pub const K4: &str =
        "K4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.";
    /// Lollipop COUNT(*) (undirected graph).
    pub const LOLLIPOP: &str =
        "L31(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u); w=<<COUNT(*)>>.";
    /// Barbell COUNT(*) (undirected graph).
    pub const BARBELL: &str =
        "B31(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,a),Edge(a,b),Edge(b,c),Edge(a,c); w=<<COUNT(*)>>.";
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_graph::gen;

    #[test]
    fn prepared_query_runs_repeatably() {
        let g = gen::complete(8).prune_by_degree();
        let mut pq = PreparedQuery::new(&g, Config::default(), queries::TRIANGLE);
        assert_eq!(pq.run(), 56); // C(8,3)
        assert_eq!(pq.run(), 56);
    }

    #[test]
    fn measure_drops_extremes() {
        let d = measure(5, || std::thread::sleep(Duration::from_micros(50)));
        assert!(d >= Duration::from_micros(40));
    }

    #[test]
    fn measure_median_picks_middle_run() {
        let mut i = 0u64;
        let d = measure_median(5, || {
            i += 1;
            std::thread::sleep(Duration::from_micros(20 * i));
        });
        // Median of sleeps {20,40,60,80,100}µs is the 60µs run; allow
        // generous scheduling slack but reject min/max.
        assert!(d >= Duration::from_micros(60), "{d:?}");
    }

    #[test]
    fn ratio_formatting() {
        let base = Duration::from_millis(10);
        assert_eq!(ratio(Duration::from_millis(20), base), "2.00x");
        assert_eq!(ratio(base, Duration::ZERO), "-");
        assert_eq!(secs(Duration::from_millis(1500)), "1.5000");
    }
}
