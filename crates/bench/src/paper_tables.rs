//! Regenerate every table and figure of the paper's evaluation (§4–§5,
//! Appendix A/B) on the synthetic dataset analogs.
//!
//! ```sh
//! cargo run --release --bin paper_tables -- all
//! cargo run --release --bin paper_tables -- table5 --scale 0.1
//! ```
//!
//! Absolute times differ from the paper (48-core Xeon vs this machine,
//! real graphs vs analogs); the *relative* structure — who wins, by
//! roughly what factor, where the crossovers fall — is the reproduction
//! target. See EXPERIMENTS.md for the side-by-side record.

use crate::{measure, measure_once, queries, ratio, secs, PreparedQuery, Table};
use eh_core::{Config, Database, Scheduler};
use eh_graph::{apply_ordering, compute_ordering, gen, paper_datasets, Graph, OrderingScheme};
use eh_semiring::{AggOp, DynValue};
use eh_set::{IntersectConfig, LayoutKind, Set};
use std::time::{Duration, Instant};

const TARGETS: &str =
    "fig5|fig6|fig7|table3|table4|table5|table6|table7|table8|table9|table10|table11|table13|skew|loaded|storage-smoke|all";

/// `--threads N` override applied to every engine config in this run
/// (None = flag absent, keep each config's default of 1 worker).
static THREADS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();

/// `--morsel N` override: pins the morsel size on every engine config
/// (None = flag absent, auto-size).
static MORSEL: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();

/// Machine-readable timing sink, enabled by `--json <path>`; human
/// output is unchanged whether or not it is active.
static JSON_SINK: std::sync::OnceLock<std::sync::Mutex<Vec<String>>> = std::sync::OnceLock::new();

/// Record one measurement into the `--json` sink (no-op without it).
fn record(table: &str, dataset: &str, query: &str, config: &str, time: Duration, rows: u64) {
    let Some(sink) = JSON_SINK.get() else { return };
    let entry = format!(
        "{{\"table\":{},\"dataset\":{},\"query\":{},\"config\":{},\"median_us\":{},\"rows\":{}}}",
        json_str(table),
        json_str(dataset),
        json_str(query),
        json_str(config),
        time.as_micros(),
        rows
    );
    sink.lock().expect("json sink").push(entry);
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the accumulated `--json` entries to `path`.
fn flush_json(path: &str, scale: f64) {
    let Some(sink) = JSON_SINK.get() else { return };
    let entries = sink.lock().expect("json sink");
    let body = entries.join(",\n    ");
    let doc = format!("{{\n  \"scale\": {scale},\n  \"entries\": [\n    {body}\n  ]\n}}\n");
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("failed to write --json output to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {} timing entries to {path}", entries.len());
}

/// Apply the run-wide `--threads` pin to a config, so benchmark numbers
/// are reproducible on shared machines regardless of core count.
fn tuned(cfg: Config) -> Config {
    let cfg = match THREADS.get().copied().flatten() {
        Some(n) => cfg.with_threads(n),
        None => cfg,
    };
    match MORSEL.get().copied().flatten() {
        Some(m) => cfg.with_morsel(m),
        None => cfg,
    }
}

pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let scale = flag("--scale")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.1);
    let threads = flag("--threads").and_then(|s| s.parse::<usize>().ok());
    let _ = THREADS.set(threads);
    let morsel = flag("--morsel").and_then(|s| s.parse::<usize>().ok());
    let _ = MORSEL.set(morsel);
    let load = flag("--load");
    let json = flag("--json");
    if json.is_some() {
        let _ = JSON_SINK.set(std::sync::Mutex::new(Vec::new()));
    }
    // `--load` without an explicit target runs the paper's queries over
    // the external dataset.
    let which = match args.first().map(String::as_str) {
        // `--help` anywhere must reach the help arm, not fall through to
        // a full `all` run.
        _ if args.iter().any(|a| a == "--help" || a == "-h") => "--help",
        Some(w) if !w.starts_with("--") => w,
        _ if load.is_some() => "loaded",
        _ => "all",
    };
    let reps = 3;
    match which {
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "table3" => table3(scale),
        "table4" => table4(scale),
        "table5" => table5(scale, reps),
        "table6" => table6(scale, reps),
        "table7" => table7(scale, reps),
        "table8" => table8(scale),
        "table9" => table9(scale),
        "table10" => table10(scale),
        "table11" => table11(scale),
        "table13" => table13(scale),
        "skew" => skew(scale, reps),
        "loaded" => loaded_tables(load.as_deref(), reps),
        "storage-smoke" => storage_smoke(load.as_deref()),
        "all" => {
            fig5();
            fig6();
            table3(scale);
            table4(scale);
            table5(scale, reps);
            table6(scale, reps);
            table7(scale, reps);
            table8(scale);
            table9(scale);
            fig7();
            table10(scale);
            table11(scale);
            table13(scale);
            skew(scale, reps);
        }
        "--help" | "-h" | "help" => {
            println!(
                "usage: paper_tables [{TARGETS}] [--scale S] [--threads N] [--morsel M] [--load PATH] [--json PATH]"
            );
            println!();
            println!("Regenerates the paper's evaluation tables/figures on synthetic");
            println!("dataset analogs. --scale (default 0.1) shrinks the generated");
            println!("graphs; use 1.0 for full-size runs. --threads pins the engine's");
            println!("worker count (0 = auto-detect) so runs on shared machines are");
            println!("reproducible; default is 1 (serial). --morsel pins the morsel");
            println!("size of the parallel level-0 scheduler (0 = auto-size).");
            println!();
            println!("The 'skew' target generates a preferential-attachment power-law");
            println!("graph and compares serial vs static-partition vs morsel-driven");
            println!("triangle counting, then counts 4-cliques, lollipops and barbells");
            println!("under all six ablation configs; it exits non-zero if any scheduler");
            println!("or any ablation disagrees (the CI skew-smoke gate).");
            println!();
            println!("--load PATH runs the paper's pattern queries over an external");
            println!("dataset instead: either a text edge list (whitespace/TSV, '#'");
            println!("comments) or a saved database image ('EHDB' magic; see the");
            println!("storage-smoke target, which also saves/reopens an image and");
            println!("checks the reload answers queries identically).");
            println!("--json PATH additionally writes per-table timing entries");
            println!("(table, dataset, query, config, median_us, rows) as JSON.");
        }
        other => {
            eprintln!("unknown target '{other}'; use {TARGETS} (or --help)");
            std::process::exit(2);
        }
    }
    if let Some(path) = json {
        flush_json(&path, scale);
    }
}

// ------------------------------------------------------- external datasets

/// Build a database from `--load`: a saved database image (sniffed by
/// its `EHDB` magic) or a text edge list registered as `Edge`.
fn load_external(path: &str) -> Database {
    use std::io::Read;
    let mut magic = [0u8; 4];
    let is_image = std::fs::File::open(path)
        .map(|mut f| matches!(f.read_exact(&mut magic), Ok(())) && magic == eh_storage::IMAGE_MAGIC)
        .unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(2);
        });
    if is_image {
        let db = Database::open_with_config(path, tuned(Config::default())).unwrap_or_else(|e| {
            eprintln!("cannot load image {path}: {e}");
            std::process::exit(2);
        });
        if db.relation("Edge").is_none() {
            eprintln!("image {path} has no 'Edge' relation; the paper queries need one");
            std::process::exit(2);
        }
        db
    } else {
        let g = Graph::from_edge_list_path(path).unwrap_or_else(|e| {
            eprintln!("cannot parse edge list {path}: {e}");
            std::process::exit(2);
        });
        let mut db = Database::with_config(tuned(Config::default()));
        db.load_graph("Edge", &g);
        db
    }
}

/// The paper's pattern queries over an external dataset (`--load`).
fn loaded_tables(load: Option<&str>, reps: usize) {
    let Some(path) = load else {
        eprintln!("the 'loaded' target needs --load <path>");
        std::process::exit(2);
    };
    let db = load_external(path);
    let edges = db.relation("Edge").map(|r| r.len()).unwrap_or(0);
    println!("\n== Paper queries on {path} ({edges} edges) ==");
    let t = Table::new(&[("query", 8), ("count", 14), ("EH[s]", 10)]);
    for (name, query) in [
        ("triangle", queries::TRIANGLE),
        ("K4", queries::K4),
        ("L3,1", queries::LOLLIPOP),
        ("B3,1", queries::BARBELL),
    ] {
        let stmt = db.prepare(query).expect("paper query must compile");
        let run = || {
            stmt.execute(&db)
                .expect("query must run")
                .scalar_u64()
                .unwrap_or(0)
        };
        let count = run(); // warm every cached trie
        let d = measure(reps, run);
        t.row(&[name.into(), count.to_string(), secs(d)]);
        record("loaded", path, name, "EH", d, count);
    }
}

/// End-to-end storage check (also the CI smoke step): load a dataset,
/// answer the paper's triangle/K4 queries, save a database image,
/// reopen it, and require identical answers — plus byte-stable re-save.
fn storage_smoke(load: Option<&str>) {
    let Some(path) = load else {
        eprintln!("the 'storage-smoke' target needs --load <path>");
        std::process::exit(2);
    };
    let db = load_external(path);
    let answers = |db: &Database| -> Vec<u64> {
        [queries::TRIANGLE, queries::K4]
            .iter()
            .map(|q| {
                db.prepare(q)
                    .expect("query must compile")
                    .execute(db)
                    .expect("query must run")
                    .scalar_u64()
                    .unwrap_or(0)
            })
            .collect()
    };
    let before = answers(&db);
    let image = std::env::temp_dir().join(format!("eh_smoke_{}.ehdb", std::process::id()));
    db.save(&image).expect("save must succeed");
    let reopened = Database::open(&image).expect("open must succeed");
    let after = answers(&reopened);
    let mut resaved = Vec::new();
    reopened
        .save_to(&mut resaved)
        .expect("re-save must succeed");
    let original = std::fs::read(&image).expect("image readable");
    let _ = std::fs::remove_file(&image);
    if before != after {
        eprintln!("storage smoke FAILED: answers {before:?} != {after:?} after reload");
        std::process::exit(1);
    }
    if original != resaved {
        eprintln!("storage smoke FAILED: image not byte-stable under re-save");
        std::process::exit(1);
    }
    println!(
        "storage smoke OK: triangle={} K4={} identical across save/open; image byte-stable ({} bytes)",
        before[0],
        before[1],
        original.len()
    );
}

// ------------------------------------------------------------ skew bench

/// Morsel-driven vs static-partition level-0 scheduling on a skewed
/// (preferential-attachment power-law) graph — the workload where static
/// range partitioning straggles on the hub's partition. Also the CI
/// skew-smoke gate: exits non-zero if any scheduler's triangle count
/// disagrees with the serial answer, or if any ablation config counts a
/// different number of 4-cliques, lollipops or barbells
/// ([`ablation_agreement`]).
fn skew(scale: f64, reps: usize) {
    let nodes = ((20_000.0 * scale) as u32).max(64);
    let g = Graph::power_law(nodes, 8, 42).prune_by_degree();
    let par = THREADS.get().copied().flatten().unwrap_or(0);
    let workers = Config::default().with_threads(par).effective_threads();
    println!(
        "\n== Skewed scheduling: power-law graph ({} nodes, {} edges, skewness {:.1}, {} workers) ==",
        g.num_nodes,
        g.num_edges(),
        g.degree_skewness(),
        workers
    );
    let t = Table::new(&[
        ("config", 10),
        ("count", 12),
        ("time[s]", 10),
        ("vs serial", 10),
    ]);
    let serial_cfg = tuned(Config::default()).with_threads(1);
    let static_cfg = tuned(Config::default())
        .with_threads(par)
        .with_scheduler(Scheduler::Static);
    let morsel_cfg = tuned(Config::default())
        .with_threads(par)
        .with_scheduler(Scheduler::Morsel);
    let mut results: Vec<(&str, u64, Duration)> = Vec::new();
    for (name, cfg) in [
        ("serial", serial_cfg),
        ("static", static_cfg),
        ("morsel", morsel_cfg),
    ] {
        let mut pq = PreparedQuery::new(&g, cfg, queries::TRIANGLE);
        let count = pq.run(); // warm the trie cache
        let d = measure(reps, || pq.run());
        record("skew", "skew", "triangle", name, d, count);
        results.push((name, count, d));
    }
    let serial_time = results[0].2;
    for (name, count, d) in &results {
        t.row(&[
            (*name).into(),
            count.to_string(),
            secs(*d),
            ratio(*d, serial_time),
        ]);
    }
    let serial_count = results[0].1;
    if results.iter().any(|(_, c, _)| *c != serial_count) {
        eprintln!("skew smoke FAILED: scheduler answers diverge: {results:?}");
        std::process::exit(1);
    }
    println!("(morsel should match or beat static on skewed degree distributions)");
    ablation_agreement(scale);
}

/// The second half of the skew-smoke gate: 4-clique, lollipop and barbell
/// counts on a power-law graph under all six ablation configs. The
/// default config runs the fused k-way bitset pass and the compiled bind
/// plan's rank shortcuts; `uint_only` and `-RA` have no bitsets to fuse,
/// `block_level` sends every multiway level down the mixed-layout chain,
/// `-GHD` compiles one seven-level node — so one divergent count here is
/// one of those paths disagreeing with the others. Exits non-zero on any.
fn ablation_agreement(scale: f64) {
    let nodes = ((4_000.0 * scale) as u32).max(64);
    let und = Graph::power_law(nodes, 6, 42);
    let pruned = und.prune_by_degree();
    println!(
        "\n== Ablation agreement: power-law graph ({} nodes, {} undirected edges) ==",
        und.num_nodes,
        und.num_edges() / 2
    );
    let configs: [(&str, Config); 6] = [
        ("default", Config::default()),
        ("-S", Config::no_simd()),
        ("-R", Config::uint_only()),
        ("-RA", Config::no_layout_no_algorithms()),
        ("-GHD", Config::no_ghd()),
        ("block", Config::block_level()),
    ];
    let t = Table::new(&[
        ("query", 10),
        ("count", 16),
        ("configs", 8),
        ("default[s]", 10),
    ]);
    let mut diverged = false;
    for (name, graph, query) in [
        ("4-clique", &pruned, queries::K4),
        ("lollipop", &und, queries::LOLLIPOP),
        ("barbell", &und, queries::BARBELL),
    ] {
        let mut counts: Vec<(&str, u64)> = Vec::new();
        let mut default_time = Duration::ZERO;
        for (label, cfg) in &configs {
            let mut pq = PreparedQuery::new(graph, tuned(*cfg), query);
            let started = std::time::Instant::now();
            let count = pq.run();
            if counts.is_empty() {
                default_time = started.elapsed();
                record("skew", "skew", name, label, default_time, count);
            }
            counts.push((label, count));
        }
        let agreed = counts.iter().all(|&(_, c)| c == counts[0].1);
        t.row(&[
            name.into(),
            counts[0].1.to_string(),
            if agreed {
                "6/6".into()
            } else {
                "DIVERGE".to_string()
            },
            secs(default_time),
        ]);
        if !agreed {
            eprintln!("skew smoke FAILED: {name} counts diverge across ablations: {counts:?}");
            diverged = true;
        }
    }
    if diverged {
        std::process::exit(1);
    }
}

/// Uniform random sorted set of the given density over a domain.
fn random_set(domain: u32, density: f64, seed: u64) -> Vec<u32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..domain).filter(|_| rng.gen_bool(density)).collect()
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5: uint vs bitset intersection time across densities.
fn fig5() {
    println!("\n== Figure 5: intersection time vs density (domain 2^20) ==");
    let t = Table::new(&[
        ("density", 10),
        ("uint[s]", 12),
        ("bitset[s]", 12),
        ("winner", 8),
    ]);
    let cfg = IntersectConfig::default();
    let domain = 1 << 20;
    for &density in &[1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1] {
        let a = random_set(domain, density, 1);
        let b = random_set(domain, density, 2);
        let (ua, ub) = (
            Set::from_sorted(&a, LayoutKind::Uint),
            Set::from_sorted(&b, LayoutKind::Uint),
        );
        let (ba, bb) = (
            Set::from_sorted(&a, LayoutKind::Bitset),
            Set::from_sorted(&b, LayoutKind::Bitset),
        );
        let tu = measure(7, || eh_set::intersect_count(&ua, &ub, &cfg));
        let tb = measure(7, || eh_set::intersect_count(&ba, &bb, &cfg));
        t.row(&[
            format!("{density:.0e}"),
            format!("{:.2e}", tu.as_secs_f64()),
            format!("{:.2e}", tb.as_secs_f64()),
            if tu < tb { "uint" } else { "bitset" }.into(),
        ]);
    }
    println!("(paper: uint wins at low density, bitset at high; crossover ~1e-2)");
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: layouts on sets with a dense region plus a sparse tail of
/// varying cardinality.
fn fig6() {
    println!("\n== Figure 6: intersection time vs sparse-region cardinality ==");
    let t = Table::new(&[
        ("sparse_card", 12),
        ("uint[s]", 12),
        ("bitset[s]", 12),
        ("composite[s]", 12),
    ]);
    let cfg = IntersectConfig::default();
    // Dense region: 0..8192 fully populated. Sparse region: `card` values
    // scattered over a huge tail.
    for &card in &[128usize, 512, 1024, 4096, 16_384] {
        let make = |seed: u64| -> Vec<u32> {
            let mut v: Vec<u32> = (0..8192).collect();
            let tail = random_set(1 << 24, card as f64 / (1 << 24) as f64, seed);
            v.extend(tail.iter().map(|x| x + 8192));
            v
        };
        let a = make(3);
        let b = make(4);
        let mut row = vec![format!("{card}")];
        for kind in [LayoutKind::Uint, LayoutKind::Bitset, LayoutKind::Block] {
            let sa = Set::from_sorted(&a, kind);
            let sb = Set::from_sorted(&b, kind);
            let d = measure(7, || eh_set::intersect_count(&sa, &sb, &cfg));
            row.push(format!("{:.2e}", d.as_secs_f64()));
        }
        t.row(&row);
    }
    println!("(paper: the composite layout wins when dense and sparse regions mix)");
}

// ---------------------------------------------------------------- Table 3

/// Table 3: dataset statistics (analog scale).
fn table3(scale: f64) {
    println!("\n== Table 3: dataset analogs (scale {scale}) ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("nodes", 9),
        ("dir.edges", 10),
        ("undir", 10),
        ("skew", 8),
        ("paper_skew", 10),
    ]);
    for spec in paper_datasets() {
        let g = spec.generate_scaled(scale);
        let pruned = g.prune_by_degree();
        t.row(&[
            spec.name.into(),
            g.num_nodes.to_string(),
            g.num_edges().to_string(),
            pruned.num_edges().to_string(),
            format!("{:.2}", g.density_skew()),
            format!("{:.2}", spec.paper_skew),
        ]);
    }
}

// ---------------------------------------------------------------- Table 4

/// Table 4: relation/set/block-level layout optimizers vs the oracle on
/// the triangle-counting intersection workload.
fn table4(scale: f64) {
    println!("\n== Table 4: layout-optimizer granularity vs oracle (triangle intersections) ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("relation", 10),
        ("set", 10),
        ("block", 10),
    ]);
    let cfg = IntersectConfig::default();
    for spec in paper_datasets().into_iter().take(5) {
        let g = spec.generate_scaled(scale).prune_by_degree();
        let csr = g.to_csr();
        // The triangle workload: one intersection N(x) ∩ N(y) per edge.
        let pairs: Vec<(&[u32], &[u32])> = g
            .edges
            .iter()
            .map(|&(x, y)| (csr.neighbors(x), csr.neighbors(y)))
            .filter(|(a, b)| !a.is_empty() && !b.is_empty())
            .take(4000)
            .collect();
        // Oracle lower bound: best layout pair per intersection.
        let oracle: Duration = pairs
            .iter()
            .map(|(a, b)| eh_set::oracle::oracle_intersect(a, b, &cfg).best)
            .sum();
        // Each granularity: pre-build under the policy, time the sweep.
        let level_time = |policy: eh_set::LayoutPolicy| -> Duration {
            let built: Vec<(Set, Set)> = pairs
                .iter()
                .map(|(a, b)| (policy.build(a), policy.build(b)))
                .collect();
            measure(5, || {
                let mut n = 0usize;
                for (a, b) in &built {
                    n += eh_set::intersect_count(a, b, &cfg);
                }
                n
            })
        };
        let rel = level_time(eh_set::LayoutPolicy::Fixed(LayoutKind::Uint));
        let set = level_time(eh_set::LayoutPolicy::SetLevel);
        let block = level_time(eh_set::LayoutPolicy::BlockLevel);
        t.row(&[
            spec.name.into(),
            ratio(rel, oracle),
            ratio(set, oracle),
            ratio(block, oracle),
        ]);
    }
    println!("(paper: set level closest to oracle overall — at most 1.6x off)");
}

// ---------------------------------------------------------------- Table 5

/// Table 5: triangle counting, EmptyHeaded vs engine classes.
fn table5(scale: f64, reps: usize) {
    println!("\n== Table 5: triangle counting (pruned graphs) ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("count", 10),
        ("EH[s]", 10),
        ("SnapR", 8),
        ("PG", 8),
        ("SL", 10),
        ("LB", 8),
    ]);
    for spec in paper_datasets() {
        let g = spec.generate_scaled(scale).prune_by_degree();
        let csr = g.to_csr();
        let mut eh = PreparedQuery::new(&g, tuned(Config::default()), queries::TRIANGLE);
        let count = eh.run();
        let t_eh = measure(reps, || eh.run());
        let t_merge = measure(reps, || eh_baselines::lowlevel::triangle_count_merge(&csr));
        let t_hash = measure(reps, || eh_baselines::lowlevel::triangle_count_hash(&csr));
        let t_pair = measure(reps, || eh_baselines::pairwise::triangle_count(&g.edges));
        // LogicBlox-class: WCOJ, no layout/algorithm optimization.
        let mut lb = PreparedQuery::new(
            &g,
            tuned(Config::no_layout_no_algorithms()),
            queries::TRIANGLE,
        );
        let t_lb = measure(reps, || lb.run());
        for (config, d) in [
            ("EH", t_eh),
            ("SnapR-merge", t_merge),
            ("PG-hash", t_hash),
            ("SL-pairwise", t_pair),
            ("LB-wcoj", t_lb),
        ] {
            record("table5", spec.name, "triangle", config, d, count);
        }
        t.row(&[
            spec.name.into(),
            count.to_string(),
            secs(t_eh),
            ratio(t_merge, t_eh),
            ratio(t_hash, t_eh),
            ratio(t_pair, t_eh),
            ratio(t_lb, t_eh),
        ]);
    }
    println!("(columns after EH are relative slowdowns, as in the paper)");
}

// ---------------------------------------------------------------- Table 6

/// Table 6: PageRank, 5 iterations, undirected graphs.
fn table6(scale: f64, reps: usize) {
    println!("\n== Table 6: PageRank (5 iterations) ==");
    let t = Table::new(&[("dataset", 12), ("EH[s]", 10), ("Galois", 8), ("SL", 8)]);
    for spec in paper_datasets() {
        let g = spec.generate_scaled(scale);
        let mut runner =
            eh_core::algorithms::PageRankRunner::new(&g, 5, tuned(Config::default())).unwrap();
        let t_eh = measure(reps, || runner.run().unwrap());
        let t_ll = measure(reps, || eh_baselines::lowlevel::pagerank(&g, 5));
        let t_sl = measure(reps, || {
            eh_baselines::pairwise::pagerank(&g.edges, g.num_nodes, 5)
        });
        let rows = g.num_nodes as u64;
        for (config, d) in [("EH", t_eh), ("Galois-ll", t_ll), ("SL-pairwise", t_sl)] {
            record("table6", spec.name, "pagerank5", config, d, rows);
        }
        t.row(&[
            spec.name.into(),
            secs(t_eh),
            ratio(t_ll, t_eh),
            ratio(t_sl, t_eh),
        ]);
    }
    println!("(paper: EH within ~2x of Galois, well ahead of high-level engines)");
}

// ---------------------------------------------------------------- Table 7

/// Table 7: SSSP from the highest-degree node.
fn table7(scale: f64, reps: usize) {
    println!("\n== Table 7: SSSP (start = max-degree node) ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("EH[s]", 10),
        ("Galois", 8),
        ("PG", 8),
        ("SL", 8),
    ]);
    for spec in paper_datasets() {
        let g = spec.generate_scaled(scale);
        let start = g.max_degree_node();
        let mut runner =
            eh_core::algorithms::SsspRunner::new(&g, start, tuned(Config::default())).unwrap();
        let t_eh = measure(reps, || runner.run().unwrap());
        let t_bfs = measure(reps, || eh_baselines::lowlevel::sssp_bfs(&g, start));
        let t_bf = measure(reps, || {
            eh_baselines::lowlevel::sssp_bellman_ford(&g, start)
        });
        let t_sl = measure(reps, || {
            eh_baselines::pairwise::sssp_naive_datalog(&g.edges, g.num_nodes, start)
        });
        let rows = g.num_nodes as u64;
        for (config, d) in [
            ("EH", t_eh),
            ("Galois-bfs", t_bfs),
            ("PG-bellmanford", t_bf),
            ("SL-pairwise", t_sl),
        ] {
            record("table7", spec.name, "sssp", config, d, rows);
        }
        t.row(&[
            spec.name.into(),
            secs(t_eh),
            ratio(t_bfs, t_eh),
            ratio(t_bf, t_eh),
            ratio(t_sl, t_eh),
        ]);
    }
    println!("(paper: Galois ≤3x faster than EH; PowerGraph/SociaLite ~10x slower)");
}

// ---------------------------------------------------------------- Table 8

/// Table 8: K4 / Lollipop / Barbell with -R, -RA, -GHD ablations.
fn table8(scale: f64) {
    println!("\n== Table 8: pattern queries with ablations ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("query", 6),
        ("count", 14),
        ("EH[s]", 10),
        ("-R", 8),
        ("-RA", 8),
        ("-GHD", 10),
        ("SL", 10),
    ]);
    // K4 etc. get expensive fast; use a reduced scale for the sweep.
    let qscale = scale * 0.5;
    for spec in paper_datasets().into_iter().take(5) {
        let g = spec.generate_scaled(qscale);
        let pruned = g.prune_by_degree();
        for (qname, query, graph, ghd_feasible) in [
            ("K4", queries::K4, &pruned, true),
            ("L3,1", queries::LOLLIPOP, &g, true),
            ("B3,1", queries::BARBELL, &g, false),
        ] {
            let mut eh = PreparedQuery::new(graph, tuned(Config::default()), query);
            let count = eh.run();
            let t_eh = measure_once(|| eh.run());
            let mut r = PreparedQuery::new(graph, tuned(Config::uint_only()), query);
            let t_r = measure_once(|| r.run());
            let mut ra = PreparedQuery::new(graph, tuned(Config::no_layout_no_algorithms()), query);
            let t_ra = measure_once(|| ra.run());
            let ghd_col = if ghd_feasible {
                let mut nghd = PreparedQuery::new(graph, tuned(Config::no_ghd()), query);
                ratio(measure_once(|| nghd.run()), t_eh)
            } else {
                "t/o".into() // Θ(N³) single-node plan — times out, as in the paper
            };
            let sl = match qname {
                "K4" => ratio(
                    measure_once(|| eh_baselines::pairwise::four_clique_count(&graph.edges)),
                    t_eh,
                ),
                "L3,1" => ratio(
                    measure_once(|| eh_baselines::pairwise::lollipop_count(&graph.edges)),
                    t_eh,
                ),
                _ => ratio(
                    measure_once(|| eh_baselines::pairwise::barbell_count(&graph.edges)),
                    t_eh,
                ),
            };
            for (config, d) in [("EH", t_eh), ("-R", t_r), ("-RA", t_ra)] {
                record("table8", spec.name, qname, config, d, count);
            }
            t.row(&[
                spec.name.into(),
                qname.into(),
                count.to_string(),
                secs(t_eh),
                ratio(t_r, t_eh),
                ratio(t_ra, t_eh),
                ghd_col,
                sl,
            ]);
        }
    }
    println!("(paper: -RA costs up to 1000x, -GHD times out on B3,1)");
}

// ---------------------------------------------------------------- Table 9

/// Table 9: node-ordering preprocessing times.
fn table9(scale: f64) {
    println!("\n== Table 9: node ordering times ==");
    let higgs = paper_datasets()[1].generate_scaled(scale);
    let lj = paper_datasets()[2].generate_scaled(scale);
    let t = Table::new(&[("ordering", 16), ("Higgs[s]", 10), ("LiveJournal[s]", 14)]);
    for scheme in OrderingScheme::ALL {
        let th = measure(3, || compute_ordering(&higgs, scheme));
        let tl = measure(3, || compute_ordering(&lj, scheme));
        t.row(&[scheme.name().into(), secs(th), secs(tl)]);
    }
    println!("(paper: degree orders cheap, BFS linear in edges, hybrid = BFS + sort)");
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: ordering effect on triangle counting over power-law exponent.
fn fig7() {
    println!("\n== Figure 7: triangle time vs power-law exponent, per ordering ==");
    let t = Table::new(&[
        ("exponent", 9),
        ("Random", 9),
        ("BFS", 9),
        ("Degree", 9),
        ("RevDeg", 9),
        ("Strong", 9),
        ("Shingle", 9),
        ("Hybrid", 9),
    ]);
    for &exp in &[2.0f64, 2.3, 3.0] {
        let g = gen::power_law(4000, 40_000, exp, 77);
        let mut row = vec![format!("{exp:.1}")];
        for scheme in [
            OrderingScheme::Random,
            OrderingScheme::Bfs,
            OrderingScheme::Degree,
            OrderingScheme::RevDegree,
            OrderingScheme::StrongRuns,
            OrderingScheme::Shingle,
            OrderingScheme::Hybrid,
        ] {
            let perm = compute_ordering(&g, scheme);
            let h = apply_ordering(&g, &perm).prune_current_order();
            let mut pq = PreparedQuery::new(&h, tuned(Config::default()), queries::TRIANGLE);
            let d = measure(3, || pq.run());
            row.push(format!("{:.4}", d.as_secs_f64()));
        }
        t.row(&row);
    }
    println!("(paper: Degree best at low exponents, BFS at high; hybrid tracks both)");
}

// --------------------------------------------------------------- Table 10

/// Table 10: random vs degree ordering, with and without symmetric
/// filtering, uint-only vs the set-level optimizer.
fn table10(scale: f64) {
    println!("\n== Table 10: random-vs-degree ordering slowdowns ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("def-uint", 10),
        ("def-EH", 10),
        ("sym-uint", 10),
        ("sym-EH", 10),
    ]);
    for spec in paper_datasets().into_iter().take(5) {
        let g = spec.generate_scaled(scale);
        let mut cells = vec![spec.name.to_string()];
        for symmetric in [false, true] {
            for cfg in [tuned(Config::uint_only()), tuned(Config::default())] {
                let time_with = |scheme: OrderingScheme| -> Duration {
                    let perm = compute_ordering(&g, scheme);
                    let h = apply_ordering(&g, &perm);
                    let h = if symmetric {
                        h.prune_current_order()
                    } else {
                        h
                    };
                    let mut pq = PreparedQuery::new(&h, cfg, queries::TRIANGLE);
                    measure(3, || pq.run())
                };
                let random = time_with(OrderingScheme::Random);
                let degree = time_with(OrderingScheme::Degree);
                cells.push(ratio(random, degree));
            }
        }
        t.row(&cells);
    }
    println!("(paper: ordering matters mainly under symmetric filtering)");
}

// --------------------------------------------------------------- Table 11

/// Table 11: -S / -R / -SR ablations, default vs symmetrically filtered.
fn table11(scale: f64) {
    println!("\n== Table 11: SIMD/layout ablations on triangle counting ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("def -S", 8),
        ("def -R", 8),
        ("def -SR", 8),
        ("sym -S", 8),
        ("sym -R", 8),
        ("sym -SR", 8),
    ]);
    let no_simd_no_layout = || -> Config {
        let mut c = tuned(Config::uint_only());
        c.intersect = IntersectConfig::no_simd();
        c
    };
    for spec in paper_datasets().into_iter().take(5) {
        let mut cells = vec![spec.name.to_string()];
        let g = spec.generate_scaled(scale);
        for symmetric in [false, true] {
            let h = if symmetric {
                g.prune_by_degree()
            } else {
                g.clone()
            };
            let mut base = PreparedQuery::new(&h, tuned(Config::default()), queries::TRIANGLE);
            let t_base = measure(3, || base.run());
            for cfg in [
                tuned(Config::no_simd()),
                tuned(Config::uint_only()),
                no_simd_no_layout(),
            ] {
                let mut pq = PreparedQuery::new(&h, cfg, queries::TRIANGLE);
                let d = measure(3, || pq.run());
                cells.push(ratio(d, t_base));
            }
        }
        t.row(&cells);
    }
    println!("(paper: layout+SIMD up to 13x on skewed unfiltered data)");
}

// --------------------------------------------------------------- Table 13

/// Table 13: selection queries (4-clique / barbell anchored at a node),
/// with and without cross-node selection push-down.
fn table13(scale: f64) {
    println!("\n== Table 13: selection queries (push-down across GHD nodes) ==");
    let t = Table::new(&[
        ("dataset", 12),
        ("query", 7),
        ("degree", 7),
        ("|out|", 12),
        ("EH[s]", 10),
        ("-PD", 10),
        ("SL", 10),
    ]);
    for spec in paper_datasets().into_iter().take(3) {
        let g = spec.generate_scaled(scale * 0.5);
        let deg = g.total_degrees();
        let high = g.max_degree_node();
        let low = (0..g.num_nodes)
            .filter(|&v| deg[v as usize] > 0)
            .min_by_key(|&v| deg[v as usize])
            .unwrap_or(0);
        for (label, node) in [("high", high), ("low", low)] {
            let sk4 = format!(
                "SK4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),Edge(y,u),Edge(z,u),Edge(x,'{node}'); w=<<COUNT(*)>>."
            );
            let sb = format!(
                "SB(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,'{node}'),Edge('{node}',a),Edge(a,b),Edge(b,c),Edge(a,c); w=<<COUNT(*)>>."
            );
            for (qname, q) in [("SK4", sk4.as_str()), ("SB3,1", sb.as_str())] {
                let mut eh = PreparedQuery::new(&g, tuned(Config::default()), q);
                let out_card = eh.run();
                let t_eh = measure_once(|| eh.run());
                let mut no_pd_cfg = tuned(Config::default());
                no_pd_cfg.plan.push_down_selections = false;
                let mut no_pd = PreparedQuery::new(&g, no_pd_cfg, q);
                let t_no_pd = measure_once(|| no_pd.run());
                // SociaLite-class has no selection-aware WCOJ plan: it pays
                // the full unanchored pattern then filters.
                let t_sl = measure_once(|| match qname {
                    "SK4" => eh_baselines::pairwise::four_clique_count(&g.edges),
                    _ => eh_baselines::pairwise::barbell_count(&g.edges),
                });
                t.row(&[
                    spec.name.into(),
                    qname.into(),
                    label.into(),
                    out_card.to_string(),
                    secs(t_eh),
                    ratio(t_no_pd, t_eh),
                    ratio(t_sl, t_eh),
                ]);
            }
        }
    }
    println!("(paper: push-down worth up to four orders of magnitude)");
}

/// Unused-table guard (keeps the binary honest about coverage).
#[allow(dead_code)]
fn coverage() -> &'static [&'static str] {
    &[
        "fig5", "fig6", "fig7", "table3", "table4", "table5", "table6", "table7", "table8",
        "table9", "table10", "table11", "table13",
    ]
}

#[allow(unused_imports)]
use eh_exec as _;
#[allow(unused_imports)]
use eh_ghd as _;
#[allow(unused_imports)]
use eh_query as _;
#[allow(unused_imports)]
use eh_trie as _;

// Silence unused warnings for re-exported helper types used only in some
// subcommands.
#[allow(dead_code)]
fn _unused(_: &Database, _: AggOp, _: DynValue, _: &Graph, _: &Instant) {}
