//! Layer probes: one public function of one layer at a time, timed from
//! outside on seeded inputs. They run in every traced run, whatever the
//! workload, so each per-layer metric is measured — never assumed — on
//! every run the driver makes.
//!
//! README.md states, per metric, which end-to-end metric it should move
//! and on which workload.

use crate::api::{
    batch_from_result, count_all_into, intersect_count, intersect_values, lowlevel, pairwise,
    parse_rule, validate_rule, Config, CsvOptions, Database, DynValue, Graph, IntersectConfig,
    LayoutKind, MultiwayScratch, PageRankRunner, Prepared, ResultBatch, Set, TrieBuilder,
    TupleBuffer, WorkCounters,
};
use crate::driver::RunArgs;
use crate::metrics::Metric;
use crate::stats::{median, Rng};
use crate::workloads::{
    analog, edges_tsv, err, Caller, ClusterScatter, Op, ServeAdhoc, Sizes, Workload, BARBELL, FULL,
    LOLLIPOP, SMOKE, TRIANGLE,
};
use std::hint::black_box;
use std::time::Instant;

/// Probe inputs are a fixed fraction of the workloads' own: big enough to
/// time, small enough that the whole suite takes a few seconds.
const PROBE: Sizes = Sizes {
    dense_scale: 0.1,
    sparse_scale: 0.2,
    analytics_scale: 0.1,
    serve_nodes: 2_000,
    serve_edges: 8_000,
    ..FULL
};

// The pattern workloads' own texts: `TRIANGLE` reads `Edge`, the other two
// read `Und`.
const TWO_HOP_LIST: &str = "HL(x,z) :- Edge(x,y),Edge(y,z).";

/// Median nanoseconds of `reps` calls of `f`.
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn steady_ns(stmt: &Prepared, db: &Database, reps: usize) -> Result<f64, String> {
    stmt.execute(db).map_err(err("probe execute"))?;
    Ok(time_ns(reps, || stmt.execute(db).map(|r| r.num_rows())))
}

pub fn all(args: &RunArgs) -> Result<Vec<Metric>, String> {
    let sizes = if args.smoke { &SMOKE } else { &PROBE };
    let reps = if args.smoke { 3 } else { 15 };
    let mut out = Vec::new();
    set_layer(args.seed, reps, &mut out);
    let dense = analog(0, args.seed, sizes.dense_scale);
    let sparse = analog(4, args.seed, sizes.sparse_scale);
    let skewed = analog(1, args.seed, 4.0 * sizes.analytics_scale);
    trie_and_graph(&skewed, &sparse, reps, &mut out);
    storage_layer(&sparse, reps, &mut out)?;
    planning(&sparse, reps, &mut out)?;
    exec_layer(&dense, &sparse, reps, &mut out)?;
    core_layer(&sparse, args.seed, sizes, reps, &mut out)?;
    server_layer(args.seed, sizes, &mut out)?;
    cluster_layer(args.seed, sizes, reps, &mut out)?;
    Ok(out)
}

/// Sorted distinct values: `n` of them drawn from `0..range`.
fn sorted_values(rng: &mut Rng, n: usize, range: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n * 2).map(|_| rng.below(range as u64) as u32).collect();
    v.sort_unstable();
    v.dedup();
    // Thin evenly down to `n`, keeping the order.
    let step = v.len() as f64 / n.min(v.len()) as f64;
    (0..n.min(v.len()))
        .map(|i| v[(i as f64 * step) as usize])
        .collect()
}

/// Kernel floors on fixed-shape synthetic sets, in ns per input element.
fn set_layer(seed: u64, reps: usize, out: &mut Vec<Metric>) {
    let mut rng = Rng::new(seed ^ 0x5e75);
    let full = IntersectConfig::full();
    // Dense: a quarter of a 64 Ki range. Sparse: 1.5 % of a 1 Mi range.
    let dense_a = sorted_values(&mut rng, 16_384, 1 << 16);
    let dense_b = sorted_values(&mut rng, 16_384, 1 << 16);
    let sparse_a = sorted_values(&mut rng, 16_384, 1 << 20);
    let sparse_b = sorted_values(&mut rng, 16_384, 1 << 20);
    let sparse_c = sorted_values(&mut rng, 16_384, 1 << 20);
    let few = sorted_values(&mut rng, 64, 1 << 20);
    let thin = sorted_values(&mut rng, 2_048, 1 << 16);
    let bits = |v: &[u32]| Set::from_sorted(v, LayoutKind::Bitset);
    let uint = |v: &[u32]| Set::from_sorted(v, LayoutKind::Uint);

    // Each timing runs the kernel `BATCH` times so it is well above the
    // clock's resolution.
    const BATCH: usize = 64;
    let mut pair = |name: &str, a: &Set, b: &Set, cfg: &IntersectConfig| {
        let elems = ((a.len() + b.len()) * BATCH) as f64;
        let ns = time_ns(reps, || {
            (0..BATCH)
                .map(|_| intersect_count(black_box(a), black_box(b), cfg))
                .sum::<usize>()
        }) / elems;
        out.push(Metric::new(name, ns, "ns").n(reps));
    };
    pair(
        "set.bitset_ns_per_elem",
        &bits(&dense_a),
        &bits(&dense_b),
        &full,
    );
    pair(
        "set.mixed_ns_per_elem",
        &uint(&thin),
        &bits(&dense_a),
        &full,
    );
    pair(
        "set.uint_ns_per_elem",
        &uint(&sparse_a),
        &uint(&sparse_b),
        &full,
    );
    pair(
        "set.gallop_ns_per_elem",
        &uint(&few),
        &uint(&sparse_a),
        &full,
    );
    pair(
        "set.scalar_ns_per_elem",
        &uint(&sparse_a),
        &uint(&sparse_b),
        &IntersectConfig::no_simd(),
    );

    let (a, b, c) = (uint(&sparse_a), uint(&sparse_b), uint(&sparse_c));
    let mut scratch = MultiwayScratch::new();
    let elems = ((a.len() + b.len() + c.len()) * BATCH) as f64;
    let ns = time_ns(reps, || {
        (0..BATCH)
            .map(|_| count_all_into(&[&a, &b, &c], &full, &mut scratch))
            .sum::<usize>()
    });
    out.push(Metric::new("set.multiway_ns_per_elem", ns / elems, "ns").n(reps));

    // Materialising kernel (what a listing's inner loop calls).
    let mut values = Vec::with_capacity(sparse_a.len());
    let elems = ((a.len() + b.len()) * BATCH) as f64;
    let ns = time_ns(reps, || {
        for _ in 0..BATCH {
            values.clear();
            intersect_values(&a, &b, &full, &mut values);
        }
        values.len()
    });
    out.push(Metric::new("set.values_ns_per_elem", ns / elems, "ns").n(reps));

    // Layout choice + build, over one dense and one sparse input.
    let elems = ((dense_a.len() + sparse_a.len()) * BATCH) as f64;
    let ns = time_ns(reps, || {
        (0..BATCH)
            .map(|_| Set::from_sorted_auto(&dense_a).len() + Set::from_sorted_auto(&sparse_a).len())
            .sum::<usize>()
    });
    out.push(Metric::new("set.build_ns_per_elem", ns / elems, "ns").n(reps));
}

fn trie_and_graph(skewed: &Graph, sparse: &Graph, reps: usize, out: &mut Vec<Metric>) {
    let buf = sparse.tuple_buffer();
    let builder = TrieBuilder::new(2);
    let ns = time_ns(reps, || builder.build_buffer(&buf).tuple_count());
    out.push(Metric::new("trie.build_ns_per_tuple", ns / buf.len() as f64, "ns").n(reps));

    let mut annotated: TupleBuffer = buf.clone();
    annotated.fill_annotations(DynValue::F64(0.5));
    let ns = time_ns(reps, || builder.build_buffer(&annotated).tuple_count());
    out.push(
        Metric::new(
            "trie.build_annotated_ns_per_tuple",
            ns / buf.len() as f64,
            "ns",
        )
        .n(reps),
    );

    // Layout outcome on a moderately skewed graph, where the set-level
    // optimizer really has a choice: hubs become bitsets, the tail stays
    // uint. (On the Google+ analog every set is a bitset.)
    let trie = builder.build_buffer(&skewed.tuple_buffer());
    let (uint, bitset, block) = trie.layout_census();
    out.push(Metric::new(
        "trie.bytes_per_tuple",
        trie.set_bytes() as f64 / trie.tuple_count().max(1) as f64,
        "B",
    ));
    out.push(Metric::new(
        "trie.bitset_share",
        bitset as f64 / (uint + bitset + block).max(1) as f64,
        "ratio",
    ));

    let ns = time_ns(reps, || sparse.prune_by_degree().num_edges());
    out.push(
        Metric::new(
            "graph.prune_ns_per_edge",
            ns / sparse.num_edges() as f64,
            "ns",
        )
        .n(reps),
    );
}

fn storage_layer(sparse: &Graph, reps: usize, out: &mut Vec<Metric>) -> Result<(), String> {
    let rows = sparse.num_edges() as f64;
    let text = edges_tsv(sparse);
    let mut db = Database::new();
    db.load_csv_reader("Edge", &text[..], &CsvOptions::tsv())
        .map_err(err("probe csv"))?;
    let ns = time_ns(reps, || {
        let mut db = Database::new();
        db.load_csv_reader("Edge", &text[..], &CsvOptions::tsv())
            .map(|r| r.rows)
    });
    out.push(Metric::new("storage.csv_ns_per_row", ns / rows, "ns").n(reps));

    let mut image = Vec::new();
    db.save_to(&mut image).map_err(err("probe image save"))?;
    let ns = time_ns(reps, || {
        let mut bytes = Vec::with_capacity(image.len());
        db.save_to(&mut bytes).map(|_| bytes.len())
    });
    out.push(Metric::new("storage.image_save_ns_per_tuple", ns / rows, "ns").n(reps));
    let ns = time_ns(reps, || {
        Database::open_reader(&image[..], Config::default()).map(|d| d.epoch())
    });
    out.push(Metric::new("storage.image_open_ns_per_tuple", ns / rows, "ns").n(reps));

    let result = db.query_ref(TWO_HOP_LIST).map_err(err("probe listing"))?;
    let n = result.num_rows().max(1) as f64;
    let batch = batch_from_result(&db, &result);
    let bytes = batch.encode().map_err(err("probe encode"))?;
    let ns = time_ns(reps, || batch.encode().map(|b| b.len()));
    out.push(Metric::new("storage.batch_encode_ns_per_row", ns / n, "ns").n(reps));
    let ns = time_ns(reps, || ResultBatch::decode(&bytes).map(|b| b.num_rows()));
    out.push(Metric::new("storage.batch_decode_ns_per_row", ns / n, "ns").n(reps));
    out.push(Metric::new(
        "storage.batch_bytes_per_row",
        bytes.len() as f64 / n,
        "B",
    ));
    Ok(())
}

/// Parse, plan and the planner's estimate against observed work.
fn planning(sparse: &Graph, reps: usize, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut db = Database::with_config(Config::default().with_threads(1).with_profile(true));
    db.load_graph("Edge", sparse);
    db.load_graph("Und", sparse);
    let parse_ns = |text: &str| {
        time_ns(reps * 8, || {
            parse_rule(text)
                .ok()
                .map(|rule| validate_rule(&rule).is_ok())
        })
    };
    out.push(Metric::new("query.parse_us", parse_ns(BARBELL) / 1e3, "us").n(reps * 8));
    let mut q_log_sum = 0.0;
    let mut q_n = 0usize;
    for (shape, text) in [
        ("triangle", TRIANGLE),
        ("lollipop", LOLLIPOP),
        ("barbell", BARBELL),
    ] {
        db.prepare(text).map_err(err("probe prepare"))?;
        let prepare = time_ns(reps, || db.prepare(text).map(|p| p.name().len()));
        if shape == "barbell" {
            out.push(Metric::new("core.prepare_us", prepare / 1e3, "us").n(reps));
        }
        let plan = (prepare - parse_ns(text)).max(0.0);
        out.push(Metric::new(format!("ghd.plan_us.{shape}"), plan / 1e3, "us").n(reps));

        let result = db
            .prepare(text)
            .and_then(|p| p.execute(&db))
            .map_err(err("probe profiled execute"))?;
        if let Some(p) = result.profile() {
            if let (Some(est), obs) = (p.estimated_work, p.work.values_scanned) {
                if est > 0.0 && obs > 0 {
                    q_log_sum += (est / obs as f64).ln().abs();
                    q_n += 1;
                }
            }
        }
    }
    if q_n == 0 {
        return Err("probe ghd: no plan carried an estimate".into());
    }
    out.push(
        Metric::new(
            "ghd.q_error_geomean",
            (q_log_sum / q_n as f64).exp(),
            "ratio",
        )
        .n(q_n),
    );
    Ok(())
}

fn counters(stmt: &Prepared, db: &Database) -> Result<WorkCounters, String> {
    stmt.execute(db)
        .map_err(err("probe profiled execute"))?
        .profile()
        .map(|p| p.work)
        .ok_or_else(|| "probe exec: a profiled run returned no profile".into())
}

/// The executor on the triangle count: exact work counts (they repeat at
/// a fixed seed, so "more work" and "slower work" can be told apart),
/// time per value against the kernel floor, threads, profiling cost.
fn exec_layer(
    dense: &Graph,
    sparse: &Graph,
    reps: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let load = |g: &Graph, threads: usize, profile: bool| {
        let cfg = Config::default()
            .with_threads(threads)
            .with_profile(profile);
        let mut db = Database::with_config(cfg);
        db.load_graph("Edge", &g.prune_by_degree());
        db
    };
    let mut work = WorkCounters::default();
    for g in [dense, sparse] {
        let db = load(g, 1, true);
        let stmt = db.prepare(TRIANGLE).map_err(err("probe prepare"))?;
        stmt.execute(&db).map_err(err("probe execute"))?;
        work.merge(&counters(&stmt, &db)?);
    }
    for (name, v) in [
        ("exec.values_scanned", work.values_scanned),
        ("exec.intersections", work.intersections),
        ("exec.merge_kernels", work.merge_kernels),
        ("exec.gallop_kernels", work.gallop_kernels),
        ("exec.bitset_kernels", work.bitset_kernels),
        ("exec.count_fast_hits", work.count_fast_hits),
        ("exec.relayouts", work.relayouts),
    ] {
        out.push(Metric::new(name, v as f64, "count"));
    }

    // Steady times of the same count under three configurations, taken in
    // turns so that clock drift lands on all of them alike.
    let configs = [
        Config::default().with_threads(1),
        Config::default().with_threads(1).with_profile(true),
        Config::default().with_threads(2),
    ];
    let pruned = sparse.prune_by_degree();
    let mut sides = Vec::new();
    for cfg in configs {
        let mut db = Database::with_config(cfg);
        db.load_graph("Edge", &pruned);
        let stmt = db.prepare(TRIANGLE).map_err(err("probe prepare"))?;
        stmt.execute(&db).map_err(err("probe execute"))?;
        sides.push((db, stmt));
    }
    // The floor under the executor: the same count as a bare loop over the
    // same trie calling the same kernels — no plan, no interpreter, no
    // sink. `exec.interp_ratio` is the executor's time over this one: the
    // most that specialising the interpreter could ever win.
    let trie = TrieBuilder::new(2).build_buffer(&pruned.tuple_buffer());
    let sets: Vec<Option<&Set>> = (0..pruned.num_nodes).map(|v| trie.select(&[v])).collect();
    let full = IntersectConfig::full();
    let bare = || -> usize {
        let mut n = 0;
        for x in trie.root().set.iter() {
            let nx = sets[x as usize].expect("a root value has a child set");
            for y in nx.iter() {
                if let Some(ny) = sets[y as usize] {
                    n += intersect_count(nx, ny, &full);
                }
            }
        }
        n
    };
    let counted = sides[0]
        .1
        .execute(&sides[0].0)
        .map_err(err("probe execute"))?;
    if counted.scalar_u64() != Some(bare() as u64) {
        return Err("probe exec: the bare kernel loop and the executor disagree".into());
    }
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); sides.len() + 1];
    for _ in 0..reps {
        for ((db, stmt), times) in sides.iter().zip(&mut runs) {
            times.push(time_ns(1, || stmt.execute(db).map(|r| r.num_rows())));
        }
        runs[sides.len()].push(time_ns(1, bare));
    }
    let [one, profiled, two, floor] = [0, 1, 2, 3].map(|i| median(&runs[i]));
    let scanned = counters(&sides[1].1, &sides[1].0)?.values_scanned.max(1);
    out.push(Metric::new("exec.ns_per_value", one / scanned as f64, "ns").n(reps));
    out.push(Metric::new("exec.interp_ratio", one / floor, "ratio").n(reps));
    out.push(Metric::new("exec.parallel_speedup", one / two, "ratio").n(reps));
    out.push(
        Metric::new(
            "exec.profile_overhead_pct",
            (profiled - one) * 100.0 / one,
            "%",
        )
        .n(reps),
    );

    // The paper's relative structure: engine against the hand-coded and
    // the pairwise baselines on the same count. Informs, does not gate.
    let csr = pruned.to_csr();
    let lowlevel_ns = time_ns(reps.min(5), || lowlevel::triangle_count_merge(&csr));
    let pairwise_ns = time_ns(reps.min(3), || pairwise::triangle_count(&pruned.edges));
    out.push(Metric::new(
        "baselines.lowlevel_ratio",
        lowlevel_ns / one,
        "ratio",
    ));
    out.push(Metric::new(
        "baselines.pairwise_ratio",
        pairwise_ns / one,
        "ratio",
    ));
    Ok(())
}

fn core_layer(
    sparse: &Graph,
    seed: u64,
    sizes: &Sizes,
    reps: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let pruned = sparse.prune_by_degree();
    // Lazy trie build: a fresh database's first execute against steady.
    let firsts: Vec<f64> = (0..reps.min(5))
        .map(|_| {
            let mut db = Database::with_config(Config::default().with_threads(1));
            db.load_graph("Edge", &pruned);
            let stmt = db.prepare(TRIANGLE).expect("the probe text compiles");
            time_ns(1, || stmt.execute(&db).map(|r| r.num_rows()))
        })
        .collect();
    let mut db = Database::with_config(Config::default().with_threads(1));
    db.load_graph("Edge", &pruned);
    let stmt = db.prepare(TRIANGLE).map_err(err("probe prepare"))?;
    let steady = steady_ns(&stmt, &db, reps)?;
    out.push(
        Metric::new(
            "core.first_run_extra_ms",
            (median(&firsts) - steady) / 1e6,
            "ms",
        )
        .n(firsts.len()),
    );
    // What an unprepared text pays on top of executing its plan, on a
    // hub-anchored barbell: little join work under a costly GHD search.
    // The two are timed in turns, and the metric is the median difference.
    let hub = sparse.max_degree_node();
    let mut und = Database::with_config(Config::default().with_threads(1));
    und.load_graph("Und", sparse);
    let text = BARBELL.replacen("Und(x,y)", &format!("Und(x,'{hub}'),Und(x,y)"), 1);
    let anchored = und.prepare(&text).map_err(err("probe prepare"))?;
    anchored.execute(&und).map_err(err("probe execute"))?;
    let extra: Vec<f64> = (0..reps)
        .map(|_| {
            time_ns(1, || und.query_ref(&text).map(|r| r.num_rows()))
                - time_ns(1, || anchored.execute(&und).map(|r| r.num_rows()))
        })
        .collect();
    out.push(Metric::new("core.adhoc_overhead_us", median(&extra) / 1e3, "us").n(reps));

    let graph = analog(1, seed, sizes.analytics_scale);
    let mut runner = PageRankRunner::new(
        &graph,
        sizes.pagerank_iterations,
        Config::default().with_threads(1),
    )
    .map_err(err("probe pagerank"))?;
    let run = time_ns(reps, || runner.run().map(|r| r.len()));
    out.push(Metric::new(
        "core.recursion_iter_ms",
        run / 1e6 / sizes.pagerank_iterations as f64,
        "ms",
    ));
    Ok(())
}

/// The server around a small database, one client: plan cache, session
/// service time, what the client waits beyond it, bytes, round-trip floor.
fn server_layer(seed: u64, sizes: &Sizes, out: &mut Vec<Metric>) -> Result<(), String> {
    let inputs = ServeAdhoc::generate(seed, sizes);
    let stmts = ServeAdhoc::stmts(&inputs);
    let (mut live, firsts) = ServeAdhoc::setup(&inputs, false)?;
    let measured = (|| {
        let expected = ServeAdhoc::verify(&inputs, &firsts)?;
        let round: usize = stmts.iter().map(|s| s.weight as usize).sum();
        let ops = crate::workloads::schedule(&stmts, seed, 0, 1, round * 12);
        let before = live.stats()?;
        let mut client_ns = 0u64;
        {
            let mut callers = live.callers();
            for &op in &ops {
                let (d, ns) = callers[0].call(op)?;
                if d != expected[op.stmt as usize][op.arg as usize] {
                    return Err(format!(
                        "probe server: wrong answer to statement {}",
                        op.stmt
                    ));
                }
                client_ns += ns;
            }
        }
        let after = live.stats()?;
        let rtts: Vec<f64> = (0..200)
            .map(|_| live.round_trip().map(|ns| ns as f64))
            .collect::<Result<_, _>>()?;
        Ok((
            ops.len() as f64,
            before,
            after,
            client_ns as f64,
            median(&rtts),
        ))
    })();
    live.teardown();
    let (n, before, after, client_ns, rtt) = measured?;

    let (hits, misses) = (
        (after.cache_hits - before.cache_hits) as f64,
        (after.cache_misses - before.cache_misses) as f64,
    );
    out.push(Metric::new(
        "server.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    ));
    let service = |s: &crate::api::ServerStats| -> (f64, f64) {
        let ext = s.ext.as_ref();
        let service: u64 = ext
            .map(|e| {
                e.frames
                    .iter()
                    .filter(|f| f.name == "query" || f.name == "exec_prepared")
                    .map(|f| f.total_ns)
                    .sum()
            })
            .unwrap_or(0);
        (service as f64, ext.map_or(0, |e| e.bytes_out) as f64)
    };
    let ((s0, b0), (s1, b1)) = (service(&before), service(&after));
    out.push(Metric::new("server.session.service_us", (s1 - s0) / n / 1e3, "us").n(n as usize));
    out.push(
        Metric::new(
            "server.client.wait_us",
            (client_ns - (s1 - s0)) / n / 1e3,
            "us",
        )
        .n(n as usize),
    );
    out.push(Metric::new("server.bytes_out_per_op", (b1 - b0) / n, "B"));
    out.push(Metric::new("server.rtt_us", rtt / 1e3, "us").n(200));
    Ok(())
}

/// Scatter-gather over two workers against one: what the coordinator adds
/// to the slowest shard, how uneven the shards are, merge cost per row.
fn cluster_layer(
    seed: u64,
    sizes: &Sizes,
    reps: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const SELECT: u16 = 0;
    const COUNT: u16 = 1;
    const LIST: u16 = 3;
    /// `(latency, latency − slowest shard, slowest ÷ mean shard, rows)`.
    type Shot = (f64, f64, f64, f64);
    let measure = |workers: usize| -> Result<Vec<Vec<Shot>>, String> {
        let mut inputs = ClusterScatter::generate(seed, sizes);
        inputs.workers = workers;
        let (mut live, firsts) = ClusterScatter::setup(&inputs, false)?;
        let shots = (|| {
            ClusterScatter::verify(&inputs, &firsts)?;
            let mut per_stmt = Vec::new();
            for stmt in [SELECT, COUNT, LIST] {
                let mut shots = Vec::new();
                for _ in 0..reps {
                    let (_, ns) = live.call(Op { stmt, arg: 0 })?;
                    let (slowest, mean, rows) = live.last_shards();
                    shots.push((
                        ns as f64,
                        ns as f64 - slowest as f64,
                        slowest as f64 / mean.max(1.0),
                        rows as f64,
                    ));
                }
                per_stmt.push(shots);
            }
            Ok(per_stmt)
        })();
        live.teardown();
        shots
    };
    let col =
        |shots: &[Shot], f: fn(&Shot) -> f64| median(&shots.iter().map(f).collect::<Vec<_>>());
    let two = measure(2)?;
    let one = measure(1)?;
    let (select, count, list) = (&two[0], &two[1], &two[2]);
    out.push(
        Metric::new(
            "server.cluster.overhead_ms",
            col(count, |s| s.1) / 1e6,
            "ms",
        )
        .n(reps),
    );
    out.push(Metric::new("server.cluster.imbalance", col(count, |s| s.2), "ratio").n(reps));
    let rows = col(list, |s| s.3).max(1.0);
    let merge = (col(list, |s| s.1) - col(select, |s| s.1)).max(0.0);
    out.push(Metric::new("server.cluster.merge_ns_per_row", merge / rows, "ns").n(reps));
    out.push(
        Metric::new(
            "server.cluster.speedup",
            col(&one[1], |s| s.0) / col(count, |s| s.0),
            "ratio",
        )
        .n(reps),
    );
    Ok(())
}
