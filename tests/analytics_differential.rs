//! Differential test for the analytics path (aggregation-aware
//! Generic-Join + the hash-free recursion driver): PageRank and SSSP
//! through the query language must match the hand-coded
//! `baselines::lowlevel` kernels on a power-law and an Erdős–Rényi graph,
//! under every thread count × scheduler × paper ablation × recursion
//! strategy — and the `f64` ranks must be **bit-identical** across thread
//! counts and schedulers, because the engine specifies one fold order per
//! plan (README "Aggregation and recursion"), not one per partitioning.

use emptyheaded::algorithms::{pagerank, sssp};
use emptyheaded::baselines::lowlevel;
use emptyheaded::exec::{plan_sink_kinds, MemCatalog, SinkKind};
use emptyheaded::graph::gen;
use emptyheaded::semiring::{AggOp, DynValue};
use emptyheaded::{Config, Database, Graph, Relation, Scheduler, TupleBuffer};

const ITERATIONS: u32 = 5;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("power-law", gen::power_law(300, 2_000, 2.2, 11)),
        ("erdos-renyi", gen::erdos_renyi(250, 1_500, 5).symmetrize()),
    ]
}

/// The paper's ablations (plus the default), each with seminaive and
/// forced-naive recursion.
fn ablations() -> Vec<(String, Config)> {
    let mut out = Vec::new();
    for (name, cfg) in [
        ("default", Config::default()),
        ("uint_only", Config::uint_only()),
        ("no_simd", Config::no_simd()),
        ("no_ghd", Config::no_ghd()),
        ("block_level", Config::block_level()),
    ] {
        for naive in [false, true] {
            let cfg = Config {
                force_naive_recursion: naive,
                ..cfg
            };
            out.push((format!("{name} naive={naive}"), cfg));
        }
    }
    out
}

fn partitionings() -> Vec<(usize, Scheduler)> {
    vec![
        (1, Scheduler::Morsel),
        (1, Scheduler::Static),
        (4, Scheduler::Morsel),
        (4, Scheduler::Static),
    ]
}

/// Ranks within 1e-9 relative of the baseline on every node with an edge
/// (the rule derives no row for an isolated node).
fn assert_ranks_match(got: &[f64], want: &[f64], degrees: &[u32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (v, (a, b)) in got.iter().zip(want).enumerate() {
        if degrees[v] > 0 {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{what}: node {v}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn pagerank_and_sssp_match_lowlevel_under_every_configuration() {
    for (gname, g) in graphs() {
        let degrees = g.degrees();
        let start = g.max_degree_node();
        let want_ranks = lowlevel::pagerank(&g, ITERATIONS as usize);
        let want_dists = lowlevel::sssp_bfs(&g, start);
        for (aname, base) in ablations() {
            let mut rank_bits: Vec<(String, Vec<u64>)> = Vec::new();
            for (threads, scheduler) in partitionings() {
                let cfg = base.with_threads(threads).with_scheduler(scheduler);
                let what = format!("{gname} / {aname} / {threads} threads {scheduler:?}");
                let ranks = pagerank(&g, ITERATIONS, cfg).unwrap();
                assert_ranks_match(&ranks, &want_ranks, &degrees, &what);
                rank_bits.push((what.clone(), ranks.iter().map(|r| r.to_bits()).collect()));
                assert_eq!(sssp(&g, start, cfg).unwrap(), want_dists, "{what}");
            }
            let (first_name, first) = &rank_bits[0];
            for (name, bits) in &rank_bits[1..] {
                assert!(
                    bits == first,
                    "f64 ranks differ in their bits between [{first_name}] and [{name}]"
                );
            }
        }
    }
}

#[test]
fn high_diameter_sssp_matches_lowlevel() {
    // The other end from the power-law graphs above: thousands of
    // seminaive iterations whose frontier is one or two rows (a path) or
    // one anti-diagonal (a grid), so the fixpoint state grows by new runs
    // far smaller than itself and every iteration takes the sorted sink.
    for (gname, g) in [("path", gen::grid(1_500, 1)), ("grid", gen::grid(30, 30))] {
        let want = lowlevel::sssp_bfs(&g, 0);
        assert_eq!(
            want.iter().max(),
            Some(&(if gname == "path" { 1_499 } else { 58 }))
        );
        for (threads, scheduler) in partitionings() {
            let cfg = Config::default()
                .with_threads(threads)
                .with_scheduler(scheduler);
            assert_eq!(
                sssp(&g, 0, cfg).unwrap(),
                want,
                "{gname} / {threads} threads {scheduler:?}"
            );
        }
    }
    let g = gen::grid(200, 1);
    let naive = Config {
        force_naive_recursion: true,
        ..Config::default()
    };
    assert_eq!(sssp(&g, 0, naive).unwrap(), lowlevel::sssp_bfs(&g, 0));
}

#[test]
fn a_tiny_frontier_takes_the_sorted_sink() {
    // Same rule body, same dense Edge ids: the sink follows the size of
    // the smallest input, so a recursion's two-row frontier never
    // allocates or drains an array over the whole id space.
    let g = gen::grid(5_000, 1);
    let mut db = Database::new();
    db.load_graph("Edge", &g);
    db.register(
        "SSSP",
        Relation::from_buffer(TupleBuffer::from_rows(1, &[[0u32]]), AggOp::Sum),
    );
    let plan_kinds = |frontier: Vec<[u32; 1]>| {
        let mut catalog = MemCatalog::new();
        catalog.insert("Edge", db.relation("Edge").unwrap().clone());
        catalog.insert(
            "SSSP",
            Relation::from_buffer(TupleBuffer::from_rows(1, &frontier), AggOp::Sum),
        );
        let body = "SP(x;y:int) :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.";
        plan_sink_kinds(db.prepare(body).unwrap().plan(), &catalog)
    };
    assert_eq!(plan_kinds(vec![[7], [9]]), vec![SinkKind::Sorted]);
    let whole: Vec<[u32; 1]> = (0..g.num_nodes).map(|v| [v]).collect();
    assert_eq!(plan_kinds(whole), vec![SinkKind::Dense(5_000)]);
}

/// The engine-side twin of `algorithms::{PageRankRunner, SsspRunner}` over
/// an arbitrary id space: node `v` of `g` is stored as `offset + v`.
fn run_shifted(g: &Graph, offset: u32, cfg: Config) -> (Database, Vec<f64>, Vec<u32>) {
    let n = g.num_nodes as usize;
    let mut db = Database::with_config(cfg);
    let edges: Vec<(u32, u32)> = g
        .edges
        .iter()
        .map(|&(a, b)| (offset + a, offset + b))
        .collect();
    db.load_edges("Edge", &edges);
    let mut inv_deg = TupleBuffer::from_flat(1, (0..g.num_nodes).map(|v| offset + v).collect());
    inv_deg.set_annotations(
        g.degrees()
            .iter()
            .map(|&d| DynValue::F64(1.0 / d.max(1) as f64))
            .collect(),
    );
    db.register("InvDeg", Relation::from_buffer(inv_deg, AggOp::Sum));
    db.register_scalar("N", DynValue::F64(n as f64));
    let out = db
        .query(&format!(
            "PageRank(x;y:float) :- Edge(x,z); y=1/N.\n\
             PageRank(x;y:float)*[i={ITERATIONS}] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>."
        ))
        .unwrap();
    let mut ranks = vec![0.0; n];
    for (row, v) in out.annotated_rows() {
        ranks[(row[0] - offset) as usize] = v.as_f64();
    }

    let start = offset + g.max_degree_node();
    db.define_const("start", start);
    db.query("SSSP(x;y:int) :- Edge('start',x); y=1.").unwrap();
    let mut base = db.relation("SSSP").unwrap().rows().clone();
    base.fill_annotations(DynValue::U64(1));
    base.push_annotated(&[start], DynValue::U64(0));
    db.register("SSSP", Relation::from_buffer(base, AggOp::Min));
    let out = db
        .query("SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
        .unwrap();
    let mut dists = vec![u32::MAX; n];
    for (row, v) in out.annotated_rows() {
        dists[(row[0] - offset) as usize] = v.as_u64() as u32;
    }
    (db, ranks, dists)
}

/// The sink each analytics rule body folds into, as the executor itself
/// decides it (`plan_sink_kinds` is the function `run_node` calls). The
/// recursive heads cannot be prepared, so their bodies are planned under
/// a fresh head name.
fn analytics_sink_kinds(db: &Database) -> Vec<SinkKind> {
    let mut catalog = MemCatalog::new();
    for name in ["Edge", "InvDeg", "PageRank", "SSSP"] {
        catalog.insert(name, db.relation(name).unwrap().clone());
    }
    [
        "PR(x;y:float) :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.",
        "SP(x;y:int) :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.",
    ]
    .iter()
    .flat_map(|q| plan_sink_kinds(db.prepare(q).unwrap().plan(), &catalog))
    .collect()
}

#[test]
fn raw_ids_near_u32_max_take_the_sorted_fallback() {
    let g = gen::power_law(300, 2_000, 2.2, 11);
    let n = g.num_nodes as usize;
    let degrees = g.degrees();
    let want_ranks = lowlevel::pagerank(&g, ITERATIONS as usize);
    let want_dists = lowlevel::sssp_bfs(&g, g.max_degree_node());
    for threads in [1, 4] {
        let cfg = Config::default().with_threads(threads);
        // Dictionary-dense ids: one flat slot per node id.
        let (db, ranks, dists) = run_shifted(&g, 0, cfg);
        assert_ranks_match(&ranks, &want_ranks, &degrees, "dense ids");
        assert_eq!(dists, want_dists, "dense ids");
        for kind in analytics_sink_kinds(&db) {
            assert!(
                matches!(kind, SinkKind::Dense(slots) if slots <= n),
                "dense ids must fold into a flat array: {kind:?}"
            );
        }
        // The same graph under raw ids just below u32::MAX: an id-indexed
        // array would need ~4·10⁹ slots, so nothing O(max id) may be
        // allocated — sorted rows take over and the answers are equal.
        let offset = u32::MAX - g.num_nodes;
        let (db, shifted_ranks, shifted_dists) = run_shifted(&g, offset, cfg);
        assert_ranks_match(&shifted_ranks, &want_ranks, &degrees, "raw ids");
        assert_eq!(shifted_dists, want_dists, "raw ids");
        assert_eq!(
            analytics_sink_kinds(&db),
            vec![SinkKind::Sorted, SinkKind::Sorted],
            "sparse raw ids must not size an array by max id"
        );
        // One fold order whatever the sink: the ranks agree to the bit.
        assert!(
            ranks
                .iter()
                .zip(&shifted_ranks)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "dense and sorted sinks must fold in the same order"
        );
    }
}
