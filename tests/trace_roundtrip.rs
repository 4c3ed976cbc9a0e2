//! End-to-end tests for distributed tracing and the slow-query log:
//! spawn real `eh_server` workers on Unix sockets, run the paper-shaped
//! query mix traced and untraced, and assert
//!
//! * a traced `Exec` round-trips a span tree + batch, the profile's
//!   scalars riding as values on the root span;
//! * a cluster `\trace` stitches every worker's span tree — tagged with
//!   the coordinator's trace id — into one trace with per-worker lanes;
//! * tracing is an observer: traced result batches are **byte-identical**
//!   to untraced ones, serially, under 4 threads, and across 2 shards;
//! * the slow-query log records over the wire and honours `slow_ms`.

use emptyheaded::server::{
    batch_from_result, Cluster, EhClient, Server, ServerOptions, WireDelimiter,
};
use emptyheaded::{Config, CsvOptions, Database};

fn graph_tsv() -> String {
    let mut s = String::from("src:u32\tdst:u32\n");
    for i in 1..=40u32 {
        s.push_str(&format!("0\t{i}\n{i}\t0\n"));
    }
    for i in 1..=10u32 {
        for j in 1..=10u32 {
            if i != j && (i * 7 + j * 3) % 5 == 0 {
                s.push_str(&format!("{i}\t{j}\n"));
            }
        }
    }
    s
}

const QUERIES: &[&str] = &[
    "T(x,y,z) :- G(x,y),G(y,z),G(z,x).",
    "C(;w:long) :- G(x,y),G(y,z),G(z,x); w=<<COUNT(*)>>.",
    "P(x,z) :- G(x,y),G(y,z).",
    "A(y) :- G('0',y).",
];

fn reference_db() -> Database {
    let mut db = Database::new();
    db.load_csv_reader("G", std::io::Cursor::new(graph_tsv()), &CsvOptions::tsv())
        .unwrap();
    db
}

fn expected_bytes(db: &Database, query: &str) -> Vec<u8> {
    let stmt = db.prepare(query).expect("reference prepare");
    let result = stmt
        .execute_with(db, &Config::default())
        .expect("reference execute");
    batch_from_result(db, &result).encode().expect("encode")
}

fn spawn_workers(n: usize) -> (Vec<Server>, Vec<String>) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let sock = std::env::temp_dir().join(format!(
            "eh_trace_{}_{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let addr = format!("unix:{}", sock.display());
        let server =
            Server::bind(Database::new(), &[&addr], ServerOptions::default()).expect("bind worker");
        let mut loader = EhClient::connect(&addr).expect("connect loader");
        loader
            .load_csv("G", WireDelimiter::Tab, graph_tsv().into_bytes())
            .expect("load G");
        loader.quit().expect("loader quit");
        servers.push(server);
        addrs.push(addr);
    }
    (servers, addrs)
}

#[test]
fn trace_exec_round_trips_spans_and_batch() {
    let reference = reference_db();
    let (servers, addrs) = spawn_workers(1);
    let mut client = EhClient::connect(&addrs[0]).expect("connect");

    for q in QUERIES {
        let expected = expected_bytes(&reference, q);
        // Tracing on: span tree + byte-identical rows.
        let traced = client.trace_exec(q).expect("trace_exec");
        assert_eq!(traced.result.raw_bytes(), &expected[..], "traced: {q}");
        assert!(!traced.sharded, "no shard was requested");
        let trace = traced.trace.expect("preparable plans profile");
        assert_ne!(trace.trace_id, 0, "the client mints a real trace id");
        let rendered = trace.render();
        assert!(rendered.contains("kernels:"), "{rendered}");
        assert!(rendered.contains("node 0"), "{rendered}");
        // What the wire profile used to carry rides on the root span.
        assert_eq!(
            trace.root.value("rows"),
            Some(reference_rows(&expected) as u64)
        );
        assert_eq!(
            trace.root.value("observed_work"),
            Some(trace.work.values_scanned)
        );
        assert!(trace.root.value("estimated_work").is_some(), "{rendered}");
    }

    // A multi-rule program is traced like a rule: one `rule k` child
    // per rule, each that rule's own tree, and exact rows.
    let program = "H(x,z) :- G(x,y),G(y,z). F(z) :- H('0',z).";
    let out = client.trace_exec(program).expect("program trace");
    let trace = out.trace.expect("programs profile");
    assert_ne!(trace.trace_id, 0);
    let rules: Vec<&str> = trace
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(rules, ["rule 0", "rule 1"]);
    for rule in &trace.root.children {
        assert!(rule.children.iter().any(|c| c.name == "node 0"), "{rule:?}");
        assert!(rule.start_ns_rel >= trace.root.start_ns_rel);
    }
    assert_eq!(trace.root.value("rows"), Some(out.result.num_rows() as u64));
    assert_eq!(
        out.result.raw_bytes(),
        &expected_bytes(&reference, program)[..]
    );

    client.quit().expect("quit");
    for s in servers {
        s.shutdown();
    }
}

/// Row count of an encoded reference batch (for cross-checking the
/// profile's `rows` field without re-executing).
fn reference_rows(bytes: &[u8]) -> usize {
    emptyheaded::storage::wire::ResultBatch::decode(bytes)
        .expect("reference batch decodes")
        .num_rows()
}

#[test]
fn cluster_trace_stitches_worker_lanes_tagged_with_one_id() {
    let reference = reference_db();
    let (servers, addrs) = spawn_workers(2);
    let mut cluster = Cluster::connect(&addrs).expect("cluster connect");
    // Threshold 0 on every worker: each traced scatter lands in each
    // worker's slow-query ring, tagged with the coordinator's id.
    cluster
        .set_option("slow_ms", "0")
        .expect("broadcast slow_ms");

    let q = "T(x,y,z) :- G(x,y),G(y,z),G(z,x).";
    let expected = expected_bytes(&reference, q);
    let (trace, rs) = cluster.trace(q).expect("cluster trace");
    assert_eq!(rs.raw_bytes(), &expected[..], "traced scatter diverged");
    assert_ne!(trace.trace_id, 0);

    // One stitched tree: coordinator spans + one lane per worker, each
    // holding that worker's own span tree (shard-named root).
    let rendered = trace.render();
    for needle in [
        "scatter",
        "worker 0",
        "worker 1",
        "shard 0/2",
        "shard 1/2",
        "merge",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
    assert!(trace.root.span_count() > 6, "{rendered}");

    // The untraced path returns the same bytes (tracing only observes).
    let untraced = cluster.query(q).expect("untraced scatter");
    assert_eq!(untraced.raw_bytes(), &expected[..]);

    // Worker slow logs saw the traced scatter: sharded entries tagged
    // with the coordinator's trace id.
    for (k, entries) in cluster.slow_log(16).expect("cluster slow log") {
        assert!(
            entries
                .iter()
                .any(|e| e.trace_id == trace.trace_id && e.sharded),
            "worker {k} missing the traced scatter: {entries:?}"
        );
    }

    // Direct shard_exec with an explicit id: the worker's span tree
    // comes home tagged with exactly that id.
    let mut direct = EhClient::connect(&addrs[0]).expect("connect worker 0");
    let outcome = direct
        .shard_exec(q, 0, 2, Some(0xABCD_1234_5678_9000))
        .expect("direct traced shard");
    let worker_trace = outcome.trace.expect("traced shard ships its spans");
    assert_eq!(worker_trace.trace_id, 0xABCD_1234_5678_9000);
    assert!(worker_trace.render().contains("shard 0/2"));
    // And without an id the tail stays off the wire entirely.
    let untagged = direct.shard_exec(q, 0, 2, None).expect("untraced shard");
    assert!(untagged.trace.is_none());
    assert_eq!(untagged.result.raw_bytes(), outcome.result.raw_bytes());
    direct.quit().expect("quit");

    cluster.quit().expect("cluster quit");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn tracing_is_byte_identical_serial_threaded_and_sharded() {
    let db = reference_db();
    // Serial and 4-thread embedded execution: profile on vs off.
    for threads in [1usize, 4] {
        let cfg = Config::default().with_threads(threads);
        for q in QUERIES {
            let stmt = db.prepare(q).expect("prepare");
            let plain = stmt.execute_with(&db, &cfg).expect("plain");
            let traced = stmt
                .execute_with(&db, &cfg.with_profile(true))
                .expect("traced");
            assert!(traced.profile().is_some(), "profile rides along: {q}");
            let plain_bytes = batch_from_result(&db, &plain).encode().unwrap();
            let traced_bytes = batch_from_result(&db, &traced).encode().unwrap();
            assert_eq!(plain_bytes, traced_bytes, "threads={threads}: {q}");
        }
    }
    // 2-shard scatter: traced and untraced gathers agree byte-for-byte
    // with in-process execution.
    let (servers, addrs) = spawn_workers(2);
    let mut cluster = Cluster::connect(&addrs).expect("cluster connect");
    for q in QUERIES {
        let expected = expected_bytes(&db, q);
        assert_eq!(cluster.query(q).expect("query").raw_bytes(), &expected[..]);
        let (_, rs) = cluster.trace(q).expect("trace");
        assert_eq!(rs.raw_bytes(), &expected[..], "traced shards: {q}");
    }
    cluster.quit().expect("cluster quit");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn slow_query_log_records_over_the_wire() {
    let (servers, addrs) = spawn_workers(1);
    let mut client = EhClient::connect(&addrs[0]).expect("connect");

    // Default threshold is 10 ms: toy queries stay out of the ring.
    client.query(QUERIES[0]).expect("warm query");
    assert!(client.slow_log(8).expect("slow log").is_empty());

    // Threshold 0 retains everything; entries come back newest first
    // with the query text and row counts.
    assert_eq!(
        client.set_option("slow_ms", "0").expect("set"),
        "slow_ms = 0"
    );
    for q in QUERIES {
        client.query(q).expect("query");
    }
    let traced = client.trace_exec(QUERIES[1]).expect("trace");
    let entries = client.slow_log(32).expect("slow log");
    assert_eq!(entries.len(), QUERIES.len() + 1);
    assert!(entries[0].query.contains("COUNT"), "{entries:?}");
    assert_eq!(
        entries[0].trace_id,
        traced.trace.expect("traced").trace_id,
        "traced executions log under their trace id"
    );
    assert_ne!(entries[0].hot_span, "-", "profiled entries name a hot span");
    assert_eq!(entries[1].trace_id, 0, "plain queries log untraced");
    assert!(entries.iter().all(|e| !e.sharded));
    // The limit clips from the newest end.
    assert_eq!(client.slow_log(2).expect("slow log").len(), 2);
    // Render is the stable `slow:`-prefixed single line the shell prints.
    assert!(
        entries[0].render().starts_with("slow: trace="),
        "{entries:?}"
    );

    // Bad threshold values are rejected server-side, session intact.
    let err = client.set_option("slow_ms", "fast").unwrap_err();
    assert!(err.to_string().contains("slow_ms wants a number"), "{err}");
    assert_eq!(
        client.set_option("slow_ms", "25").expect("set"),
        "slow_ms = 25"
    );

    client.quit().expect("quit");
    for s in servers {
        s.shutdown();
    }
}
