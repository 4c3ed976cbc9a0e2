//! Differential integration test for distributed execution: spawn N
//! `eh_server` shard workers on Unix sockets, load each with the same
//! skewed (power-law-ish) graph plus dyadic f64 weights, scatter the
//! paper-shaped query mix through a [`Cluster`] coordinator, and assert
//! every merged answer is **byte-identical** to direct in-process
//! execution — distribution must be a transparent transport around the
//! engine, never a different engine.
//!
//! The weights are dyadic rationals (multiples of 1/8) on purpose:
//! f64 ⊕-folds over dyadic values are exact under any association, so
//! the shard-order fold reproduces the single-process fold bit-for-bit
//! (the determinism contract documented in `eh_server::cluster`).

use emptyheaded::server::{
    batch_from_result, Cluster, EhClient, Server, ServerOptions, WireDelimiter,
};
use emptyheaded::{Config, CsvOptions, Database};

/// Skewed graph: vertex 0 is a hub touching 1..=60 in both directions,
/// vertices 1..=12 form a denser core, and 13..=60 are a sparse tail —
/// so a contiguous level-0 range split gives shard 0 far more work than
/// shard 1 (the skew the `\explain` table is for).
fn graph_tsv() -> String {
    let mut s = String::from("src:u32\tdst:u32\n");
    for i in 1..=60u32 {
        s.push_str(&format!("0\t{i}\n{i}\t0\n"));
    }
    for i in 1..=12u32 {
        for j in 1..=12u32 {
            if i != j && (i * 7 + j * 3) % 5 == 0 {
                s.push_str(&format!("{i}\t{j}\n"));
            }
        }
    }
    for i in 13..=60u32 {
        s.push_str(&format!("{i}\t{}\n", (i % 60) + 1));
    }
    s
}

/// Dyadic per-vertex weights (multiples of 1/8, exactly representable).
fn weights_csv() -> String {
    let mut s = String::from("item:u32,w:f64\n");
    for i in 0..=60u32 {
        s.push_str(&format!("{i},{}\n", (i % 8) as f64 * 0.125 + 0.25));
    }
    s
}

/// The ⊕-mergeable query mix: triangles (rows + COUNT), a 2-hop path,
/// an anchored selection, keyed and scalar f64 SUMs, and a join-with-
/// weights SUM whose root is multi-attribute (so it actually shards).
const QUERIES: &[&str] = &[
    "T(x,y,z) :- G(x,y),G(y,z),G(z,x).",
    "C(;w:long) :- G(x,y),G(y,z),G(z,x); w=<<COUNT(*)>>.",
    "P(x,z) :- G(x,y),G(y,z).",
    "A(y) :- G('0',y).",
    "S(x;w:float) :- W(x); w=<<SUM(x)>>.",
    "SW(;w:float) :- W(x); w=<<SUM(x)>>.",
    "J(x;w:float) :- G(x,y),W(y); w=<<SUM(y)>>.",
];

fn reference_db() -> Database {
    let mut db = Database::new();
    db.load_csv_reader("G", std::io::Cursor::new(graph_tsv()), &CsvOptions::tsv())
        .unwrap();
    db.load_csv_reader("W", std::io::Cursor::new(weights_csv()), &CsvOptions::csv())
        .unwrap();
    db
}

/// In-process answer for `query`: the prepared path (what every worker
/// and the single-process server run), rendered through the same batch
/// encoder the wire uses.
fn expected_bytes(db: &Database, query: &str) -> Vec<u8> {
    let config = Config::default();
    let stmt = db.prepare(query).expect("reference prepare");
    let result = stmt.execute_with(db, &config).expect("reference execute");
    batch_from_result(db, &result).encode().expect("encode")
}

/// Spawn `n` shard workers, each a full `eh_server` over a Unix socket
/// loaded with identical data (same bytes, same order — dictionaries
/// and ids agree across the fleet).
fn spawn_workers(n: usize) -> (Vec<Server>, Vec<String>) {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let sock = std::env::temp_dir().join(format!(
            "eh_shard_{}_{}.sock",
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
        loader
            .load_csv("W", WireDelimiter::Comma, weights_csv().into_bytes())
            .expect("load W");
        loader.quit().expect("loader quit");
        servers.push(server);
        addrs.push(addr);
    }
    (servers, addrs)
}

#[test]
fn scatter_gather_is_byte_identical_to_in_process() {
    let reference = reference_db();
    for n in [2usize, 3] {
        let (servers, addrs) = spawn_workers(n);
        let mut cluster = Cluster::connect(&addrs).expect("cluster connect");
        assert_eq!(cluster.num_workers(), n);
        // Twice: the second pass hits every worker's shared plan cache.
        for pass in 0..2 {
            for q in QUERIES {
                let expected = expected_bytes(&reference, q);
                let got = cluster.query(q).expect("cluster query");
                assert_eq!(
                    got.raw_bytes(),
                    &expected[..],
                    "{n}-shard answer diverged (pass {pass}): {q}"
                );
            }
        }
        // Every scattered query produced one report per worker, and the
        // per-worker latency histograms saw every scatter.
        assert_eq!(cluster.last_reports().len(), n);
        let scattered = 2 * QUERIES.len() as u64;
        assert_eq!(cluster.metrics().get("cluster_queries"), scattered);
        for k in 0..n {
            let h = cluster
                .metrics()
                .histogram(&format!("shard_exec_ns_worker{k}"))
                .expect("worker histogram")
                .snapshot();
            assert_eq!(h.count, scattered, "worker {k} latency observations");
        }
        cluster.quit().expect("cluster quit");
        for s in servers {
            s.shutdown();
        }
    }
}

#[test]
fn skewed_range_split_shows_up_in_shard_reports() {
    let reference = reference_db();
    let (servers, addrs) = spawn_workers(2);
    let mut cluster = Cluster::connect(&addrs).expect("cluster connect");
    let q = "T(x,y,z) :- G(x,y),G(y,z),G(z,x).";
    let got = cluster.query(q).expect("cluster query");
    assert_eq!(got.raw_bytes(), &expected_bytes(&reference, q)[..]);

    let reports = cluster.last_reports();
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|r| r.sharded), "triangle plan shards");
    let total: u64 = reports.iter().map(|r| r.level0_values).sum();
    assert!(total > 0, "the root level-0 range was partitioned");
    // The contiguous split gives each worker a non-empty range on this
    // graph, and both partials contribute rows (hub triangles land in
    // shard 0's range, core/tail triangles in both).
    assert!(reports.iter().all(|r| r.level0_values > 0), "{reports:?}");
    assert_eq!(
        reports.iter().map(|r| r.worker).collect::<Vec<_>>(),
        vec![0, 1],
        "reports are in shard order"
    );
    cluster.quit().expect("cluster quit");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn non_mergeable_plans_fall_back_to_full_execution() {
    let reference = reference_db();
    let (servers, addrs) = spawn_workers(2);
    let mut cluster = Cluster::connect(&addrs).expect("cluster connect");

    // A non-trivial head expression on top of the aggregate: finalize
    // applies it per shard, so partials cannot ⊕-merge. Every worker
    // answers `sharded = false` with the full result, and the
    // coordinator returns it verbatim.
    let damped = "R(x;y:float) :- G(x,z),W(z); y=0.15+0.85*<<SUM(z)>>.";
    let got = cluster.query(damped).expect("cluster query");
    assert_eq!(
        got.raw_bytes(),
        &expected_bytes(&reference, damped)[..],
        "damped-sum answer diverged"
    );
    assert!(
        cluster.last_reports().iter().all(|r| !r.sharded),
        "head expression must disable sharding: {:?}",
        cluster.last_reports()
    );

    // Multi-rule programs are not shard-mergeable, so they also run
    // full on each worker.
    let program = "H(x,z) :- G(x,y),G(y,z). F(z) :- H('0',z).";
    let got = cluster.query(program).expect("cluster program");
    assert_eq!(
        got.raw_bytes(),
        &expected_bytes(&reference, program)[..],
        "program answer diverged"
    );
    assert!(cluster.last_reports().iter().all(|r| !r.sharded));
    assert_eq!(cluster.metrics().get("cluster_unsharded_queries"), 2);
    cluster.quit().expect("cluster quit");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn broadcast_load_and_options_keep_the_fleet_consistent() {
    let reference = reference_db();
    let (servers, addrs) = spawn_workers(2);
    let mut cluster = Cluster::connect(&addrs).expect("cluster connect");

    // A broadcast load lands on every worker: the next scattered query
    // joins against it and still matches an in-process database that
    // made the same load.
    let extra = "a:u32,b:u32\n0,9\n1,9\n2,9\n9,0\n";
    cluster
        .load_csv("X", WireDelimiter::Comma, extra.as_bytes().to_vec())
        .expect("broadcast load");
    let mut reference2 = reference;
    reference2
        .load_csv_reader("X", std::io::Cursor::new(extra), &CsvOptions::csv())
        .unwrap();
    let q = "XT(x,y) :- G(x,y),X(x,y).";
    let got = cluster.query(q).expect("cluster query");
    assert_eq!(got.raw_bytes(), &expected_bytes(&reference2, q)[..]);

    // Worker-side thread overrides must not change a single byte
    // (morsel-parallel level 0 is bit-deterministic, and the sharded
    // path always runs through the same prologue).
    cluster.set_option("threads", "2").expect("broadcast set");
    for q in QUERIES {
        let got = cluster.query(q).expect("cluster query under threads=2");
        assert_eq!(
            got.raw_bytes(),
            &expected_bytes(&reference2, q)[..],
            "threads=2 changed bytes: {q}"
        );
    }
    assert_eq!(cluster.list_relations().expect("list").len(), 3);
    cluster.quit().expect("cluster quit");
    for s in servers {
        s.shutdown();
    }
}
