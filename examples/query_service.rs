//! The query service end-to-end: start an `eh_server` on a Unix
//! socket, load a string-keyed social network through one client, and
//! hammer it from two concurrent reader sessions — showing typed
//! client-side decoding, shared prepared plans (cache hits),
//! per-session engine overrides, and a traced execution. Every call
//! that runs a query here — `query`, `exec`, `trace_exec` — is the same
//! `Exec` frame with different fields set, answered by the same
//! `Result` frame.
//!
//! Run with: `cargo run --example query_service`

use emptyheaded::server::{EhClient, Server, ServerOptions, WireDelimiter};
use emptyheaded::Database;

const TRIANGLE: &str = "T(x,y,z) :- Follows(x,y),Follows(y,z),Follows(z,x).";
const COUNT: &str = "C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.";

fn main() {
    let sock = std::env::temp_dir().join(format!("eh_query_service_{}.sock", std::process::id()));
    let addr = format!("unix:{}", sock.display());

    // An empty database behind TCP-or-Unix listeners; everything else
    // arrives through clients.
    let server = Server::bind(Database::new(), &[&addr], ServerOptions::default())
        .expect("bind unix socket");
    println!("serving on {addr}");

    // Session 1 loads data (the only write lock in this program).
    let mut loader = EhClient::connect(&addr).expect("connect");
    let csv = "src:str@user,dst:str@user\n\
               alice,bob\nbob,carol\ncarol,alice\ncarol,dave\ndave,alice\n";
    let msg = loader
        .load_csv("Follows", WireDelimiter::Comma, csv.as_bytes().to_vec())
        .expect("load");
    println!("loader: {msg}");

    // Two reader sessions run concurrently under the read lock, sharing
    // one compiled plan through the server's cache.
    let addr2 = addr.clone();
    let reader = std::thread::spawn(move || {
        let mut c = EhClient::connect(&addr2).expect("connect");
        c.set_option("threads", "2").expect("session override");
        let stmt = c.prepare(COUNT).expect("prepare");
        let mut counts = Vec::new();
        for _ in 0..3 {
            counts.push(c.exec(stmt).expect("exec").scalar_u64().unwrap());
        }
        counts
    });

    let mut c = EhClient::connect(&addr).expect("connect");
    let stmt = c.prepare(COUNT).expect("prepare");
    let here = c.exec(stmt).expect("exec").scalar_u64().unwrap();
    let triangles = c.query(TRIANGLE).expect("query");
    println!(
        "triangle rows (decoded client-side): {:?}",
        triangles
            .typed_rows()
            .iter()
            .map(|row| row
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("→"))
            .collect::<Vec<_>>()
    );

    // The same query once more, traced: identical rows, plus the
    // server's span tree tagged with a client-minted trace id.
    let traced = c.trace_exec(TRIANGLE).expect("trace_exec");
    assert_eq!(traced.result.raw_bytes(), triangles.raw_bytes());
    let trace = traced.trace.expect("a single rule runs profiled");
    println!(
        "traced: {} spans, {} values scanned",
        trace.root.span_count(),
        trace.work.values_scanned
    );

    let there = reader.join().expect("reader thread");
    assert!(there.iter().all(|&n| n == here), "all sessions agree");
    println!("triangle count everywhere: {here}");

    let stats = c.stats().expect("stats");
    println!(
        "epoch={} sessions={} queries={} plan cache hits={} misses={}",
        stats.epoch, stats.sessions_total, stats.queries, stats.cache_hits, stats.cache_misses
    );
    assert!(
        stats.cache_hits >= 1,
        "the second session's prepare hits the shared cache"
    );

    loader.quit().expect("quit");
    c.quit().expect("quit");
    server.shutdown();
    println!("server shut down cleanly");
}
