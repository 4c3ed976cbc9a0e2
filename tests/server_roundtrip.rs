//! Differential integration test for the query service: spawn a server
//! on a Unix socket, hammer it from N ≥ 4 concurrent client threads
//! with the paper's triangle/path/anchored queries (plus an f64
//! aggregate), and assert every response is **byte-identical** to
//! direct in-process execution — the server must be a transparent
//! transport around the engine, not a different engine.
//!
//! Also covered: per-session thread-count overrides (morsel scheduling
//! keeps results deterministic), plan-cache hits across sessions and
//! epoch invalidation under concurrent loads, transparent
//! re-preparation of pinned statements after the catalog moves, and
//! client-side typed decoding of string keys.

use emptyheaded::server::{
    batch_from_result, ClientError, EhClient, Server, ServerOptions, WireDelimiter,
};
use emptyheaded::{Config, CsvOptions, Database};
use std::sync::{Arc, Barrier};

const FOLLOWS_CSV: &str = "src:str@user,dst:str@user\n\
    alice,bob\nbob,carol\ncarol,alice\ncarol,dave\ndave,alice\n\
    dave,erin\nerin,carol\nbob,dave\nalice,dave\n";

const SCORE_CSV: &str = "item:str@user,w:f64\n\
    alice,1.5\nbob,0.25\ncarol,2.75\ndave,0.125\nerin,4.5\n";

const EDGES_TSV: &str = "src:u32\tdst:u32\n\
    0\t1\n1\t2\n2\t0\n0\t3\n3\t1\n3\t2\n4\t0\n4\t1\n";

/// The paper-shaped query mix: triangle listing + count, a 2-hop path,
/// an anchored (constant-selection) query, an f64 SUM aggregate over a
/// dictionary-keyed relation, and a triangle over the u32 edge list.
const QUERIES: &[&str] = &[
    "T(x,y,z) :- Follows(x,y),Follows(y,z),Follows(z,x).",
    "C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.",
    "P(x,z) :- Follows(x,y),Follows(y,z).",
    "A(y) :- Follows('alice',y).",
    "S(x;w:float) :- Score(x); w=<<SUM(x)>>.",
    "E3(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).",
    // Repeated head variable: schema inference falls back to positional
    // columns — the batch must stay client-decodable.
    "D(x,x) :- Follows(x,y).",
];

/// A database loaded exactly like the server's (same data, same order,
/// so dictionaries and ids are identical).
fn reference_db() -> Database {
    let mut db = Database::new();
    db.load_csv_reader(
        "Follows",
        std::io::Cursor::new(FOLLOWS_CSV),
        &CsvOptions::csv(),
    )
    .unwrap();
    db.load_csv_reader("Score", std::io::Cursor::new(SCORE_CSV), &CsvOptions::csv())
        .unwrap();
    db.load_csv_reader("Edge", std::io::Cursor::new(EDGES_TSV), &CsvOptions::tsv())
        .unwrap();
    db
}

/// What the server must answer for `query` under `config`: prepared
/// execution (the server's ad-hoc path runs preparable rules through
/// its plan cache), rendered through the same batch encoder.
fn expected_bytes(db: &Database, query: &str, config: &Config) -> Vec<u8> {
    let stmt = db.prepare(query).expect("reference prepare");
    let result = stmt.execute_with(db, config).expect("reference execute");
    batch_from_result(db, &result).encode().expect("encode")
}

fn spawn_loaded_server() -> (Server, String) {
    // Unique per call: the tests in this file run as parallel threads
    // of one process, and two servers must never share a socket path.
    static NEXT_SOCK: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let sock = std::env::temp_dir().join(format!(
        "eh_roundtrip_{}_{}.sock",
        std::process::id(),
        NEXT_SOCK.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let addr = format!("unix:{}", sock.display());
    let server = Server::bind(Database::new(), &[&addr], ServerOptions::default()).expect("bind");
    let mut loader = EhClient::connect(&addr).expect("connect loader");
    loader
        .load_csv("Follows", WireDelimiter::Comma, FOLLOWS_CSV.into())
        .expect("load Follows");
    loader
        .load_csv("Score", WireDelimiter::Comma, SCORE_CSV.into())
        .expect("load Score");
    loader
        .load_csv("Edge", WireDelimiter::Tab, EDGES_TSV.into())
        .expect("load Edge");
    loader.quit().expect("loader quit");
    (server, addr)
}

#[test]
fn n_clients_hammering_are_byte_identical_to_in_process() {
    let (server, addr) = spawn_loaded_server();
    let reference = Arc::new(reference_db());

    // 4 concurrent sessions: two at the server default (serial), two
    // with a per-session threads=2 override (morsel-scheduled level 0,
    // which PR 4 made bit-deterministic — f64 sums included).
    const CLIENTS: usize = 4;
    const REPS: usize = 3;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut workers = Vec::new();
    for worker_id in 0..CLIENTS {
        let addr = addr.clone();
        let reference = Arc::clone(&reference);
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            let threads = if worker_id % 2 == 0 { 1 } else { 2 };
            let config = Config::default().with_threads(threads);
            let mut client = EhClient::connect(&addr).expect("connect");
            if threads != 1 {
                client
                    .set_option("threads", &threads.to_string())
                    .expect("set threads");
            }
            // Pin every query as a prepared statement too, so both
            // `Exec` targets — text and statement — are differentially
            // checked against in-process execution.
            let stmts: Vec<_> = QUERIES
                .iter()
                .map(|q| client.prepare(q).expect("prepare"))
                .collect();
            barrier.wait();
            for _ in 0..REPS {
                for (q, stmt) in QUERIES.iter().zip(&stmts) {
                    let expected = expected_bytes(&reference, q, &config);
                    let adhoc = client.query(q).expect("query");
                    assert_eq!(
                        adhoc.raw_bytes(),
                        &expected[..],
                        "worker {worker_id}: ad-hoc response diverged for {q}"
                    );
                    let prepared = client.exec(*stmt).expect("exec");
                    assert_eq!(
                        prepared.raw_bytes(),
                        &expected[..],
                        "worker {worker_id}: prepared-statement response diverged for {q}"
                    );
                }
            }
            client.quit().expect("quit");
        }));
    }
    for w in workers {
        w.join().expect("worker");
    }

    // Repeated queries across sessions must have amortized through the
    // shared plan cache.
    let mut c = EhClient::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    assert!(
        stats.cache_hits >= (CLIENTS as u64 - 1) * QUERIES.len() as u64,
        "expected shared-cache hits across sessions, got {stats:?}"
    );
    assert_eq!(stats.relations, 3);
    server.shutdown();
}

#[test]
fn typed_rows_decode_client_side() {
    let (server, addr) = spawn_loaded_server();
    let mut client = EhClient::connect(&addr).expect("connect");
    let rs = client
        .query("T(x,y,z) :- Follows(x,y),Follows(y,z),Follows(z,x).")
        .expect("query");
    assert!(!rs.is_empty());
    let rows = rs.typed_rows();
    assert!(
        rows.iter()
            .flatten()
            .all(|v| matches!(v, emptyheaded::TypedValue::Str(_))),
        "string keys must decode from the shipped dictionary, got {rows:?}"
    );
    let mut db = reference_db();
    let in_process = db
        .query("T(x,y,z) :- Follows(x,y),Follows(y,z),Follows(z,x).")
        .unwrap();
    assert_eq!(rows, in_process.typed_rows(&db));

    // The f64 aggregate's annotations are bit-exact.
    let rs = client
        .query("S(x;w:float) :- Score(x); w=<<SUM(x)>>.")
        .expect("query");
    let in_process = db.query("S(x;w:float) :- Score(x); w=<<SUM(x)>>.").unwrap();
    let got: Vec<u64> = rs
        .annotations()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().to_bits())
        .collect();
    let want: Vec<u64> = in_process
        .annotated_rows()
        .iter()
        .map(|(_, v)| v.as_f64().to_bits())
        .collect();
    assert_eq!(got, want);
    server.shutdown();
}

#[test]
fn loads_invalidate_plans_and_pinned_statements_reprepare() {
    let (server, addr) = spawn_loaded_server();
    let mut reader = EhClient::connect(&addr).expect("connect reader");
    let mut writer = EhClient::connect(&addr).expect("connect writer");

    let q = "Z(x,y) :- Edge(x,y).";
    let stmt = reader.prepare(q).expect("prepare");
    let before = reader.exec(stmt).expect("exec");
    let stats_before = reader.stats().expect("stats");

    // A load from another session bumps the catalog epoch.
    writer
        .load_csv("Extra", WireDelimiter::Comma, "k:u32\n1\n2\n3\n".into())
        .expect("load");

    let stats_mid = reader.stats().expect("stats");
    assert!(stats_mid.epoch > stats_before.epoch, "load bumps the epoch");
    assert!(
        stats_mid.cache_invalidations > stats_before.cache_invalidations
            || stats_mid.cache_entries == 0,
        "stale plans were discarded: {stats_mid:?}"
    );

    // The pinned statement still answers — transparently re-prepared,
    // identical bytes (Edge itself is unchanged).
    let after = reader.exec(stmt).expect("exec after epoch bump");
    assert_eq!(before.raw_bytes(), after.raw_bytes());

    // And the new relation is immediately visible to readers.
    let rs = reader.query("K(x) :- Extra(x).").expect("query");
    assert_eq!(rs.num_rows(), 3);
    reader.quit().expect("quit");
    writer.quit().expect("quit");
    server.shutdown();
}

#[test]
fn concurrent_writers_never_corrupt_readers() {
    let (server, addr) = spawn_loaded_server();
    let reference = Arc::new(reference_db());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // A writer session keeps loading fresh relations (each load takes
    // the write lock and bumps the epoch) while readers hammer stable
    // relations — every read must still be byte-identical.
    let waddr = addr.clone();
    let wstop = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut c = EhClient::connect(&waddr).expect("connect writer");
        let mut i = 0u32;
        while !wstop.load(std::sync::atomic::Ordering::Relaxed) {
            c.load_csv(
                &format!("Churn{}", i % 4),
                WireDelimiter::Comma,
                format!("k:u32\n{i}\n").into_bytes(),
            )
            .expect("churn load");
            i += 1;
        }
        c.quit().expect("quit");
    });

    let mut readers = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let reference = Arc::clone(&reference);
        readers.push(std::thread::spawn(move || {
            let config = Config::default();
            let mut c = EhClient::connect(&addr).expect("connect reader");
            for _ in 0..10 {
                for q in &QUERIES[..4] {
                    let expected = expected_bytes(&reference, q, &config);
                    let got = c.query(q).expect("query under churn");
                    assert_eq!(got.raw_bytes(), &expected[..], "diverged under churn: {q}");
                }
            }
            c.quit().expect("quit");
        }));
    }
    for r in readers {
        r.join().expect("reader");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().expect("writer");
    server.shutdown();
}

/// The plan cache keys on a query's shape, never on its constants'
/// values: two anchored queries differing only in whitespace inside a
/// quoted string constant share one plan, and each binds its own
/// constant and gets its own answer.
#[test]
fn string_constants_differing_only_in_quoted_whitespace_stay_distinct() {
    let (server, addr) = spawn_loaded_server();
    let mut client = EhClient::connect(&addr).expect("connect");
    client
        .load_csv(
            "Pairs",
            WireDelimiter::Comma,
            "src:str@pair,dst:str@pair\na b,x\na  b,y\na  b,z\n".into(),
        )
        .expect("load Pairs");
    for _ in 0..2 {
        let one = client.query("A(y) :- Pairs('a b',y).").expect("query");
        let two = client.query("A(y) :- Pairs('a  b',y).").expect("query");
        assert_eq!(one.num_rows(), 1, "'a b' anchors exactly one pair");
        assert_eq!(two.num_rows(), 2, "'a  b' anchors two pairs");
    }
    // Both texts are cacheable; the second pass must have hit for each.
    let stats = client.stats().expect("stats");
    assert!(stats.cache_hits >= 2, "second pass should hit: {stats:?}");
    client.quit().expect("quit");
    server.shutdown();
}

/// `SaveImage` is rejected without a configured image directory, and
/// with one it only ever writes relative paths resolved inside it.
#[test]
fn save_image_is_gated_by_the_server_image_dir() {
    let (server, addr) = spawn_loaded_server();
    let mut client = EhClient::connect(&addr).expect("connect");
    match client.save_image("anywhere.ehdb") {
        Err(ClientError::Server(m)) => assert!(m.contains("disabled"), "{m}"),
        other => panic!("default server must refuse SaveImage, got {other:?}"),
    }
    client.quit().expect("quit");
    server.shutdown();

    let dir = std::env::temp_dir().join(format!("eh_images_{}", std::process::id()));
    let sock = std::env::temp_dir().join(format!("eh_imgsrv_{}.sock", std::process::id()));
    let addr = format!("unix:{}", sock.display());
    let server = Server::bind(
        reference_db(),
        &[&addr],
        ServerOptions {
            image_dir: Some(dir.clone()),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut client = EhClient::connect(&addr).expect("connect");
    for escaping in ["/tmp/evil.ehdb", "../evil.ehdb", "a/../../evil", "."] {
        assert!(
            matches!(client.save_image(escaping), Err(ClientError::Server(_))),
            "'{escaping}' must not escape the image directory"
        );
    }
    client.save_image("nightly/social.ehdb").expect("save");
    client.quit().expect("quit");
    server.shutdown();
    // The image landed inside the directory and reopens to the same
    // answers as the reference database.
    let saved = dir.join("nightly/social.ehdb");
    let mut reopened = Database::open(&saved).expect("reopen image");
    let mut reference = reference_db();
    let q = "C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.";
    let a = reopened.query(q).unwrap();
    let b = reference.query(q).unwrap();
    assert_eq!(
        batch_from_result(&reopened, &a).encode().unwrap(),
        batch_from_result(&reference, &b).encode().unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Stats: the per-frame latency histograms and
/// plan-cache counters must be internally consistent (bucket counts sum
/// to the frame count) and monotone — across snapshots taken by
/// concurrent clients, counters only ever grow.
#[test]
fn extended_stats_are_monotone_and_consistent_across_clients() {
    let (server, addr) = spawn_loaded_server();
    const CLIENTS: usize = 4;
    const REPS: usize = 5;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut workers = Vec::new();
    for worker_id in 0..CLIENTS {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            let mut client = EhClient::connect(&addr).expect("connect");
            barrier.wait();
            let frame_count = |s: &emptyheaded::server::ServerStats, name: &str| -> u64 {
                s.ext
                    .as_ref()
                    .expect("stats carry the extension")
                    .frames
                    .iter()
                    .find(|f| f.name == name)
                    .map(|f| f.count)
                    .unwrap_or(0)
            };
            let before = client.stats().expect("stats");
            let q = "C(;w:long) :- Follows(x,y),Follows(y,z),Follows(z,x); w=<<COUNT(*)>>.";
            for _ in 0..REPS {
                client.query(q).expect("query");
            }
            let after = client.stats().expect("stats");

            // Monotone: every counter this session can see only grows,
            // and its own REPS queries are visible in the query frame
            // histogram (other sessions can only add more).
            assert!(after.queries >= before.queries + REPS as u64);
            assert!(
                frame_count(&after, "query") >= frame_count(&before, "query") + REPS as u64,
                "worker {worker_id}: query frame count must grow by at least {REPS}"
            );
            let (eb, ea) = (before.ext.as_ref().unwrap(), after.ext.as_ref().unwrap());
            assert!(ea.bytes_in > eb.bytes_in, "requests were counted in");
            assert!(ea.bytes_out > eb.bytes_out, "responses were counted out");
            assert!(after.cache_hits >= before.cache_hits, "hits are monotone");
            assert!(
                after.cache_hits + after.cache_misses >= before.cache_hits + before.cache_misses,
                "total cache traffic is monotone"
            );

            // Consistent: each frame histogram's sparse buckets sum to
            // its count, and the rehydrated snapshot agrees.
            for f in &ea.frames {
                let bucket_total: u64 = f.buckets.iter().map(|&(_, c)| c).sum();
                assert_eq!(
                    bucket_total, f.count,
                    "frame {}: buckets sum to count",
                    f.name
                );
                let h = f.histogram();
                assert_eq!(h.count, f.count);
                assert_eq!(h.sum, f.total_ns);
                if f.count > 0 {
                    assert!(h.mean() > 0.0, "frame {}: dispatch took time", f.name);
                }
            }
            client.quit().expect("quit");
        }));
    }
    for w in workers {
        w.join().expect("worker");
    }
    server.shutdown();
}

/// Only the current protocol version is served: a version-1 or
/// version-2 `Hello` gets a clean version-mismatch `Error` frame and a
/// closed stream — never a half-compatible session.
#[test]
fn old_protocol_versions_are_refused_cleanly() {
    use emptyheaded::server::protocol::{read_response, write_request, Request, Response};
    use emptyheaded::server::PROTOCOL_VERSION;
    use std::io::Read;
    let (server, addr) = spawn_loaded_server();
    let path = addr.strip_prefix("unix:").expect("unix addr");
    for old in [1u32, 2] {
        assert!(old < PROTOCOL_VERSION);
        let mut stream = std::os::unix::net::UnixStream::connect(path).expect("raw connect");
        write_request(&mut stream, &Request::Hello { version: old }).expect("hello");
        match read_response(&mut stream).expect("hello reply") {
            Response::Error { message } => {
                assert!(message.contains("protocol version mismatch"), "{message}");
                assert!(message.contains(&format!("client {old}")), "{message}");
            }
            other => panic!("v{old} Hello must be refused, got {other:?}"),
        }
        // The server hung up: the next read is a clean EOF.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).expect("eof"), 0);
    }
    // A current client on the same server is unaffected.
    let mut modern = EhClient::connect(&addr).expect("connect");
    assert!(modern
        .server_banner()
        .ends_with(&format!("protocol {PROTOCOL_VERSION}")));
    assert!(modern.stats().expect("stats").ext.is_some());
    modern.quit().expect("quit");
    server.shutdown();
}

/// The degenerate cluster: an `Exec` over shard `0/1` must be exactly
/// the full query — same bytes as the unsharded `Exec` on the same session,
/// with the shard telemetry (sharded flag, level-0 count, elapsed time)
/// filled in. This pins the `n = 1` edge of the range split
/// `[len·k/n, len·(k+1)/n)` that the coordinator relies on.
#[test]
fn one_shard_exec_equals_the_full_query() {
    let (server, addr) = spawn_loaded_server();
    let mut client = EhClient::connect(&addr).expect("connect");
    for q in QUERIES {
        let full = client.query(q).expect("full query");
        let outcome = client.shard_exec(q, 0, 1, None).expect("shard exec");
        assert_eq!(
            outcome.result.raw_bytes(),
            full.raw_bytes(),
            "1-shard execution diverged: {q}"
        );
    }
    // A splittable plan over one shard owns the whole level-0 range.
    let outcome = client
        .shard_exec(QUERIES[0], 0, 1, None)
        .expect("triangle shard exec");
    assert!(outcome.sharded, "triangle plan shards");
    assert!(outcome.level0_values > 0, "whole range owned by shard 0");
    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn tcp_transport_answers_identically() {
    let (server, addr) = spawn_loaded_server();
    // Re-serve the same data over TCP by pointing a second server at a
    // freshly loaded database (ephemeral port).
    let tcp_server =
        Server::bind(reference_db(), &["127.0.0.1:0"], ServerOptions::default()).expect("bind tcp");
    let tcp_addr = tcp_server.tcp_addr().expect("tcp addr").to_string();

    let mut over_unix = EhClient::connect(&addr).expect("unix client");
    let mut over_tcp = EhClient::connect(&tcp_addr).expect("tcp client");
    for q in QUERIES {
        let a = over_unix.query(q).expect("unix query");
        let b = over_tcp.query(q).expect("tcp query");
        assert_eq!(a.raw_bytes(), b.raw_bytes(), "transport changed {q}");
    }
    server.shutdown();
    tcp_server.shutdown();
}

/// `threads` is bounded: a count past the cap gets an `Error` frame that
/// names the range and leaves the session's setting alone, so the same
/// connection goes on answering queries. Every query spawns that many
/// workers, and a count the OS cannot provide panics the session thread.
#[test]
fn an_out_of_range_thread_count_is_refused_and_the_session_still_answers() {
    let (server, addr) = spawn_loaded_server();
    let reference = reference_db();
    let mut client = EhClient::connect(&addr).expect("connect");
    match client.set_option("threads", "200000") {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("0 (auto) to 256"), "{message}")
        }
        other => panic!("threads 200000 must be refused, got {other:?}"),
    }
    let query = QUERIES[0];
    let answer = client.query(query).expect("query after the refusal");
    assert_eq!(
        answer.raw_bytes(),
        expected_bytes(&reference, query, &Config::default())
    );
    client
        .set_option("threads", "256")
        .expect("the cap itself is allowed");
    let answer = client.query(query).expect("query at the cap");
    assert_eq!(
        answer.raw_bytes(),
        expected_bytes(&reference, query, &Config::default().with_threads(256))
    );
    client.quit().expect("quit");
    server.shutdown();
}
