//! `eh_shell` — the interactive front door.
//!
//! One binary, four modes:
//!
//! * **embedded** (default): an in-process [`Shared`] state driven
//!   through a `Session` — the same request handler a socket session
//!   runs, with no socket.
//! * **remote** (`--connect ADDR`): every statement goes over the wire
//!   to a running `eh_server`.
//! * **cluster** (`--cluster ADDR`, repeatable): a scatter-gather
//!   coordinator over N shard workers — queries partition the root
//!   node's level-0 range across the workers and merge the partials
//!   deterministically ([`crate::cluster`]); `\cluster` shows topology,
//!   per-worker latency, and the last query's estimated-vs-observed
//!   shard skew.
//! * **server** (`--serve ADDR`): binds the listener(s) and serves
//!   until killed.
//!
//! Statements are `.`-terminated queries or backslash commands
//! (`\l file [name]`, `\d`, `\timing`, `\prepare name query`,
//! `\exec name`, `\explain query`, `\trace query`, `\slow [n]`,
//! `\set key value`, `\stats`, `\save path`, `\q`),
//! separated by `;` or newlines; a query's own `;`/`(;w:long)`
//! punctuation is kept intact because a query statement only ends at
//! its final `.`. A multi-rule program is one statement as long as it
//! stays on one line (rules separated by spaces after the `.`); a
//! newline after a `.` ends the statement. Non-interactive driving
//! (`-c 'stmts'` or piped stdin) prints exactly what the interactive
//! loop prints, so CI can diff embedded output against remote output.
//! All three client modes are one `Shell::call` — a [`Request`] in, a
//! [`Response`] out — so every command renders the same response the
//! same way whichever mode produced it.

use crate::client::{expect_result, expect_stats, ClientError, EhClient, ExecOutcome};
use crate::cluster::{Cluster, ShardReport};
use crate::protocol::{ExecTarget, Request, Response, ServerStats, WireDelimiter};
use crate::server::{Server, ServerOptions, Shared};
use crate::session::Session;
use eh_core::{Database, TraceId};
use eh_obs::prometheus_line;
use eh_semiring::DynValue;
use eh_storage::wire::ResultBatch;
use std::collections::HashMap;
use std::io::{BufRead, IsTerminal, Write};
use std::time::Instant;

const HELP: &str = "\
eh_shell — EmptyHeaded interactive shell

USAGE:
  eh_shell [OPTIONS]                 embedded REPL (in-process database)
  eh_shell --connect ADDR [OPTIONS]  drive a running eh_server
  eh_shell --cluster A1 --cluster A2 ...  coordinate shard workers
  eh_shell --serve ADDR [--serve ADDR2 ...]  run the server

OPTIONS:
  --connect ADDR   connect to a server (unix:/path | tcp:host:port | host:port)
  --cluster ADDR   add a shard worker (repeatable); queries scatter across
                   all workers and gather to one deterministic answer
  --serve ADDR     bind and serve (repeatable; unix:/path and/or host:port)
  --db PATH        open this database image on startup (embedded/serve)
  --image-dir DIR  let clients \\save images (relative paths) under DIR
                   (server mode; without it remote \\save is rejected)
  -c 'STMTS'       run statements non-interactively, then exit
  --threads N      engine worker threads (0 = auto)
  --json           \\metrics prints a Prometheus-style text exposition
  --help           this text

STATEMENTS (separated by ';' or newline):
  Rule(x,y) :- Edge(x,y).        run a query (read-only)
  A(x) :- E(x,y). B(y) :- A(y).  multi-rule program: keep it on ONE line
                                 (later rules see earlier heads; compiled,
                                 cached and traced whole, recursion too)
  \\l FILE [NAME]                 load a CSV/TSV (header line drives types)
  \\d                             list relations
  \\prepare NAME QUERY            compile once through the plan cache
  \\exec NAME                     run a prepared statement
  \\explain QUERY                 show the compiled plan (embedded: order, cost,
                                 loops; remote: profiled span tree; cluster:
                                 estimated-vs-observed shard skew)
  \\trace QUERY                   run profiled and print the span tree
                                 (cluster: one stitched trace, per-worker lanes)
  \\slow [N]                      recent slow-query log entries (default 10;
                                 threshold via \\set slow_ms MS)
  \\set KEY VALUE                 threads | scheduler | slow_ms
  \\timing                        toggle per-statement timing
  \\stats                         server / plan-cache statistics
  \\metrics [--json]              frame latency / byte-count metrics
                                 (--json: Prometheus-style exposition)
  \\save PATH                     save a database image
  \\cluster                       cluster topology, per-worker latency,
                                 last-query shard skew (cluster mode)
  \\q                             quit
";

/// Parsed command line.
struct Opts {
    connect: Option<String>,
    cluster: Vec<String>,
    serve: Vec<String>,
    db_image: Option<String>,
    image_dir: Option<String>,
    commands: Option<String>,
    threads: Option<usize>,
    json: bool,
}

fn parse_opts(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        connect: None,
        cluster: Vec::new(),
        serve: Vec::new(),
        db_image: None,
        image_dir: None,
        commands: None,
        threads: None,
        json: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--connect" => opts.connect = Some(value(&mut i, "--connect")?),
            "--cluster" => opts.cluster.push(value(&mut i, "--cluster")?),
            "--serve" => opts.serve.push(value(&mut i, "--serve")?),
            "--db" => opts.db_image = Some(value(&mut i, "--db")?),
            "--image-dir" => opts.image_dir = Some(value(&mut i, "--image-dir")?),
            "-c" => opts.commands = Some(value(&mut i, "-c")?),
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                opts.threads = Some(v.parse().map_err(|_| format!("bad thread count '{v}'"))?);
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    if opts.connect.is_some() && !opts.serve.is_empty() {
        return Err("--connect and --serve are mutually exclusive".into());
    }
    if !opts.cluster.is_empty() && (opts.connect.is_some() || !opts.serve.is_empty()) {
        return Err("--cluster is exclusive with --connect and --serve".into());
    }
    if opts.image_dir.is_some() && opts.serve.is_empty() {
        return Err("--image-dir only applies to server mode (--serve)".into());
    }
    Ok(Some(opts))
}

/// Split input into statements. A statement is complete at a `;` or
/// newline boundary once it either is a backslash command (except
/// `\prepare`, `\trace` and `\explain`, which carry a query) or ends
/// with `.` — so the `;` inside `C(;w:long) :- ...; w=<<COUNT(*)>>.`
/// never splits a query. Returns complete statements plus the unfinished
/// remainder.
fn split_partial(input: &str) -> (Vec<String>, String) {
    let mut out = Vec::new();
    let mut acc = String::new();
    for ch in input.chars() {
        if ch == ';' || ch == '\n' {
            let t = acc.trim();
            let is_meta = t.starts_with('\\');
            let wants_query = ["\\prepare", "\\trace", "\\explain"]
                .iter()
                .any(|m| t.starts_with(m));
            let complete = if wants_query || !is_meta {
                t.ends_with('.')
            } else {
                !t.is_empty()
            };
            if complete {
                out.push(t.to_string());
                acc.clear();
            } else if ch == ';' {
                acc.push(';');
            } else {
                acc.push(' ');
            }
        } else {
            acc.push(ch);
        }
    }
    (out, acc)
}

/// [`split_partial`] with the trailing remainder flushed as a final
/// statement (end of input ends the last statement).
fn split_statements(input: &str) -> Vec<String> {
    let (mut stmts, rest) = split_partial(input);
    let rest = rest.trim();
    if !rest.is_empty() {
        stmts.push(rest.to_string());
    }
    stmts
}

/// Render a failure as the engine's own message: an `Error` frame
/// already carries it, so strip the client wrapper's "server error: "
/// prefix.
fn remote_err(e: ClientError) -> String {
    match e {
        ClientError::Server(m) => m,
        other => other.to_string(),
    }
}

fn fmt_dyn(v: &DynValue) -> String {
    match v {
        DynValue::U64(x) => x.to_string(),
        DynValue::F64(x) => x.to_string(),
    }
}

/// Render a result batch.
fn render_batch(batch: &ResultBatch) -> String {
    let mut out = String::new();
    out.push_str(&batch.schema.to_string());
    out.push('\n');
    if batch.tuples.arity() == 0 {
        if let Some(v) = batch.scalar() {
            out.push_str(&format!("{}\n(scalar)\n", fmt_dyn(&v)));
            return out;
        }
        out.push_str("(empty)\n");
        return out;
    }
    let rows = batch.typed_rows();
    let annots = batch.annotations();
    for (i, row) in rows.iter().enumerate() {
        let mut line = row
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\t");
        if let Some(a) = annots {
            line.push('\t');
            line.push_str(&fmt_dyn(&a[i]));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("({} rows)\n", rows.len()));
    out
}

/// Where requests go. Commands never look inside: they build a
/// [`Request`], `Shell::call` it, and render the [`Response`].
enum Backend {
    /// In-process: the session a socket connection would get, handed
    /// requests directly.
    Embedded {
        shared: Box<Shared>,
        session: Session,
    },
    Remote(EhClient),
    Cluster(Cluster),
}

impl Backend {
    fn embedded(db: Database) -> Backend {
        let shared = Box::new(Shared::new(db, 64));
        let session = Session::new(&shared);
        Backend::Embedded { shared, session }
    }
}

/// The shell: a backend plus the statement names `\prepare` bound.
struct Shell {
    backend: Backend,
    statements: HashMap<String, u64>,
}

/// What the shell prints for a response: each frame kind has exactly
/// one rendering, whichever mode answered and whichever command asked.
fn render(resp: Response) -> Result<String, String> {
    Ok(match resp {
        Response::Error { message } => return Err(message),
        Response::Ok { message } => format!("{message}\n"),
        Response::Hello { server, .. } => format!("{server}\n"),
        Response::Result { .. } => {
            let outcome = expect_result(resp).map_err(remote_err)?;
            render_batch(outcome.result.batch())
        }
        Response::Relations { entries } if entries.is_empty() => "(no relations)\n".into(),
        Response::Relations { entries } => entries
            .iter()
            .map(|e| format!("{}\trows={}\t{}\n", e.name, e.rows, e.schema))
            .collect(),
        Response::SlowLog { entries } if entries.is_empty() => "(no slow queries)\n".into(),
        Response::SlowLog { entries } => entries.iter().map(|e| e.render() + "\n").collect(),
        Response::Stats(s) => render_counters(&s),
        Response::Prepared {
            cache_hit: true, ..
        } => "(plan cache hit)\n".into(),
        Response::Prepared { .. } => "(compiled)\n".into(),
    })
}

impl Shell {
    fn new(backend: Backend) -> Shell {
        Shell {
            backend,
            statements: HashMap::new(),
        }
    }

    /// One request, one response, whichever mode.
    fn call(&mut self, req: Request) -> Result<Response, String> {
        match &mut self.backend {
            Backend::Embedded { shared, session } => Ok(session.handle(shared, req)),
            Backend::Remote(client) => client.round_trip(&req).map_err(remote_err),
            Backend::Cluster(cluster) => cluster.round_trip(&req).map_err(remote_err),
        }
    }

    /// Send a request and print its answer.
    fn send(&mut self, req: Request) -> Result<String, String> {
        render(self.call(req)?)
    }

    /// `\prepare NAME QUERY`: pin the statement, remember its id.
    fn prepare(&mut self, name: &str, text: &str) -> Result<String, String> {
        let resp = self.call(Request::Prepare { text: text.into() })?;
        if let Response::Prepared { id, .. } = resp {
            self.statements.insert(name.to_string(), id);
        }
        Ok(format!("prepared {name} {}", render(resp)?))
    }

    /// The `Exec` request that runs statement `name`.
    fn exec_prepared(&self, name: &str) -> Result<Request, String> {
        let id = self.statements.get(name);
        let id = id.ok_or_else(|| format!("no prepared statement '{name}'"))?;
        Ok(exec(ExecTarget::Stmt(*id), None))
    }

    /// Run `query` traced and decode the answer.
    fn traced(&mut self, query: &str) -> Result<ExecOutcome, String> {
        let id = TraceId::mint().as_u64();
        let resp = self.call(exec(ExecTarget::Text(query.into()), Some(id)))?;
        expect_result(resp).map_err(remote_err)
    }

    /// `\explain QUERY`. The compiled plan's text exists only where the
    /// planner runs, so only the embedded shell prints the loop nest;
    /// over a wire, explain is what a traced execution observed — a
    /// single server's span tree, or (when the trace has per-worker
    /// lanes) how the level-0 range split (estimated share) against
    /// where the time actually went (observed share).
    fn explain(&mut self, query: &str) -> Result<String, String> {
        if let Backend::Embedded { shared, session } = &self.backend {
            let db = shared.db.read();
            return db
                .explain_with(query, session.config())
                .map_err(|e| e.to_string());
        }
        let outcome = self.traced(query)?;
        let rows = outcome.result.num_rows();
        let trace = outcome
            .trace
            .ok_or("a traced query came back without its trace")?;
        let shards = ShardReport::from_trace(&trace.root);
        Ok(if shards.is_empty() {
            format!("profiled remotely ({rows} rows):\n{}", trace.root.render())
        } else {
            format!(
                "distributed execution over {} shard(s), {rows} result row(s)\n{}",
                shards.len(),
                render_skew(&shards)
            )
        })
    }

    /// `\trace QUERY`: run profiled and print the span tree. A cluster
    /// answers with the stitched trace — one `worker k` lane per shard,
    /// each holding that worker's span tree.
    fn trace(&mut self, query: &str) -> Result<String, String> {
        let outcome = self.traced(query)?;
        let rows = outcome.result.num_rows();
        let trace = outcome
            .trace
            .ok_or("a traced query came back without its trace")?;
        Ok(format!("{}({rows} rows)\n", trace.render()))
    }

    /// `\metrics`: the `Stats` frame again, in full — counters plus the
    /// per-frame latency table, or a Prometheus-style exposition.
    fn metrics(&mut self, json: bool) -> Result<String, String> {
        let stats = expect_stats(self.call(Request::Stats)?).map_err(remote_err)?;
        Ok(if json {
            render_metrics_prometheus(&stats)
        } else {
            render_metrics_text(&stats)
        })
    }

    /// `\cluster`: topology, coordinator counters, per-worker latency,
    /// and the last scattered query's shard-skew table.
    fn cluster_status(&mut self) -> Result<String, String> {
        let Backend::Cluster(cluster) = &self.backend else {
            return Err("\\cluster needs cluster mode (--cluster ADDR ...)".into());
        };
        let mut out = format!(
            "cluster: {} worker(s), {} scattered quer{}, {} unsharded\n",
            cluster.num_workers(),
            cluster.metrics().get("cluster_queries"),
            if cluster.metrics().get("cluster_queries") == 1 {
                "y"
            } else {
                "ies"
            },
            cluster.metrics().get("cluster_unsharded_queries"),
        );
        out.push_str("worker  addr                          count    mean_ms     p95_ms\n");
        for (k, addr) in cluster.addrs().iter().enumerate() {
            let name = format!("shard_exec_ns_worker{k}");
            let h = cluster
                .metrics()
                .histogram(&name)
                .map(|h| h.snapshot())
                .unwrap_or_default();
            out.push_str(&format!(
                "{k:>6}  {addr:<28}  {:>5} {:>10.3} {:>10.3}\n",
                h.count,
                h.mean() / 1e6,
                h.percentile(0.95) as f64 / 1e6,
            ));
        }
        out.push_str("last query shard skew:\n");
        out.push_str(&render_skew(cluster.last_reports()));
        Ok(out)
    }

    /// `\save PATH`. The embedded shell owns its database, so it writes
    /// the image to any local path; over a wire the path is resolved by
    /// the server under its image directory.
    fn save(&mut self, path: &str) -> Result<String, String> {
        if let Backend::Embedded { shared, .. } = &self.backend {
            shared.db.read().save(path).map_err(|e| e.to_string())?;
            return Ok(format!("saved image to {path}\n"));
        }
        self.send(Request::SaveImage { path: path.into() })
    }
}

/// An unsharded `Exec` request.
fn exec(target: ExecTarget, trace: Option<u64>) -> Request {
    Request::Exec {
        target,
        shard: None,
        trace,
    }
}

/// The estimated-vs-observed shard-skew table: the coordinator's range
/// split predicts each worker's share by level-0 value count; the
/// per-shard server-side latency shows where the time actually went.
fn render_skew(reports: &[ShardReport]) -> String {
    if reports.is_empty() {
        return "(no scattered query yet)\n".into();
    }
    let total_vals: u64 = reports.iter().map(|r| r.level0_values).sum();
    let total_ns: u64 = reports.iter().map(|r| r.elapsed_ns).sum();
    let pct = |part: u64, total: u64| 100.0 * part as f64 / total.max(1) as f64;
    let mut out = String::from("shard  level0   est%       ms   obs%    rows\n");
    for r in reports {
        out.push_str(&format!(
            "{:>5}  {:>6}  {:>5.1} {:>8.3}  {:>5.1}  {:>6}{}\n",
            r.worker,
            r.level0_values,
            pct(r.level0_values, total_vals),
            r.elapsed_ns as f64 / 1e6,
            pct(r.elapsed_ns, total_ns),
            r.rows,
            if r.sharded {
                ""
            } else {
                "  (full: plan not mergeable)"
            },
        ));
    }
    out
}

/// The `\stats` lines: server counters, then the plan cache's.
fn render_counters(s: &ServerStats) -> String {
    format!(
        "epoch={} relations={} sessions={}/{} queries={} exec_prepared={}\n\
         plan_cache hits={} misses={} invalidations={} entries={}/{}\n",
        s.epoch,
        s.relations,
        s.sessions_active,
        s.sessions_total,
        s.queries,
        s.exec_prepared,
        s.cache_hits,
        s.cache_misses,
        s.cache_invalidations,
        s.cache_entries,
        s.cache_capacity,
    )
}

/// Human-readable `\metrics` rendering: the counter lines plus a
/// per-frame latency table (count, mean, coarse p95).
fn render_metrics_text(s: &ServerStats) -> String {
    let mut out = render_counters(s);
    let Some(ext) = &s.ext else {
        return out;
    };
    out.push_str(&format!(
        "bytes in={} out={}\n",
        ext.bytes_in, ext.bytes_out
    ));
    out.push_str("frame            count    mean_us     p95_us\n");
    for f in &ext.frames {
        if f.count == 0 {
            continue;
        }
        let h = f.histogram();
        out.push_str(&format!(
            "{:<16} {:>5} {:>10.1} {:>10}\n",
            f.name,
            f.count,
            h.mean() / 1e3,
            h.percentile(0.95) / 1000,
        ));
    }
    out
}

/// Prometheus-style text exposition of the same stats (`--json` mode):
/// one `name{label} value` line per metric, histogram buckets with
/// nanosecond `le` upper edges.
fn render_metrics_prometheus(s: &ServerStats) -> String {
    let mut out = String::new();
    for (name, v) in [
        ("epoch", s.epoch),
        ("relations", s.relations),
        ("sessions_total", s.sessions_total),
        ("sessions_active", s.sessions_active),
        ("queries_total", s.queries),
        ("exec_prepared_total", s.exec_prepared),
        ("plan_cache_hits", s.cache_hits),
        ("plan_cache_misses", s.cache_misses),
        ("plan_cache_invalidations", s.cache_invalidations),
        ("plan_cache_entries", s.cache_entries),
        ("plan_cache_capacity", s.cache_capacity),
    ] {
        prometheus_line(&mut out, "eh_", name, v);
    }
    if let Some(ext) = &s.ext {
        prometheus_line(&mut out, "eh_", "bytes_in_total", ext.bytes_in);
        prometheus_line(&mut out, "eh_", "bytes_out_total", ext.bytes_out);
        for f in &ext.frames {
            let label = format!("{{frame=\"{}\"}}", f.name);
            prometheus_line(&mut out, "eh_", &format!("frame_ns_count{label}"), f.count);
            prometheus_line(&mut out, "eh_", &format!("frame_ns_sum{label}"), f.total_ns);
            for &(b, c) in &f.buckets {
                let le = eh_obs::bucket_upper(b as usize);
                prometheus_line(
                    &mut out,
                    "eh_",
                    &format!("frame_ns_bucket{{frame=\"{}\",le=\"{le}\"}}", f.name),
                    c,
                );
            }
        }
    }
    out
}

/// Default relation name for `\l file`: the file stem with
/// non-identifier characters replaced.
fn relation_name_for(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("R");
    let mut name: String = stem
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        name.insert(0, 'R');
    }
    name
}

/// Outcome of one statement.
enum StmtOutcome {
    Output(String),
    Error(String),
    Quit,
}

fn run_statement(shell: &mut Shell, stmt: &str, json: bool) -> StmtOutcome {
    let result = if let Some(rest) = stmt.strip_prefix('\\') {
        let mut parts = rest.splitn(2, char::is_whitespace);
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        // A command's argument, or the complaint that it is missing.
        let need = |what: &str| match arg {
            "" => Err(format!("\\{cmd} needs {what}")),
            arg => Ok(arg),
        };
        match cmd {
            "q" | "quit" => return StmtOutcome::Quit,
            "help" | "?" => Ok(HELP.to_string()),
            "d" => shell.send(Request::ListRelations),
            "timing" => Err("\\timing takes no arguments".into()),
            "stats" => shell.send(Request::Stats),
            "cluster" => shell.cluster_status(),
            "metrics" => match arg {
                "" => shell.metrics(json),
                "--json" => shell.metrics(true),
                other => Err(format!(
                    "\\metrics takes no argument but --json, got '{other}'"
                )),
            },
            "l" | "load" => need("a file path").and_then(|arg| {
                let mut words = arg.split_whitespace();
                let path = words.next().unwrap_or(arg);
                shell.send(Request::LoadCsv {
                    relation: words
                        .next()
                        .map(str::to_string)
                        .unwrap_or_else(|| relation_name_for(path)),
                    delimiter: WireDelimiter::for_path(std::path::Path::new(path)),
                    data: std::fs::read(path).map_err(|e| format!("io error: {e}"))?,
                })
            }),
            "prepare" => {
                let mut words = arg.splitn(2, char::is_whitespace);
                match (words.next(), words.next()) {
                    (Some(name), Some(query)) if !query.trim().is_empty() => {
                        shell.prepare(name, query.trim())
                    }
                    _ => Err("\\prepare needs NAME QUERY".into()),
                }
            }
            "exec" => need("a statement name")
                .and_then(|name| shell.exec_prepared(name))
                .and_then(|req| shell.send(req)),
            "explain" => need("a query").and_then(|q| shell.explain(q)),
            "trace" => need("a query").and_then(|q| shell.trace(q)),
            "slow" => match arg.parse::<u32>() {
                Ok(limit) => shell.send(Request::SlowLog { limit }),
                Err(_) if arg.is_empty() => shell.send(Request::SlowLog { limit: 10 }),
                Err(_) => Err(format!("\\slow takes an entry count, got '{arg}'")),
            },
            "set" => {
                let mut words = arg.split_whitespace();
                match (words.next(), words.next()) {
                    (Some(key), Some(value)) => shell.send(Request::SetOption {
                        key: key.into(),
                        value: value.into(),
                    }),
                    _ => Err("\\set needs KEY VALUE".into()),
                }
            }
            "save" => need("a path").and_then(|path| shell.save(path)),
            other => Err(format!("unknown command \\{other} (try \\help)")),
        }
    } else {
        shell.send(exec(ExecTarget::Text(stmt.into()), None))
    };
    match result {
        Ok(out) => StmtOutcome::Output(out),
        Err(e) => StmtOutcome::Error(e),
    }
}

/// Entry point shared by the `eh_shell` binary.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("eh_shell: {e}");
            2
        }
    });
}

fn open_database(opts: &Opts) -> Result<Database, String> {
    let mut db = match &opts.db_image {
        Some(path) => Database::open(path).map_err(|e| e.to_string())?,
        None => Database::new(),
    };
    if let Some(n) = opts.threads {
        let cfg = db.config().with_threads(n);
        *db.config_mut() = cfg;
    }
    Ok(db)
}

fn run(args: &[String]) -> Result<i32, String> {
    let Some(opts) = parse_opts(args)? else {
        print!("{HELP}");
        return Ok(0);
    };

    // Server mode: bind, announce, serve until killed.
    if !opts.serve.is_empty() {
        let db = open_database(&opts)?;
        let addrs: Vec<&str> = opts.serve.iter().map(String::as_str).collect();
        let options = ServerOptions {
            image_dir: opts.image_dir.as_ref().map(Into::into),
            ..ServerOptions::default()
        };
        let server = Server::bind(db, &addrs, options).map_err(|e| e.to_string())?;
        for a in server.bound_addrs() {
            println!("eh_server listening on {a}");
        }
        std::io::stdout().flush().ok();
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    let mut shell = Shell::new(if !opts.cluster.is_empty() {
        Backend::Cluster(Cluster::connect(&opts.cluster).map_err(|e| e.to_string())?)
    } else {
        match &opts.connect {
            Some(addr) => Backend::Remote(EhClient::connect(addr).map_err(|e| e.to_string())?),
            None => Backend::embedded(open_database(&opts)?),
        }
    });

    let mut timing = false;
    let mut had_error = false;
    let stdout = std::io::stdout();
    let emit = |outcome: StmtOutcome, timing: bool, elapsed_ms: f64| -> bool {
        let mut out = stdout.lock();
        match outcome {
            StmtOutcome::Output(s) => {
                let _ = out.write_all(s.as_bytes());
                if timing {
                    let _ = writeln!(out, "Time: {elapsed_ms:.3} ms");
                }
                let _ = out.flush();
                false
            }
            StmtOutcome::Error(e) => {
                let _ = writeln!(out, "error: {e}");
                let _ = out.flush();
                true
            }
            StmtOutcome::Quit => false,
        }
    };

    let json = opts.json;
    let process =
        |shell: &mut Shell, stmt: &str, timing: &mut bool, had_error: &mut bool| -> bool {
            if stmt == "\\timing" {
                *timing = !*timing;
                println!("Timing {}", if *timing { "on" } else { "off" });
                return true;
            }
            let t0 = Instant::now();
            let outcome = run_statement(shell, stmt, json);
            let quit = matches!(outcome, StmtOutcome::Quit);
            if emit(outcome, *timing, t0.elapsed().as_secs_f64() * 1e3) {
                *had_error = true;
            }
            !quit
        };

    if let Some(commands) = &opts.commands {
        for stmt in split_statements(commands) {
            if !process(&mut shell, &stmt, &mut timing, &mut had_error) {
                break;
            }
        }
        return Ok(if had_error { 1 } else { 0 });
    }

    // Interactive / piped REPL.
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        // The banner is the one place all three modes are told apart:
        // it says which one this is.
        match &shell.backend {
            Backend::Embedded { .. } => println!("eh_shell (embedded) — \\help for help"),
            Backend::Remote(client) => {
                println!("eh_shell — connected to {}", client.server_banner())
            }
            Backend::Cluster(cluster) => {
                println!(
                    "eh_shell — coordinating {} shard worker(s)",
                    cluster.num_workers()
                )
            }
        }
    }
    let mut pending = String::new();
    'outer: loop {
        if interactive {
            print!(
                "{}",
                if pending.trim().is_empty() {
                    "eh> "
                } else {
                    "...> "
                }
            );
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        pending.push_str(&line);
        let (stmts, rest) = split_partial(&pending);
        pending = rest;
        for stmt in stmts {
            if !process(&mut shell, &stmt, &mut timing, &mut had_error) {
                break 'outer;
            }
        }
    }
    // EOF with an unfinished statement: run what's there.
    let tail = pending.trim().to_string();
    if !tail.is_empty() {
        process(&mut shell, &tail, &mut timing, &mut had_error);
    }
    Ok(if had_error && !interactive { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_splitting_keeps_query_semicolons() {
        let stmts = split_statements(
            "\\l /tmp/e.tsv E; C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.; \\d",
        );
        assert_eq!(
            stmts,
            vec![
                "\\l /tmp/e.tsv E",
                "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
                "\\d",
            ]
        );
    }

    #[test]
    fn prepare_carries_its_query_across_semicolons() {
        let stmts = split_statements(
            "\\prepare t C(;w:long) :- E(x,y); w=<<COUNT(*)>>.; \\exec t; \\exec t",
        );
        assert_eq!(
            stmts,
            vec![
                "\\prepare t C(;w:long) :- E(x,y); w=<<COUNT(*)>>.",
                "\\exec t",
                "\\exec t",
            ]
        );
    }

    #[test]
    fn newlines_continue_unfinished_queries() {
        let (done, rest) = split_partial("T(x,y) :-\n  E(x,y)");
        assert!(done.is_empty());
        assert_eq!(rest, "T(x,y) :-   E(x,y)");
        let (done, rest) = split_partial("T(x,y) :-\n  E(x,y).\n");
        assert_eq!(done, vec!["T(x,y) :-   E(x,y)."]);
        assert!(rest.is_empty());
    }

    #[test]
    fn one_line_programs_stay_whole() {
        let stmts = split_statements("A(x,z) :- E(x,y),E(y,z). B(z) :- A('0',z).; \\d");
        assert_eq!(
            stmts,
            vec!["A(x,z) :- E(x,y),E(y,z). B(z) :- A('0',z).", "\\d"]
        );
    }

    #[test]
    fn relation_names_from_paths() {
        assert_eq!(relation_name_for("/tmp/edges.tsv"), "edges");
        assert_eq!(relation_name_for("/tmp/1-bad name.csv"), "R1_bad_name");
        assert_eq!(relation_name_for(""), "R");
    }

    /// Run one statement, returning what the shell would print
    /// (`error: …` for failures, like the REPL).
    fn run(shell: &mut Shell, stmt: &str) -> String {
        match run_statement(shell, stmt, false) {
            StmtOutcome::Output(s) => s,
            StmtOutcome::Error(e) => format!("error: {e}\n"),
            StmtOutcome::Quit => "quit\n".into(),
        }
    }

    /// A scratch directory holding a three-edge `e.tsv`.
    fn edges_tsv(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("eh_shell_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("e.tsv");
        std::fs::write(&tsv, "src:u32\tdst:u32\n0\t1\n1\t2\n0\t2\n").unwrap();
        (dir, tsv)
    }

    #[test]
    fn embedded_shell_end_to_end() {
        let (dir, tsv) = edges_tsv("e2e");
        let mut shell = Shell::new(Backend::embedded(Database::new()));
        let out = run(&mut shell, &format!("\\l {} E", tsv.display()));
        assert!(out.contains("loaded 3 rows into E"), "{out}");
        let out = run(
            &mut shell,
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
        );
        assert!(out.contains("1\n(scalar)"), "{out}");
        let out = run(&mut shell, "\\prepare t T(x,y) :- E(x,y).");
        assert!(out.contains("prepared t (compiled)"), "{out}");
        let out = run(&mut shell, "\\exec t");
        assert!(out.contains("(3 rows)"), "{out}");
        let out = run(&mut shell, "\\d");
        assert!(out.contains("E\trows=3"), "{out}");
        // A one-line multi-rule program runs as one read-only program:
        // rule 2 sees rule 1's head.
        let out = run(
            &mut shell,
            "Hop2(x,z) :- E(x,y),E(y,z). From(z) :- Hop2('0',z).",
        );
        assert!(out.contains("(1 rows)"), "{out}");
        // \explain shows the compiled loop nest; with E loaded the
        // planner has catalog stats, so the order is cost-based.
        let out = run(&mut shell, "\\explain T(x,y,z) :- E(x,y),E(y,z),E(x,z).");
        assert!(out.contains("order:"), "{out}");
        assert!(out.contains("cost-based"), "{out}");
        assert!(out.contains("for "), "{out}");
        let out = run(&mut shell, "\\explain");
        assert!(out.contains("needs a query"), "{out}");
        // \trace runs profiled and prints a span tree + row count; with
        // threshold 0 every statement lands in the slow-query log.
        assert_eq!(run(&mut shell, "\\set slow_ms 0"), "slow_ms = 0\n");
        assert_eq!(
            run(&mut shell, "\\set morsel 4"),
            "error: unknown option 'morsel' (threads|scheduler|slow_ms)\n"
        );
        let out = run(&mut shell, "\\trace T(x,y,z) :- E(x,y),E(y,z),E(x,z).");
        assert!(out.starts_with("trace "), "{out}");
        assert!(out.contains("kernels:"), "{out}");
        assert!(out.contains("(1 rows)"), "{out}");
        let out = run(&mut shell, "\\slow");
        assert!(out.contains("slow: trace="), "{out}");
        assert!(out.contains("T(x,y,z)"), "{out}");
        let out = run(&mut shell, "\\slow nope");
        assert!(out.contains("entry count"), "{out}");
        // The in-process session is a session: \stats and \metrics show
        // real counters and frame histograms, not a hand-rolled subset.
        let out = run(&mut shell, "\\stats");
        assert!(out.contains("exec_prepared=1"), "{out}");
        let out = run(&mut shell, "\\metrics");
        assert!(out.contains("exec_prepared"), "{out}");
        assert!(out.contains("trace_exec"), "{out}");
        // \save writes wherever the embedded shell is told to.
        let image = dir.join("out.ehdb");
        let out = run(&mut shell, &format!("\\save {}", image.display()));
        assert!(out.starts_with("saved image to "), "{out}");
        assert!(image.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The paper's SSSP shape over a loaded `E`: a base rule, then a
    /// MIN fixpoint that reads it.
    const FIXPOINT: &str =
        "S(x;y:int) :- E('0',x); y=1. S(x;y:int)* :- E(w,x),S(w); y=<<MIN(w)>>+1.";

    /// Embedded == remote by construction: the same script, statement
    /// by statement, through an in-process session and through a socket
    /// session, prints identical output — results, confirmations, error
    /// text. (`\slow` lines carry timings, so only their count and
    /// shape are compared.)
    #[cfg(unix)]
    #[test]
    fn embedded_and_remote_print_the_same_script_identically() {
        let (dir, tsv) = edges_tsv("same");
        let addr = format!("unix:{}", dir.join("eh.sock").display());
        let server =
            Server::bind(Database::new(), &[&addr], ServerOptions::default()).expect("bind");
        let mut embedded = Shell::new(Backend::embedded(Database::new()));
        let mut remote = Shell::new(Backend::Remote(EhClient::connect(&addr).expect("connect")));
        let load = format!("\\l {} E", tsv.display());
        let prepare_fixpoint = format!("\\prepare s {FIXPOINT}");
        let script = [
            load.as_str(),
            "\\d",
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
            "T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
            "Hop2(x,z) :- E(x,y),E(y,z). From(z) :- Hop2('0',z).",
            "\\prepare t C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
            "\\exec t",
            "\\exec t",
            "\\set threads 2",
            "T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
            // A fixpoint program, ad hoc twice (the second run hits the
            // plan cache) and as a prepared statement.
            FIXPOINT,
            FIXPOINT,
            &prepare_fixpoint,
            "\\exec s",
            "Q(x :- E(x).",
            "\\set slow_ms 0",
            // Regression: the embedded shell's \exec used to skip the
            // slow log. Both entries below must show up in \slow.
            "\\exec t",
            "P(x,z) :- E(x,y),E(y,z).",
            "\\slow 8",
            "Q(x) :- Nope(x,y).",
            "\\exec nope",
            "\\set colour blue",
            "\\set threads many",
        ];
        for stmt in script {
            let (a, b) = (run(&mut embedded, stmt), run(&mut remote, stmt));
            if stmt.starts_with("\\slow") {
                assert_eq!(a.lines().count(), 2, "{stmt}: {a}");
                assert_eq!(b.lines().count(), 2, "{stmt}: {b}");
                for out in [&a, &b] {
                    assert!(out.lines().all(|l| l.starts_with("slow: trace=")), "{out}");
                    assert!(
                        out.contains("P(x,z)") && out.contains("C(;w:long)"),
                        "{out}"
                    );
                }
            } else {
                assert_eq!(a, b, "embedded vs remote diverged on: {stmt}");
            }
        }
        assert!(run(&mut embedded, "Q(x) :- Nope(x,y).").starts_with("error: "));
        // Distances from node 0 over 0→1, 1→2, 0→2.
        let out = run(&mut embedded, FIXPOINT);
        assert!(out.ends_with("1\t1\n2\t1\n(2 rows)\n"), "{out}");
        let out = run(&mut remote, "Q(x :- E(x).");
        assert_eq!(out.matches("parse error: ").count(), 1, "{out}");
        // `\set threads 2` reaches \explain in both modes: the embedded
        // profile counts the workers, the remote span tree lists them.
        let explain = "\\explain T(x,y,z) :- E(x,y),E(y,z),E(x,z).";
        let out = run(&mut embedded, explain);
        assert!(out.contains("\n    workers: 2 (morsels "), "{out}");
        let out = run(&mut remote, explain);
        assert!(out.contains("\n    thread 1 @"), "{out}");
        drop(remote);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_statements_carry_their_query_across_semicolons() {
        let stmts = split_statements("\\trace C(;w:long) :- E(x,y); w=<<COUNT(*)>>.; \\slow 5");
        assert_eq!(
            stmts,
            vec!["\\trace C(;w:long) :- E(x,y); w=<<COUNT(*)>>.", "\\slow 5"]
        );
        let stmts = split_statements("\\explain C(;w:long) :- E(x,y); w=<<COUNT(*)>>.; \\slow");
        assert_eq!(
            stmts,
            vec!["\\explain C(;w:long) :- E(x,y); w=<<COUNT(*)>>.", "\\slow"]
        );
    }

    #[test]
    fn metrics_render_text_and_prometheus() {
        use crate::protocol::{FrameStat, StatsExt};
        let stats = ServerStats {
            epoch: 2,
            relations: 1,
            sessions_total: 3,
            sessions_active: 1,
            queries: 5,
            cache_hits: 4,
            cache_misses: 1,
            cache_entries: 1,
            cache_capacity: 64,
            ext: Some(StatsExt {
                bytes_in: 100,
                bytes_out: 900,
                frames: vec![FrameStat {
                    name: "query".into(),
                    count: 5,
                    total_ns: 5_000_000,
                    buckets: vec![(20, 5)],
                }],
            }),
            ..Default::default()
        };
        let text = render_metrics_text(&stats);
        assert!(text.contains("bytes in=100 out=900"), "{text}");
        assert!(text.contains("query"), "{text}");
        let prom = render_metrics_prometheus(&stats);
        assert!(prom.contains("eh_plan_cache_hits 4\n"), "{prom}");
        assert!(prom.contains("eh_bytes_in_total 100\n"), "{prom}");
        assert!(
            prom.contains("eh_frame_ns_count{frame=\"query\"} 5\n"),
            "{prom}"
        );
        assert!(
            prom.contains("eh_frame_ns_bucket{frame=\"query\",le=\"1048575\"} 5\n"),
            "{prom}"
        );
        // Every line is `name value` or `name{labels} value`.
        for line in prom.lines() {
            assert!(line.starts_with("eh_"), "{line}");
            assert!(
                line.rsplit(' ').next().unwrap().parse::<u64>().is_ok(),
                "{line}"
            );
        }
        // The embedded backend's \metrics goes through the same path.
        let mut shell = Shell::new(Backend::embedded(Database::new()));
        assert!(run(&mut shell, "\\metrics").contains("plan_cache"));
        assert!(run(&mut shell, "\\metrics --json").contains("eh_epoch 0\n"));
        assert!(run(&mut shell, "\\metrics bogus").contains("--json"));
    }

    #[test]
    fn prometheus_survives_out_of_range_peer_buckets() {
        // Bucket indices come off the wire unchecked: the top bucket and
        // anything past it render with the largest edge, not a shift
        // overflow.
        use crate::protocol::{FrameStat, StatsExt};
        let stats = ServerStats {
            ext: Some(StatsExt {
                frames: vec![FrameStat {
                    name: "query".into(),
                    count: 2,
                    total_ns: 7,
                    buckets: vec![(64, 1), (u32::MAX, u64::MAX)],
                }],
                ..Default::default()
            }),
            ..Default::default()
        };
        let prom = render_metrics_prometheus(&stats);
        let top = "eh_frame_ns_bucket{frame=\"query\",le=\"18446744073709551615\"}";
        assert_eq!(prom.matches(top).count(), 2, "{prom}");
        assert!(render_metrics_text(&stats).contains("query"));
    }
}
