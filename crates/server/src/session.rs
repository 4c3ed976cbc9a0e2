//! One session per connection: a dedicated thread that reads frames,
//! dispatches them against the shared database, and writes responses.
//!
//! Sessions are read-mostly: `Exec`, `Prepare`, `ListRelations`, and
//! `SaveImage` all run under the database's *read* lock (the trie cache
//! is interior-mutable behind its own `RwLock`, and plans are shared
//! `Arc`s), so any number of sessions execute in parallel. Only
//! `LoadCsv` takes the write lock.
//!
//! Each session keeps its own engine [`Config`] (seeded from the
//! server's database at connect time); `SetOption` adjusts it without
//! affecting other sessions — two clients can run the same shared plan
//! under different thread counts. Prepared statements are pinned per
//! session with the catalog epoch they were compiled at; executing one
//! after the catalog changed transparently re-prepares through the
//! shared cache, so a stale plan is never run.
//!
//! A `Session` does not need a socket: `Session::handle` maps one
//! [`Request`] to one [`Response`], and `run_session` is only the
//! handshake plus the read-handle-write loop around it. The embedded
//! shell drives the same `handle` in-process, so embedded and remote
//! answers agree by construction.

use crate::protocol::{
    read_request, write_response, ExecTarget, ProtoError, Request, Response, WireDelimiter,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::server::Shared;
use eh_core::{Config, Database, Prepared, QueryResult, Scheduler};
use eh_obs::{SlowQueryEntry, Trace};
use eh_storage::trace_wire::encode_trace;
use eh_storage::wire::ResultBatch;
use eh_storage::{CsvOptions, Delimiter, StorageError};
use std::io::{self, Read, Write};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Build the wire batch for a query result: the result's schema, its
/// tuples, and every dictionary domain the schema references —
/// self-describing, so the client decodes typed values with no further
/// round-trips.
///
/// Known tradeoff: referenced domains ship *whole* (the batch format
/// keeps dense id → key indexing), so a small result over a huge
/// shared dictionary re-sends that dictionary per response. Trimming
/// to the ids present needs a sparse-domain wire format — noted for a
/// follow-up; for the paper-scale datasets the dictionaries are small.
pub fn batch_from_result(db: &Database, result: &QueryResult) -> ResultBatch {
    let schema = result.schema().clone();
    let mut domains = Vec::new();
    for (_, col) in schema.key_columns() {
        if let Some(key) = col.domain_key() {
            if !domains.iter().any(|(n, _): &(String, _)| *n == key) {
                if let Some(dom) = db.storage().domain(&key) {
                    domains.push((key, dom.clone()));
                }
            }
        }
    }
    ResultBatch {
        schema,
        tuples: result.rows().clone(),
        domains,
    }
}

/// An `Error` frame carrying `e`'s message.
pub(crate) fn error(e: impl std::fmt::Display) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

/// The most worker threads a client may ask for with `threads`: every
/// query spawns that many scoped threads, and a count the OS cannot
/// provide panics the session instead of answering.
const MAX_THREADS: u64 = 256;

/// A prepared statement pinned to a session: the shared plan bound to
/// the statement's constants, plus the catalog epoch and the exact text
/// it was compiled at, so execution can detect staleness and re-prepare.
struct SessionStmt {
    epoch: u64,
    text: String,
    plan: Prepared,
}

/// Per-connection state.
pub(crate) struct Session {
    /// Session-scoped engine configuration (thread count, scheduler)
    /// applied to every execution on this connection.
    config: Config,
    /// Statement `id` (1-based, as `Prepared` reported it) is entry
    /// `id - 1`.
    statements: Vec<SessionStmt>,
}

/// A socket wrapper that feeds byte totals into the shared metrics
/// registry as they cross the wire (two linear scans over a two-entry
/// counter table per syscall — noise next to the syscall itself).
struct Metered<'a, S> {
    inner: S,
    shared: &'a Shared,
}

impl<S: Read> Read for Metered<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.shared.metrics.add("bytes_in", n as u64);
        Ok(n)
    }
}

impl<S: Write> Write for Metered<'_, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.shared.metrics.add("bytes_out", n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The metrics-registry histogram a request's service time lands in
/// (see [`crate::server::FRAME_KINDS`]). `Exec` keeps the four names
/// the version-2 frames had, derived from its fields, so dashboards and
/// `\metrics` read the same series across the protocol change.
fn frame_kind(request: &Request) -> &'static str {
    match request {
        Request::Hello { .. } => "hello",
        Request::Exec { shard: Some(_), .. } => "shard_exec",
        Request::Exec { trace: Some(_), .. } => "trace_exec",
        Request::Exec {
            target: ExecTarget::Stmt(_),
            ..
        } => "exec_prepared",
        Request::Exec { .. } => "query",
        Request::Prepare { .. } => "prepare",
        Request::LoadCsv { .. } => "load_csv",
        Request::SaveImage { .. } => "save_image",
        Request::ListRelations => "list_relations",
        Request::Stats => "stats",
        Request::SetOption { .. } => "set_option",
        Request::Quit => "quit",
        Request::SlowLog { .. } => "slow_log",
    }
}

/// Resolve a client-supplied `SaveImage` path against the server's
/// configured image directory. With no directory configured the frame
/// is rejected outright; otherwise the client path must be purely
/// relative (`Component::Normal` only — no absolute paths, no `..`, no
/// `.`), so a connected client can never write outside `image_dir`.
fn resolve_image_path(image_dir: Option<&Path>, path: &str) -> Result<PathBuf, String> {
    let Some(dir) = image_dir else {
        return Err(
            "image saves are disabled on this server (start it with an image directory, \
             e.g. eh_shell --serve ADDR --image-dir DIR)"
                .into(),
        );
    };
    let rel = Path::new(path);
    let plain = !path.is_empty() && rel.components().all(|c| matches!(c, Component::Normal(_)));
    if !plain {
        return Err(format!(
            "image path must be relative with no '..' or '.' components \
             (resolved under the server's image directory), got '{path}'"
        ));
    }
    Ok(dir.join(rel))
}

fn csv_options(delimiter: WireDelimiter) -> CsvOptions {
    match delimiter {
        WireDelimiter::Comma => CsvOptions::csv(),
        WireDelimiter::Tab => CsvOptions::tsv(),
        WireDelimiter::Whitespace => CsvOptions {
            delimiter: Delimiter::Whitespace,
            ..CsvOptions::csv()
        },
    }
}

/// Serve one connection to completion. Returns when the client quits,
/// disconnects, or the stream errors (e.g. the server shut it down).
pub(crate) fn run_session<S: Read + Write>(shared: &Shared, stream: S) {
    let mut stream = Metered {
        inner: stream,
        shared,
    };
    // Handshake: the first frame must be a Hello carrying the one
    // protocol version this server speaks.
    match read_request(&mut stream) {
        Ok(Request::Hello {
            version: PROTOCOL_VERSION,
        }) => {
            let hello = Response::Hello {
                version: PROTOCOL_VERSION,
                server: format!(
                    "eh_server/{} protocol {PROTOCOL_VERSION}",
                    env!("CARGO_PKG_VERSION")
                ),
            };
            if write_response(&mut stream, &hello).is_err() {
                return;
            }
        }
        Ok(Request::Hello { version }) => {
            let _ = write_response(
                &mut stream,
                &error(format!(
                    "protocol version mismatch: client {version}, server speaks \
                     {PROTOCOL_VERSION}"
                )),
            );
            return;
        }
        Ok(_) => {
            let _ = write_response(&mut stream, &error("expected Hello as the first frame"));
            return;
        }
        Err(_) => return,
    }

    let mut session = Session::new(shared);
    loop {
        let request = match read_request(&mut stream) {
            Ok(r) => r,
            // Clean disconnect or malformed frame: either way the
            // stream can't be trusted for another frame.
            Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Malformed(m)) => {
                let _ = write_response(&mut stream, &error(format!("malformed frame: {m}")));
                return;
            }
        };
        let quit = matches!(request, Request::Quit);
        let response = session.handle(shared, request);
        if write_response(&mut stream, &response).is_err() || quit {
            return;
        }
    }
}

impl Session {
    /// The engine configuration this session executes under.
    pub(crate) fn config(&self) -> &Config {
        &self.config
    }

    /// A fresh session, its engine config seeded from the database's.
    pub(crate) fn new(shared: &Shared) -> Session {
        Session {
            config: *shared.db.read().config(),
            statements: Vec::new(),
        }
    }

    /// Answer one request and record its service time — everything a
    /// connection does between reading a frame and writing one.
    pub(crate) fn handle(&mut self, shared: &Shared, request: Request) -> Response {
        let kind = frame_kind(&request);
        let started = Instant::now();
        let response = self.dispatch(shared, request);
        shared
            .metrics
            .observe(kind, started.elapsed().as_nanos() as u64);
        response
    }

    fn dispatch(&mut self, shared: &Shared, request: Request) -> Response {
        match request {
            Request::Hello { .. } => error("unexpected Hello mid-session"),
            Request::Exec {
                target,
                shard,
                trace,
            } => self
                .exec(shared, target, shard, trace)
                .unwrap_or_else(error),
            Request::Prepare { text } => {
                let db = shared.db.read();
                match shared.cached_plan(&db, &text) {
                    Ok((plan, cache_hit)) => {
                        self.statements.push(SessionStmt {
                            epoch: db.epoch(),
                            text,
                            plan,
                        });
                        let id = self.statements.len() as u64;
                        Response::Prepared { id, cache_hit }
                    }
                    Err(e) => error(e),
                }
            }
            Request::LoadCsv {
                relation,
                delimiter,
                data,
            } => {
                let opts = csv_options(delimiter);
                let mut db = shared.db.write();
                match db.load_csv_reader(&relation, std::io::Cursor::new(data), &opts) {
                    Ok(report) => Response::Ok {
                        message: format!(
                            "loaded {} rows into {relation}{}",
                            report.rows,
                            if report.skipped > 0 {
                                format!(" ({} skipped)", report.skipped)
                            } else {
                                String::new()
                            }
                        ),
                    },
                    Err(e) => error(e),
                }
            }
            Request::SaveImage { path } => {
                let resolved = match resolve_image_path(shared.image_dir.as_deref(), &path) {
                    Ok(p) => p,
                    Err(msg) => return Response::Error { message: msg },
                };
                if let Some(parent) = resolved.parent() {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        return error(e);
                    }
                }
                let db = shared.db.read();
                match db.save(&resolved) {
                    Ok(()) => Response::Ok {
                        message: format!("saved image to {}", resolved.display()),
                    },
                    Err(e) => error(e),
                }
            }
            Request::ListRelations => {
                let db = shared.db.read();
                let mut names: Vec<String> = db.catalog().names().map(str::to_string).collect();
                names.sort();
                let entries = names
                    .into_iter()
                    .filter_map(|name| {
                        let rel = db.relation(&name)?;
                        let schema = db
                            .storage()
                            .schema(&name)
                            .map(|s| s.to_string())
                            .unwrap_or_else(|| name.clone());
                        Some(crate::protocol::RelationInfo {
                            name,
                            arity: rel.arity() as u32,
                            rows: rel.len() as u64,
                            schema,
                        })
                    })
                    .collect();
                Response::Relations { entries }
            }
            Request::Stats => Response::Stats(shared.stats_snapshot(&shared.db.read())),
            Request::SetOption { key, value } => match self.set_option(shared, &key, &value) {
                Ok(()) => Response::Ok {
                    message: format!("{key} = {value}"),
                },
                Err(message) => Response::Error { message },
            },
            Request::Quit => Response::Ok {
                message: "bye".into(),
            },
            Request::SlowLog { limit } => Response::SlowLog {
                entries: shared.slowlog.recent(limit as usize),
            },
        }
    }

    /// Apply one option. `threads` and `scheduler` are this session's
    /// engine config; `slow_ms` is the *server-wide* slow-query threshold
    /// (the log is shared state, not session state).
    fn set_option(&mut self, shared: &Shared, key: &str, value: &str) -> Result<(), String> {
        let number = || {
            let parsed = value.parse::<u64>();
            parsed.map_err(|_| format!("{key} wants a number, got '{value}'"))
        };
        match key {
            "threads" => match number()? {
                n if n > MAX_THREADS => {
                    return Err(format!(
                        "threads must be 0 (auto) to {MAX_THREADS}, got {n}"
                    ))
                }
                n => self.config = self.config.with_threads(n as usize),
            },
            "scheduler" => {
                self.config = self.config.with_scheduler(match value {
                    "morsel" => Scheduler::Morsel,
                    "static" => Scheduler::Static,
                    other => return Err(format!("unknown scheduler '{other}' (morsel|static)")),
                })
            }
            "slow_ms" => shared
                .slowlog
                .set_threshold_ns(number()?.saturating_mul(1_000_000)),
            other => {
                return Err(format!(
                    "unknown option '{other}' (threads|scheduler|slow_ms)"
                ))
            }
        }
        Ok(())
    }

    /// Run a query: resolve the compiled program, execute it, feed the
    /// slow log, and encode the answer. `Err` is the message of the
    /// `Error` frame.
    fn exec(
        &mut self,
        shared: &Shared,
        target: ExecTarget,
        shard: Option<(u32, u32)>,
        trace: Option<u64>,
    ) -> Result<Response, String> {
        let db = shared.db.read();
        let (plan, text) = match &target {
            ExecTarget::Stmt(id) => {
                shared.stats.exec_prepared.fetch_add(1, Ordering::Relaxed);
                let stmt = id
                    .checked_sub(1)
                    .and_then(|i| self.statements.get_mut(i as usize));
                let stmt =
                    stmt.ok_or_else(|| format!("no prepared statement #{id} in this session"))?;
                // The catalog moved under this statement: transparently
                // re-prepare through the shared cache (which has itself
                // discarded its stale entries) before executing.
                if stmt.epoch != db.epoch() {
                    let (plan, _) = shared
                        .cached_plan(&db, &stmt.text)
                        .map_err(|e| e.to_string())?;
                    stmt.plan = plan;
                    stmt.epoch = db.epoch();
                }
                (stmt.plan.clone(), stmt.text.as_str())
            }
            ExecTarget::Text(text) => {
                shared.stats.queries.fetch_add(1, Ordering::Relaxed);
                let (plan, _) = shared.cached_plan(&db, text).map_err(|e| e.to_string())?;
                (plan, text.as_str())
            }
        };
        // A trace id turns profiling on: the span tree comes home in the
        // response, tagged with that id. A program whose partial results
        // do not ⊕-merge (`Prepared::shard_mergeable`) executes in FULL
        // and answers `sharded: false`: the coordinator then keeps one
        // worker's batch, so a cluster still answers every query.
        let mut cfg = self.config.with_profile(trace.is_some());
        if let Some((index, count)) = shard {
            cfg = cfg.with_shard(index, count);
        }
        let sharded = shard.is_some() && plan.shard_mergeable();
        let started = Instant::now();
        let mut result = plan.execute_with(&db, &cfg).map_err(|e| e.to_string())?;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        // The profile's tree ships as it stands; a shard's root is
        // renamed so a stitched trace tells the lanes apart.
        let spans = trace.zip(result.take_profile()).map(|(trace_id, profile)| {
            let mut root = profile.root;
            if let Some((index, count)) = shard {
                root.name = format!("shard {index}/{count}");
            }
            Trace {
                trace_id,
                work: profile.work,
                root,
            }
        });
        // The hot span comes from the span tree when the run was traced;
        // untraced runs record `-` — the log still shows what ran and
        // for how long.
        shared.slowlog.observe_with(elapsed_ns, || SlowQueryEntry {
            trace_id: trace.unwrap_or(0),
            query: text.to_string(),
            rows: result.rows().len() as u64,
            elapsed_ns,
            sharded,
            hot_span: spans
                .as_ref()
                .map_or_else(|| "-".to_string(), |t| t.root.hottest_leaf()),
        });
        let spans = spans.as_ref().map(encode_trace);
        let batch = batch_from_result(&db, &result).encode();
        let batch = batch.map_err(|e| format!("result encoding failed: {e}"))?;
        // A result the framing layer would refuse must become an Error
        // frame here: letting the frame write fail looks like a dead
        // stream to run_session, and the client would see an unexplained
        // disconnect instead of a diagnosis. 32 bytes of headroom cover
        // the Result fields around the batch.
        if batch.len() + spans.as_ref().map_or(0, Vec::len) + 32 > MAX_FRAME_LEN {
            return Err(format!(
                "result too large for one frame ({} bytes, limit {MAX_FRAME_LEN}); \
                 narrow the query or aggregate server-side",
                batch.len()
            ));
        }
        Ok(Response::Result {
            sharded,
            level0_values: if sharded { result.level0_values() } else { 0 },
            elapsed_ns,
            batch,
            spans,
        })
    }
}

#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    // Shared plans cross session threads; the compiler proves it here.
    check::<Prepared>();
    check::<StorageError>();
}

#[cfg(test)]
mod tests {
    use super::resolve_image_path;
    use std::path::{Path, PathBuf};

    #[test]
    fn save_image_is_disabled_without_an_image_dir() {
        let err = resolve_image_path(None, "x.ehdb").unwrap_err();
        assert!(err.contains("disabled"), "{err}");
    }

    #[test]
    fn save_image_paths_stay_inside_the_image_dir() {
        let dir = Path::new("/srv/images");
        assert_eq!(
            resolve_image_path(Some(dir), "x.ehdb").unwrap(),
            PathBuf::from("/srv/images/x.ehdb")
        );
        assert_eq!(
            resolve_image_path(Some(dir), "nightly/x.ehdb").unwrap(),
            PathBuf::from("/srv/images/nightly/x.ehdb")
        );
        for bad in ["/etc/passwd", "../x.ehdb", "a/../../x", "./x.ehdb", ""] {
            assert!(
                resolve_image_path(Some(dir), bad).is_err(),
                "'{bad}' must be rejected"
            );
        }
    }
}
