//! The accept loop and shared server state.
//!
//! A [`Server`] owns one [`Database`] behind a `RwLock` — sessions
//! execute queries and shared prepared plans under the *read* lock in
//! parallel (the paper's compiled-once artifacts are cheap and
//! re-entrant); `LoadCsv` is the only writer. Next to the database sits
//! the shared [`PlanCache`] and a handful of atomic counters surfaced
//! by the `Stats` frame.
//!
//! Listeners: any mix of TCP (`tcp:host:port` or plain `host:port`)
//! and Unix-domain sockets (`unix:/path` or any address containing
//! `/`). Each accepted connection gets its own session thread.
//! [`Server::shutdown`] is graceful: it stops the accept loops, shuts
//! down every open connection's socket (unblocking session reads), and
//! joins all threads.

use crate::cache::PlanCache;
use crate::protocol::{FrameStat, ServerStats, StatsExt};
use crate::session::run_session;
use eh_core::{CoreError, Database, Prepared};
use eh_obs::{MetricsRegistry, SlowQueryLog};
use parking_lot::{Mutex, RwLock};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A parsed listen/connect address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Addr {
    /// Parse `unix:/path`, `tcp:host:port`, a bare path (contains `/`),
    /// or a bare `host:port`.
    pub fn parse(s: &str) -> Addr {
        if let Some(path) = s.strip_prefix("unix:") {
            Addr::Unix(PathBuf::from(path))
        } else if let Some(hp) = s.strip_prefix("tcp:") {
            Addr::Tcp(hp.to_string())
        } else if s.contains('/') {
            Addr::Unix(PathBuf::from(s))
        } else {
            Addr::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Counters surfaced by the `Stats` frame.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) sessions_total: AtomicU64,
    pub(crate) sessions_active: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) exec_prepared: AtomicU64,
}

/// Frame kinds tracked by per-kind latency histograms in the shared
/// [`MetricsRegistry`] (one histogram each, registered at startup).
/// An `Exec` frame lands in `shard_exec` when it carries a shard,
/// else `trace_exec` when it carries a trace id, else `exec_prepared`
/// or `query` by its target.
pub const FRAME_KINDS: &[&str] = &[
    "query",
    "prepare",
    "exec_prepared",
    "load_csv",
    "save_image",
    "list_relations",
    "stats",
    "set_option",
    "quit",
    "shard_exec",
    "trace_exec",
    "slow_log",
];

/// The server's metrics registry: socket byte totals plus one service-
/// latency histogram per frame kind.
fn server_metrics() -> MetricsRegistry {
    MetricsRegistry::with(&["bytes_in", "bytes_out"], FRAME_KINDS)
}

/// State shared by every session thread.
pub struct Shared {
    /// The database: many concurrent readers, one writer (loads).
    pub db: RwLock<Database>,
    /// Shared prepared-plan cache (epoch-invalidated).
    pub cache: Mutex<PlanCache>,
    /// Directory `SaveImage` may write into; `None` disables the frame.
    pub image_dir: Option<PathBuf>,
    /// Lock-free server metrics: socket byte totals and per-frame-kind
    /// service-latency histograms, surfaced through the `Stats` frame
    /// and the shell's `\metrics` command.
    pub metrics: MetricsRegistry,
    /// Bounded ring of recent slow queries (default 256 entries, 10 ms
    /// threshold), fed by every execution frame and surfaced through
    /// the `SlowLog` frame / `\slow`. Server-wide: `\set slow_ms N`
    /// from any session adjusts the shared threshold.
    pub slowlog: SlowQueryLog,
    pub(crate) stats: Counters,
}

impl Shared {
    /// Fresh shared state around `db` with a plan cache of `capacity`
    /// and `SaveImage` disabled (see [`Shared::with_image_dir`]).
    pub fn new(db: Database, capacity: usize) -> Shared {
        Shared {
            db: RwLock::new(db),
            cache: Mutex::new(PlanCache::new(capacity)),
            image_dir: None,
            metrics: server_metrics(),
            slowlog: SlowQueryLog::new(),
            stats: Counters::default(),
        }
    }

    /// Allow `SaveImage` frames to write (relative paths only) under
    /// `dir`.
    pub fn with_image_dir(mut self, dir: Option<PathBuf>) -> Shared {
        self.image_dir = dir;
        self
    }

    /// Fetch-or-compile the program `text` against `db` (the caller
    /// already holds the database read lock and passes the guard's
    /// target); the flag says whether it was a cache hit. Every text's
    /// shape finds the template its constants are bound to.
    pub fn cached_plan(&self, db: &Database, text: &str) -> Result<(Prepared, bool), CoreError> {
        let program = eh_core::parse(text)?;
        let shape = program.shape();
        // The guard is this statement's temporary: binding runs unlocked.
        let template = self.cache.lock().lookup(db.epoch(), &shape);
        if let Some(template) = template {
            return Ok((template.bind(program), true));
        }
        // A miss compiles unlocked, so a slow GHD search never serializes
        // other sessions' cache hits.
        let plan = db.compile(program)?;
        let template = Arc::new(plan.clone());
        self.cache.lock().insert(db.epoch(), shape, template);
        Ok((plan, false))
    }

    /// Snapshot of the server statistics against `db` (the caller holds
    /// the read lock).
    pub(crate) fn stats_snapshot(&self, db: &Database) -> ServerStats {
        let mut cache = self.cache.lock();
        cache.sync(db.epoch());
        ServerStats {
            epoch: db.epoch(),
            relations: db.catalog().names().count() as u64,
            sessions_total: self.stats.sessions_total.load(Ordering::Relaxed),
            sessions_active: self.stats.sessions_active.load(Ordering::Relaxed),
            queries: self.stats.queries.load(Ordering::Relaxed),
            exec_prepared: self.stats.exec_prepared.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_invalidations: cache.invalidations(),
            cache_entries: cache.len() as u64,
            cache_capacity: cache.capacity() as u64,
            ext: Some(StatsExt {
                bytes_in: self.metrics.get("bytes_in"),
                bytes_out: self.metrics.get("bytes_out"),
                frames: FRAME_KINDS
                    .iter()
                    .filter_map(|kind| {
                        let snap = self.metrics.histogram(kind)?.snapshot();
                        Some(FrameStat {
                            name: (*kind).to_string(),
                            count: snap.count,
                            total_ns: snap.sum,
                            buckets: snap
                                .nonzero()
                                .into_iter()
                                .map(|(b, c)| (b as u32, c))
                                .collect(),
                        })
                    })
                    .collect(),
            }),
        }
    }
}

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Shared plan-cache capacity (plans, not bytes). Default 64.
    pub cache_capacity: usize,
    /// Directory `SaveImage` frames may write into. `None` (the
    /// default) rejects `SaveImage` entirely — any client that can
    /// connect could otherwise overwrite whatever the server process
    /// can write. When set, clients name images by *relative* path
    /// (no `..`, no absolute paths) resolved under this directory.
    pub image_dir: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            cache_capacity: 64,
            image_dir: None,
        }
    }
}

/// Anything a session can run over; lets shutdown unblock readers.
trait Conn: io::Read + io::Write + Send {
    fn shutdown_both(&self);
}

impl Conn for TcpStream {
    fn shutdown_both(&self) {
        let _ = TcpStream::shutdown(self, std::net::Shutdown::Both);
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn shutdown_both(&self) {
        let _ = UnixStream::shutdown(self, std::net::Shutdown::Both);
    }
}

/// The live-connection registry: ids (for removal at session end)
/// paired with duplicated shutdown handles.
type ConnRegistry = Arc<Mutex<Vec<(u64, Box<dyn Conn>)>>>;

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// A running query server: accept loops + session threads around one
/// [`Shared`] state.
pub struct Server {
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept_threads: Vec<JoinHandle<()>>,
    session_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Open connections (keyed for removal at session end), so
    /// shutdown can unblock their session reads.
    conns: ConnRegistry,
    bound: Vec<Addr>,
    tcp_addr: Option<SocketAddr>,
    unix_paths: Vec<PathBuf>,
}

impl Server {
    /// Bind `db` on every address in `addrs` and start accepting.
    /// `host:0` picks an ephemeral TCP port (see
    /// [`Server::tcp_addr`]); an existing socket file at a Unix path is
    /// replaced.
    pub fn bind(db: Database, addrs: &[&str], options: ServerOptions) -> io::Result<Server> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs at least one listen address",
            ));
        }
        if let Some(dir) = &options.image_dir {
            std::fs::create_dir_all(dir)?;
        }
        let shared = Arc::new(
            Shared::new(db, options.cache_capacity).with_image_dir(options.image_dir.clone()),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let session_threads = Arc::new(Mutex::new(Vec::new()));
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
        let mut listeners = Vec::new();
        let mut bound = Vec::new();
        let mut tcp_addr = None;
        let mut unix_paths = Vec::new();
        for addr in addrs {
            match Addr::parse(addr) {
                Addr::Tcp(hp) => {
                    let l = TcpListener::bind(&hp)?;
                    let local = l.local_addr()?;
                    tcp_addr.get_or_insert(local);
                    bound.push(Addr::Tcp(local.to_string()));
                    listeners.push(Listener::Tcp(l));
                }
                #[cfg(unix)]
                Addr::Unix(path) => {
                    if path.exists() {
                        std::fs::remove_file(&path)?;
                    }
                    let l = UnixListener::bind(&path)?;
                    bound.push(Addr::Unix(path.clone()));
                    unix_paths.push(path.clone());
                    listeners.push(Listener::Unix(l, path));
                }
                #[cfg(not(unix))]
                Addr::Unix(path) => {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        format!(
                            "unix sockets unavailable on this platform: {}",
                            path.display()
                        ),
                    ));
                }
            }
        }
        let mut accept_threads = Vec::new();
        for listener in listeners {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let sessions = Arc::clone(&session_threads);
            let conns = Arc::clone(&conns);
            accept_threads.push(std::thread::spawn(move || match listener {
                Listener::Tcp(l) => accept_loop(l.incoming(), &shared, &stop, &sessions, &conns),
                #[cfg(unix)]
                Listener::Unix(l, _path) => {
                    accept_loop(l.incoming(), &shared, &stop, &sessions, &conns)
                }
            }));
        }
        Ok(Server {
            shared,
            stop,
            accept_threads,
            session_threads,
            conns,
            bound,
            tcp_addr,
            unix_paths,
        })
    }

    /// The shared state (database lock, plan cache, counters) — lets an
    /// embedding process query the same database the server serves.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Addresses actually bound (ephemeral TCP ports resolved).
    pub fn bound_addrs(&self) -> &[Addr] {
        &self.bound
    }

    /// The first bound TCP address, if any (for `host:0` binds).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Graceful shutdown: stop accepting, unblock and join every
    /// session, remove Unix socket files.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake each accept loop with a throwaway connection.
        for addr in &self.bound {
            match addr {
                Addr::Tcp(hp) => {
                    // A wildcard bind (0.0.0.0 / [::]) is not reliably
                    // connectable as a destination; wake it through the
                    // matching loopback address instead.
                    match hp.parse::<SocketAddr>() {
                        Ok(mut sa) => {
                            if sa.ip().is_unspecified() {
                                sa.set_ip(match sa.ip() {
                                    std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                                    std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                                });
                            }
                            let _ = TcpStream::connect(sa);
                        }
                        Err(_) => {
                            let _ = TcpStream::connect(hp.as_str());
                        }
                    }
                }
                #[cfg(unix)]
                Addr::Unix(path) => {
                    let _ = UnixStream::connect(path);
                }
                #[cfg(not(unix))]
                Addr::Unix(_) => {}
            }
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Unblock session reads mid-frame, then join them.
        for (_, conn) in self.conns.lock().iter() {
            conn.shutdown_both();
        }
        let sessions: Vec<_> = self.session_threads.lock().drain(..).collect();
        for t in sessions {
            let _ = t.join();
        }
        for path in &self.unix_paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_loop<S, I>(
    incoming: I,
    shared: &Arc<Shared>,
    stop: &Arc<AtomicBool>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: &ConnRegistry,
) where
    S: Conn + TryCloneConn + 'static,
    I: Iterator<Item = io::Result<S>>,
{
    static NEXT_CONN: AtomicU64 = AtomicU64::new(0);
    for stream in incoming {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap finished session threads so a long-lived server doesn't
        // accumulate one JoinHandle per past connection (dropping a
        // finished handle just releases it).
        sessions.lock().retain(|h| !h.is_finished());
        let conn_id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
        // No shutdown handle means Server::shutdown could never unblock
        // this session's reads; dropping the connection (client sees
        // EOF, can retry) beats serving one shutdown can't reach.
        let Ok(clone) = stream.try_clone_conn() else {
            continue;
        };
        conns.lock().push((conn_id, clone));
        let shared = Arc::clone(shared);
        let conns = Arc::clone(conns);
        shared.stats.sessions_total.fetch_add(1, Ordering::Relaxed);
        shared.stats.sessions_active.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::spawn(move || {
            run_session(&shared, stream);
            shared.stats.sessions_active.fetch_sub(1, Ordering::Relaxed);
            // Drop the duplicated shutdown handle as the session ends:
            // the peer sees EOF immediately and the fd is reclaimed.
            conns.lock().retain(|(id, _)| *id != conn_id);
        });
        sessions.lock().push(handle);
    }
}

/// `try_clone` unified across stream types (used to keep a shutdown
/// handle to every open connection).
trait TryCloneConn: Sized {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;
}

impl TryCloneConn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(unix)]
impl TryCloneConn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parsing() {
        assert_eq!(
            Addr::parse("unix:/tmp/x.sock"),
            Addr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Addr::parse("/tmp/y.sock"),
            Addr::Unix(PathBuf::from("/tmp/y.sock"))
        );
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:7687"),
            Addr::Tcp("127.0.0.1:7687".into())
        );
        assert_eq!(
            Addr::parse("127.0.0.1:7687"),
            Addr::Tcp("127.0.0.1:7687".into())
        );
        assert_eq!(Addr::parse("unix:/a").to_string(), "unix:/a");
        assert_eq!(Addr::parse("h:1").to_string(), "tcp:h:1");
    }

    #[test]
    fn empty_addrs_rejected() {
        assert!(Server::bind(Database::new(), &[], ServerOptions::default()).is_err());
    }

    /// Shutdown must not hang on a wildcard bind: the accept-loop
    /// wake-up connects via loopback, not the (possibly unconnectable)
    /// 0.0.0.0 destination.
    #[test]
    fn wildcard_bind_shutdown_completes() {
        let server =
            Server::bind(Database::new(), &["0.0.0.0:0"], ServerOptions::default()).unwrap();
        assert!(server.tcp_addr().unwrap().ip().is_unspecified());
        server.shutdown();
    }
}
