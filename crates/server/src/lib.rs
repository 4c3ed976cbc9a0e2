//! `eh_server` — a concurrent query service over the EmptyHeaded
//! engine.
//!
//! The paper's execution model (compile a query once — parse → GHD →
//! attribute-ordered physical plan — then run the cheap compiled
//! artifact) extends naturally from a library to a service: this crate
//! puts a socket in front of [`eh_core::Database`].
//!
//! * [`protocol`] — versioned, length-prefixed binary frames: one
//!   `Exec` frame runs a query — ad-hoc text or a `Prepare`d statement,
//!   whole or one level-0 shard, plain or traced — and one `Result`
//!   frame answers it; `LoadCsv`, `SaveImage`, `ListRelations`,
//!   `Stats`, `SetOption` and `SlowLog` do the rest. Results travel as
//!   [`eh_storage::ResultBatch`]es so string columns decode
//!   client-side.
//! * [`cache`] — the shared LRU [`PlanCache`] keyed by the query's
//!   shape (constants lifted into slots) and invalidated by the catalog
//!   epoch: any
//!   `register`/`drop_relation`/`load_csv` bumps
//!   [`eh_core::Database::epoch`], so no stale plan ever runs against a
//!   changed schema.
//! * [`session`] — one thread per connection around a request handler
//!   that needs no socket (the embedded shell drives it in-process);
//!   per-session engine-config overrides (`threads`, `scheduler`);
//!   transparent re-preparation when the catalog moves under a pinned
//!   statement.
//! * [`server`] — accept loops over TCP and Unix-domain sockets around
//!   a [`Shared`] state holding `RwLock<Database>`: concurrent readers
//!   execute (shared, compiled) plans in parallel, loads take the write
//!   lock; graceful shutdown unblocks and joins every session.
//! * [`client`] — a blocking [`EhClient`] with typed result iteration.
//! * [`cluster`] — a scatter-gather coordinator: partitions each
//!   query's root-node level-0 range across N shard workers (`Exec`
//!   frames carrying a shard) and merges the partials in range order,
//!   so distributed answers are byte-identical to single-process
//!   execution. [`Cluster::trace`] scatters with a minted
//!   [`eh_obs::TraceId`] and stitches every worker's span tree into
//!   one distributed trace.
//! * [`shell`] — `eh_shell`: an interactive REPL (`\l`, `\d`,
//!   `\timing`, `\trace`, `\slow`, `\prepare`/`\exec`, ...) that sends
//!   the same requests to an in-process session (embedded), a running
//!   server, or a cluster, plus the `--serve` mode that is the server
//!   binary.
//!
//! ```no_run
//! use eh_core::Database;
//! use eh_server::{EhClient, Server, ServerOptions};
//!
//! let mut db = Database::new();
//! db.load_edges("Edge", &[(0, 1), (1, 2), (0, 2)]);
//! let server = Server::bind(db, &["127.0.0.1:0"], ServerOptions::default()).unwrap();
//! let addr = server.tcp_addr().unwrap().to_string();
//!
//! let mut client = EhClient::connect(&addr).unwrap();
//! let n = client
//!     .query("C(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.")
//!     .unwrap();
//! assert_eq!(n.scalar_u64(), Some(1));
//! client.quit().unwrap();
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod cluster;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shell;

pub use cache::PlanCache;
pub use client::{ClientError, EhClient, ExecOutcome, ResultSet, StatementHandle};
pub use cluster::{Cluster, ShardReport};
pub use protocol::{
    ExecTarget, FrameStat, ProtoError, RelationInfo, Request, Response, ServerStats, StatsExt,
    WireDelimiter, PROTOCOL_VERSION,
};
pub use server::{Addr, Server, ServerOptions, Shared, FRAME_KINDS};
pub use session::batch_from_result;
