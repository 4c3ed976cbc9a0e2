//! A blocking client for the query server.
//!
//! [`EhClient`] speaks the frame protocol over TCP or a Unix socket and
//! hands results back as [`ResultSet`]s — decoded
//! [`eh_storage::ResultBatch`]es whose dictionary domains travelled
//! with the result, so `typed_rows()` yields the loader's original
//! strings/u64s with no server round-trips.

use crate::protocol::{
    read_response, write_request, ExecTarget, ProtoError, RelationInfo, Request, Response,
    ServerStats, WireDelimiter, PROTOCOL_VERSION,
};
use crate::server::Addr;
use eh_obs::{SlowQueryEntry, Trace, TraceId};
use eh_semiring::DynValue;
use eh_storage::wire::ResultBatch;
use eh_storage::{decode_trace, TypedValue};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(io::Error),
    /// The peer broke the frame protocol.
    Protocol(String),
    /// The server answered with an error frame (session stays usable).
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            ProtoError::Malformed(m) => ClientError::Protocol(m),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A decoded query result, typed-value iteration included. The raw
/// batch bytes are kept as received, so differential tests can compare
/// server answers byte-for-byte against in-process execution.
#[derive(Clone, Debug)]
pub struct ResultSet {
    bytes: Vec<u8>,
    batch: ResultBatch,
}

impl ResultSet {
    fn from_bytes(bytes: Vec<u8>) -> Result<ResultSet, ClientError> {
        let batch =
            ResultBatch::decode(&bytes).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(ResultSet { bytes, batch })
    }

    /// Build a result set from an in-memory batch (the coordinator's
    /// merged answer), re-encoding so [`ResultSet::raw_bytes`] carries
    /// exactly what a single server would have sent.
    pub(crate) fn from_batch(batch: ResultBatch) -> Result<ResultSet, ClientError> {
        let bytes = batch
            .encode()
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(ResultSet { bytes, batch })
    }

    /// Result relation name.
    pub fn name(&self) -> &str {
        self.batch.name()
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }

    /// True when the result holds no rows.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The decoded batch (schema + tuples + shipped domains).
    pub fn batch(&self) -> &ResultBatch {
        &self.batch
    }

    /// Give up the decoded batch (the coordinator merges partials by
    /// moving their tuples, not copying them).
    pub(crate) fn into_batch(self) -> ResultBatch {
        self.batch
    }

    /// The result exactly as it crossed the wire.
    pub fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// All rows decoded to typed values (dictionary ids mapped back to
    /// the loader's original keys, client-side).
    pub fn typed_rows(&self) -> Vec<Vec<TypedValue>> {
        self.batch.typed_rows()
    }

    /// Parallel annotation column, if present.
    pub fn annotations(&self) -> Option<&[DynValue]> {
        self.batch.annotations()
    }

    /// Scalar (aggregate-only) results as u64.
    pub fn scalar_u64(&self) -> Option<u64> {
        self.batch.scalar_u64()
    }

    /// Scalar (aggregate-only) results as f64.
    pub fn scalar_f64(&self) -> Option<f64> {
        self.batch.scalar_f64()
    }
}

/// The answer to one `Exec` round trip ([`EhClient::exec_request`]).
#[derive(Debug)]
pub struct ExecOutcome {
    /// True when the server executed only the requested level-0 slice;
    /// false when no shard was requested, or the plan was not
    /// shard-mergeable and `result` is the full answer.
    pub sharded: bool,
    /// Level-0 values the shard owned (0 when `sharded` is false).
    pub level0_values: u64,
    /// Server-side execution time, nanoseconds.
    pub elapsed_ns: u64,
    /// The result, or the shard's partial of it.
    pub result: ResultSet,
    /// The server's span tree, present iff the request carried a trace
    /// id. Its root span carries `rows`, `observed_work` and, for cost-based
    /// orders, `estimated_work` as values.
    pub trace: Option<Trace>,
}

/// The failure to report when `resp` is not the `want`ed variant: an
/// `Error` frame is the server's own message, anything else means the
/// peer broke the protocol.
fn unexpected(resp: Response, want: &str) -> ClientError {
    match resp {
        Response::Error { message } => ClientError::Server(message),
        other => ClientError::Protocol(format!("expected {want}, got {other:?}")),
    }
}

/// The message of a bare `Ok` answer.
pub(crate) fn expect_ok(resp: Response) -> Result<String, ClientError> {
    match resp {
        Response::Ok { message } => Ok(message),
        other => Err(unexpected(other, "Ok")),
    }
}

/// The answer to `Stats`.
pub(crate) fn expect_stats(resp: Response) -> Result<ServerStats, ClientError> {
    match resp {
        Response::Stats(s) => Ok(s),
        other => Err(unexpected(other, "Stats")),
    }
}

/// The answer to `ListRelations`.
pub(crate) fn expect_relations(resp: Response) -> Result<Vec<RelationInfo>, ClientError> {
    match resp {
        Response::Relations { entries } => Ok(entries),
        other => Err(unexpected(other, "Relations")),
    }
}

/// The answer to `Exec`, batch and span tree decoded.
pub(crate) fn expect_result(resp: Response) -> Result<ExecOutcome, ClientError> {
    match resp {
        Response::Result {
            sharded,
            level0_values,
            elapsed_ns,
            batch,
            spans,
        } => Ok(ExecOutcome {
            sharded,
            level0_values,
            elapsed_ns,
            result: ResultSet::from_bytes(batch)?,
            trace: spans
                .map(|bytes| decode_trace(&bytes))
                .transpose()
                .map_err(|e| ClientError::Protocol(e.to_string()))?,
        }),
        other => Err(unexpected(other, "Result")),
    }
}

/// A prepared-statement handle returned by [`EhClient::prepare`].
#[derive(Clone, Copy, Debug)]
pub struct StatementHandle {
    /// Session-scoped statement id.
    pub id: u64,
    /// Whether the server found the plan in its shared cache.
    pub cache_hit: bool,
}

/// A blocking connection to a running `eh_server`.
pub struct EhClient {
    stream: Stream,
    server_banner: String,
}

impl EhClient {
    /// Connect and handshake. `addr` accepts `unix:/path`, `tcp:host:port`,
    /// a bare socket path, or a bare `host:port`.
    pub fn connect(addr: &str) -> Result<EhClient, ClientError> {
        let stream = match Addr::parse(addr) {
            Addr::Tcp(hp) => Stream::Tcp(TcpStream::connect(hp)?),
            #[cfg(unix)]
            Addr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            #[cfg(not(unix))]
            Addr::Unix(path) => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("unix sockets unavailable: {}", path.display()),
                )))
            }
        };
        let mut client = EhClient {
            stream,
            server_banner: String::new(),
        };
        let hello = client.round_trip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match hello {
            Response::Hello { server, .. } => client.server_banner = server,
            other => return Err(unexpected(other, "Hello")),
        }
        Ok(client)
    }

    /// The server's banner string from the handshake.
    pub fn server_banner(&self) -> &str {
        &self.server_banner
    }

    /// One request, one response: the whole wire surface. Server-side
    /// failures come back as [`Response::Error`] frames, not `Err`.
    pub(crate) fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.stream, req)?;
        Ok(read_response(&mut self.stream)?)
    }

    /// The one query-running round trip: `target` is text or a prepared
    /// statement, `shard` restricts execution to one level-0 slice
    /// `(index, count)`, and `trace` asks for a profiled run whose span
    /// tree comes back tagged with that id.
    pub fn exec_request(
        &mut self,
        target: ExecTarget,
        shard: Option<(u32, u32)>,
        trace: Option<u64>,
    ) -> Result<ExecOutcome, ClientError> {
        expect_result(self.round_trip(&Request::Exec {
            target,
            shard,
            trace,
        })?)
    }

    /// Execute a program read-only and fetch the last rule's result.
    pub fn query(&mut self, text: &str) -> Result<ResultSet, ClientError> {
        let outcome = self.exec_request(ExecTarget::Text(text.into()), None, None)?;
        Ok(outcome.result)
    }

    /// Execute a statement previously prepared on this connection.
    pub fn exec(&mut self, stmt: StatementHandle) -> Result<ResultSet, ClientError> {
        let outcome = self.exec_request(ExecTarget::Stmt(stmt.id), None, None)?;
        Ok(outcome.result)
    }

    /// Execute one level-0 shard of `text` (coordinator side of the
    /// cluster scatter-gather).
    pub fn shard_exec(
        &mut self,
        text: &str,
        shard_index: u32,
        shard_count: u32,
        trace_id: Option<u64>,
    ) -> Result<ExecOutcome, ClientError> {
        self.exec_request(
            ExecTarget::Text(text.into()),
            Some((shard_index, shard_count)),
            trace_id,
        )
    }

    /// Execute `text` profiled under a freshly minted trace id,
    /// returning rows plus the server's span tree.
    pub fn trace_exec(&mut self, text: &str) -> Result<ExecOutcome, ClientError> {
        let id = TraceId::mint().as_u64();
        self.exec_request(ExecTarget::Text(text.into()), None, Some(id))
    }

    /// The server's most recent slow-query entries, newest first.
    pub fn slow_log(&mut self, limit: u32) -> Result<Vec<SlowQueryEntry>, ClientError> {
        match self.round_trip(&Request::SlowLog { limit })? {
            Response::SlowLog { entries } => Ok(entries),
            other => Err(unexpected(other, "SlowLog")),
        }
    }

    /// Compile a single rule through the server's shared plan cache.
    pub fn prepare(&mut self, text: &str) -> Result<StatementHandle, ClientError> {
        match self.round_trip(&Request::Prepare { text: text.into() })? {
            Response::Prepared { id, cache_hit } => Ok(StatementHandle { id, cache_hit }),
            other => Err(unexpected(other, "Prepared")),
        }
    }

    /// Bulk-load delimited bytes (first line a `name:type[@domain]`
    /// header) into `relation`. Takes the server's write lock.
    pub fn load_csv(
        &mut self,
        relation: &str,
        delimiter: WireDelimiter,
        data: Vec<u8>,
    ) -> Result<String, ClientError> {
        expect_ok(self.round_trip(&Request::LoadCsv {
            relation: relation.into(),
            delimiter,
            data,
        })?)
    }

    /// Ask the server to persist its database as an image at `path`,
    /// resolved (relative, no `..`) under the server's configured image
    /// directory; servers without one reject the request.
    pub fn save_image(&mut self, path: &str) -> Result<String, ClientError> {
        expect_ok(self.round_trip(&Request::SaveImage { path: path.into() })?)
    }

    /// Stored relations, in name order.
    pub fn list_relations(&mut self) -> Result<Vec<RelationInfo>, ClientError> {
        expect_relations(self.round_trip(&Request::ListRelations)?)
    }

    /// Server + plan-cache statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        expect_stats(self.round_trip(&Request::Stats)?)
    }

    /// Set an option: the session-scoped `threads` or `scheduler`, or
    /// the server-wide `slow_ms`.
    pub fn set_option(&mut self, key: &str, value: &str) -> Result<String, ClientError> {
        expect_ok(self.round_trip(&Request::SetOption {
            key: key.into(),
            value: value.into(),
        })?)
    }

    /// Close the session gracefully.
    pub fn quit(mut self) -> Result<(), ClientError> {
        expect_ok(self.round_trip(&Request::Quit)?).map(drop)
    }
}
