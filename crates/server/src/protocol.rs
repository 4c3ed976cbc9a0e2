//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame is `u8 tag | u32 payload_len (LE) | payload`. A
//! connection opens with a [`Request::Hello`] carrying the protocol
//! magic and version; the server answers [`Response::Hello`], or — for
//! any version but [`PROTOCOL_VERSION`], the only one served — an
//! `Error` frame, and closes. Payloads use the same little-endian,
//! length-prefixed-string vocabulary as the storage layer
//! ([`eh_storage::wire`]), and query results travel as
//! [`eh_storage::ResultBatch`] payloads — schema + flat columnar
//! tuples + the dictionary domains the schema references — so string
//! columns decode client-side with no shared state.
//!
//! | tag | frame | payload |
//! |-----|-------|---------|
//! | 0x01 | `Hello` | magic `EHSP`, u32 version |
//! | 0x02 | `Exec` | u8 flags (1 = statement, 2 = shard, 4 = trace), query text *or* u64 statement id, then — per flag — u32 shard index + u32 shard count, u64 trace id |
//! | 0x03 | `Prepare` | single-rule query text |
//! | 0x05 | `LoadCsv` | relation, delimiter tag, CSV/TSV bytes |
//! | 0x06 | `SaveImage` | relative path under the server's image dir |
//! | 0x07 | `ListRelations` | — |
//! | 0x08 | `Stats` | — |
//! | 0x09 | `SetOption` | key, value (session-scoped) |
//! | 0x0A | `Quit` | — |
//! | 0x0D | `SlowLog` | u32 entry limit |
//! | 0x81 | `Hello` | u32 version, server banner |
//! | 0x82 | `Ok` | message |
//! | 0x83 | `Error` | message |
//! | 0x84 | `Result` | u8 flags (1 = sharded, 2 = spans), u64 level-0 values, u64 elapsed ns, length-prefixed [`eh_storage::ResultBatch`], then — if flagged — a length-prefixed [`eh_storage::trace_wire`] span tree |
//! | 0x85 | `Prepared` | u64 id, u8 plan-cache hit |
//! | 0x86 | `Relations` | count, then name/arity/rows/schema each |
//! | 0x87 | `Stats` | see [`ServerStats`] |
//! | 0x8A | `SlowLog` | count, then trace id / query / rows / elapsed ns / sharded / hot span each |
//!
//! One request frame runs a query — [`Request::Exec`] — whatever it is
//! (ad-hoc text or prepared statement), whichever slice of it (whole or
//! one level-0 shard) and however observed (plain or traced); one
//! response frame — [`Response::Result`] — answers it. No payload has
//! an optional tail: a flags byte says exactly which fields follow.
//!
//! Frames come off the network, so every decode path returns errors
//! instead of panicking on malformed bytes — enforced file-wide by the
//! `decode-panic-free` rule of `eh_lint`.

use eh_storage::wire::{put_str, put_u32, put_u64, ByteReader};
use eh_storage::StorageError;
use std::fmt;
use std::io::{self, Read, Write};

/// First bytes of every connection's `Hello` payload.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"EHSP";
/// The protocol version — the only one served. Version 3 folded the
/// four query-running frames of version 2 into [`Request::Exec`] and
/// their three answers into [`Response::Result`].
pub const PROTOCOL_VERSION: u32 = 3;
/// Frame header: `u8 tag | u32 payload_len (LE)`.
const HEADER_LEN: usize = 5;
/// Upper bound on a single frame's payload (256 MiB) — a corrupt or
/// hostile length field must not cause an absurd allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;
/// What [`read_frame`] reserves for a payload before any of it has
/// arrived: a frame up to this size is read into one exact allocation,
/// a larger one grows, at most doubling, as its bytes come in.
const READ_RESERVE: usize = 64 << 10;

/// Protocol-level failure: a frame that could not be parsed.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(io::Error),
    /// Structurally invalid frame (bad tag, truncated payload, ...).
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<StorageError> for ProtoError {
    fn from(e: StorageError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

/// CSV delimiter selector carried by `LoadCsv` (mirrors
/// [`eh_storage::Delimiter`] without exposing raw bytes on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDelimiter {
    /// Comma-separated (`.csv`).
    Comma,
    /// Tab-separated (`.tsv` / `.txt`).
    Tab,
    /// Any run of ASCII whitespace (edge lists).
    Whitespace,
}

impl WireDelimiter {
    fn tag(self) -> u8 {
        match self {
            WireDelimiter::Comma => 0,
            WireDelimiter::Tab => 1,
            WireDelimiter::Whitespace => 2,
        }
    }

    fn parse(tag: u8) -> Result<WireDelimiter, ProtoError> {
        match tag {
            0 => Ok(WireDelimiter::Comma),
            1 => Ok(WireDelimiter::Tab),
            2 => Ok(WireDelimiter::Whitespace),
            t => Err(ProtoError::Malformed(format!("unknown delimiter tag {t}"))),
        }
    }

    /// Pick the conventional delimiter for a file extension
    /// (`.tsv`/`.txt` → tab, else comma).
    pub fn for_path(path: &std::path::Path) -> WireDelimiter {
        match path.extension().and_then(|e| e.to_str()) {
            Some("tsv") | Some("txt") => WireDelimiter::Tab,
            _ => WireDelimiter::Comma,
        }
    }
}

/// What an [`Request::Exec`] runs.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecTarget {
    /// Query text: one or more rules, `.`-terminated. Parsed, planned
    /// and executed read-only; results are not registered server-side
    /// (rules within one program see each other through the executor's
    /// overlay).
    Text(String),
    /// A statement id from [`Response::Prepared`].
    Stmt(u64),
}

/// A client-to-server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake: must be the first frame on a connection.
    Hello {
        /// Client protocol version (must equal [`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Run a query; answered by [`Response::Result`].
    Exec {
        /// The query: text, or a statement pinned by `Prepare`.
        target: ExecTarget,
        /// `Some((index, count))` executes one contiguous level-0 shard,
        /// `index < count`. A cluster coordinator sends the same target
        /// to every worker with a distinct index; each worker joins only
        /// its slice of the root node's level-0 values and the
        /// coordinator ⊕-merges the partial batches in shard order.
        shard: Option<(u32, u32)>,
        /// `Some(id)` runs profiled and returns the span tree, tagged
        /// with this (client- or coordinator-minted) trace id.
        trace: Option<u64>,
    },
    /// Compile a single rule through the shared plan cache and pin it
    /// to this session; answers [`Response::Prepared`].
    Prepare {
        /// The rule text.
        text: String,
    },
    /// Bulk-load delimited text (shipped inline — the file lives
    /// client-side) into a relation; takes the server's write lock.
    LoadCsv {
        /// Target relation name.
        relation: String,
        /// Field delimiter.
        delimiter: WireDelimiter,
        /// Raw file bytes, first line a `name:type[@domain]` header.
        data: Vec<u8>,
    },
    /// Persist the whole database as an image. The server resolves the
    /// path under its configured image directory
    /// ([`crate::ServerOptions::image_dir`]) and rejects the frame when
    /// no directory is configured or the path is not purely relative.
    SaveImage {
        /// Relative image path (no `..`/absolute components).
        path: String,
    },
    /// List stored relations (name order).
    ListRelations,
    /// Server + plan-cache statistics.
    Stats,
    /// Set an option: `threads` and `scheduler` affect only this
    /// connection's executions, `slow_ms` the server-wide slow log.
    SetOption {
        /// Option name.
        key: String,
        /// Option value.
        value: String,
    },
    /// Close the session gracefully.
    Quit,
    /// Fetch recent entries from the server's slow-query log.
    SlowLog {
        /// Most-recent entry limit.
        limit: u32,
    },
}

const REQ_HELLO: u8 = 0x01;
const REQ_EXEC: u8 = 0x02;
const REQ_PREPARE: u8 = 0x03;
const REQ_LOAD_CSV: u8 = 0x05;
const REQ_SAVE_IMAGE: u8 = 0x06;
const REQ_LIST: u8 = 0x07;
const REQ_STATS: u8 = 0x08;
const REQ_SET: u8 = 0x09;
const REQ_QUIT: u8 = 0x0A;
const REQ_SLOW_LOG: u8 = 0x0D;

const EXEC_STMT: u8 = 1;
const EXEC_SHARD: u8 = 2;
const EXEC_TRACE: u8 = 4;
const EXEC_FLAGS: u8 = EXEC_STMT | EXEC_SHARD | EXEC_TRACE;

const RESULT_SHARDED: u8 = 1;
const RESULT_SPANS: u8 = 2;
const RESULT_FLAGS: u8 = RESULT_SHARDED | RESULT_SPANS;

/// Read a flags byte, rejecting bits this version does not define: a
/// frame carrying one has fields this decoder would misread.
fn read_flags(r: &mut ByteReader<'_>, known: u8, what: &str) -> Result<u8, ProtoError> {
    let flags = r.u8(what)?;
    if flags & !known != 0 {
        return Err(ProtoError::Malformed(format!("bad {what} {flags:#04x}")));
    }
    Ok(flags)
}

impl Request {
    /// Serialize to `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let tag = self.encode_into(&mut p);
        (tag, p)
    }

    /// Append the payload to `p`; returns the tag.
    fn encode_into(&self, p: &mut Vec<u8>) -> u8 {
        match self {
            Request::Hello { version } => {
                p.extend_from_slice(&PROTOCOL_MAGIC);
                put_u32(p, *version);
                REQ_HELLO
            }
            Request::Exec {
                target,
                shard,
                trace,
            } => {
                let stmt = matches!(target, ExecTarget::Stmt(_));
                p.push(
                    if stmt { EXEC_STMT } else { 0 }
                        | if shard.is_some() { EXEC_SHARD } else { 0 }
                        | if trace.is_some() { EXEC_TRACE } else { 0 },
                );
                match target {
                    ExecTarget::Text(text) => put_str(p, text),
                    ExecTarget::Stmt(id) => put_u64(p, *id),
                }
                if let Some((index, count)) = shard {
                    put_u32(p, *index);
                    put_u32(p, *count);
                }
                if let Some(id) = trace {
                    put_u64(p, *id);
                }
                REQ_EXEC
            }
            Request::Prepare { text } => {
                put_str(p, text);
                REQ_PREPARE
            }
            Request::LoadCsv {
                relation,
                delimiter,
                data,
            } => {
                put_str(p, relation);
                p.push(delimiter.tag());
                put_u32(p, data.len() as u32);
                p.extend_from_slice(data);
                REQ_LOAD_CSV
            }
            Request::SaveImage { path } => {
                put_str(p, path);
                REQ_SAVE_IMAGE
            }
            Request::ListRelations => REQ_LIST,
            Request::Stats => REQ_STATS,
            Request::SetOption { key, value } => {
                put_str(p, key);
                put_str(p, value);
                REQ_SET
            }
            Request::Quit => REQ_QUIT,
            Request::SlowLog { limit } => {
                put_u32(p, *limit);
                REQ_SLOW_LOG
            }
        }
    }

    /// Parse a `(tag, payload)` frame read off the wire.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = ByteReader::new(payload);
        let req = match tag {
            REQ_HELLO => {
                let magic = r.take(4, "hello magic")?;
                if magic != PROTOCOL_MAGIC {
                    return Err(ProtoError::Malformed(format!(
                        "bad handshake magic {magic:02x?}; not an EmptyHeaded client"
                    )));
                }
                Request::Hello {
                    version: r.u32("hello version")?,
                }
            }
            REQ_EXEC => {
                let flags = read_flags(&mut r, EXEC_FLAGS, "exec flags")?;
                let target = if flags & EXEC_STMT != 0 {
                    ExecTarget::Stmt(r.u64("statement id")?)
                } else {
                    ExecTarget::Text(r.str("query text")?)
                };
                let shard = if flags & EXEC_SHARD != 0 {
                    let index = r.u32("shard index")?;
                    let count = r.u32("shard count")?;
                    if index >= count {
                        return Err(ProtoError::Malformed(format!(
                            "shard index {index} out of range for {count} shards"
                        )));
                    }
                    Some((index, count))
                } else {
                    None
                };
                let trace = if flags & EXEC_TRACE != 0 {
                    Some(r.u64("trace id")?)
                } else {
                    None
                };
                Request::Exec {
                    target,
                    shard,
                    trace,
                }
            }
            REQ_PREPARE => Request::Prepare {
                text: r.str("prepare text")?,
            },
            REQ_LOAD_CSV => {
                let relation = r.str("relation name")?;
                let delimiter = WireDelimiter::parse(r.u8("delimiter tag")?)?;
                let len = r.u32("data length")? as usize;
                let data = r.take(len, "csv data")?.to_vec();
                Request::LoadCsv {
                    relation,
                    delimiter,
                    data,
                }
            }
            REQ_SAVE_IMAGE => Request::SaveImage {
                path: r.str("image path")?,
            },
            REQ_LIST => Request::ListRelations,
            REQ_STATS => Request::Stats,
            REQ_SET => Request::SetOption {
                key: r.str("option key")?,
                value: r.str("option value")?,
            },
            REQ_QUIT => Request::Quit,
            REQ_SLOW_LOG => Request::SlowLog {
                limit: r.u32("slow-log limit")?,
            },
            t => return Err(ProtoError::Malformed(format!("unknown request tag {t}"))),
        };
        if !r.is_empty() {
            return Err(ProtoError::Malformed(format!(
                "request frame has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

/// One stored relation, as reported by `ListRelations`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationInfo {
    /// Relation name.
    pub name: String,
    /// Number of key attributes.
    pub arity: u32,
    /// Stored row count.
    pub rows: u64,
    /// Schema in `Name(col:type@domain, ...)` display form.
    pub schema: String,
}

/// Server + shared-plan-cache statistics, as reported by `Stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Current catalog epoch (bumps on every load/register/drop).
    pub epoch: u64,
    /// Stored relation count.
    pub relations: u64,
    /// Sessions accepted since startup.
    pub sessions_total: u64,
    /// Sessions currently connected.
    pub sessions_active: u64,
    /// `Exec` frames that carried query text.
    pub queries: u64,
    /// `Exec` frames that named a prepared statement.
    pub exec_prepared: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (compilations).
    pub cache_misses: u64,
    /// Plans discarded by catalog-epoch invalidation.
    pub cache_invalidations: u64,
    /// Plans currently cached.
    pub cache_entries: u64,
    /// Plan-cache capacity.
    pub cache_capacity: u64,
    /// Byte totals and per-frame latency. Always on the wire — `None`
    /// (what `..Default::default()` builds in-process) encodes as the
    /// empty extension, and a decoded frame always holds `Some`.
    pub ext: Option<StatsExt>,
}

/// Latency/count statistics for one frame kind, carried in
/// [`StatsExt`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Frame kind (`query`, `prepare`, `exec_prepared`, ... — see
    /// [`crate::FRAME_KINDS`]).
    pub name: String,
    /// Frames of this kind served.
    pub count: u64,
    /// Total service time across those frames, nanoseconds.
    pub total_ns: u64,
    /// Populated log₂ latency buckets, `(bucket index, count)` — see
    /// [`eh_obs::bucket_of`].
    pub buckets: Vec<(u32, u64)>,
}

impl FrameStat {
    /// Rehydrate the sparse bucket list into a full histogram snapshot
    /// (for `mean()`/`percentile()` on the client side).
    pub fn histogram(&self) -> eh_obs::HistogramSnapshot {
        let mut snap = eh_obs::HistogramSnapshot {
            count: self.count,
            sum: self.total_ns,
            ..Default::default()
        };
        for &(b, c) in &self.buckets {
            if let Some(slot) = snap.buckets.get_mut(b as usize) {
                *slot = c;
            }
        }
        snap
    }
}

/// The wire half of [`ServerStats`] read from the server's metrics
/// registry rather than its counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsExt {
    /// Bytes read off client sockets since startup.
    pub bytes_in: u64,
    /// Bytes written to client sockets since startup.
    pub bytes_out: u64,
    /// Per-frame-kind service latency, registration order.
    pub frames: Vec<FrameStat>,
}

/// A server-to-client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Hello {
        /// Server protocol version.
        version: u32,
        /// Human-readable server banner.
        server: String,
    },
    /// Command succeeded with no result rows.
    Ok {
        /// Human-readable detail (e.g. `loaded 6 rows`).
        message: String,
    },
    /// Command failed; the session stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The answer to [`Request::Exec`]. The batch and span tree are
    /// kept as raw encoded bytes so the transport layer never
    /// re-encodes them.
    Result {
        /// True when the worker actually restricted level 0 to the
        /// requested shard. False on a shard request means the plan was
        /// not shard-mergeable (e.g. a non-trivial head expression or a
        /// multi-rule program) and `batch` holds the *full* answer — the
        /// coordinator must use exactly one such batch and discard the
        /// rest.
        sharded: bool,
        /// Level-0 values this shard owned, 0 unless `sharded` (skew
        /// diagnosis: the coordinator compares each worker's share of
        /// these against its share of elapsed time).
        level0_values: u64,
        /// Server-side execution time, nanoseconds.
        elapsed_ns: u64,
        /// `ResultBatch::encode()` output: the result, or this shard's
        /// partial of it.
        batch: Vec<u8>,
        /// `eh_storage::trace_wire::encode_trace` output, tagged with
        /// the request's trace id: present iff the request carried one.
        spans: Option<Vec<u8>>,
    },
    /// A statement was compiled (or fetched from the shared cache).
    Prepared {
        /// Session-scoped statement id for `ExecPrepared`.
        id: u64,
        /// True when the plan came from the shared cache.
        cache_hit: bool,
    },
    /// Stored relations, in name order.
    Relations {
        /// One entry per relation.
        entries: Vec<RelationInfo>,
    },
    /// Server statistics.
    Stats(ServerStats),
    /// Recent slow-query-log entries, newest first.
    SlowLog {
        /// One entry per retained slow query.
        entries: Vec<eh_obs::SlowQueryEntry>,
    },
}

const RESP_HELLO: u8 = 0x81;
const RESP_OK: u8 = 0x82;
const RESP_ERROR: u8 = 0x83;
const RESP_RESULT: u8 = 0x84;
const RESP_PREPARED: u8 = 0x85;
const RESP_RELATIONS: u8 = 0x86;
const RESP_STATS: u8 = 0x87;
const RESP_SLOW_LOG: u8 = 0x8A;

impl Response {
    /// Serialize to `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let tag = self.encode_into(&mut p);
        (tag, p)
    }

    /// Append the payload to `p`; returns the tag.
    fn encode_into(&self, p: &mut Vec<u8>) -> u8 {
        match self {
            Response::Hello { version, server } => {
                put_u32(p, *version);
                put_str(p, server);
                RESP_HELLO
            }
            Response::Ok { message } => {
                put_str(p, message);
                RESP_OK
            }
            Response::Error { message } => {
                put_str(p, message);
                RESP_ERROR
            }
            Response::Result {
                sharded,
                level0_values,
                elapsed_ns,
                batch,
                spans,
            } => {
                p.push(
                    if *sharded { RESULT_SHARDED } else { 0 }
                        | if spans.is_some() { RESULT_SPANS } else { 0 },
                );
                put_u64(p, *level0_values);
                put_u64(p, *elapsed_ns);
                put_u32(p, batch.len() as u32);
                p.extend_from_slice(batch);
                if let Some(t) = spans {
                    put_u32(p, t.len() as u32);
                    p.extend_from_slice(t);
                }
                RESP_RESULT
            }
            Response::Prepared { id, cache_hit } => {
                put_u64(p, *id);
                p.push(*cache_hit as u8);
                RESP_PREPARED
            }
            Response::Relations { entries } => {
                put_u32(p, entries.len() as u32);
                for e in entries {
                    put_str(p, &e.name);
                    put_u32(p, e.arity);
                    put_u64(p, e.rows);
                    put_str(p, &e.schema);
                }
                RESP_RELATIONS
            }
            Response::Stats(s) => {
                for v in [
                    s.epoch,
                    s.relations,
                    s.sessions_total,
                    s.sessions_active,
                    s.queries,
                    s.exec_prepared,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_invalidations,
                    s.cache_entries,
                    s.cache_capacity,
                ] {
                    put_u64(p, v);
                }
                let empty = StatsExt::default();
                let ext = s.ext.as_ref().unwrap_or(&empty);
                put_u64(p, ext.bytes_in);
                put_u64(p, ext.bytes_out);
                put_u32(p, ext.frames.len() as u32);
                for f in &ext.frames {
                    put_str(p, &f.name);
                    put_u64(p, f.count);
                    put_u64(p, f.total_ns);
                    put_u32(p, f.buckets.len() as u32);
                    for (bucket, c) in &f.buckets {
                        put_u32(p, *bucket);
                        put_u64(p, *c);
                    }
                }
                RESP_STATS
            }
            Response::SlowLog { entries } => {
                put_u32(p, entries.len() as u32);
                for e in entries {
                    put_u64(p, e.trace_id);
                    put_str(p, &e.query);
                    put_u64(p, e.rows);
                    put_u64(p, e.elapsed_ns);
                    p.push(e.sharded as u8);
                    put_str(p, &e.hot_span);
                }
                RESP_SLOW_LOG
            }
        }
    }

    /// Parse a `(tag, payload)` frame read off the wire.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = ByteReader::new(payload);
        let resp = match tag {
            RESP_HELLO => Response::Hello {
                version: r.u32("hello version")?,
                server: r.str("server banner")?,
            },
            RESP_OK => Response::Ok {
                message: r.str("ok message")?,
            },
            RESP_ERROR => Response::Error {
                message: r.str("error message")?,
            },
            RESP_RESULT => {
                let flags = read_flags(&mut r, RESULT_FLAGS, "result flags")?;
                let level0_values = r.u64("level-0 values")?;
                let elapsed_ns = r.u64("elapsed ns")?;
                let len = r.u32("batch length")? as usize;
                let batch = r.take(len, "batch")?.to_vec();
                let spans = if flags & RESULT_SPANS != 0 {
                    let len = r.u32("span tree length")? as usize;
                    Some(r.take(len, "span tree")?.to_vec())
                } else {
                    None
                };
                Response::Result {
                    sharded: flags & RESULT_SHARDED != 0,
                    level0_values,
                    elapsed_ns,
                    batch,
                    spans,
                }
            }
            RESP_PREPARED => Response::Prepared {
                id: r.u64("statement id")?,
                cache_hit: r.u8("cache hit flag")? != 0,
            },
            RESP_RELATIONS => {
                let n = r.u32("relation count")? as usize;
                let mut entries = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    entries.push(RelationInfo {
                        name: r.str("relation name")?,
                        arity: r.u32("arity")?,
                        rows: r.u64("row count")?,
                        schema: r.str("schema")?,
                    });
                }
                Response::Relations { entries }
            }
            RESP_STATS => {
                let mut take = || r.u64("stats field");
                let mut stats = ServerStats {
                    epoch: take()?,
                    relations: take()?,
                    sessions_total: take()?,
                    sessions_active: take()?,
                    queries: take()?,
                    exec_prepared: take()?,
                    cache_hits: take()?,
                    cache_misses: take()?,
                    cache_invalidations: take()?,
                    cache_entries: take()?,
                    cache_capacity: take()?,
                    ext: None,
                };
                let bytes_in = r.u64("bytes in")?;
                let bytes_out = r.u64("bytes out")?;
                let nframes = r.u32("frame-stat count")? as usize;
                let mut frames = Vec::with_capacity(nframes.min(256));
                for _ in 0..nframes {
                    let name = r.str("frame name")?;
                    let count = r.u64("frame count")?;
                    let total_ns = r.u64("frame total ns")?;
                    let nbuckets = r.u32("bucket count")? as usize;
                    let mut buckets = Vec::with_capacity(nbuckets.min(256));
                    for _ in 0..nbuckets {
                        buckets.push((r.u32("bucket index")?, r.u64("bucket value")?));
                    }
                    frames.push(FrameStat {
                        name,
                        count,
                        total_ns,
                        buckets,
                    });
                }
                stats.ext = Some(StatsExt {
                    bytes_in,
                    bytes_out,
                    frames,
                });
                Response::Stats(stats)
            }
            RESP_SLOW_LOG => {
                let n = r.u32("slow-log entry count")? as usize;
                // Smallest possible entry: trace id + two empty strings
                // + rows + elapsed + flag = 33 bytes.
                if n > payload.len() / 33 {
                    return Err(ProtoError::Malformed(format!(
                        "slow log claims {n} entries in a {}-byte payload",
                        payload.len()
                    )));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let trace_id = r.u64("slow trace id")?;
                    let query = r.str("slow query text")?;
                    let rows = r.u64("slow rows")?;
                    let elapsed_ns = r.u64("slow elapsed ns")?;
                    let sharded = match r.u8("slow sharded flag")? {
                        0 => false,
                        1 => true,
                        f => {
                            return Err(ProtoError::Malformed(format!("bad sharded flag {f}")));
                        }
                    };
                    let hot_span = r.str("slow hot span")?;
                    entries.push(eh_obs::SlowQueryEntry {
                        trace_id,
                        query,
                        rows,
                        elapsed_ns,
                        sharded,
                        hot_span,
                    });
                }
                Response::SlowLog { entries }
            }
            t => return Err(ProtoError::Malformed(format!("unknown response tag {t}"))),
        };
        if !r.is_empty() {
            return Err(ProtoError::Malformed(format!(
                "response frame has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

/// Write one frame. The header is reserved up front and `encode`
/// appends the payload in place (returning the tag), so the frame goes
/// out in a single `write_all` — never interleaved mid-write by
/// buffering layers — and its payload, however large, is copied once on
/// the way to the socket (`payload_hint` sizes the buffer so that copy
/// never regrows it).
fn write_frame(
    w: &mut impl Write,
    payload_hint: usize,
    encode: impl FnOnce(&mut Vec<u8>) -> u8,
) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload_hint);
    frame.resize(HEADER_LEN, 0);
    frame[0] = encode(&mut frame);
    let len = frame.len() - HEADER_LEN;
    if len > MAX_FRAME_LEN {
        // Refusing here (not just on the receive side) keeps the u32
        // length field exact and the stream framed: a silently wrapped
        // length would desynchronize the peer with no error anywhere.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    // lint:allow(decode-panic-free): `frame` starts as HEADER_LEN zero bytes and only grows
    frame[1..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. An EOF before the first header byte surfaces as
/// [`io::ErrorKind::UnexpectedEof`] — the session layer treats that as
/// a clean disconnect — and so does a payload shorter than its header
/// says. The header is not trusted with memory: the payload buffer grows
/// with the bytes that actually arrive, so a header alone reserves at
/// most 64 KiB whatever length it claims.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let tag = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"),
        ));
    }
    // Each step at most doubles what has arrived and the last one ends at
    // exactly `len`: no allocation outruns the bytes that back it, and
    // none overshoots the frame as read_to_end's own growth would (up to
    // 2x, a peak-memory cost on every large frame).
    let mut payload = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(payload.len().max(READ_RESERVE));
        payload.reserve_exact(step);
        if r.by_ref().take(step as u64).read_to_end(&mut payload)? < step {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("frame payload ended after {} of {len} bytes", payload.len()),
            ));
        }
    }
    Ok((tag, payload))
}

/// Write a request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, 0, |p| req.encode_into(p))
}

/// Write a response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    // Sized for the batch — the large part — and the fields around it.
    let hint = match resp {
        Response::Result { batch, .. } => 32 + batch.len(),
        _ => 0,
    };
    write_frame(w, hint, |p| resp.encode_into(p))
}

/// Read and parse a request frame.
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtoError> {
    let (tag, payload) = read_frame(r)?;
    Request::decode(tag, &payload)
}

/// Read and parse a response frame.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let (tag, payload) = read_frame(r)?;
    Response::decode(tag, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(back, req);
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(back, resp);
    }

    /// All eight `{text|stmt} × shard? × trace?` shapes of `Exec`.
    fn exec_shapes() -> Vec<Request> {
        let mut out = Vec::new();
        for target in [
            ExecTarget::Text("C(;w:long) :- E(x,y); w=<<COUNT(*)>>.".into()),
            ExecTarget::Stmt(7),
        ] {
            for shard in [None, Some((1, 4))] {
                for trace in [None, Some(0xabcd_ef01_2345_6789)] {
                    out.push(Request::Exec {
                        target: target.clone(),
                        shard,
                        trace,
                    });
                }
            }
        }
        out
    }

    /// The result frame with and without spans, sharded and not.
    fn result_shapes() -> Vec<Response> {
        vec![
            Response::Result {
                sharded: false,
                level0_values: 0,
                elapsed_ns: 1,
                batch: vec![1, 2, 3],
                spans: None,
            },
            Response::Result {
                sharded: true,
                level0_values: 1234,
                elapsed_ns: 56_789,
                batch: vec![9, 8, 7, 6, 5],
                spans: Some(vec![4; 16]),
            },
            Response::Result {
                sharded: false,
                level0_values: 0,
                elapsed_ns: 2,
                batch: Vec::new(),
                spans: Some(Vec::new()),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        for exec in exec_shapes() {
            round_trip_request(exec);
        }
        round_trip_request(Request::Prepare {
            text: "C(;w:long) :- E(x,y); w=<<COUNT(*)>>.".into(),
        });
        round_trip_request(Request::LoadCsv {
            relation: "E".into(),
            delimiter: WireDelimiter::Tab,
            data: b"src:u32\tdst:u32\n0\t1\n".to_vec(),
        });
        round_trip_request(Request::SaveImage {
            path: "/tmp/x.ehdb".into(),
        });
        round_trip_request(Request::ListRelations);
        round_trip_request(Request::Stats);
        round_trip_request(Request::SetOption {
            key: "threads".into(),
            value: "4".into(),
        });
        round_trip_request(Request::Quit);
        round_trip_request(Request::SlowLog { limit: 32 });
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Hello {
            version: PROTOCOL_VERSION,
            server: "eh_server 0.1".into(),
        });
        round_trip_response(Response::Ok {
            message: "loaded 6 rows".into(),
        });
        round_trip_response(Response::Error {
            message: "parse error".into(),
        });
        for result in result_shapes() {
            round_trip_response(result);
        }
        round_trip_response(Response::Prepared {
            id: 3,
            cache_hit: true,
        });
        round_trip_response(Response::Relations {
            entries: vec![RelationInfo {
                name: "E".into(),
                arity: 2,
                rows: 6,
                schema: "E(src:u32, dst:u32)".into(),
            }],
        });
        round_trip_response(Response::SlowLog {
            entries: vec![
                eh_obs::SlowQueryEntry {
                    trace_id: 7,
                    query: "T(x,y) :- E(x,y).".into(),
                    rows: 10,
                    elapsed_ns: 2_000_000,
                    sharded: true,
                    hot_span: "query/node 0/level 1".into(),
                },
                eh_obs::SlowQueryEntry::default(),
            ],
        });
        round_trip_response(Response::SlowLog {
            entries: Vec::new(),
        });
    }

    #[test]
    fn exec_frames_reject_truncation_trailing_bytes_and_bad_flags() {
        for exec in exec_shapes() {
            let (tag, payload) = exec.encode();
            // Truncated at every prefix length: must error, never panic
            // — the flags byte fixes the layout, so no prefix of a valid
            // payload is itself valid.
            for cut in 0..payload.len() {
                assert!(
                    Request::decode(tag, &payload[..cut]).is_err(),
                    "{exec:?} cut at {cut}"
                );
            }
            let mut noisy = payload.clone();
            noisy.push(0);
            assert!(Request::decode(tag, &noisy).is_err(), "{exec:?} + 1 byte");
            // An undefined flag bit is rejected, not ignored.
            let mut flagged = payload;
            flagged[0] |= 0x80;
            assert!(
                Request::decode(tag, &flagged).is_err(),
                "{exec:?} flag 0x80"
            );
        }
    }

    #[test]
    fn exec_rejects_bad_shards() {
        // count == 0 and index >= count are structurally invalid, for
        // text and statement targets alike.
        for target in [
            ExecTarget::Text("T(x) :- E(x,y).".into()),
            ExecTarget::Stmt(1),
        ] {
            for shard in [(0, 0), (2, 2), (5, 3)] {
                let (tag, payload) = Request::Exec {
                    target: target.clone(),
                    shard: Some(shard),
                    trace: None,
                }
                .encode();
                assert!(
                    matches!(
                        Request::decode(tag, &payload),
                        Err(ProtoError::Malformed(_))
                    ),
                    "{target:?} shard {shard:?}"
                );
            }
        }
    }

    #[test]
    fn result_frames_reject_truncation_and_corruption() {
        for result in result_shapes() {
            let (tag, payload) = result.encode();
            for cut in 0..payload.len() {
                assert!(
                    Response::decode(tag, &payload[..cut]).is_err(),
                    "{result:?} cut at {cut}"
                );
            }
            // Trailing garbage after a complete payload is rejected too.
            let mut noisy = payload.clone();
            noisy.push(0xFF);
            assert!(Response::decode(tag, &noisy).is_err());
            // An undefined flag bit is rejected.
            let mut flagged = payload.clone();
            flagged[0] |= 4;
            assert!(Response::decode(tag, &flagged).is_err());
            // A batch length field pointing past the payload is rejected.
            let mut overlong = payload;
            let off = 1 + 8 + 8;
            overlong[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(Response::decode(tag, &overlong).is_err());
        }
    }

    #[test]
    fn spans_are_flagged_never_inferred() {
        // The traced forms append exactly their fields...
        let exec = |trace| Request::Exec {
            target: ExecTarget::Text("T(x) :- E(x,y).".into()),
            shard: Some((0, 2)),
            trace,
        };
        let (_, base) = exec(None).encode();
        let (tag, traced) = exec(Some(42)).encode();
        assert_eq!(traced.len(), base.len() + 8);
        // ...and stripping them without clearing the flag is an error,
        // not a silent `None` (what a version-gated tail would give).
        assert!(Request::decode(tag, &traced[..base.len()]).is_err());
        let (tag, payload) = Response::Result {
            sharded: true,
            level0_values: 1,
            elapsed_ns: 2,
            batch: vec![1, 2, 3],
            spans: Some(vec![9; 16]),
        }
        .encode();
        assert!(Response::decode(tag, &payload[..payload.len() - (4 + 16)]).is_err());
    }

    #[test]
    fn slow_log_frames_reject_truncation_and_hostile_counts() {
        let (tag, payload) = Response::SlowLog {
            entries: vec![eh_obs::SlowQueryEntry {
                trace_id: 1,
                query: "q".into(),
                rows: 2,
                elapsed_ns: 3,
                sharded: false,
                hot_span: "h".into(),
            }],
        }
        .encode();
        for cut in 0..payload.len() {
            assert!(Response::decode(tag, &payload[..cut]).is_err());
        }
        // A hostile entry count larger than the payload could hold is
        // rejected before any allocation.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        assert!(Response::decode(RESP_SLOW_LOG, &hostile).is_err());
    }

    #[test]
    fn stats_always_carry_the_extension() {
        let stats = ServerStats {
            epoch: 4,
            queries: 7,
            ext: Some(StatsExt {
                bytes_in: 1024,
                bytes_out: 4096,
                frames: vec![FrameStat {
                    name: "query".into(),
                    count: 7,
                    total_ns: 70_000,
                    buckets: vec![(13, 5), (14, 2)],
                }],
            }),
            ..Default::default()
        };
        round_trip_response(Response::Stats(stats.clone()));
        // `ext: None` is an in-process convenience: on the wire it is
        // the empty extension, and decodes as `Some`.
        let (tag, payload) = Response::Stats(ServerStats::default()).encode();
        assert_eq!(
            Response::decode(tag, &payload).unwrap(),
            Response::Stats(ServerStats {
                ext: Some(StatsExt::default()),
                ..Default::default()
            })
        );
        // The rehydrated histogram preserves count/sum and buckets.
        let ext = stats.ext.clone().unwrap();
        let h = ext.frames[0].histogram();
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 70_000);
        assert_eq!(h.nonzero(), vec![(13, 5), (14, 2)]);
        // Truncation anywhere — inside the extension or cutting it off
        // whole, which is what a version-2 peer's frame looks like — is
        // an error.
        let (tag, payload) = Response::Stats(stats).encode();
        for cut in 0..payload.len() {
            assert!(
                Response::decode(tag, &payload[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    /// One raw frame: what `write_frame` produces for `(tag, payload)`.
    fn raw_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![tag];
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn frames_are_tag_length_payload() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::SlowLog { limit: 9 }).unwrap();
        assert_eq!(buf, raw_frame(REQ_SLOW_LOG, &9u32.to_le_bytes()));
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = raw_frame(REQ_HELLO, b"XXXX\x01\x00\x00\x00");
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::decode(0x7F, &[]).is_err());
        assert!(Response::decode(0x10, &[]).is_err());
        // The version-2 query frames are gone, not aliased.
        for retired in [0x04, 0x0B, 0x0C] {
            assert!(Request::decode(retired, &[0; 16]).is_err());
        }
        for retired in [0x88, 0x89] {
            assert!(Response::decode(retired, &[0; 32]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (tag, mut payload) = Request::Prepare { text: "q".into() }.encode();
        payload.push(0);
        assert!(Request::decode(tag, &payload).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.push(0x02);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn eof_is_unexpected_eof() {
        let err = read_frame(&mut (&[] as &[u8])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn delimiter_for_path() {
        use std::path::Path;
        assert_eq!(
            WireDelimiter::for_path(Path::new("a.tsv")),
            WireDelimiter::Tab
        );
        assert_eq!(
            WireDelimiter::for_path(Path::new("a.csv")),
            WireDelimiter::Comma
        );
    }
}
