//! Cluster coordinator: scatter-gather distributed execution.
//!
//! A [`Cluster`] connects to N running `eh_server` processes (the shard
//! workers) and executes each query by scattering `Exec` frames — one
//! per worker, carrying the query text plus this worker's
//! `(shard_index, shard_count)` — then gathering the partial results and
//! merging them into a single answer. With a trace id on the scatter,
//! every worker also profiles its shard and the coordinator stitches
//! the span trees into one trace.
//!
//! # Determinism
//!
//! The merge is *range-ordered*: workers partition the root node's
//! level-0 value list into contiguous index ranges (worker `k` owns
//! `[len·k/n, len·(k+1)/n)`), and the coordinator folds partials in
//! worker order. Per-shard results arrive sorted and deduplicated (the
//! engine's `finalize` guarantees that), so one k-way merge of them —
//! equal keys combining under the schema's ⊕, lower shard first, the
//! order a stable sort of their concatenation would fold in —
//! reproduces exactly the tuple sequence — and therefore exactly the
//! encoded bytes — that a single-process execution produces. Scalar
//! aggregates fold as `t₀ ⊕ t₁ ⊕ … ⊕ tₙ₋₁`, which equals the
//! single-process fold because each partial starts from the ⊕-identity.
//! For floating-point SUM this is bit-identical whenever the annotation
//! values are dyadic rationals (counts, integer-valued weights, powers
//! of two); arbitrary decimal weights may differ in the last ulp from a
//! differently-associated fold.
//!
//! Plans whose head applies a non-trivial expression on top of the
//! aggregate (e.g. PageRank's `0.15 + 0.85 * SUM(..)`) are not
//! ⊕-mergeable: each worker detects this, runs the *full* query, and
//! answers `sharded = false`; the coordinator then returns worker 0's
//! answer verbatim.

use crate::client::{expect_ok, expect_relations, ClientError, EhClient, ExecOutcome, ResultSet};
use crate::protocol::{ExecTarget, RelationInfo, Request, Response, WireDelimiter};
use crate::session::error;
use eh_obs::{MetricsRegistry, SlowQueryEntry, Span, Trace, TraceId, WorkCounters};
use eh_storage::encode_trace;
use eh_trie::merge_sorted_runs;
use std::time::Instant;

/// One worker's share of the last scattered query, for skew reporting.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Worker index (== shard index).
    pub worker: usize,
    /// Address the worker was connected at.
    pub addr: String,
    /// Whether the worker executed only its level-0 slice.
    pub sharded: bool,
    /// Level-0 values the worker owned (the *estimated* share basis).
    pub level0_values: u64,
    /// Server-side execution time in ns (the *observed* share basis).
    pub elapsed_ns: u64,
    /// Rows in the worker's partial result.
    pub rows: u64,
}

impl ShardReport {
    /// The reports a stitched trace's `worker k` lanes were built from
    /// (addresses are not on the trace). Empty for a single-server
    /// trace.
    pub fn from_trace(root: &Span) -> Vec<ShardReport> {
        let scatter = root.children.iter().find(|c| c.name == "scatter");
        let value = |lane: &Span, key: &str| lane.value(key).unwrap_or(0);
        let lanes = scatter.into_iter().flat_map(|s| &s.children);
        lanes
            .enumerate()
            .map(|(worker, lane)| ShardReport {
                worker,
                addr: String::new(),
                sharded: value(lane, "sharded") != 0,
                level0_values: value(lane, "level0_values"),
                elapsed_ns: value(lane, "elapsed_ns"),
                rows: value(lane, "rows"),
            })
            .collect()
    }
}

struct Worker {
    addr: String,
    client: EhClient,
    /// Name of this worker's server-side latency histogram.
    hist: String,
}

/// A coordinator connection to a set of shard workers.
pub struct Cluster {
    workers: Vec<Worker>,
    metrics: MetricsRegistry,
    last: Vec<ShardReport>,
    /// Texts pinned by `Prepare` requests, indexed by statement id: a
    /// coordinator-level statement re-scatters its text (every worker
    /// compiled it through its own shared plan cache at prepare time,
    /// so each shard's execution is a cache hit).
    statements: Vec<String>,
}

impl Cluster {
    /// Connect to every worker address in order. Worker `k` executes
    /// shard `k` of every scattered query, so the address order fixes
    /// the partition — keep it stable across coordinator restarts when
    /// comparing runs.
    pub fn connect(addrs: &[String]) -> Result<Cluster, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Protocol(
                "cluster needs at least one worker".into(),
            ));
        }
        let mut workers = Vec::with_capacity(addrs.len());
        for (k, addr) in addrs.iter().enumerate() {
            workers.push(Worker {
                addr: addr.clone(),
                client: EhClient::connect(addr)?,
                hist: format!("shard_exec_ns_worker{k}"),
            });
        }
        let hists: Vec<&str> = workers.iter().map(|w| w.hist.as_str()).collect();
        let metrics =
            MetricsRegistry::with(&["cluster_queries", "cluster_unsharded_queries"], &hists);
        Ok(Cluster {
            workers,
            metrics,
            last: Vec::new(),
            statements: Vec::new(),
        })
    }

    /// Number of shard workers (the `n` in every scattered query).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker addresses, shard order.
    pub fn addrs(&self) -> Vec<&str> {
        self.workers.iter().map(|w| w.addr.as_str()).collect()
    }

    /// Per-shard skew data from the most recent scattered query.
    pub fn last_reports(&self) -> &[ShardReport] {
        &self.last
    }

    /// Coordinator-side metrics: query counters plus one server-side
    /// latency histogram per worker.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Scatter `text` across all workers, gather the partials, and merge
    /// them into the single-process answer.
    pub fn query(&mut self, text: &str) -> Result<ResultSet, ClientError> {
        Ok(self.scatter(text, None)?.0)
    }

    /// Scatter `text` with tracing on: the coordinator mints a
    /// [`TraceId`], every worker profiles its shard and ships its span
    /// tree home tagged with that id, and the trees are stitched into
    /// one trace under the coordinator's own scatter/merge spans.
    pub fn trace(&mut self, text: &str) -> Result<(Trace, ResultSet), ClientError> {
        let (result, trace) = self.scatter(text, Some(TraceId::mint().as_u64()))?;
        let trace = trace
            .ok_or_else(|| ClientError::Protocol("traced scatter produced no trace".into()))?;
        Ok((trace, result))
    }

    /// The one scatter/gather: send every worker its shard of `text`,
    /// gather the partials, record the skew reports, and merge. With a
    /// `trace_id` the workers run profiled and their span trees come
    /// back stitched under the coordinator's scatter/merge spans.
    ///
    /// Each `worker k` lane starts at the coordinator-relative instant
    /// its request was sent and lasts the round trip; spans *inside* a
    /// lane keep their worker-relative offsets. No cross-host clock
    /// alignment is attempted — lanes locate workers on the
    /// coordinator's timeline, worker subtrees describe time spent
    /// within the request. Lanes are built only for a traced scatter.
    fn scatter(
        &mut self,
        text: &str,
        trace_id: Option<u64>,
    ) -> Result<(ResultSet, Option<Trace>), ClientError> {
        let n = self.workers.len() as u32;
        let started = Instant::now();
        // (sent_ns, rtt_ns, outcome) per worker, written by its scatter thread.
        type LaneSlot = Option<(u64, u64, Result<ExecOutcome, ClientError>)>;
        let mut slots: Vec<LaneSlot> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (k, (worker, slot)) in self.workers.iter_mut().zip(slots.iter_mut()).enumerate() {
                let started = &started;
                scope.spawn(move || {
                    let sent_ns = started.elapsed().as_nanos() as u64;
                    let out = worker.client.shard_exec(text, k as u32, n, trace_id);
                    let rtt_ns = (started.elapsed().as_nanos() as u64).saturating_sub(sent_ns);
                    *slot = Some((sent_ns, rtt_ns, out));
                });
            }
        });
        self.metrics.inc("cluster_queries");
        let scatter_ns = started.elapsed().as_nanos() as u64;
        let mut work = WorkCounters::default();
        let mut lanes = Vec::new();
        let mut gathered = Vec::with_capacity(slots.len());
        let mut reports = Vec::with_capacity(slots.len());
        for (k, (slot, worker)) in slots.into_iter().zip(&self.workers).enumerate() {
            // A scope thread that panicked before writing its slot has
            // already propagated the panic out of the scope above; an
            // empty slot here means that invariant broke, which the
            // caller should see as an error, not a second panic.
            let (sent_ns, rtt_ns, outcome) = slot.ok_or_else(|| {
                ClientError::Protocol(format!("worker {k} produced no scatter outcome"))
            })?;
            let mut outcome = outcome?;
            self.metrics.observe(&worker.hist, outcome.elapsed_ns);
            let report = ShardReport {
                worker: k,
                addr: worker.addr.clone(),
                sharded: outcome.sharded,
                level0_values: outcome.level0_values,
                elapsed_ns: outcome.elapsed_ns,
                rows: outcome.result.num_rows() as u64,
            };
            if trace_id.is_some() {
                // Placed at the coordinator-observed send offset and
                // round-trip time; the values are the report's fields
                // (`ShardReport::from_trace` reads them back).
                let mut lane = Span::new(format!("worker {k}"), sent_ns, rtt_ns)
                    .with_value("level0_values", report.level0_values)
                    .with_value("rows", report.rows)
                    .with_value("elapsed_ns", report.elapsed_ns)
                    .with_value("sharded", u64::from(report.sharded));
                if let Some(trace) = outcome.trace.take() {
                    work.merge(&trace.work);
                    lane.children.push(trace.root);
                }
                lanes.push(lane);
            }
            reports.push(report);
            gathered.push(outcome);
        }
        self.last = reports;
        let merge_start = started.elapsed().as_nanos() as u64;
        let result = match gathered.iter().position(|o| !o.sharded) {
            // The plan was not ⊕-mergeable: every worker ran it in
            // full, so any one full answer *is* the answer.
            Some(pos) => {
                self.metrics.inc("cluster_unsharded_queries");
                gathered.swap_remove(pos).result
            }
            None => merge_partials(gathered)?,
        };
        let trace = trace_id.map(|trace_id| {
            let total_ns = started.elapsed().as_nanos() as u64;
            let mut scatter = Span::new("scatter", 0, scatter_ns);
            scatter.children = lanes;
            let root = Span::new("cluster", 0, total_ns)
                .with_value("workers", u64::from(n))
                .with_value("rows", result.num_rows() as u64)
                .with_child(scatter)
                .with_child(Span::new(
                    "merge",
                    merge_start,
                    total_ns.saturating_sub(merge_start),
                ));
            Trace {
                trace_id,
                work,
                root,
            }
        });
        Ok((result, trace))
    }

    /// Send `req` to the first `fleet` workers in shard order. The
    /// answer is worker 0's — every worker holds the same data, so they
    /// agree — or the first `Error` frame, which also stops the fan-out.
    fn fan_out(&mut self, req: &Request, fleet: usize) -> Result<Response, ClientError> {
        let mut answer = None;
        for worker in self.workers.iter_mut().take(fleet) {
            let resp = worker.client.round_trip(req)?;
            if matches!(resp, Response::Error { .. }) {
                return Ok(resp);
            }
            answer.get_or_insert(resp);
        }
        answer.ok_or_else(|| ClientError::Protocol("cluster has no workers".into()))
    }

    /// Answer one request as a single server would: `Exec` scatters
    /// (and merges; a traced one answers with the stitched trace),
    /// loads, options, `Prepare` and `Quit` broadcast, `SlowLog`
    /// concatenates every worker's entries in shard order, and reads
    /// of the replicated catalog go to worker 0.
    pub(crate) fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        match req {
            Request::Exec { target, trace, .. } => {
                let text = match target {
                    ExecTarget::Text(text) => text.clone(),
                    ExecTarget::Stmt(id) => match self.statements.get(*id as usize) {
                        Some(text) => text.clone(),
                        None => return Ok(error(format!("no prepared statement #{id}"))),
                    },
                };
                let started = Instant::now();
                let (result, stitched) = self.scatter(&text, *trace)?;
                Ok(Response::Result {
                    sharded: self.last.iter().all(|r| r.sharded),
                    level0_values: self.last.iter().map(|r| r.level0_values).sum(),
                    elapsed_ns: started.elapsed().as_nanos() as u64,
                    batch: result.raw_bytes().to_vec(),
                    spans: stitched.as_ref().map(encode_trace),
                })
            }
            Request::Prepare { text } => {
                // Compile on every worker now, so a bad rule fails at
                // prepare time and executions hit each plan cache.
                let resp = self.fan_out(req, self.workers.len())?;
                if let Response::Prepared { cache_hit, .. } = resp {
                    self.statements.push(text.clone());
                    return Ok(Response::Prepared {
                        id: self.statements.len() as u64 - 1,
                        cache_hit,
                    });
                }
                Ok(resp)
            }
            Request::SaveImage { .. } => Ok(error(
                "\\save is per-worker; --connect to one worker to save its image",
            )),
            Request::SlowLog { limit } => {
                let per_worker = self.slow_log(*limit)?;
                Ok(Response::SlowLog {
                    entries: per_worker.into_iter().flat_map(|(_, e)| e).collect(),
                })
            }
            Request::LoadCsv { .. } | Request::SetOption { .. } | Request::Quit => {
                self.fan_out(req, self.workers.len())
            }
            Request::Hello { .. } | Request::ListRelations | Request::Stats => self.fan_out(req, 1),
        }
    }

    /// Broadcast a CSV load to every worker (each shard holds the full
    /// input relations; only execution is partitioned).
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

    /// Broadcast a session option to every worker.
    pub fn set_option(&mut self, key: &str, value: &str) -> Result<String, ClientError> {
        expect_ok(self.round_trip(&Request::SetOption {
            key: key.into(),
            value: value.into(),
        })?)
    }

    /// Stored relations, from worker 0 (all workers hold identical data).
    pub fn list_relations(&mut self) -> Result<Vec<RelationInfo>, ClientError> {
        expect_relations(self.round_trip(&Request::ListRelations)?)
    }

    /// Every worker's recent slow-query entries (newest first), in
    /// shard order. Each worker keeps its own ring, so entries carry
    /// the shard's local view tagged with the coordinator's trace ids.
    pub fn slow_log(
        &mut self,
        limit: u32,
    ) -> Result<Vec<(usize, Vec<SlowQueryEntry>)>, ClientError> {
        let mut out = Vec::with_capacity(self.workers.len());
        for (k, worker) in self.workers.iter_mut().enumerate() {
            out.push((k, worker.client.slow_log(limit)?));
        }
        Ok(out)
    }

    /// Close every worker session gracefully.
    pub fn quit(mut self) -> Result<(), ClientError> {
        expect_ok(self.round_trip(&Request::Quit)?).map(drop)
    }
}

/// Fold sharded partials, in shard order, into the single-process
/// answer. Every partial arrives sorted + deduplicated, so one k-way
/// merge — equal keys combine under the result schema's ⊕, lower shard
/// first — reproduces the single-process tuple sequence exactly for
/// contiguous level-0 ranges, without sorting anything again.
fn merge_partials(outcomes: Vec<ExecOutcome>) -> Result<ResultSet, ClientError> {
    let mut batches = outcomes.into_iter().map(|o| o.result.into_batch());
    let mut merged = batches
        .next()
        .ok_or_else(|| ClientError::Protocol("no shard outcomes to merge".into()))?;
    let mut runs = vec![std::mem::take(&mut merged.tuples)];
    for batch in batches {
        if batch.schema != merged.schema || batch.tuples.arity() != runs[0].arity() {
            return Err(ClientError::Protocol(format!(
                "shard schema mismatch: {:?} vs {:?}",
                batch.schema.name, merged.schema.name
            )));
        }
        runs.push(batch.tuples);
    }
    merged.tuples = merge_sorted_runs(runs, merged.schema.combine);
    ResultSet::from_batch(merged)
}
