//! Request-scoped distributed tracing and the slow-query log.
//!
//! A [`Trace`] is what one query execution *did*, shaped for crossing
//! process boundaries: a 64-bit [`TraceId`] minted by the coordinator, a
//! tree of [`Span`]s whose timestamps are **relative nanoseconds** (each
//! span's `start_ns_rel` is an offset from its owning process's query
//! start — never a wall-clock reading, so stitching worker trees from
//! different hosts needs no clock synchronization), and the folded
//! [`WorkCounters`] for the whole request.
//!
//! The [`SlowQueryLog`] is the server-side retention half: a bounded
//! ring buffer of the most recent queries whose elapsed time crossed a
//! configurable threshold, each entry tagged with its trace id so an
//! operator can go from "that was slow" to the full span tree.
//!
//! Everything here is plain data + std sync primitives — the wire
//! encoding lives in `eh_storage::trace_wire` next to the rest of the
//! bounds-checked decode vocabulary.

use crate::WorkCounters;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

/// A 64-bit request-scoped trace id.
///
/// Ids are minted from a seeded per-process atomic counter — no ambient
/// time entropy, so tests are reproducible and minting is a single
/// relaxed `fetch_add`. The high 32 bits carry a per-process seed (the
/// process id, so two workers on one host don't collide), the low 32
/// bits a monotone counter starting at 1; id 0 is reserved as "no
/// trace".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Low 32 bits of the next minted id, per process.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// The reserved "no trace" id.
    pub const NONE: TraceId = TraceId(0);

    /// Mint a fresh id: `(process seed << 32) | counter`.
    pub fn mint() -> TraceId {
        let seq = NEXT_TRACE.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
        TraceId((u64::from(std::process::id()) << 32) | seq)
    }

    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// True for the reserved [`TraceId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TraceId {
    /// Fixed-width lowercase hex, the form every renderer and log line
    /// uses so traces can be grepped across coordinator and workers.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------------

/// Maximum span-tree depth accepted anywhere (builders and decoders).
/// Real trees are ~4 deep (query → node → level or thread); the cap exists so a
/// hostile wire payload cannot drive recursive code to stack overflow.
pub const MAX_SPAN_DEPTH: usize = 64;

/// One timed region of a query execution.
///
/// `start_ns_rel` is relative to the *owning process's* query start.
/// When a coordinator adopts a worker's tree it re-bases only the root
/// of the adopted tree (to the coordinator-observed dispatch offset);
/// the worker's interior offsets stay worker-relative, which is exactly
/// the "no cross-host clocks" contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// What this region was (`"node 0"`, `"level 2"`, `"merge"`, ...).
    pub name: String,
    /// Offset from the owning process's query start, nanoseconds.
    pub start_ns_rel: u64,
    /// Wall time spent in the region, nanoseconds.
    pub elapsed_ns: u64,
    /// Named scalar attributes (`("rows", 42)`, `("morsels", 7)`, ...).
    pub values: Vec<(String, u64)>,
    /// Child regions, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// A fresh span with a name and elapsed time.
    pub fn new(name: impl Into<String>, start_ns_rel: u64, elapsed_ns: u64) -> Span {
        Span {
            name: name.into(),
            start_ns_rel,
            elapsed_ns,
            values: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The span over `[started, ended)`, placed at its offset from
    /// `origin` — the owning process's query start.
    pub fn timed(
        name: impl Into<String>,
        origin: Instant,
        started: Instant,
        ended: Instant,
    ) -> Span {
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        Span::new(
            name,
            ns(started.saturating_duration_since(origin)),
            ns(ended.saturating_duration_since(started)),
        )
    }

    /// Attach a named scalar attribute (builder style).
    pub fn with_value(mut self, key: impl Into<String>, v: u64) -> Span {
        self.values.push((key.into(), v));
        self
    }

    /// Attach a child span (builder style).
    pub fn with_child(mut self, child: Span) -> Span {
        self.children.push(child);
        self
    }

    /// The named scalar attribute, if attached.
    pub fn value(&self, key: &str) -> Option<u64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Total spans in this tree, the root included.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(Span::span_count).sum::<usize>()
    }

    /// Depth of this tree (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Span::depth).max().unwrap_or(0)
    }

    /// The hottest *leaf* in the tree: the deepest span with no
    /// children whose `elapsed_ns` is largest, rendered as a
    /// `path/to/leaf` string. This is the "per-level hot span" the
    /// slow-query log retains per entry.
    pub fn hottest_leaf(&self) -> String {
        fn walk(span: &Span, path: &str, best: &mut (u64, String)) {
            let here = if path.is_empty() {
                span.name.clone()
            } else {
                format!("{path}/{}", span.name)
            };
            if span.children.is_empty() {
                if span.elapsed_ns >= best.0 {
                    *best = (span.elapsed_ns, here);
                }
            } else {
                for c in &span.children {
                    walk(c, &here, best);
                }
            }
        }
        let mut best = (0, String::new());
        walk(self, "", &mut best);
        best.1
    }

    /// Render the tree, one span per line, two-space indentation per
    /// depth: `name @start ms +elapsed ms [k=v ...]`. Stable shape so
    /// smoke tests can grep for worker lanes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} @{:.3} ms +{:.3} ms",
            self.name,
            self.start_ns_rel as f64 / 1e6,
            self.elapsed_ns as f64 / 1e6
        ));
        for (k, v) in &self.values {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        if depth + 1 >= MAX_SPAN_DEPTH {
            return;
        }
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// One query's complete trace: id, folded kernel counters, span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The coordinator-minted request id.
    pub trace_id: u64,
    /// Work counters folded across every process that served the
    /// request (a stitched cluster trace sums its workers').
    pub work: WorkCounters,
    /// The span tree, process-relative nanoseconds.
    pub root: Span,
}

impl Trace {
    /// Render the trace: a greppable `trace <id>` header, the kernel
    /// counter line, then the span tree.
    pub fn render(&self) -> String {
        let w = &self.work;
        format!(
            "trace {}: {} spans\nkernels: {} intersections, merge={} gallop={} bitset={}, \
             count-fast hits {}\n{}",
            TraceId(self.trace_id),
            self.root.span_count(),
            w.intersections,
            w.merge_kernels,
            w.gallop_kernels,
            w.bitset_kernels,
            w.count_fast_hits,
            self.root.render()
        )
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Queries longer than this are retained by a fresh [`SlowQueryLog`]
/// (10 ms). Tune per deployment with `\set slow_ms N`.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 10_000_000;

/// Ring capacity of a [`SlowQueryLog::new`] log.
pub const DEFAULT_SLOW_CAPACITY: usize = 256;

/// Query text longer than this is truncated (with a `…` marker) before
/// it enters the log, bounding per-entry memory.
pub const SLOW_QUERY_TEXT_MAX: usize = 200;

/// One retained slow query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Trace id the execution ran under (0 when untraced — the entry
    /// still records what ran, there is just no span tree to fetch).
    pub trace_id: u64,
    /// Query text, truncated to [`SLOW_QUERY_TEXT_MAX`] bytes.
    pub query: String,
    /// Rows in the result.
    pub rows: u64,
    /// Server-side elapsed nanoseconds.
    pub elapsed_ns: u64,
    /// Whether this execution was a shard slice of a scattered query.
    pub sharded: bool,
    /// The hottest leaf span (`node 1/level 2` style), `"-"` when the
    /// execution was not profiled.
    pub hot_span: String,
}

impl SlowQueryEntry {
    /// One-line rendering, newest-first lists; stable prefix `slow:`.
    pub fn render(&self) -> String {
        format!(
            "slow: trace={} {:.3} ms {} rows{} hot={} {}",
            TraceId(self.trace_id),
            self.elapsed_ns as f64 / 1e6,
            self.rows,
            if self.sharded { " sharded" } else { "" },
            if self.hot_span.is_empty() {
                "-"
            } else {
                &self.hot_span
            },
            self.query
        )
    }
}

/// Truncate query text for log retention, marking the cut.
pub fn truncate_query(text: &str) -> String {
    if text.len() <= SLOW_QUERY_TEXT_MAX {
        return text.to_string();
    }
    let mut cut = SLOW_QUERY_TEXT_MAX;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &text[..cut])
}

/// A lock-bounded ring buffer of recent slow queries.
///
/// `observe_with` takes the mutex only when the threshold is crossed (the
/// common fast path is one relaxed atomic load + add), and the critical
/// section is a bounded push/pop — no allocation growth beyond the
/// fixed capacity, no I/O, so the lock cannot become a serving
/// bottleneck.
#[derive(Debug)]
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    capacity: usize,
    threshold_ns: AtomicU64,
    seen: AtomicU64,
    recorded: AtomicU64,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog::new()
    }
}

impl SlowQueryLog {
    /// A log with the default capacity (256) and threshold (10 ms).
    pub fn new() -> SlowQueryLog {
        SlowQueryLog::with_capacity(DEFAULT_SLOW_CAPACITY)
    }

    /// A log with a custom ring capacity.
    pub fn with_capacity(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            seen: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Current threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Set the threshold. 0 retains every query (useful in tests and
    /// when hunting a regression).
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total queries observed (slow or not).
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Total queries that crossed the threshold (≥ entries retained;
    /// the ring drops the oldest beyond capacity).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Record one finished query that took `elapsed_ns`. Returns true
    /// when it was retained. The threshold is checked *before* `entry`
    /// runs, so the common fast path builds nothing — no copy of the
    /// query text, no span tree walked for its hottest leaf. The query
    /// text is truncated here, so the closure can pass the raw statement.
    pub fn observe_with(&self, elapsed_ns: u64, entry: impl FnOnce() -> SlowQueryEntry) -> bool {
        self.seen.fetch_add(1, Ordering::Relaxed);
        if elapsed_ns < self.threshold_ns() {
            return false;
        }
        let mut entry = entry();
        entry.elapsed_ns = elapsed_ns;
        entry.query = truncate_query(&entry.query);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.entries.lock().expect("slow-query log poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// The most recent `limit` retained entries, newest first.
    pub fn recent(&self, limit: usize) -> Vec<SlowQueryEntry> {
        let ring = self.entries.lock().expect("slow-query log poisoned");
        ring.iter().rev().take(limit).cloned().collect()
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow-query log poisoned").len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert!(!a.is_none());
        assert_eq!(a.0 >> 32, u64::from(std::process::id()));
        assert_eq!(format!("{a}").len(), 16);
    }

    #[test]
    fn span_tree_counts_and_hot_leaf() {
        let tree = Span::new("query", 0, 100)
            .with_child(
                Span::new("node 0", 0, 60)
                    .with_child(Span::new("level 0", 0, 10))
                    .with_child(Span::new("level 1", 0, 50)),
            )
            .with_child(Span::new("node 1", 60, 40));
        assert_eq!(tree.span_count(), 5);
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.hottest_leaf(), "query/node 0/level 1");
        let r = tree.render();
        assert!(r.contains("query @0.000 ms +0.000 ms"));
        assert!(r.lines().any(|l| l.starts_with("    level 1 ")));
    }

    #[test]
    fn timed_spans_measure_from_the_origin() {
        use std::time::Duration;
        let origin = Instant::now();
        let started = origin + Duration::from_nanos(5);
        let s = Span::timed("node 0", origin, started, started + Duration::from_nanos(7));
        assert_eq!((s.start_ns_rel, s.elapsed_ns), (5, 7));
        // An instant before the origin clamps to offset 0, never wraps.
        let early = Span::timed("x", started, origin, started);
        assert_eq!((early.start_ns_rel, early.elapsed_ns), (0, 5));
    }

    #[test]
    fn slow_log_threshold_ring_and_truncation() {
        let log = SlowQueryLog::with_capacity(2);
        log.set_threshold_ns(100);
        assert!(!log.observe_with(99, SlowQueryEntry::default));
        for i in 0..3u64 {
            assert!(log.observe_with(100 + i, || SlowQueryEntry {
                trace_id: i,
                query: "q".repeat(500),
                ..SlowQueryEntry::default()
            }));
        }
        assert_eq!(log.seen(), 4);
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.len(), 2);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace_id, 2); // newest first
        assert_eq!(recent[0].elapsed_ns, 102, "stamped with the observed time");
        assert_eq!(recent[1].trace_id, 1); // oldest (0) evicted
        assert!(recent[0].query.ends_with('…'));
        assert!(recent[0].query.len() <= SLOW_QUERY_TEXT_MAX + '…'.len_utf8());
    }

    #[test]
    fn sub_threshold_observations_never_build_an_entry() {
        let log = SlowQueryLog::new();
        for _ in 0..3 {
            assert!(!log.observe_with(DEFAULT_SLOW_THRESHOLD_NS - 1, || {
                unreachable!("entry built for a query under the threshold")
            }));
        }
        assert_eq!((log.seen(), log.recorded(), log.len()), (3, 0, 0));
    }

    #[test]
    fn slow_log_zero_threshold_retains_everything() {
        let log = SlowQueryLog::new();
        log.set_threshold_ns(0);
        assert!(log.observe_with(0, SlowQueryEntry::default));
        assert_eq!(log.len(), 1);
        assert!(log.recent(0).is_empty());
    }

    #[test]
    fn entry_renders_greppable_line() {
        let e = SlowQueryEntry {
            trace_id: 0xabc,
            query: "T(x,y) :- E(x,y).".into(),
            rows: 9,
            elapsed_ns: 2_000_000,
            sharded: true,
            hot_span: "query/node 0".into(),
        };
        let line = e.render();
        assert!(line.starts_with("slow: trace=0000000000000abc "));
        assert!(line.contains(" sharded "));
        assert!(line.contains("hot=query/node 0"));
    }
}
