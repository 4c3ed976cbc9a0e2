//! `eh_obs` — engine-wide observability primitives.
//!
//! The paper's thesis is that join performance is decided by low-level
//! set-intersection behavior; this crate makes that measurable instead of
//! asserted. Three layers, all zero-dependency:
//!
//! * [`WorkCounters`] — fixed-size `u64` counter blocks the Generic-Join
//!   recursion bumps per `(atom, depth)` with plain field increments (no
//!   allocation, no atomics — blocks are per-worker and merged at join
//!   end).
//! * [`QueryProfile`] — what one query execution actually did: per-level
//!   span timings, per-worker morsel balance, sink merge time, rows, and
//!   the folded work counters, next to the planner's estimated cost so
//!   misestimates become visible per query.
//! * [`MetricsRegistry`] + [`LatencyHistogram`] — lock-free named atomic
//!   counters and fixed log₂-bucketed latency histograms for long-running
//!   services (the query server; the cluster coordinator keeps one
//!   per-worker shard latency histogram here, feeding the `\cluster`
//!   status table and the distributed `\explain` skew report), with a
//!   Prometheus-style text exposition (`name{label} value` lines).
//! * [`trace`] — request-scoped distributed tracing ([`TraceId`],
//!   [`Span`] trees in relative nanoseconds, the [`SlowQueryLog`] ring
//!   buffer) so a profile survives crossing a process boundary.

pub mod trace;

pub use trace::{
    profile_to_span, SlowQueryEntry, SlowQueryLog, Span, Trace, TraceId, MAX_SPAN_DEPTH,
};

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; `u64::MAX` lands in bucket
/// 64.
pub const N_BUCKETS: usize = 65;

/// The log₂ bucket index for a recorded value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Human-readable lower bound of a bucket (`0`, `1`, `2`, `4`, ...).
pub fn bucket_floor(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => 1u64 << (b - 1),
    }
}

// ---------------------------------------------------------------------------
// Hot-path work counters
// ---------------------------------------------------------------------------

/// A fixed-size block of work counters owned per `(atom, depth)` by the
/// join context (and folded per query in [`QueryProfile`]). Everything
/// is a plain `u64` field bump — safe inside the `alloc-free` regions
/// of the Generic-Join recursion and the set kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Values fed into intersections (Σ participating set lengths) —
    /// the observed analogue of the cost model's estimated work.
    pub values_scanned: u64,
    /// Multiway intersection calls this cell participated in.
    pub intersections: u64,
    /// Two-pointer / SIMD-shuffle merge kernel dispatches.
    pub merge_kernels: u64,
    /// Gallop (exponential-search probe) kernel dispatches.
    pub gallop_kernels: u64,
    /// Bitset / block kernel dispatches.
    pub bitset_kernels: u64,
    /// Innermost count-fast-path hits (aggregate-only queries).
    pub count_fast_hits: u64,
    /// Always 0: the engine no longer re-lays out cached tries at run
    /// time — every set keeps its build-time layout. The field and its
    /// trace-codec slot stay only because the benchmark's probes read
    /// them; a benchmark-only follow-up removes both.
    pub relayouts: u64,
}

impl WorkCounters {
    /// Fold another block into this one. Wrapping adds keep the merge
    /// associative and commutative even at saturation, so per-worker
    /// blocks can be folded in any order.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.values_scanned = self.values_scanned.wrapping_add(other.values_scanned);
        self.intersections = self.intersections.wrapping_add(other.intersections);
        self.merge_kernels = self.merge_kernels.wrapping_add(other.merge_kernels);
        self.gallop_kernels = self.gallop_kernels.wrapping_add(other.gallop_kernels);
        self.bitset_kernels = self.bitset_kernels.wrapping_add(other.bitset_kernels);
        self.count_fast_hits = self.count_fast_hits.wrapping_add(other.count_fast_hits);
        self.relayouts = self.relayouts.wrapping_add(other.relayouts);
    }

    /// Total kernel dispatches across all three families.
    pub fn total_kernels(&self) -> u64 {
        self.merge_kernels
            .wrapping_add(self.gallop_kernels)
            .wrapping_add(self.bitset_kernels)
    }

    /// True when nothing was recorded.
    pub fn is_zero(&self) -> bool {
        *self == WorkCounters::default()
    }
}

/// Counter glossary: `(field, what it counts)` — one row per
/// [`WorkCounters`] field, for docs and metric renderers.
pub const WORK_COUNTER_GLOSSARY: &[(&str, &str)] = &[
    (
        "values_scanned",
        "values fed into intersections (sum of participating set lengths)",
    ),
    ("intersections", "multiway intersection calls"),
    (
        "merge_kernels",
        "two-pointer / SIMD-shuffle merge dispatches",
    ),
    ("gallop_kernels", "exponential-search probe dispatches"),
    ("bitset_kernels", "bitset / block kernel dispatches"),
    ("count_fast_hits", "innermost count-fast-path hits"),
    (
        "relayouts",
        "always 0 (runtime re-layout is gone); removed in a benchmark-only follow-up",
    ),
];

// ---------------------------------------------------------------------------
// Query profiles
// ---------------------------------------------------------------------------

/// Span timing + candidate count for one attribute level of one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelProfile {
    /// Nanoseconds spent merging this level's candidate values.
    pub ns: u64,
    /// Candidate values produced at this level (counted by the
    /// count-fast path too, which never materializes them).
    pub values: u64,
}

/// Per-worker morsel balance for one node's parallel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Morsels (work chunks) this worker claimed.
    pub morsels: u64,
    /// Level-0 values this worker processed.
    pub values: u64,
}

/// What one GHD node's join actually did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeProfile {
    /// Wall time for the node's whole join (build + recursion + merge).
    pub ns: u64,
    /// Tuples the node's sink produced.
    pub rows: u64,
    /// Time merging per-worker sinks (zero for serial runs).
    pub sink_merge_ns: u64,
    /// Folded work counters for the node (all atoms, all depths, plus
    /// the kernel dispatch counts from the multiway scratch).
    pub work: WorkCounters,
    /// Per-attribute-level spans, in global attribute order.
    pub levels: Vec<LevelProfile>,
    /// One entry per worker (empty for serial runs).
    pub workers: Vec<WorkerProfile>,
}

/// A query execution profile: assembled by the executor when
/// `Config::profile` is on and attached to the query result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    /// Wall time of the whole plan execution.
    pub total_ns: u64,
    /// Rows in the final result.
    pub rows: u64,
    /// The planner's estimated intersection work, when the attribute
    /// order was cost-based (`None` for structural orders).
    pub estimated_work: Option<f64>,
    /// Work counters folded across every node.
    pub work: WorkCounters,
    /// One entry per executed GHD node, bottom-up order.
    pub nodes: Vec<NodeProfile>,
    /// Wall time of the Yannakakis top-down pass (zero when the plan
    /// skips it: every head variable already sits in the root).
    pub top_down_ns: u64,
    /// Wall time of the final projection, sort and duplicate fold.
    pub finalize_ns: u64,
}

impl QueryProfile {
    /// The observed intersection work: values fed into intersections,
    /// summed over the whole query — directly comparable to
    /// [`QueryProfile::estimated_work`].
    pub fn observed_work(&self) -> u64 {
        self.work.values_scanned
    }

    /// Fold one node's profile into the query totals.
    pub fn push_node(&mut self, node: NodeProfile) {
        self.work.merge(&node.work);
        self.nodes.push(node);
    }

    /// Render the estimated-vs-observed comparison plus per-node spans,
    /// the `\explain` extension. One line per fact; stable prefixes so
    /// smoke tests can grep.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.estimated_work {
            Some(est) => out.push_str(&format!(
                "work: estimated {est:.1}, observed {} (values scanned)\n",
                self.observed_work()
            )),
            None => out.push_str(&format!(
                "work: estimated n/a (structural order), observed {} (values scanned)\n",
                self.observed_work()
            )),
        }
        let w = &self.work;
        out.push_str(&format!(
            "observed: {} intersections, kernels merge={} gallop={} bitset={}, \
             count-fast hits {}\n",
            w.intersections, w.merge_kernels, w.gallop_kernels, w.bitset_kernels, w.count_fast_hits
        ));
        out.push_str(&format!(
            "profile: {} rows in {:.3} ms\n",
            self.rows,
            self.total_ns as f64 / 1e6
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "  node {i}: {:.3} ms, {} rows, sink merge {:.3} ms\n",
                n.ns as f64 / 1e6,
                n.rows,
                n.sink_merge_ns as f64 / 1e6
            ));
            for (lvl, l) in n.levels.iter().enumerate() {
                if l.values == 0 && l.ns == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "    level {lvl}: {} values, {:.3} ms\n",
                    l.values,
                    l.ns as f64 / 1e6
                ));
            }
            if !n.workers.is_empty() {
                let morsels: Vec<String> =
                    n.workers.iter().map(|w| w.morsels.to_string()).collect();
                out.push_str(&format!(
                    "    workers: {} (morsels {})\n",
                    n.workers.len(),
                    morsels.join("/")
                ));
            }
        }
        out.push_str(&format!(
            "  top-down: {:.3} ms\n  finalize: {:.3} ms\n",
            self.top_down_ns as f64 / 1e6,
            self.finalize_ns as f64 / 1e6
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Lock-free latency histograms
// ---------------------------------------------------------------------------

/// A fixed log₂-bucketed latency histogram: 65 atomic buckets plus an
/// exact count and sum. `record` is three relaxed atomic adds — safe to
/// share across any number of threads with no locking.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wraps at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (buckets are read one by
    /// one; concurrent records may straddle the read, which is fine for
    /// monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; N_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation, 0 when empty. **Exact**: computed from the
    /// histogram's atomic `sum`, never reconstructed from bucket
    /// bounds — only [`HistogramSnapshot::percentile`] stays bucketed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `p`-th percentile (`0.0..=1.0`): the
    /// floor of the first bucket whose cumulative count reaches
    /// `p * count`, doubled (bucket upper edge). Coarse by design —
    /// log₂ buckets trade precision for a fixed, lock-free footprint.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target.max(1) {
                return bucket_floor(i + 1).max(1) - 1;
            }
        }
        u64::MAX
    }

    /// `(bucket index, count)` for every populated bucket.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A lock-free registry of named atomic counters and latency
/// histograms. Names are fixed at construction (lookups are linear
/// scans over a handful of entries — far cheaper than the work being
/// measured); a name may carry Prometheus-style labels inline, e.g.
/// `frame_latency_us{frame="query"}`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, AtomicU64)>,
    hists: Vec<(String, LatencyHistogram)>,
}

impl MetricsRegistry {
    /// Build a registry with the given counter and histogram names.
    pub fn with(counters: &[&str], hists: &[&str]) -> MetricsRegistry {
        MetricsRegistry {
            counters: counters
                .iter()
                .map(|n| (n.to_string(), AtomicU64::new(0)))
                .collect(),
            hists: hists
                .iter()
                .map(|n| (n.to_string(), LatencyHistogram::new()))
                .collect(),
        }
    }

    /// Add `v` to a counter; unknown names are ignored (metrics must
    /// never take down the operation being measured).
    pub fn add(&self, name: &str, v: u64) {
        if let Some((_, c)) = self.counters.iter().find(|(n, _)| n == name) {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 for unknown names).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Record one observation into a histogram; unknown names are
    /// ignored.
    pub fn observe(&self, name: &str, v: u64) {
        if let Some((_, h)) = self.hists.iter().find(|(n, _)| n == name) {
            h.record(v);
        }
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Snapshot every counter and histogram for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram, registration order.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

/// Format one Prometheus-style exposition line: `name{labels} value`.
/// `name` may already carry inline labels (they pass through verbatim).
pub fn prometheus_line(out: &mut String, prefix: &str, name: &str, value: u64) {
    out.push_str(prefix);
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

impl MetricsSnapshot {
    /// Prometheus-style text exposition: one `name{label} value` line
    /// per counter, and `_count` / `_sum` / per-populated-`_bucket`
    /// lines per histogram. `prefix` namespaces every line (e.g.
    /// `"eh_"`).
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            prometheus_line(&mut out, prefix, name, *v);
        }
        for (name, h) in &self.hists {
            // Split inline labels off the base name so the suffix lands
            // on the metric name, not inside the braces.
            let (base, labels) = match name.find('{') {
                Some(i) => (&name[..i], &name[i..]),
                None => (name.as_str(), ""),
            };
            prometheus_line(&mut out, prefix, &format!("{base}_count{labels}"), h.count);
            prometheus_line(&mut out, prefix, &format!("{base}_sum{labels}"), h.sum);
            for (bucket, c) in h.nonzero() {
                let le = bucket_floor(bucket + 1).max(1) - 1;
                let sep = if labels.is_empty() { "" } else { "," };
                let inner = labels.trim_start_matches('{').trim_end_matches('}');
                prometheus_line(
                    &mut out,
                    prefix,
                    &format!("{base}_bucket{{{inner}{sep}le=\"{le}\"}}"),
                    c,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // The three edge values the bucketing must place exactly: 0 has
        // its own bucket, 1 opens bucket 1, u64::MAX lands in the last.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(u64::MAX / 2), 63);
        assert!(bucket_of(u64::MAX) < N_BUCKETS);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(64), 1 << 63);
    }

    #[test]
    fn histogram_records_edges_without_loss() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.sum, 0); // 0 + 1 + MAX wraps around to 0; count stays exact
    }

    #[test]
    fn snapshot_mean_is_exact_not_bucketed() {
        // 1000 and 3000 straddle power-of-2 bucket floors (512/2048): a
        // mean reconstructed from bucket bounds could not land on the
        // true 2000.0, while the sum-backed mean is exact. Percentiles
        // stay bucketed by design — only coarse, floor-of-bucket bounds.
        let h = LatencyHistogram::new();
        h.record(1000);
        h.record(3000);
        let s = h.snapshot();
        assert_eq!(s.sum, 4000);
        assert_eq!(s.mean(), 2000.0);
        assert_eq!(s.percentile(0.5), 1023); // bucket upper edge, not 1000
        let empty = LatencyHistogram::new().snapshot();
        assert_eq!(empty.mean(), 0.0, "empty histogram means 0, not NaN");
    }

    #[test]
    fn counter_merge_is_associative_and_commutative() {
        let mk = |seed: u64| WorkCounters {
            values_scanned: seed,
            intersections: seed.wrapping_mul(3),
            merge_kernels: seed.wrapping_mul(5),
            gallop_kernels: seed.wrapping_mul(7),
            bitset_kernels: seed.wrapping_mul(11),
            count_fast_hits: seed.wrapping_mul(13),
            relayouts: seed.wrapping_mul(17),
        };
        // Include near-overflow blocks: wrapping adds keep the fold
        // order-independent even at saturation.
        let blocks = [mk(1), mk(u64::MAX / 2), mk(u64::MAX - 3), mk(42)];
        let fold = |order: &[usize]| {
            let mut acc = WorkCounters::default();
            for &i in order {
                acc.merge(&blocks[i]);
            }
            acc
        };
        let reference = fold(&[0, 1, 2, 3]);
        assert_eq!(fold(&[3, 2, 1, 0]), reference);
        assert_eq!(fold(&[1, 3, 0, 2]), reference);
        // ((a⊕b)⊕c) == (a⊕(b⊕c))
        let mut left = blocks[0];
        left.merge(&blocks[1]);
        left.merge(&blocks[2]);
        let mut bc = blocks[1];
        bc.merge(&blocks[2]);
        let mut right = blocks[0];
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn work_counters_total_and_zero() {
        let mut w = WorkCounters::default();
        assert!(w.is_zero());
        w.merge_kernels = 2;
        w.gallop_kernels = 3;
        w.bitset_kernels = 5;
        assert_eq!(w.total_kernels(), 10);
        assert!(!w.is_zero());
        assert_eq!(WORK_COUNTER_GLOSSARY.len(), 7);
    }

    #[test]
    fn histogram_percentiles_are_bucket_coarse() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean(), 265.0);
        // p50 falls in the [16,32) bucket; the estimate is its upper
        // edge minus one.
        assert_eq!(s.percentile(0.5), 31);
        assert!(s.percentile(1.0) >= 1000);
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
    }

    #[test]
    fn registry_counts_and_ignores_unknown_names() {
        let m = MetricsRegistry::with(&["bytes_in"], &["lat{frame=\"query\"}"]);
        m.inc("bytes_in");
        m.add("bytes_in", 9);
        m.add("nope", 7); // silently ignored
        m.observe("lat{frame=\"query\"}", 100);
        m.observe("nope", 5);
        assert_eq!(m.get("bytes_in"), 10);
        assert_eq!(m.get("nope"), 0);
        assert_eq!(m.histogram("lat{frame=\"query\"}").unwrap().count(), 1);
        let snap = m.snapshot();
        assert_eq!(snap.counters, vec![("bytes_in".to_string(), 10)]);
        assert_eq!(snap.hists.len(), 1);
    }

    #[test]
    fn prometheus_rendering_shapes_lines() {
        let m = MetricsRegistry::with(&["bytes_in"], &["lat{frame=\"query\"}", "plain"]);
        m.add("bytes_in", 3);
        m.observe("lat{frame=\"query\"}", 100);
        m.observe("plain", 0);
        let text = m.snapshot().render_prometheus("eh_");
        assert!(text.contains("eh_bytes_in 3\n"), "{text}");
        assert!(text.contains("eh_lat_count{frame=\"query\"} 1\n"), "{text}");
        assert!(text.contains("eh_lat_sum{frame=\"query\"} 100\n"), "{text}");
        assert!(
            text.contains("eh_lat_bucket{frame=\"query\",le=\"127\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("eh_plain_count 1\n"), "{text}");
        assert!(text.contains("eh_plain_bucket{le=\"0\"} 1\n"), "{text}");
    }

    #[test]
    fn profile_render_reports_estimated_vs_observed() {
        let mut p = QueryProfile {
            estimated_work: Some(123.4),
            rows: 7,
            total_ns: 1_500_000,
            top_down_ns: 250_000,
            finalize_ns: 125_000,
            ..QueryProfile::default()
        };
        let mut node = NodeProfile {
            ns: 1_000_000,
            rows: 7,
            ..NodeProfile::default()
        };
        node.work.values_scanned = 456;
        node.work.intersections = 12;
        node.levels.push(LevelProfile {
            ns: 900,
            values: 34,
        });
        node.workers.push(WorkerProfile {
            morsels: 3,
            values: 20,
        });
        p.push_node(node);
        assert_eq!(p.observed_work(), 456);
        let text = p.render();
        assert!(text.contains("estimated 123.4"), "{text}");
        assert!(text.contains("observed 456"), "{text}");
        assert!(text.contains("node 0"), "{text}");
        assert!(text.contains("morsels 3"), "{text}");
        assert!(text.contains("  top-down: 0.250 ms\n"), "{text}");
        assert!(text.contains("  finalize: 0.125 ms\n"), "{text}");
        // Structural orders say so instead of printing an estimate.
        let q = QueryProfile::default();
        assert!(q.render().contains("estimated n/a (structural order)"));
    }
}
