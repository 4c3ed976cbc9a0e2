//! `eh_obs` — engine-wide observability primitives.
//!
//! The paper's thesis is that join performance is decided by low-level
//! set-intersection behavior; this crate makes that measurable instead of
//! asserted. Three layers, all zero-dependency:
//!
//! * [`WorkCounters`] — one fixed-size `u64` counter block per query:
//!   the kernel dispatcher charges its per-worker scratch with plain
//!   field increments (no allocation, no atomics), and the executor folds
//!   those, plus the count fast path's reconstructed call count, once per
//!   node.
//! * [`QueryProfile`] — what one query execution actually did: the
//!   planner's estimated work and the folded counters next to the span
//!   tree the executor records where it measures (per-node and per-level
//!   timings, per-worker busy time and morsel balance, sink merge time,
//!   rows), so misestimates become visible per query.
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

pub use trace::{SlowQueryEntry, SlowQueryLog, Span, Trace, TraceId, MAX_SPAN_DEPTH};

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

/// Inclusive upper edge of a bucket (`0`, `1`, `3`, `7`, ...):
/// `u64::MAX` for the top bucket and for any larger index, which a
/// decoded `Stats` frame may carry.
pub fn bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0..=63 => (1u64 << bucket) - 1,
        _ => u64::MAX,
    }
}

// ---------------------------------------------------------------------------
// Hot-path work counters
// ---------------------------------------------------------------------------

/// A fixed-size block of work counters, folded per node into
/// [`QueryProfile::work`]. Everything is a plain `u64` field bump — safe
/// inside the `alloc-free` regions of the Generic-Join recursion and the
/// set kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Σ kernel input lengths: both operands of every 2-way kernel
    /// (intermediate accumulators of a chain included), every participant
    /// once for a single-pass k-way kernel (probe-smallest, k-way bitset
    /// AND) — the observed analogue of the cost model's estimated work.
    pub values_scanned: u64,
    /// Multiway intersection calls (n ≥ 2).
    pub intersections: u64,
    /// Two-pointer / SIMD-shuffle merge kernel dispatches.
    pub merge_kernels: u64,
    /// Gallop (exponential-search / rank-probe) kernel dispatches.
    pub gallop_kernels: u64,
    /// Bitset / block kernel dispatches; a k-way bitset AND pass counts
    /// `k − 1`, one per pairwise AND it fuses.
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
}

// ---------------------------------------------------------------------------
// Query profiles
// ---------------------------------------------------------------------------

/// A query execution profile: recorded by the executor when
/// `Config::profile` is on and attached to the query result. The span
/// tree *is* the profile — `\trace`, the slow-query log and the wire
/// carry `root` as it stands — and the two scalars beside it are what a
/// reader compares without walking it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    /// The planner's estimated kernel work, when the attribute
    /// order was cost-based (`None` for structural orders).
    pub estimated_work: Option<f64>,
    /// Work counters folded across every node.
    pub work: WorkCounters,
    /// The `query` span (`rows`, `observed_work`, rounded
    /// `estimated_work`): one `node i` child per executed GHD node in
    /// bottom-up order (`rows`, `sink_merge_ns` when > 0; `level k` and,
    /// for a parallel run, `thread k` children), then `top-down` and
    /// `finalize`. Offsets count from the query's start.
    pub root: Span,
}

impl QueryProfile {
    /// The observed intersection work: values fed into intersections,
    /// summed over the whole query — directly comparable to
    /// [`QueryProfile::estimated_work`].
    pub fn observed_work(&self) -> u64 {
        self.work.values_scanned
    }

    /// Make `root` the `query` span over `[origin, ended)`, keeping its
    /// children: `rows`, `observed_work` and, for a cost-based order,
    /// the rounded `estimated_work`, in that order.
    pub fn close(&mut self, origin: std::time::Instant, ended: std::time::Instant, rows: usize) {
        let mut root = Span::timed("query", origin, origin, ended)
            .with_value("rows", rows as u64)
            .with_value("observed_work", self.observed_work());
        if let Some(est) = self.estimated_work {
            root = root.with_value("estimated_work", est.round() as u64);
        }
        root.children = std::mem::take(&mut self.root.children);
        self.root = root;
    }

    /// Render the estimated-vs-observed comparison plus the span tree's
    /// phases, the `\explain` extension. One line per fact; stable
    /// prefixes so smoke tests can grep.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
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
        let value = |s: &Span, key: &str| s.value(key).unwrap_or(0);
        out.push_str(&format!(
            "profile: {} rows in {:.3} ms\n",
            value(&self.root, "rows"),
            ms(self.root.elapsed_ns)
        ));
        for phase in &self.root.children {
            if !phase.name.starts_with("node ") {
                out.push_str(&format!(
                    "  {}: {:.3} ms\n",
                    phase.name,
                    ms(phase.elapsed_ns)
                ));
                continue;
            }
            out.push_str(&format!(
                "  {}: {:.3} ms, {} rows, sink merge {:.3} ms\n",
                phase.name,
                ms(phase.elapsed_ns),
                value(phase, "rows"),
                ms(value(phase, "sink_merge_ns"))
            ));
            let mut morsels = Vec::new();
            for c in &phase.children {
                if c.name.starts_with("thread ") {
                    morsels.push(value(c, "morsels").to_string());
                } else {
                    out.push_str(&format!(
                        "    {}: {} values, {:.3} ms\n",
                        c.name,
                        value(c, "values"),
                        ms(c.elapsed_ns)
                    ));
                }
            }
            if !morsels.is_empty() {
                out.push_str(&format!(
                    "    workers: {} (morsels {})\n",
                    morsels.len(),
                    morsels.join("/")
                ));
            }
        }
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
    /// [`bucket_upper`] edge of the first bucket whose cumulative count
    /// reaches `p * count`. Coarse by design —
    /// log₂ buckets trade precision for a fixed, lock-free footprint.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            // Decoded bucket counts need not sum to `count`.
            cum = cum.saturating_add(b);
            if cum >= target.max(1) {
                return bucket_upper(i);
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
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(7), 127);
        assert_eq!(bucket_upper(63), u64::MAX / 2);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(bucket_upper(u32::MAX as usize), u64::MAX);
    }

    #[test]
    fn top_bucket_percentile_is_the_largest_value() {
        // Bucket 64's upper edge is 2^64 - 1, not a shift past the word.
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().percentile(0.5), u64::MAX);
        // Decoded counts may overshoot `count`: the running sum saturates.
        let mut s = HistogramSnapshot {
            count: 1,
            ..HistogramSnapshot::default()
        };
        s.buckets[3] = u64::MAX;
        s.buckets[64] = u64::MAX;
        assert_eq!(s.percentile(1.0), 7);
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
    }

    /// The span tree behind README's `\explain` sample block.
    fn readme_profile() -> QueryProfile {
        let level = |k: usize, ns: u64, values: u64| {
            Span::new(format!("level {k}"), 0, ns).with_value("values", values)
        };
        let node = Span::new("node 0", 0, 143_000)
            .with_value("rows", 2)
            .with_child(level(0, 108_000, 4))
            .with_child(level(1, 1_000, 8))
            .with_child(level(2, 1_000, 0));
        QueryProfile {
            estimated_work: Some(168.0),
            work: WorkCounters {
                values_scanned: 48,
                intersections: 11,
                merge_kernels: 11,
                ..WorkCounters::default()
            },
            root: Span::new("query", 0, 149_000)
                .with_value("rows", 2)
                .with_value("observed_work", 48)
                .with_value("estimated_work", 168)
                .with_child(node)
                .with_child(Span::new("top-down", 143_000, 0))
                .with_child(Span::new("finalize", 143_000, 2_000)),
        }
    }

    #[test]
    fn profile_render_is_the_readme_sample() {
        let readme = include_str!("../../../README.md");
        let open = "renders it after the loop nest:\n\n```text\n";
        let start = readme.find(open).expect("README keeps the sample") + open.len();
        let len = readme[start..].find("```").expect("sample block closes");
        assert_eq!(readme_profile().render(), &readme[start..start + len]);
    }

    #[test]
    fn profile_render_reports_workers_and_structural_orders() {
        let mut p = readme_profile();
        let node = &mut p.root.children[0];
        node.values.push(("sink_merge_ns".into(), 250_000));
        for (k, morsels) in [3, 1].into_iter().enumerate() {
            node.children.push(
                Span::new(format!("thread {k}"), 0, 100_000)
                    .with_value("morsels", morsels)
                    .with_value("values", 2),
            );
        }
        let text = p.render();
        assert!(
            text.contains("  node 0: 0.143 ms, 2 rows, sink merge 0.250 ms\n"),
            "{text}"
        );
        assert!(
            text.contains("    workers: 2 (morsels 3/1)\n  top-down: "),
            "{text}"
        );
        assert!(!text.contains("thread"), "{text}");
        // Structural orders say so instead of printing an estimate.
        let q = QueryProfile::default();
        assert!(q.render().contains("estimated n/a (structural order)"));
    }
}
