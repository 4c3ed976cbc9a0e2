//! Engine configuration — every paper ablation as a flag.

use eh_ghd::PlanOptions;
use eh_set::{IntersectConfig, LayoutKind, LayoutPolicy};

/// How the parallel runtime hands level-0 work to its workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Workers pull fixed-size *morsels* of the level-0 value range off a
    /// shared atomic cursor, so a straggler value (a power-law hub) stalls
    /// only its own morsel while idle workers keep draining the rest.
    #[default]
    Morsel,
    /// One contiguous range per worker, fixed up front. Simple but skew-
    /// blind: the worker that draws the hub range becomes the straggler.
    /// Kept as the ablation baseline for the morsel scheduler.
    Static,
}

/// Execution-engine configuration.
///
/// The presets reproduce the ablation columns of paper Tables 8 and 11:
/// [`Config::uint_only`] is `-R` (no layout optimization),
/// [`Config::no_layout_no_algorithms`] is `-RA`,
/// [`Config::no_simd`] is `-S`, and [`Config::no_ghd`] is the single-node
/// (LogicBlox-class) plan `-GHD`.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Set-layout decision policy (default: per-set optimizer).
    pub layout_policy: LayoutPolicy,
    /// Intersection kernel flags (SIMD, algorithm selection).
    pub intersect: IntersectConfig,
    /// Query-compiler options (GHD optimizations, push-down, dedup).
    pub plan: PlanOptions,
    /// Worker threads for the outer Generic-Join loop and parallel trie
    /// sorts: `Some(1)` (the default) is serial, `Some(n)` pins exactly
    /// `n` workers (reproducible benchmark runs on shared machines), and
    /// `None` auto-detects from [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
    /// Level-0 work distribution for multi-threaded runs (default: morsel-
    /// driven; [`Scheduler::Static`] is the skew-blind ablation baseline).
    pub scheduler: Scheduler,
    /// Morsel size in level-0 values: `None` (the default) auto-sizes from
    /// the value count and worker count, `Some(n)` pins it (benchmarks).
    pub morsel_size: Option<usize>,
    /// Force naive recursion even for monotone aggregates (ablation; the
    /// engine normally picks seminaive for MIN/MAX, paper §3.3.2).
    pub force_naive_recursion: bool,
    /// Collect a [`eh_obs::QueryProfile`] while executing: per-level span
    /// timings, per-worker morsel balance, and the hot-path work counters
    /// (values scanned, kernel dispatches, count-fast hits). Off by
    /// default — the recursion then skips every profiling bump. Results
    /// are byte-identical either way.
    pub profile: bool,
    /// Distributed execution shard, `Some((index, count))`: restrict the
    /// root GHD node's level-0 value range to the `index`-th of `count`
    /// equal contiguous slices. Every shard loads the full input and
    /// computes the identical merged level-0 list, so only the two
    /// integers cross the wire; a coordinator ⊕-merges the per-shard
    /// partial results in shard order. `None` (the default) joins the
    /// whole range — single-process execution.
    pub shard: Option<(u32, u32)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            layout_policy: LayoutPolicy::SetLevel,
            intersect: IntersectConfig::full(),
            plan: PlanOptions::default(),
            threads: Some(1),
            scheduler: Scheduler::Morsel,
            morsel_size: None,
            force_naive_recursion: false,
            profile: false,
            shard: None,
        }
    }
}

impl Config {
    /// `-R`: homogeneous uint layout — no density-skew optimization.
    pub fn uint_only() -> Config {
        Config {
            layout_policy: LayoutPolicy::Fixed(LayoutKind::Uint),
            ..Default::default()
        }
    }

    /// `-RA`: uint-only layouts *and* no intersection-algorithm selection
    /// (plain scalar merge) — neither skew dimension handled.
    pub fn no_layout_no_algorithms() -> Config {
        Config {
            layout_policy: LayoutPolicy::Fixed(LayoutKind::Uint),
            intersect: IntersectConfig::no_algorithms(),
            ..Default::default()
        }
    }

    /// `-S`: scalar kernels only (layout optimizer still active).
    pub fn no_simd() -> Config {
        Config {
            intersect: IntersectConfig::no_simd(),
            ..Default::default()
        }
    }

    /// `-GHD`: single-node GHD plan (the generic WCOJ algorithm with no
    /// decomposition — LogicBlox's strategy).
    pub fn no_ghd() -> Config {
        Config {
            plan: PlanOptions {
                ghd_optimizations: false,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Set worker thread count (0 = auto-detect).
    pub fn with_threads(mut self, threads: usize) -> Config {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Pin the morsel size (0 = auto-size).
    pub fn with_morsel(mut self, morsel: usize) -> Config {
        self.morsel_size = if morsel == 0 { None } else { Some(morsel) };
        self
    }

    /// Select the level-0 work-distribution scheme.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Config {
        self.scheduler = scheduler;
        self
    }

    /// Toggle query profiling (work counters + span timings).
    pub fn with_profile(mut self, profile: bool) -> Config {
        self.profile = profile;
        self
    }

    /// Execute only the `index`-th of `count` level-0 shards (distributed
    /// scatter-gather). Panics when `index >= count` or `count == 0` —
    /// the wire decoder rejects such frames before they reach a config.
    pub fn with_shard(mut self, index: u32, count: u32) -> Config {
        assert!(count >= 1 && index < count, "shard {index}/{count} invalid");
        self.shard = Some((index, count));
        self
    }

    /// Resolve the morsel size for a level-0 range of `len` values split
    /// across `threads` workers. Auto-sizing targets ~8 morsels per worker
    /// so skewed values re-balance, floored at 1 and capped so tiny inputs
    /// don't degenerate into per-value dispatch overhead.
    pub fn effective_morsel(&self, len: usize, threads: usize) -> usize {
        match self.morsel_size {
            Some(n) => n.max(1),
            None => (len / (threads.max(1) * 8)).clamp(1, 4096),
        }
    }

    /// Resolve the worker count the executor should fan out to.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Relation-level layout decision (paper §4.3 "Relation Level"): one
    /// forced layout for everything.
    pub fn relation_level(kind: LayoutKind) -> Config {
        Config {
            layout_policy: LayoutPolicy::Fixed(kind),
            ..Default::default()
        }
    }

    /// Block-level (composite) layout everywhere (paper §4.3 "Block Level").
    pub fn block_level() -> Config {
        Config {
            layout_policy: LayoutPolicy::BlockLevel,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_set_expected_flags() {
        assert_eq!(
            Config::uint_only().layout_policy,
            LayoutPolicy::Fixed(LayoutKind::Uint)
        );
        assert!(!Config::no_simd().intersect.simd);
        assert!(Config::no_simd().intersect.algorithm_optimizer);
        let ra = Config::no_layout_no_algorithms();
        assert!(!ra.intersect.algorithm_optimizer);
        assert!(!Config::no_ghd().plan.ghd_optimizations);
        assert!(Config::default().plan.ghd_optimizations);
        assert!(!Config::default().profile, "profiling is opt-in");
        assert!(Config::default().with_profile(true).profile);
    }

    #[test]
    fn shard_knob_semantics() {
        assert_eq!(Config::default().shard, None, "single-process default");
        assert_eq!(Config::default().with_shard(2, 4).shard, Some((2, 4)));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn shard_index_out_of_range_panics() {
        let _ = Config::default().with_shard(3, 3);
    }

    #[test]
    fn thread_knob_semantics() {
        let auto = Config::default().with_threads(0);
        assert_eq!(auto.threads, None);
        assert!(auto.effective_threads() >= 1);
        let pinned = Config::default().with_threads(8);
        assert_eq!(pinned.threads, Some(8));
        assert_eq!(pinned.effective_threads(), 8);
        assert_eq!(Config::default().effective_threads(), 1, "serial default");
    }

    #[test]
    fn morsel_knob_semantics() {
        assert_eq!(Config::default().scheduler, Scheduler::Morsel);
        assert_eq!(Config::default().morsel_size, None);
        let pinned = Config::default().with_morsel(64);
        assert_eq!(pinned.morsel_size, Some(64));
        assert_eq!(pinned.effective_morsel(1_000_000, 4), 64);
        let auto = Config::default().with_morsel(0);
        assert_eq!(auto.morsel_size, None);
        // Auto-sizing: ~8 morsels per worker, floored at 1, capped at 4096.
        assert_eq!(auto.effective_morsel(0, 4), 1);
        assert_eq!(auto.effective_morsel(320, 4), 10);
        assert_eq!(auto.effective_morsel(100_000_000, 2), 4096);
        assert_eq!(
            Config::default()
                .with_scheduler(Scheduler::Static)
                .scheduler,
            Scheduler::Static
        );
    }
}
