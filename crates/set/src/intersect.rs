//! The intersection dispatcher: streaming entry points over every pair of
//! layouts.
//!
//! [`intersect_values`] and [`intersect_count`] run one 2-way
//! intersection; [`intersect_all_with`] and [`count_all_with`] (and their
//! slice wrappers [`intersect_all_into`] and [`count_all_into`]) run the
//! n-way intersection of a Generic-Join loop level. Each either appends the
//! ascending result values to a caller buffer or counts them — no entry
//! point builds a result set. They dispatch on the layout pair and the
//! [`IntersectConfig`] (SIMD on/off for the `-S` ablation, algorithm
//! optimizer on/off for the `-RA` ablation). All kernels preserve the min
//! property (paper §2.1, §4.2), so Generic-Join built on top of this module
//! inherits its worst-case optimality.

use crate::bitset::{self, BitsetSet};
use crate::block;
use crate::uint;
use crate::Set;
use eh_obs::WorkCounters;

/// Kernel configuration — the execution-engine ablation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntersectConfig {
    /// Use SIMD kernels (`false` reproduces the `-S` ablation, Table 11).
    pub simd: bool,
    /// Select set-intersection algorithms by cardinality skew (`false`
    /// forces plain merge, part of the `-RA` ablation, Table 8).
    pub algorithm_optimizer: bool,
}

impl Default for IntersectConfig {
    fn default() -> Self {
        IntersectConfig {
            simd: true,
            algorithm_optimizer: true,
        }
    }
}

impl IntersectConfig {
    /// The configuration EmptyHeaded ships with.
    pub fn full() -> Self {
        Self::default()
    }

    /// Scalar-only (paper `-S`).
    pub fn no_simd() -> Self {
        IntersectConfig {
            simd: false,
            algorithm_optimizer: true,
        }
    }

    /// No algorithm selection (merge only; with uint-only layouts this is
    /// the paper's `-RA`).
    pub fn no_algorithms() -> Self {
        IntersectConfig {
            simd: false,
            algorithm_optimizer: false,
        }
    }
}

/// Charge one bitset-family (any bitset or composite operand) kernel
/// over operands of `a_len` and `b_len` values.
#[inline(always)]
fn bitset_kernel(stats: &mut WorkCounters, a_len: usize, b_len: usize) {
    stats.values_scanned += (a_len + b_len) as u64;
    stats.bitset_kernels += 1;
}

// lint:region-start(alloc-free): Generic-Join calls these once per loop level — they only count, or append to caller buffers; MultiwayScratch exists so the multiway chain never allocates per call
impl IntersectConfig {
    /// Charge one uint ∩ uint kernel and say whether the `-RA` ablation
    /// leaves the choice to the hybrid kernel: the class charged is the
    /// branch [`uint::gallop_pays_off`] sends that kernel down.
    #[inline]
    fn charge_uint_uint(&self, a_len: usize, b_len: usize, stats: &mut WorkCounters) -> bool {
        stats.values_scanned += (a_len + b_len) as u64;
        if self.algorithm_optimizer && uint::gallop_pays_off(a_len, b_len) {
            stats.gallop_kernels += 1;
        } else {
            stats.merge_kernels += 1;
        }
        self.algorithm_optimizer
    }

    /// uint ∩ uint values: the hybrid kernel (gallop on ≥32:1 skew,
    /// shuffle/merge otherwise), or plain scalar merge under `-RA`.
    #[inline]
    fn uint_uint(&self, a: &[u32], b: &[u32], stats: &mut WorkCounters, out: &mut Vec<u32>) {
        if self.charge_uint_uint(a.len(), b.len(), stats) {
            uint::intersect_hybrid(a, b, self.simd, out);
        } else {
            uint::intersect_merge_scalar(a, b, out);
        }
    }

    /// Count-only twin of [`Self::uint_uint`].
    #[inline]
    fn uint_uint_count(&self, a: &[u32], b: &[u32], stats: &mut WorkCounters) -> usize {
        if self.charge_uint_uint(a.len(), b.len(), stats) {
            uint::count_hybrid(a, b, self.simd)
        } else {
            uint::count_merge_scalar(a, b)
        }
    }
}

/// The 2-way value dispatch over every layout pair: append `a ∩ b` to
/// `out`, charging `stats` in the arm that picks the kernel.
fn pair_values(
    a: &Set,
    b: &Set,
    cfg: &IntersectConfig,
    stats: &mut WorkCounters,
    out: &mut Vec<u32>,
) {
    match (a, b) {
        (Set::Uint(x), Set::Uint(y)) => cfg.uint_uint(x.values(), y.values(), stats, out),
        (Set::Uint(x), y) | (y, Set::Uint(x)) => slice_values(x.values(), y, cfg, stats, out),
        (Set::Bitset(x), Set::Bitset(y)) => {
            bitset_kernel(stats, x.len(), y.len());
            bitset::values_bitset_bitset(x, y, cfg.simd, out);
        }
        (Set::Block(x), Set::Block(y)) => {
            bitset_kernel(stats, x.len(), y.len());
            block::values_block_block(x, y, cfg.simd, out);
        }
        (Set::Bitset(x), Set::Block(y)) | (Set::Block(y), Set::Bitset(x)) => {
            bitset_kernel(stats, x.len(), y.len());
            block::values_bitset_block(x, y, cfg.simd, out);
        }
    }
}

/// Count-only twin of [`pair_values`].
fn pair_count(a: &Set, b: &Set, cfg: &IntersectConfig, stats: &mut WorkCounters) -> usize {
    match (a, b) {
        (Set::Uint(x), Set::Uint(y)) => cfg.uint_uint_count(x.values(), y.values(), stats),
        (Set::Uint(x), y) | (y, Set::Uint(x)) => slice_count(x.values(), y, cfg, stats),
        (Set::Bitset(x), Set::Bitset(y)) => {
            bitset_kernel(stats, x.len(), y.len());
            bitset::count_bitset_bitset(x, y)
        }
        (Set::Block(x), Set::Block(y)) => {
            bitset_kernel(stats, x.len(), y.len());
            block::count_block_block(x, y)
        }
        (Set::Bitset(x), Set::Block(y)) | (Set::Block(y), Set::Bitset(x)) => {
            bitset_kernel(stats, x.len(), y.len());
            block::count_bitset_block(x, y)
        }
    }
}

/// Sorted value slice (a uint set, or a chain's accumulator) ∩ set,
/// appended to `out`: the uint×layout dispatch without a [`Set`] around
/// the slice side.
fn slice_values(
    a: &[u32],
    b: &Set,
    cfg: &IntersectConfig,
    stats: &mut WorkCounters,
    out: &mut Vec<u32>,
) {
    match b {
        Set::Uint(y) => cfg.uint_uint(a, y.values(), stats, out),
        Set::Bitset(y) => {
            bitset_kernel(stats, a.len(), y.len());
            bitset::intersect_uint_bitset(a, y, out);
        }
        Set::Block(y) => {
            bitset_kernel(stats, a.len(), y.len());
            out.extend(a.iter().filter(|&&v| y.contains(v)));
        }
    }
}

/// Count-only twin of [`slice_values`].
fn slice_count(a: &[u32], b: &Set, cfg: &IntersectConfig, stats: &mut WorkCounters) -> usize {
    match b {
        Set::Uint(y) => cfg.uint_uint_count(a, y.values(), stats),
        Set::Bitset(y) => {
            bitset_kernel(stats, a.len(), y.len());
            bitset::count_uint_bitset(a, y)
        }
        Set::Block(y) => {
            bitset_kernel(stats, a.len(), y.len());
            a.iter().filter(|&&v| y.contains(v)).count()
        }
    }
}

/// Count an intersection without materializing it (used by aggregate-only
/// queries, where the innermost Generic-Join loop is a pure count).
pub fn intersect_count(a: &Set, b: &Set, cfg: &IntersectConfig) -> usize {
    pair_count(a, b, cfg, &mut WorkCounters::default())
}

/// Intersect two sets writing the result *values* into a caller-provided
/// buffer — the allocation-free fast path for Generic-Join's loop levels,
/// where only the ascending value stream is needed, not a layout.
pub fn intersect_values(a: &Set, b: &Set, cfg: &IntersectConfig, out: &mut Vec<u32>) {
    pair_values(a, b, cfg, &mut WorkCounters::default(), out);
}

/// Reusable buffers for multiway intersections: an index ordering plus two
/// ping-pong value buffers for intermediate results. Owning one of these
/// (e.g. in an executor's per-node scratch) makes [`intersect_all_into`]
/// and [`count_all_into`] allocation-free across calls.
#[derive(Clone, Debug, Default)]
pub struct MultiwayScratch {
    /// `(len, index)` pairs, sorted so the chain runs smallest-first.
    order: Vec<(usize, usize)>,
    /// Intermediate accumulator (ping).
    ping: Vec<u32>,
    /// Intermediate accumulator (pong).
    pong: Vec<u32>,
    /// Per-set monotone rank cursors for the probe-smallest path.
    cursors: Vec<usize>,
    /// Kernel-dispatch counters (`intersections`, `values_scanned` and
    /// the three kernel classes), recorded as plain field bumps — no
    /// atomics, no allocation — and drained by profiling readers with
    /// [`std::mem::take`]. Every counter is charged *by the dispatch arm
    /// that picks the kernel*, from the lengths it already holds, so the
    /// counts explain which code path did the work and cost no second
    /// pass over the operands.
    pub stats: WorkCounters,
}

impl MultiwayScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> MultiwayScratch {
        MultiwayScratch::default()
    }
}

/// How an `n ≥ 3`-way intersection runs, decided once per call from the
/// participants' layouts and sizes (and charged to the stats there).
enum Multiway<'s> {
    /// Every participant is a bitset (the first `n` entries): one
    /// block-aligned k-way AND pass.
    Bitsets([&'s BitsetSet; bitset::MAX_FUSED]),
    /// The smallest participant is `GALLOP_RATIO`× smaller than every
    /// other: walk it and rank-probe the rest.
    Probe,
    /// The mixed-layout chain, smallest-first through the ping-pong
    /// buffers; `scratch.order` is sorted.
    Chain,
}

/// The participants as bitsets, if every one of the `n` is (and they fit
/// one fused pass); entries past `n` repeat the first.
#[inline]
fn all_bitsets<'s, F>(n: usize, set_at: &F) -> Option<[&'s BitsetSet; bitset::MAX_FUSED]>
where
    F: Fn(usize) -> &'s Set,
{
    let Set::Bitset(first) = set_at(0) else {
        return None;
    };
    if n > bitset::MAX_FUSED {
        return None;
    }
    let mut sets = [first; bitset::MAX_FUSED];
    for (i, slot) in sets.iter_mut().enumerate().take(n).skip(1) {
        let Set::Bitset(b) = set_at(i) else {
            return None;
        };
        *slot = b;
    }
    Some(sets)
}

/// Pick the strategy for an `n ≥ 3`-way intersection and charge the
/// single-pass ones (the chain charges per step).
fn plan_multiway<'s, F>(
    n: usize,
    set_at: &F,
    cfg: &IntersectConfig,
    scratch: &mut MultiwayScratch,
) -> Multiway<'s>
where
    F: Fn(usize) -> &'s Set,
{
    debug_assert!(n >= 3);
    scratch.stats.intersections += 1;
    if let Some(sets) = all_bitsets(n, set_at) {
        scratch.stats.values_scanned += sets[..n].iter().map(|b| b.len() as u64).sum::<u64>();
        scratch.stats.bitset_kernels += n as u64 - 1;
        return Multiway::Bitsets(sets);
    }
    scratch.order.clear();
    for i in 0..n {
        scratch.order.push((set_at(i).len(), i));
    }
    scratch.order.sort_unstable();
    // The multiway analogue of the 2-way merge↔gallop switch.
    if cfg.algorithm_optimizer && uint::gallop_pays_off(scratch.order[0].0, scratch.order[1].0) {
        // One monotone rank-probe (gallop-family) pass per non-smallest
        // participant, reading its inputs in place.
        scratch.stats.values_scanned += scratch.order.iter().map(|&(l, _)| l as u64).sum::<u64>();
        scratch.stats.gallop_kernels += n as u64 - 1;
        scratch.cursors.clear();
        scratch.cursors.resize(n, 0);
        return Multiway::Probe;
    }
    Multiway::Chain
}

/// [`intersect_all_into`] over an accessor instead of a slice: `set_at(i)`
/// yields the `i`-th of `n` sets. This is the form Generic-Join uses — the
/// participating sets live behind per-atom trie cursors, so collecting
/// `&Set` references into a slice would itself allocate per call.
pub fn intersect_all_with<'s, F>(
    n: usize,
    set_at: F,
    cfg: &IntersectConfig,
    scratch: &mut MultiwayScratch,
    out: &mut Vec<u32>,
) where
    F: Fn(usize) -> &'s Set,
{
    match n {
        0 => {}
        1 => {
            scratch.stats.values_scanned += set_at(0).len() as u64;
            out.extend(set_at(0).iter());
        }
        2 => {
            scratch.stats.intersections += 1;
            pair_values(set_at(0), set_at(1), cfg, &mut scratch.stats, out);
        }
        _ => match plan_multiway(n, &set_at, cfg, scratch) {
            Multiway::Bitsets(sets) => bitset::values_all_bitsets(&sets[..n], cfg.simd, out),
            Multiway::Probe => probe_smallest_with(n, &set_at, scratch, |v| out.push(v)),
            Multiway::Chain => {
                if let Some(last) = chain_all_but_largest(n, &set_at, cfg, scratch) {
                    slice_values(&scratch.ping, set_at(last), cfg, &mut scratch.stats, out);
                }
            }
        },
    }
}

/// Walk the smallest set once and probe every other participant with a
/// monotone rank cursor ([`Set::rank_hinted`] — galloping on uint, block
/// skipping on bitset), early-outing on the first miss. For wildly
/// asymmetric inputs this is O(s₀ · Σ log sᵢ) instead of the merge chain's
/// O(Σ sᵢ), and it materializes no intermediates at all. Probes run in
/// ascending set size so the most selective side rejects first.
fn probe_smallest_with<'s, F, E>(n: usize, set_at: &F, scratch: &mut MultiwayScratch, mut emit: E)
where
    F: Fn(usize) -> &'s Set,
    E: FnMut(u32),
{
    let small = set_at(scratch.order[0].1);
    'values: for v in small.iter() {
        for k in 1..n {
            if set_at(scratch.order[k].1)
                .rank_hinted(v, &mut scratch.cursors[k])
                .is_none()
            {
                continue 'values;
            }
        }
        emit(v);
    }
}

/// The shared 3+-way chain over a pre-sorted `scratch.order`: fold all but
/// the largest into `scratch.ping` via the ping-pong buffers, and return
/// the largest set's index for the caller's terminal step (materialize or
/// count). `None` means the accumulator emptied early — the overall
/// result is empty/zero.
fn chain_all_but_largest<'s, F>(
    n: usize,
    set_at: &F,
    cfg: &IntersectConfig,
    scratch: &mut MultiwayScratch,
) -> Option<usize>
where
    F: Fn(usize) -> &'s Set,
{
    scratch.ping.clear();
    pair_values(
        set_at(scratch.order[0].1),
        set_at(scratch.order[1].1),
        cfg,
        &mut scratch.stats,
        &mut scratch.ping,
    );
    for k in 2..n - 1 {
        if scratch.ping.is_empty() {
            return None;
        }
        scratch.pong.clear();
        slice_values(
            &scratch.ping,
            set_at(scratch.order[k].1),
            cfg,
            &mut scratch.stats,
            &mut scratch.pong,
        );
        std::mem::swap(&mut scratch.ping, &mut scratch.pong);
    }
    if scratch.ping.is_empty() {
        return None;
    }
    Some(scratch.order[n - 1].1)
}

/// Intersect many sets smallest-first, writing the result *values* into a
/// caller-provided buffer and reusing `scratch` for intermediates. `out` is
/// appended to, not cleared.
pub fn intersect_all_into(
    sets: &[&Set],
    cfg: &IntersectConfig,
    scratch: &mut MultiwayScratch,
    out: &mut Vec<u32>,
) {
    intersect_all_with(sets.len(), |i| sets[i], cfg, scratch, out);
}

/// [`count_all_into`] over an accessor — see [`intersect_all_with`].
pub fn count_all_with<'s, F>(
    n: usize,
    set_at: F,
    cfg: &IntersectConfig,
    scratch: &mut MultiwayScratch,
) -> usize
where
    F: Fn(usize) -> &'s Set,
{
    match n {
        0 => 0,
        1 => {
            let len = set_at(0).len();
            scratch.stats.values_scanned += len as u64;
            len
        }
        2 => {
            scratch.stats.intersections += 1;
            pair_count(set_at(0), set_at(1), cfg, &mut scratch.stats)
        }
        _ => match plan_multiway(n, &set_at, cfg, scratch) {
            Multiway::Bitsets(sets) => bitset::count_all_bitsets(&sets[..n]),
            Multiway::Probe => {
                let mut count = 0usize;
                probe_smallest_with(n, &set_at, scratch, |_| count += 1);
                count
            }
            Multiway::Chain => match chain_all_but_largest(n, &set_at, cfg, scratch) {
                Some(last) => slice_count(&scratch.ping, set_at(last), cfg, &mut scratch.stats),
                None => 0,
            },
        },
    }
}

/// Count a multiway intersection without materializing the final set,
/// reusing `scratch` for intermediates.
pub fn count_all_into(
    sets: &[&Set],
    cfg: &IntersectConfig,
    scratch: &mut MultiwayScratch,
) -> usize {
    count_all_with(sets.len(), |i| sets[i], cfg, scratch)
}
// lint:region-end(alloc-free)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayoutKind::{self, *};

    fn mk(vals: &[u32], k: LayoutKind) -> Set {
        Set::from_sorted(vals, k)
    }

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    /// The n-way model: the first set's values that every other set's
    /// value list holds. It reads the sets only through their iterators.
    fn naive_all(sets: &[&Set]) -> Vec<u32> {
        let Some((first, rest)) = sets.split_first() else {
            return Vec::new();
        };
        let rest: Vec<Vec<u32>> = rest.iter().map(|s| s.to_vec()).collect();
        first
            .iter()
            .filter(|v| rest.iter().all(|r| r.binary_search(v).is_ok()))
            .collect()
    }

    fn values(a: &Set, b: &Set, cfg: &IntersectConfig) -> Vec<u32> {
        let mut out = Vec::new();
        intersect_values(a, b, cfg, &mut out);
        out
    }

    const KINDS: [LayoutKind; 3] = [Uint, Bitset, Block];

    #[test]
    fn all_layout_pairs_agree() {
        let a_vals: Vec<u32> = (0..400).map(|i| i * 3).collect();
        let b_vals: Vec<u32> = (0..400).map(|i| i * 2 + 1).collect();
        let expect = naive(&a_vals, &b_vals);
        let cfg = IntersectConfig::default();
        for ka in KINDS {
            for kb in KINDS {
                let a = mk(&a_vals, ka);
                let b = mk(&b_vals, kb);
                assert_eq!(values(&a, &b, &cfg), expect, "{ka:?} x {kb:?}");
                assert_eq!(
                    intersect_count(&a, &b, &cfg),
                    expect.len(),
                    "{ka:?} x {kb:?}"
                );
            }
        }
    }

    #[test]
    fn all_layout_pairs_agree_scalar() {
        let a_vals: Vec<u32> = (0..300).map(|i| i * 5).collect();
        let b_vals: Vec<u32> = (10..250).collect();
        let expect = naive(&a_vals, &b_vals);
        let cfg = IntersectConfig::no_simd();
        for ka in KINDS {
            for kb in KINDS {
                let (a, b) = (mk(&a_vals, ka), mk(&b_vals, kb));
                assert_eq!(values(&a, &b, &cfg), expect, "{ka:?} x {kb:?}");
                assert_eq!(intersect_count(&a, &b, &cfg), expect.len());
            }
        }
    }

    #[test]
    fn intersect_all_into_multiway() {
        let cfg = IntersectConfig::default();
        let a = mk(&(0..100).collect::<Vec<_>>(), Uint);
        let b = mk(&(0..100).filter(|v| v % 2 == 0).collect::<Vec<_>>(), Bitset);
        let c = mk(&(0..100).filter(|v| v % 3 == 0).collect::<Vec<_>>(), Uint);
        let mut got = Vec::new();
        intersect_all_into(&[&a, &b, &c], &cfg, &mut MultiwayScratch::new(), &mut got);
        let expect: Vec<u32> = (0..100).filter(|v| v % 6 == 0).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn intersect_all_into_matches_model_every_pairing() {
        // Every LayoutKind pairing (and triple), full/scalar/merge-only
        // configs: the multiway entry points must agree with the model.
        let a_vals: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let b_vals: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let c_vals: Vec<u32> = (0..800).collect();
        let mut scratch = MultiwayScratch::new();
        for cfg in [
            IntersectConfig::full(),
            IntersectConfig::no_simd(),
            IntersectConfig::no_algorithms(),
        ] {
            for ka in KINDS {
                for kb in KINDS {
                    let a = mk(&a_vals, ka);
                    let b = mk(&b_vals, kb);
                    let expect = naive_all(&[&a, &b]);
                    let mut got = Vec::new();
                    intersect_all_into(&[&a, &b], &cfg, &mut scratch, &mut got);
                    assert_eq!(got, expect, "{ka:?} x {kb:?} under {cfg:?}");
                    assert_eq!(
                        count_all_into(&[&a, &b], &cfg, &mut scratch),
                        expect.len(),
                        "{ka:?} x {kb:?} count under {cfg:?}"
                    );
                    for kc in KINDS {
                        let c = mk(&c_vals, kc);
                        let expect3 = naive_all(&[&a, &b, &c]);
                        let mut got3 = Vec::new();
                        intersect_all_into(&[&a, &b, &c], &cfg, &mut scratch, &mut got3);
                        assert_eq!(got3, expect3, "{ka:?} x {kb:?} x {kc:?} under {cfg:?}");
                        assert_eq!(
                            count_all_into(&[&a, &b, &c], &cfg, &mut scratch),
                            expect3.len(),
                            "{ka:?} x {kb:?} x {kc:?} count under {cfg:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_all_into_edge_cases() {
        let cfg = IntersectConfig::default();
        let mut scratch = MultiwayScratch::new();
        let mut out = Vec::new();
        intersect_all_into(&[], &cfg, &mut scratch, &mut out);
        assert!(out.is_empty());
        assert_eq!(count_all_into(&[], &cfg, &mut scratch), 0);
        // Single set: values pass through.
        let a = mk(&[3, 9, 12], Uint);
        intersect_all_into(&[&a], &cfg, &mut scratch, &mut out);
        assert_eq!(out, vec![3, 9, 12]);
        assert_eq!(count_all_into(&[&a], &cfg, &mut scratch), 3);
        // Empty intermediate short-circuits the 3+-way chain.
        let e = mk(&[], Uint);
        let b = mk(&[1, 2, 3], Bitset);
        let c = mk(&[2, 3, 4], Block);
        out.clear();
        intersect_all_into(&[&b, &e, &c], &cfg, &mut scratch, &mut out);
        assert!(out.is_empty());
        assert_eq!(count_all_into(&[&b, &e, &c], &cfg, &mut scratch), 0);
        // Scratch is reusable across calls (no stale state).
        out.clear();
        intersect_all_into(&[&b, &c], &cfg, &mut scratch, &mut out);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn multiway_probe_smallest_matches_merge_chain() {
        // Smallest set is ≥32× smaller than every other participant, so
        // the full config takes the probe-smallest path; merge-only
        // (`no_algorithms`) keeps the chain. Results must agree exactly
        // across every layout triple, for both materialize and count.
        let small_vals: Vec<u32> = vec![0, 96, 2_000, 5_000, 9_984];
        let mid_vals: Vec<u32> = (0..2_000).map(|i| i * 5).collect(); // 400×
        let big_vals: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let mut scratch = MultiwayScratch::new();
        let probing = IntersectConfig::full();
        let merging = IntersectConfig::no_algorithms();
        for ks in KINDS {
            for km in KINDS {
                for kb in KINDS {
                    let s = mk(&small_vals, ks);
                    let m = mk(&mid_vals, km);
                    let b = mk(&big_vals, kb);
                    let mut merged = Vec::new();
                    intersect_all_into(&[&s, &m, &b], &merging, &mut scratch, &mut merged);
                    let mut probed = Vec::new();
                    intersect_all_into(&[&b, &s, &m], &probing, &mut scratch, &mut probed);
                    assert_eq!(probed, merged, "{ks:?} x {km:?} x {kb:?}");
                    assert_eq!(
                        count_all_into(&[&m, &b, &s], &probing, &mut scratch),
                        merged.len(),
                        "{ks:?} x {km:?} x {kb:?} count"
                    );
                }
            }
        }
        // 4-way with an empty smallest set: probe path yields nothing.
        let e = mk(&[], Uint);
        let m = mk(&mid_vals, Uint);
        let b = mk(&big_vals, Bitset);
        let b2 = mk(&big_vals, Block);
        let mut out = Vec::new();
        intersect_all_into(&[&b, &m, &e, &b2], &probing, &mut scratch, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            count_all_into(&[&b, &m, &e, &b2], &probing, &mut scratch),
            0
        );
    }

    /// `n` values out of every `stride`-th of `0..range`, shifted by
    /// `phase`, plus the block-edge values 255/256/511 when in range.
    fn strided(range: u32, stride: u32, phase: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..range)
            .filter(|x| (x + phase).is_multiple_of(stride))
            .collect();
        v.extend([255, 256, 511].into_iter().filter(|&e| e < range));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Both multiway entry points against the model.
    fn assert_multiway_agrees(sets: &[&Set], scratch: &mut MultiwayScratch, what: &str) {
        for cfg in [
            IntersectConfig::full(),
            IntersectConfig::no_simd(),
            IntersectConfig::no_algorithms(),
        ] {
            let expect = naive_all(sets);
            let mut got = vec![7]; // appended to, never cleared
            intersect_all_into(sets, &cfg, scratch, &mut got);
            assert_eq!(got[0], 7, "{what}");
            assert_eq!(&got[1..], expect, "{what} under {cfg:?}");
            assert_eq!(
                count_all_into(sets, &cfg, scratch),
                expect.len(),
                "{what} count under {cfg:?}"
            );
        }
    }

    #[test]
    fn kway_kernels_match_model() {
        // k ∈ {3,4,5} × {all-bitset, mixed layouts} × three densities
        // (1/2, 1/5, 1/40 of a 2 000-value range), block-edge values in.
        let mut scratch = MultiwayScratch::new();
        for stride in [2u32, 5, 40] {
            let inputs: Vec<Vec<u32>> =
                (0..5).map(|p| strided(2_000, stride, p * stride)).collect();
            for k in 3..=5 {
                let all_bitsets: Vec<Set> = inputs[..k].iter().map(|v| mk(v, Bitset)).collect();
                let refs: Vec<&Set> = all_bitsets.iter().collect();
                assert_multiway_agrees(&refs, &mut scratch, &format!("{k} bitsets /{stride}"));
                let mixed: Vec<Set> = inputs[..k]
                    .iter()
                    .enumerate()
                    .map(|(i, v)| mk(v, KINDS[i % 3]))
                    .collect();
                let refs: Vec<&Set> = mixed.iter().collect();
                assert_multiway_agrees(&refs, &mut scratch, &format!("{k} mixed /{stride}"));
            }
        }
    }

    #[test]
    fn kway_bitset_pass_edge_cases() {
        let mut scratch = MultiwayScratch::new();
        let bits = |v: &[u32]| mk(v, Bitset);
        // Only the block edges survive: 255 ends block 0, 256 starts
        // block 1, 511 ends it.
        let a = bits(&[0, 255, 256, 300, 511, 600]);
        let b = bits(&[1, 255, 256, 301, 511, 9_000]);
        let c = bits(&[255, 256, 511, 512, 100_000]);
        let mut out = Vec::new();
        intersect_all_into(
            &[&a, &b, &c],
            &IntersectConfig::full(),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![255, 256, 511]);
        assert_multiway_agrees(&[&a, &b, &c], &mut scratch, "block edges");
        // Disjoint block-id arrays: nothing in common, whoever leads.
        let lo = bits(&[1, 2, 300]);
        let mid = bits(&[1_000, 1_001]);
        let hi = bits(&[70_000, 70_001]);
        for sets in [[&lo, &mid, &hi], [&hi, &lo, &mid], [&mid, &hi, &lo]] {
            assert_multiway_agrees(&sets, &mut scratch, "disjoint offsets");
            assert_eq!(
                count_all_into(&sets, &IntersectConfig::full(), &mut scratch),
                0
            );
        }
        // Early exit: one set runs out of blocks long before the others.
        let long: Vec<u32> = (0..20_000).collect();
        let short = bits(&[3, 700]);
        let (l1, l2) = (bits(&long), bits(&long[1..]));
        assert_multiway_agrees(&[&l1, &short, &l2], &mut scratch, "early exit");
        assert_multiway_agrees(&[&short, &l1, &l2], &mut scratch, "early exit, short leads");
        // Shared block ids whose AND is empty contribute nothing.
        let evens = bits(&(0..600).filter(|v| v % 2 == 0).collect::<Vec<_>>());
        let odds = bits(&(0..600).filter(|v| v % 2 == 1).collect::<Vec<_>>());
        assert_multiway_agrees(&[&evens, &odds, &l1], &mut scratch, "empty ANDs");
        // More bitsets than one fused pass takes: the pairwise chain.
        let many: Vec<Set> = (0..bitset::MAX_FUSED as u32 + 1)
            .map(|p| bits(&strided(3_000, 2, 2 * p)))
            .collect();
        let refs: Vec<&Set> = many.iter().collect();
        assert_multiway_agrees(&refs, &mut scratch, "beyond MAX_FUSED");
    }

    #[test]
    fn kway_bitset_pass_charges_one_pass() {
        // Σ participant lengths once, k − 1 fused ANDs, one intersection —
        // for the count and the value variant alike, whatever the config.
        let mut scratch = MultiwayScratch::new();
        let sets: Vec<Set> = (0..4).map(|p| mk(&strided(1_500, 3, p), Bitset)).collect();
        let refs: Vec<&Set> = sets.iter().collect();
        let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
        for cfg in [IntersectConfig::full(), IntersectConfig::no_algorithms()] {
            count_all_into(&refs, &cfg, &mut scratch);
            let counted = std::mem::take(&mut scratch.stats);
            assert_eq!(
                counted,
                WorkCounters {
                    intersections: 1,
                    values_scanned: total,
                    bitset_kernels: 3,
                    ..WorkCounters::default()
                }
            );
            intersect_all_into(&refs, &cfg, &mut scratch, &mut Vec::new());
            assert_eq!(std::mem::take(&mut scratch.stats), counted);
        }
    }

    #[test]
    fn two_way_stats_follow_the_kernel_choice() {
        // Charged in the dispatch arm: both operand lengths, and the class
        // of the kernel that ran — for every layout pair, count == values.
        let mut scratch = MultiwayScratch::new();
        let a_vals: Vec<u32> = (0..400).map(|i| i * 3).collect();
        let b_vals: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let cfg = IntersectConfig::full();
        for ka in KINDS {
            for kb in KINDS {
                let (a, b) = (mk(&a_vals, ka), mk(&b_vals, kb));
                count_all_into(&[&a, &b], &cfg, &mut scratch);
                let counted = std::mem::take(&mut scratch.stats);
                let uints = ka == Uint && kb == Uint;
                assert_eq!(
                    counted,
                    WorkCounters {
                        intersections: 1,
                        values_scanned: 900,
                        merge_kernels: uints as u64,
                        bitset_kernels: !uints as u64,
                        ..WorkCounters::default()
                    },
                    "{ka:?} x {kb:?}"
                );
                intersect_all_into(&[&b, &a], &cfg, &mut scratch, &mut Vec::new());
                assert_eq!(
                    std::mem::take(&mut scratch.stats),
                    counted,
                    "{kb:?} x {ka:?} values"
                );
            }
        }
        // An empty side gallops (0 : n is past any ratio) unless the
        // optimizer is off.
        let (e, b) = (mk(&[], Uint), mk(&b_vals, Uint));
        count_all_into(&[&e, &b], &cfg, &mut scratch);
        assert_eq!(std::mem::take(&mut scratch.stats).gallop_kernels, 1);
        count_all_into(&[&e, &b], &IntersectConfig::no_algorithms(), &mut scratch);
        assert_eq!(std::mem::take(&mut scratch.stats).merge_kernels, 1);
    }

    #[test]
    fn values_slice_kernels_match_naive() {
        // The chain's accumulator step: a sorted slice against each layout.
        let cfg = IntersectConfig::default();
        let mut stats = WorkCounters::default();
        let a: Vec<u32> = (0..300).map(|i| i * 2).collect();
        let b_vals: Vec<u32> = (0..300).map(|i| i * 3).collect();
        let expect = naive(&a, &b_vals);
        for kb in KINDS {
            let b = mk(&b_vals, kb);
            let mut out = Vec::new();
            slice_values(&a, &b, &cfg, &mut stats, &mut out);
            assert_eq!(out, expect, "slice x {kb:?}");
            assert_eq!(slice_count(&a, &b, &cfg, &mut stats), expect.len());
        }
    }

    #[test]
    fn kernel_stats_classify_dispatches() {
        let mut scratch = MultiwayScratch::new();
        let small = mk(&[0, 64, 4_096], Uint);
        let mid_vals: Vec<u32> = (0..2_000).map(|i| i * 3).collect();
        let big_vals: Vec<u32> = (0..6_000).collect();
        let mid = mk(&mid_vals, Uint);
        let big = mk(&big_vals, Uint);
        let full = IntersectConfig::full();
        let merging = IntersectConfig::no_algorithms();
        let mut out = Vec::new();

        // 2-way, balanced uints, optimizer off → merge kernel.
        intersect_all_into(&[&mid, &big], &merging, &mut scratch, &mut out);
        let s = std::mem::take(&mut scratch.stats);
        assert_eq!((s.intersections, s.merge_kernels), (1, 1));
        assert_eq!((s.gallop_kernels, s.bitset_kernels), (0, 0));

        // 2-way, ≥32:1 skew with the optimizer on → gallop.
        out.clear();
        intersect_all_into(&[&big, &small], &full, &mut scratch, &mut out);
        let s = std::mem::take(&mut scratch.stats);
        assert_eq!((s.intersections, s.gallop_kernels), (1, 1));

        // 2-way with a bitset participant → bitset family.
        let dense = mk(&big_vals, Bitset);
        out.clear();
        intersect_all_into(&[&mid, &dense], &full, &mut scratch, &mut out);
        let s = std::mem::take(&mut scratch.stats);
        assert_eq!((s.intersections, s.bitset_kernels), (1, 1));

        // 3-way probe path → one gallop per non-smallest participant.
        out.clear();
        intersect_all_into(&[&big, &small, &mid], &full, &mut scratch, &mut out);
        let s = std::mem::take(&mut scratch.stats);
        assert_eq!((s.intersections, s.gallop_kernels), (1, 2));

        // 3-way merge chain (optimizer off) → two merge steps, and the
        // count path classifies identically.
        out.clear();
        intersect_all_into(&[&big, &small, &mid], &merging, &mut scratch, &mut out);
        let chained = std::mem::take(&mut scratch.stats);
        count_all_into(&[&big, &small, &mid], &merging, &mut scratch);
        assert_eq!(std::mem::take(&mut scratch.stats), chained);
        assert_eq!(chained.intersections, 1);
        assert_eq!(chained.merge_kernels + chained.gallop_kernels, 2);
    }

    #[test]
    fn no_algorithms_config_still_correct() {
        let cfg = IntersectConfig::no_algorithms();
        let small = mk(&[5, 500, 50_000], Uint);
        let large_vals: Vec<u32> = (0..=10_000).map(|i| i * 5).collect();
        let large = mk(&large_vals, Uint);
        assert_eq!(values(&small, &large, &cfg), vec![5, 500, 50_000]);
        assert_eq!(intersect_count(&large, &small, &cfg), 3);
    }
}
