//! The `uint` layout: a sorted array of 32-bit unsigned integers.
//!
//! This is the sparse workhorse layout (paper §4.1). Intersections over it
//! come in three algorithm flavours (paper §4.2 "UINT ∩ UINT"):
//!
//! * scalar merge — the textbook two-pointer walk,
//! * SIMD shuffling — compare 4-element SSE chunks all-against-all,
//! * galloping — exponential-probe + binary search from the smaller side,
//!   preserving the min property under heavy *cardinality skew*.
//!
//! EmptyHeaded's hybrid kernel picks galloping when the cardinality ratio
//! exceeds 32:1 and shuffling otherwise.

use crate::simd;

/// Cardinality ratio at which the hybrid kernel switches from shuffle-style
/// intersection to galloping (paper §4.2).
pub const GALLOP_RATIO: usize = 32;

/// A sorted, deduplicated array of u32.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UintSet {
    values: Vec<u32>,
}

impl UintSet {
    /// Wrap a sorted, deduplicated vector.
    pub fn new(values: Vec<u32>) -> UintSet {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "must be sorted+dedup"
        );
        UintSet { values }
    }

    /// The underlying sorted slice.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Binary-search membership test.
    pub fn contains(&self, v: u32) -> bool {
        self.values.binary_search(&v).is_ok()
    }

    /// Index of `v` in sorted order, if present.
    pub fn rank(&self, v: u32) -> Option<usize> {
        self.values.binary_search(&v).ok()
    }

    /// Heap bytes.
    pub fn bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<u32>()
    }

    /// `Some(min)` when the set is the complete range `[min, min + len)`
    /// — sorted and duplicate-free, so first and last decide it.
    pub fn dense_base(&self) -> Option<u32> {
        let (lo, hi) = (*self.values.first()?, *self.values.last()?);
        ((hi - lo) as usize + 1 == self.values.len()).then_some(lo)
    }
}

// lint:region-start(alloc-free): scalar/gallop/SIMD intersection kernels — append-only into caller buffers
/// Scalar two-pointer merge intersection. Cost `O(|a| + |b|)`.
pub fn intersect_merge_scalar(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Count-only scalar merge.
pub fn count_merge_scalar(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            n += 1;
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
    n
}

/// Galloping (exponential search) intersection: walk the smaller set and
/// probe the larger. Cost `O(|small| · log |large|)` — satisfies the min
/// property, which is what copes with cardinality skew (paper §4.2).
pub fn intersect_gallop(small: &[u32], large: &[u32], out: &mut Vec<u32>) {
    debug_assert!(small.len() <= large.len());
    let mut lo = 0usize;
    for &v in small {
        match gallop_search(large, lo, v) {
            Ok(pos) => {
                out.push(v);
                lo = pos + 1;
            }
            Err(pos) => lo = pos,
        }
        if lo >= large.len() {
            break;
        }
    }
}

/// Count-only galloping intersection.
pub fn count_gallop(small: &[u32], large: &[u32]) -> usize {
    debug_assert!(small.len() <= large.len());
    let mut lo = 0usize;
    let mut n = 0usize;
    for &v in small {
        match gallop_search(large, lo, v) {
            Ok(pos) => {
                n += 1;
                lo = pos + 1;
            }
            Err(pos) => lo = pos,
        }
        if lo >= large.len() {
            break;
        }
    }
    n
}

/// Public galloping probe for cursor-based rank tracking (used by
/// `Set::rank_hinted`). Same contract as `gallop_search`.
#[inline]
pub fn gallop_from(hay: &[u32], start: usize, needle: u32) -> Result<usize, usize> {
    gallop_search(hay, start, needle)
}

/// Exponential probe from `start`, then binary search the bracketed window.
/// Returns `Ok(index)` if found, `Err(insertion_point)` otherwise.
#[inline]
fn gallop_search(hay: &[u32], start: usize, needle: u32) -> Result<usize, usize> {
    let n = hay.len();
    if start >= n {
        return Err(n);
    }
    let mut step = 1usize;
    let mut hi = start;
    while hi < n && hay[hi] < needle {
        hi = hi.saturating_add(step);
        step <<= 1;
    }
    // `hi` is the first probe with hay[hi] >= needle (or past the end); the
    // candidate window is (hi - last_step, hi] — inclusive of hi itself.
    let lo = if step > 2 {
        (hi.saturating_sub(step >> 1)).max(start)
    } else {
        start
    };
    let hi = hi.saturating_add(1).min(n);
    match hay[lo..hi].binary_search(&needle) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

/// SIMD-shuffling intersection (SSE4 when available, scalar fallback).
/// Best for sets of comparable cardinality.
pub fn intersect_shuffle(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    simd::intersect_u32_simd(a, b, out);
}

/// Count-only SIMD-shuffling intersection.
pub fn count_shuffle(a: &[u32], b: &[u32]) -> usize {
    simd::count_u32_simd(a, b)
}

/// The hybrid kernel's merge↔gallop rule (paper §4.2): gallop once one
/// side is at least [`GALLOP_RATIO`]× the other (an empty side counts).
/// The one definition both the kernels and the dispatch statistics use.
#[inline]
pub fn gallop_pays_off(a_len: usize, b_len: usize) -> bool {
    let (small, large) = if a_len <= b_len {
        (a_len, b_len)
    } else {
        (b_len, a_len)
    };
    // `large / small >= RATIO` without the division (lengths are far
    // below `usize::MAX / RATIO`).
    large >= small * GALLOP_RATIO
}

/// The hybrid uint∩uint kernel EmptyHeaded uses by default: gallop at
/// cardinality ratio ≥ 32:1, shuffle otherwise (paper §4.2). `simd=false`
/// forces the scalar variants (paper `-S` ablation).
pub fn intersect_hybrid(a: &[u32], b: &[u32], simd_on: bool, out: &mut Vec<u32>) {
    if gallop_pays_off(a.len(), b.len()) {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        intersect_gallop(small, large, out);
    } else if simd_on {
        intersect_shuffle(a, b, out);
    } else {
        intersect_merge_scalar(a, b, out);
    }
}

/// Count-only hybrid kernel.
pub fn count_hybrid(a: &[u32], b: &[u32], simd_on: bool) -> usize {
    if gallop_pays_off(a.len(), b.len()) {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        count_gallop(small, large)
    } else if simd_on {
        count_shuffle(a, b)
    } else {
        count_merge_scalar(a, b)
    }
}
// lint:region-end(alloc-free)

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn merge_basics() {
        let a = [1, 3, 5, 7, 9];
        let b = [3, 4, 5, 9, 11];
        let mut out = Vec::new();
        intersect_merge_scalar(&a, &b, &mut out);
        assert_eq!(out, vec![3, 5, 9]);
        assert_eq!(count_merge_scalar(&a, &b), 3);
    }

    #[test]
    fn gallop_matches_merge() {
        let small = [7u32, 300, 301, 5000, 100_000];
        let large: Vec<u32> = (0..10_000).map(|i| i * 13).collect();
        let mut g = Vec::new();
        intersect_gallop(&small, &large, &mut g);
        assert_eq!(g, naive(&small, &large));
        assert_eq!(count_gallop(&small, &large), g.len());
    }

    #[test]
    fn gallop_search_edges() {
        let hay = [2u32, 4, 6, 8];
        assert_eq!(gallop_search(&hay, 0, 2), Ok(0));
        assert_eq!(gallop_search(&hay, 0, 8), Ok(3));
        assert_eq!(gallop_search(&hay, 0, 1), Err(0));
        assert_eq!(gallop_search(&hay, 0, 9), Err(4));
        assert_eq!(gallop_search(&hay, 4, 2), Err(4));
        assert_eq!(gallop_search(&hay, 2, 6), Ok(2));
    }

    #[test]
    fn shuffle_matches_merge() {
        let a: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..500).map(|i| i * 5 + 1).collect();
        let mut s = Vec::new();
        intersect_shuffle(&a, &b, &mut s);
        assert_eq!(s, naive(&a, &b));
        assert_eq!(count_shuffle(&a, &b), s.len());
    }

    #[test]
    fn hybrid_picks_gallop_on_skew() {
        // 3 vs 1000 elements: ratio > 32 so the gallop path runs; results
        // must be identical either way.
        let small = [30u32, 600, 999_999];
        let large: Vec<u32> = (0..1000).map(|i| i * 30).collect();
        let mut out = Vec::new();
        intersect_hybrid(&small, &large, true, &mut out);
        assert_eq!(out, naive(&small, &large));
        assert_eq!(count_hybrid(&small, &large, true), out.len());
        let mut out2 = Vec::new();
        intersect_hybrid(&large, &small, false, &mut out2);
        assert_eq!(out2, out);
    }

    #[test]
    fn empty_inputs() {
        let mut out = Vec::new();
        intersect_hybrid(&[], &[1, 2, 3], true, &mut out);
        assert!(out.is_empty());
        assert_eq!(count_hybrid(&[1, 2, 3], &[], true), 0);
    }

    #[test]
    fn identical_sets() {
        let a: Vec<u32> = (0..100).collect();
        let mut out = Vec::new();
        intersect_hybrid(&a, &a, true, &mut out);
        assert_eq!(out, a);
    }
}
