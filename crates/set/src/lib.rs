//! Skew-aware set layouts and SIMD set-intersection kernels (paper §4).
//!
//! EmptyHeaded found that unoptimized set intersections account for ~95% of
//! the runtime of the generic worst-case-optimal join, so the execution
//! engine's core is a family of set *layouts* —
//!
//! * [`UintSet`] — a sorted array of 32-bit unsigned integers (sparse data),
//! * [`BitsetSet`] — a sequence of `(offset, 256-bit block)` pairs
//!   (dense data; paper Figure 4),
//! * [`BlockSet`] — a *composite* layout that picks uint or bitset per
//!   fixed-size block of the domain (paper §4.3 "Block Level"),
//!
//! — and a family of intersection kernels over every pair of layouts, all of
//! which preserve the **min property**: the cost of an intersection is
//! bounded by the size of the smaller input (within a constant factor given
//! by the block size), which is what makes Generic-Join worst-case optimal.
//!
//! Kernels come in SIMD (SSE/AVX2, runtime-detected) and scalar flavours so
//! the paper's `-S` ablation (Table 11) can be reproduced. Every entry point
//! in [`intersect`] streams: it appends the result values to a caller
//! buffer or only counts them (aggregate queries never materialize, paper
//! §5.3), so Generic-Join's loop levels reuse their buffers.

pub mod bitset;
pub mod block;
pub mod intersect;
pub mod layout;
pub mod oracle;
pub mod simd;
pub mod uint;

pub use bitset::BitsetSet;
pub use block::BlockSet;
pub use intersect::{
    count_all_into, intersect_all_into, intersect_count, IntersectConfig, MultiwayScratch,
};
pub use layout::{choose_layout, LayoutKind, LayoutPolicy};
pub use uint::UintSet;

/// Number of bits per bitset block — the width of an AVX register
/// (paper §4.1, footnote 5: default block size 256).
pub const BLOCK_BITS: u32 = 256;

/// Number of 64-bit words per bitset block.
pub const BLOCK_WORDS: usize = (BLOCK_BITS as usize) / 64;

/// A 256-bit bitset block.
pub type Block = [u64; BLOCK_WORDS];

/// Block id containing value `v`.
#[inline]
pub fn block_of(v: u32) -> u32 {
    v / BLOCK_BITS
}

/// Bit index of value `v` within its block.
#[inline]
pub fn bit_of(v: u32) -> u32 {
    v % BLOCK_BITS
}

/// Rank of `v` in the complete range `[base, base + len)` (see
/// [`Set::dense_base`]): `None` outside it, else the offset from `base`.
#[inline]
pub fn range_rank(base: u32, len: usize, v: u32) -> Option<usize> {
    let rank = v.checked_sub(base)? as usize;
    (rank < len).then_some(rank)
}

/// A set of u32 values in one of the three layouts.
///
/// This is the value type stored at every trie level; the layout is chosen
/// per set by the [`layout`] optimizer (set level is EmptyHeaded's default).
#[derive(Clone, Debug, PartialEq)]
pub enum Set {
    /// Sorted array of u32 (sparse).
    Uint(UintSet),
    /// Offset/block bitvector pairs (dense).
    Bitset(BitsetSet),
    /// Composite per-block hybrid.
    Block(BlockSet),
}

impl Set {
    /// Build an empty uint set.
    pub fn empty() -> Set {
        Set::Uint(UintSet::new(Vec::new()))
    }

    /// Build from sorted, deduplicated values using the given layout.
    pub fn from_sorted(values: &[u32], kind: LayoutKind) -> Set {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        match kind {
            LayoutKind::Uint => Set::Uint(UintSet::new(values.to_vec())),
            LayoutKind::Bitset => Set::Bitset(BitsetSet::from_sorted(values)),
            LayoutKind::Block => Set::Block(BlockSet::from_sorted(values)),
        }
    }

    /// Build from sorted values, letting the set-level optimizer pick.
    pub fn from_sorted_auto(values: &[u32]) -> Set {
        Set::from_sorted(values, choose_layout(values))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Set::Uint(s) => s.len(),
            Set::Bitset(s) => s.len(),
            Set::Block(s) => s.len(),
        }
    }

    /// True if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Layout tag of this set.
    pub fn kind(&self) -> LayoutKind {
        match self {
            Set::Uint(_) => LayoutKind::Uint,
            Set::Bitset(_) => LayoutKind::Bitset,
            Set::Block(_) => LayoutKind::Block,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        match self {
            Set::Uint(s) => s.contains(v),
            Set::Bitset(s) => s.contains(v),
            Set::Block(s) => s.contains(v),
        }
    }

    /// Rank of `v` — its index in sorted order — if present. Trie levels use
    /// ranks to address child pointers and annotations uniformly across
    /// layouts.
    pub fn rank(&self, v: u32) -> Option<usize> {
        match self {
            Set::Uint(s) => s.rank(v),
            Set::Bitset(s) => s.rank(v),
            Set::Block(s) => s.rank(v),
        }
    }

    /// `Some(min)` when the set is the complete range `[min, min + len)` —
    /// the root level of every relation over dense ids. A value's rank in
    /// such a set is a subtraction ([`range_rank`]), so a compiled join
    /// can skip the search. Decided at build for uint (first/last) and
    /// bitset (stored); the composite layout never claims it.
    pub fn dense_base(&self) -> Option<u32> {
        match self {
            Set::Uint(s) => s.dense_base(),
            Set::Bitset(s) => s.dense_base(),
            Set::Block(_) => None,
        }
    }

    /// Rank lookup with a monotone cursor: when callers probe ascending
    /// values (the Generic-Join inner loops always do), `hint` carries the
    /// previous position so each probe searches only forward. `hint` is a
    /// layout-specific cursor — element index for uint, block index for
    /// bitset/composite — and must start at 0 for a fresh ascent.
    pub fn rank_hinted(&self, v: u32, hint: &mut usize) -> Option<usize> {
        match self {
            Set::Uint(s) => {
                let values = s.values();
                let start = (*hint).min(values.len());
                match uint::gallop_from(values, start, v) {
                    Ok(i) => {
                        *hint = i + 1;
                        Some(i)
                    }
                    Err(i) => {
                        *hint = i;
                        None
                    }
                }
            }
            Set::Bitset(s) => {
                let blk = v / BLOCK_BITS;
                let offsets = s.offsets();
                let i = s.seek((*hint).min(offsets.len()), blk);
                *hint = i;
                if i < offsets.len() && offsets[i] == blk {
                    s.rank_in_block(i, v)
                } else {
                    None
                }
            }
            // The composite layout keeps its binary-search rank; block id
            // lookup dominates and stays cheap.
            Set::Block(s) => s.rank(v),
        }
    }

    /// Iterate values in ascending order.
    pub fn iter(&self) -> SetIter<'_> {
        match self {
            Set::Uint(s) => SetIter::Uint(s.values().iter()),
            Set::Bitset(s) => SetIter::Bitset(s.iter()),
            Set::Block(s) => SetIter::Block(s.iter()),
        }
    }

    /// Collect values to a sorted vector (test/debug helper).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Smallest value, if any.
    pub fn min(&self) -> Option<u32> {
        self.iter().next()
    }

    /// Largest value, if any.
    pub fn max(&self) -> Option<u32> {
        match self {
            Set::Uint(s) => s.values().last().copied(),
            Set::Bitset(s) => s.max(),
            Set::Block(s) => s.max(),
        }
    }

    /// Heap bytes used by the layout (drives Fig. 5/6 style tradeoffs).
    pub fn bytes(&self) -> usize {
        match self {
            Set::Uint(s) => s.bytes(),
            Set::Bitset(s) => s.bytes(),
            Set::Block(s) => s.bytes(),
        }
    }

    /// Density of the set over its value range `[min, max]`.
    pub fn density(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let range = (self.max().unwrap() - self.min().unwrap()) as f64 + 1.0;
        n as f64 / range
    }
}

/// Iterator over any layout's values in ascending order.
pub enum SetIter<'a> {
    /// Uint layout iterator.
    Uint(std::slice::Iter<'a, u32>),
    /// Bitset layout iterator.
    Bitset(bitset::BitsetIter<'a>),
    /// Composite layout iterator.
    Block(block::BlockSetIter<'a>),
}

impl Iterator for SetIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        match self {
            SetIter::Uint(i) => i.next().copied(),
            SetIter::Bitset(i) => i.next(),
            SetIter::Block(i) => i.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u32> {
        vec![1, 5, 6, 7, 300, 301, 302, 303, 304, 1000]
    }

    #[test]
    fn roundtrip_all_layouts() {
        let v = sample();
        for kind in [LayoutKind::Uint, LayoutKind::Bitset, LayoutKind::Block] {
            let s = Set::from_sorted(&v, kind);
            assert_eq!(s.to_vec(), v, "{kind:?}");
            assert_eq!(s.len(), v.len());
            assert_eq!(s.min(), Some(1));
            assert_eq!(s.max(), Some(1000));
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn contains_and_rank_agree_across_layouts() {
        let v = sample();
        for kind in [LayoutKind::Uint, LayoutKind::Bitset, LayoutKind::Block] {
            let s = Set::from_sorted(&v, kind);
            for (i, &x) in v.iter().enumerate() {
                assert!(s.contains(x), "{kind:?} contains {x}");
                assert_eq!(s.rank(x), Some(i), "{kind:?} rank {x}");
            }
            for x in [0u32, 2, 299, 305, 999, 1001, 5000] {
                assert!(!s.contains(x), "{kind:?} !contains {x}");
                assert_eq!(s.rank(x), None);
            }
        }
    }

    #[test]
    fn empty_set_behaviour() {
        let e = Set::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
        assert_eq!(e.to_vec(), Vec::<u32>::new());
        assert_eq!(e.density(), 0.0);
    }

    #[test]
    fn density() {
        let s = Set::from_sorted(&[0, 1, 2, 3], LayoutKind::Uint);
        assert!((s.density() - 1.0).abs() < 1e-12);
        let s = Set::from_sorted(&[0, 9], LayoutKind::Uint);
        assert!((s.density() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn auto_layout_dense_picks_bitset() {
        let dense: Vec<u32> = (0..1024).collect();
        let s = Set::from_sorted_auto(&dense);
        assert_eq!(s.kind(), LayoutKind::Bitset);
        let sparse: Vec<u32> = (0..64).map(|i| i * 10_000).collect();
        let s = Set::from_sorted_auto(&sparse);
        assert_eq!(s.kind(), LayoutKind::Uint);
    }

    #[test]
    fn dense_base_only_for_complete_ranges() {
        let near_max = u32::MAX - 700;
        for (lo, len) in [
            (0u32, 600u32),
            (1, 1),
            (37, 300),
            (256, 256),
            (near_max, 701),
        ] {
            let range: Vec<u32> = (lo..=lo + (len - 1)).collect();
            let mut holed = range.clone();
            if holed.len() > 2 {
                holed.remove(holed.len() / 2);
            }
            for kind in [LayoutKind::Uint, LayoutKind::Bitset] {
                let full = Set::from_sorted(&range, kind);
                assert_eq!(full.dense_base(), Some(lo), "{kind:?} {lo}+{len}");
                if holed.len() < range.len() {
                    assert_eq!(Set::from_sorted(&holed, kind).dense_base(), None);
                }
            }
            // The composite layout never claims it.
            assert_eq!(
                Set::from_sorted(&range, LayoutKind::Block).dense_base(),
                None
            );
        }
        assert_eq!(Set::empty().dense_base(), None);
        assert_eq!(Set::from_sorted(&[], LayoutKind::Bitset).dense_base(), None);
    }

    #[test]
    fn range_rank_equals_rank_on_complete_ranges() {
        // min = 0, min > 0, and a range ending at u32::MAX; probes
        // present, absent, below the minimum and above the maximum.
        for (lo, hi) in [(0u32, 999u32), (300, 811), (u32::MAX - 520, u32::MAX)] {
            let values: Vec<u32> = (lo..=hi).collect();
            for kind in [LayoutKind::Uint, LayoutKind::Bitset] {
                let set = Set::from_sorted(&values, kind);
                let base = set.dense_base().expect("a complete range");
                let probes = [
                    lo,
                    lo + 1,
                    lo + 255,
                    lo + 256,
                    hi - 1,
                    hi,
                    lo.wrapping_sub(1),
                    lo / 2,
                    0,
                    hi.wrapping_add(1),
                    hi.saturating_add(1_000),
                    u32::MAX,
                ];
                for v in probes {
                    assert_eq!(
                        range_rank(base, set.len(), v),
                        set.rank(v),
                        "{kind:?} [{lo}, {hi}] rank({v})"
                    );
                    let mut hint = 0;
                    assert_eq!(set.rank_hinted(v, &mut hint), set.rank(v));
                }
            }
        }
    }

    #[test]
    fn bitset_rank_directory_counts_words() {
        // Every word of a block, with gaps: rank by directory == position.
        let values: Vec<u32> = (0..2_000)
            .filter(|v| v % 7 != 3 && v / 64 % 5 != 2)
            .collect();
        let set = Set::from_sorted(&values, LayoutKind::Bitset);
        let mut hint = 0;
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(set.rank(v), Some(i));
            assert_eq!(set.rank_hinted(v, &mut hint), Some(i), "cursor at {v}");
        }
        // A directory with holes between blocks seeks; a run jumps.
        let gappy: Vec<u32> = [5u32, 300, 9_000, 9_001, 70_000].to_vec();
        let set = Set::from_sorted(&gappy, LayoutKind::Bitset);
        let mut hint = 0;
        for probe in [0u32, 5, 6, 300, 8_999, 9_001, 69_999, 70_000, 80_000] {
            assert_eq!(
                set.rank_hinted(probe, &mut hint),
                set.rank(probe),
                "{probe}"
            );
        }
    }

    #[test]
    fn block_helpers() {
        assert_eq!(block_of(0), 0);
        assert_eq!(block_of(255), 0);
        assert_eq!(block_of(256), 1);
        assert_eq!(bit_of(257), 1);
    }
}
