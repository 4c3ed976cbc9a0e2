//! The `bitset` layout: a sequence of `(offset, 256-bit block)` pairs
//! (paper Figure 4).
//!
//! The offsets are packed contiguously and are themselves a `uint` set of
//! block ids, so offset intersection reuses the uint kernels; matching
//! blocks are then combined with SIMD `AND` (paper §4.2 "BITSET ∩ BITSET").
//! A rank directory (cumulative popcounts per block) supports O(1)-ish rank
//! queries for trie child addressing.

use crate::simd;
use crate::{bit_of, block_of, Block, BLOCK_BITS, BLOCK_WORDS};

/// Bitset layout: parallel arrays of block offsets and 256-bit blocks.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BitsetSet {
    /// Sorted block ids (the `o1..on` offsets of Figure 4).
    offsets: Vec<u32>,
    /// 256-bit bitvector per offset (the `b1..bn` blocks of Figure 4).
    blocks: Vec<Block>,
    /// The rank directory, one entry per block: the low 32 bits count the
    /// set bits in blocks `0..i` (exclusive prefix); bytes 4, 5 and 6 count
    /// the bits in this block's words `0..1`, `0..2` and `0..3` — so a rank
    /// is one lookup plus one popcount of a masked word.
    ranks: Vec<u64>,
    /// Total cardinality.
    card: usize,
    /// `Some(min)` when the set is the complete range `[min, min + card)`
    /// (see [`crate::Set::dense_base`]); fixed at build.
    dense_base: Option<u32>,
    /// Block ids are consecutive.
    contiguous: bool,
}

impl BitsetSet {
    /// Build from sorted, deduplicated values.
    pub fn from_sorted(values: &[u32]) -> BitsetSet {
        let mut offsets = Vec::new();
        let mut blocks: Vec<Block> = Vec::new();
        for &v in values {
            let blk = block_of(v);
            if offsets.last() != Some(&blk) {
                offsets.push(blk);
                blocks.push([0u64; BLOCK_WORDS]);
            }
            let bit = bit_of(v);
            blocks.last_mut().unwrap()[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        BitsetSet::from_parts(offsets, blocks)
    }

    /// Construct directly from parts (no block may be all-zero): builds
    /// the rank directory and decides [`Self::dense_base`].
    fn from_parts(offsets: Vec<u32>, blocks: Vec<Block>) -> BitsetSet {
        debug_assert_eq!(offsets.len(), blocks.len());
        let mut ranks = Vec::with_capacity(offsets.len());
        let mut acc = 0u32;
        for b in &blocks {
            let mut entry = acc as u64;
            let mut in_block = 0u64;
            for (w, word) in b.iter().enumerate() {
                in_block += word.count_ones() as u64;
                if w + 1 < BLOCK_WORDS {
                    entry |= in_block << (32 + 8 * w);
                }
            }
            ranks.push(entry);
            acc += in_block as u32;
        }
        let contiguous = match (offsets.first(), offsets.last()) {
            (Some(&lo), Some(&hi)) => (hi - lo) as usize + 1 == offsets.len(),
            _ => false,
        };
        let mut set = BitsetSet {
            offsets,
            blocks,
            ranks,
            card: acc as usize,
            dense_base: None,
            contiguous,
        };
        if let (Some(lo), Some(hi)) = (set.min(), set.max()) {
            if (hi - lo) as usize + 1 == set.card {
                set.dense_base = Some(lo);
            }
        }
        set
    }

    /// Sorted block ids.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Blocks parallel to [`Self::offsets`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.card
    }

    /// True if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.card == 0
    }

    /// Heap bytes (offsets + blocks + rank directory).
    pub fn bytes(&self) -> usize {
        self.offsets.len() * 4 + self.blocks.len() * BLOCK_WORDS * 8 + self.ranks.len() * 8
    }

    /// Index of the block with id `blk`, if present.
    #[inline]
    fn block_index(&self, blk: u32) -> Option<usize> {
        if self.contiguous {
            let i = blk.checked_sub(self.offsets[0])? as usize;
            return (i < self.offsets.len()).then_some(i);
        }
        self.offsets.binary_search(&blk).ok()
    }

    /// Move `cursor` forward to the first block whose id is ≥ `blk`.
    #[inline]
    pub(crate) fn seek(&self, cursor: usize, blk: u32) -> usize {
        if self.contiguous {
            return cursor
                .max((blk.saturating_sub(self.offsets[0]) as usize).min(self.offsets.len()));
        }
        let mut c = cursor;
        while c < self.offsets.len() && self.offsets[c] < blk {
            c += 1;
        }
        c
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        match self.block_index(block_of(v)) {
            Some(i) => {
                let bit = bit_of(v);
                self.blocks[i][(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
            }
            None => false,
        }
    }

    /// Rank of `v` given that block index `i` holds `v`'s block (cursor
    /// support for `Set::rank_hinted`).
    pub(crate) fn rank_in_block(&self, i: usize, v: u32) -> Option<usize> {
        debug_assert_eq!(self.offsets[i], block_of(v));
        let bit = bit_of(v);
        let word = (bit / 64) as usize;
        let mask = 1u64 << (bit % 64);
        let blk = &self.blocks[i];
        if blk[word] & mask == 0 {
            return None;
        }
        let entry = self.ranks[i];
        // Byte `word` of this is the bit count of the words before `word`.
        let before_word = ((entry >> 32) << 8 >> (8 * word)) & 0xff;
        let in_word = (blk[word] & (mask - 1)).count_ones();
        Some(entry as u32 as usize + before_word as usize + in_word as usize)
    }

    /// Rank of `v` (its index in ascending order), if present.
    pub fn rank(&self, v: u32) -> Option<usize> {
        self.rank_in_block(self.block_index(block_of(v))?, v)
    }

    /// `Some(min)` when the set is the complete range `[min, min + len)`.
    pub fn dense_base(&self) -> Option<u32> {
        self.dense_base
    }

    /// Smallest value, if any.
    pub fn min(&self) -> Option<u32> {
        let blk = self.blocks.first()?;
        let base = self.offsets[0] * BLOCK_BITS;
        (0..BLOCK_WORDS)
            .find(|&w| blk[w] != 0)
            .map(|w| base + w as u32 * 64 + blk[w].trailing_zeros())
    }

    /// Largest value, if any.
    pub fn max(&self) -> Option<u32> {
        let i = self.blocks.len().checked_sub(1)?;
        let base = self.offsets[i] * BLOCK_BITS;
        let blk = &self.blocks[i];
        for w in (0..BLOCK_WORDS).rev() {
            if blk[w] != 0 {
                return Some(base + w as u32 * 64 + 63 - blk[w].leading_zeros());
            }
        }
        None
    }

    /// Iterate values in ascending order.
    pub fn iter(&self) -> BitsetIter<'_> {
        BitsetIter {
            set: self,
            block: 0,
            word: 0,
            bits: if self.blocks.is_empty() {
                0
            } else {
                self.blocks[0][0]
            },
        }
    }
}

/// Ascending-order iterator over a [`BitsetSet`].
pub struct BitsetIter<'a> {
    set: &'a BitsetSet,
    block: usize,
    word: usize,
    bits: u64,
}

impl Iterator for BitsetIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.block >= self.set.blocks.len() {
                return None;
            }
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                let base = self.set.offsets[self.block] * BLOCK_BITS;
                return Some(base + self.word as u32 * 64 + tz);
            }
            self.word += 1;
            if self.word == BLOCK_WORDS {
                self.word = 0;
                self.block += 1;
                if self.block >= self.set.blocks.len() {
                    return None;
                }
            }
            self.bits = self.set.blocks[self.block][self.word];
        }
    }
}

// lint:region-start(alloc-free): bitset kernels Generic-Join calls per loop level — they append to caller buffers and walk caller cursors
/// Count-only bitset ∩ bitset (AND + popcount, no materialization).
pub fn count_bitset_bitset(a: &BitsetSet, b: &BitsetSet) -> usize {
    let mut n = 0usize;
    for_common_blocks(a, b, |_, ba, bb| {
        n += simd::and_block_count(ba, bb) as usize;
    });
    n
}

/// bitset ∩ bitset as *values*: AND each common block and decode the
/// surviving bits straight into `out` — no intermediate [`BitsetSet`].
pub fn values_bitset_bitset(a: &BitsetSet, b: &BitsetSet, simd_on: bool, out: &mut Vec<u32>) {
    for_common_blocks(a, b, |blk, ba, bb| {
        push_block_values(blk, &and_blocks(ba, bb, simd_on), out);
    });
}

/// AND two blocks with the SIMD or the scalar kernel (`-S` ablation).
#[inline]
fn and_blocks(a: &Block, b: &Block, simd_on: bool) -> Block {
    if simd_on {
        simd::and_block(a, b)
    } else {
        simd::and_block_scalar(a, b)
    }
}

/// Append the values of block `blk` whose bits are set in `bits`.
#[inline]
pub(crate) fn push_block_values(blk: u32, bits: &Block, out: &mut Vec<u32>) {
    let base = blk * BLOCK_BITS;
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            out.push(base + w as u32 * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
}

/// Merge-walk the two offset arrays invoking `f` on each common block.
#[inline]
fn for_common_blocks<'a>(
    a: &'a BitsetSet,
    b: &'a BitsetSet,
    mut f: impl FnMut(u32, &'a Block, &'a Block),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.offsets.len() && j < b.offsets.len() {
        let (x, y) = (a.offsets[i], b.offsets[j]);
        if x == y {
            f(x, &a.blocks[i], &b.blocks[j]);
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// The most bitsets one fused pass takes: its per-set cursors live on the
/// stack. (Wider all-bitset intersections run the pairwise chain.)
pub const MAX_FUSED: usize = 8;

/// The k-way bitset kernel (paper §4.2: BITSET ∩ BITSET stays a bitset):
/// one block-aligned pass over `sets` (2 to [`MAX_FUSED`] of them),
/// invoking `f` with the AND of every block id all of them hold. The pass
/// walks the first set's blocks and drags one forward-only offset cursor
/// per other set along, so it costs `O(Σ blocks)` and stops as soon as
/// any set runs out — no pairwise intermediates, no allocation.
#[inline]
fn for_blocks_common_to_all(sets: &[&BitsetSet], simd_on: bool, mut f: impl FnMut(u32, &Block)) {
    debug_assert!((2..=MAX_FUSED).contains(&sets.len()));
    let (lead, rest) = (sets[0], &sets[1..]);
    let mut cursors = [0usize; MAX_FUSED];
    'blocks: for (&target, block) in lead.offsets.iter().zip(&lead.blocks) {
        let mut acc = *block;
        for (set, cur) in rest.iter().zip(cursors.iter_mut()) {
            // A plain forward walk, not `seek`: the cursors move a block
            // or two per step, and the walk measured 8 % faster on the
            // 4-clique than the jump's arithmetic.
            let mut c = *cur;
            while c < set.offsets.len() && set.offsets[c] < target {
                c += 1;
            }
            *cur = c;
            match set.offsets.get(c) {
                None => return,
                Some(&o) if o > target => continue 'blocks,
                Some(_) => acc = and_blocks(&acc, &set.blocks[c], simd_on),
            }
        }
        f(target, &acc);
    }
}

/// Count the intersection of 2 to [`MAX_FUSED`] bitsets in one pass (the
/// innermost level of an aggregate never materialises it). Like
/// [`count_bitset_bitset`], AND and popcount are plain word loops.
pub fn count_all_bitsets(sets: &[&BitsetSet]) -> usize {
    let mut count = 0usize;
    for_blocks_common_to_all(sets, false, |_, bits| {
        count += simd::block_count(bits) as usize;
    });
    count
}

/// Append the values of the intersection of 2 to [`MAX_FUSED`] bitsets to
/// `out`, in one pass.
pub fn values_all_bitsets(sets: &[&BitsetSet], simd_on: bool, out: &mut Vec<u32>) {
    for_blocks_common_to_all(sets, simd_on, |blk, bits| {
        push_block_values(blk, bits, out);
    });
}

/// uint ∩ bitset: probe each uint value's block (masking low bits, paper
/// §4.2 "UINT ∩ BITSET"); the result is stored as uint since an intersection
/// is at most as dense as its sparser input.
pub fn intersect_uint_bitset(a: &[u32], b: &BitsetSet, out: &mut Vec<u32>) {
    // Walk uint values and the offset array in tandem; the offset array is
    // sorted so we only move forward (this is the min-property guarantee:
    // cost ∝ |a| + #blocks visited).
    let mut j = 0usize;
    for &v in a {
        let blk = block_of(v);
        j = b.seek(j, blk);
        if j == b.offsets.len() {
            break;
        }
        if b.offsets[j] == blk {
            let bit = bit_of(v);
            if b.blocks[j][(bit / 64) as usize] & (1u64 << (bit % 64)) != 0 {
                out.push(v);
            }
        }
    }
}

/// Count-only uint ∩ bitset.
pub fn count_uint_bitset(a: &[u32], b: &BitsetSet) -> usize {
    let mut j = 0usize;
    let mut n = 0usize;
    for &v in a {
        let blk = block_of(v);
        j = b.seek(j, blk);
        if j == b.offsets.len() {
            break;
        }
        if b.offsets[j] == blk {
            let bit = bit_of(v);
            if b.blocks[j][(bit / 64) as usize] & (1u64 << (bit % 64)) != 0 {
                n += 1;
            }
        }
    }
    n
}
// lint:region-end(alloc-free)

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(vals: &[u32]) -> BitsetSet {
        BitsetSet::from_sorted(vals)
    }

    #[test]
    fn roundtrip() {
        let vals = vec![0, 1, 63, 64, 255, 256, 300, 511, 512, 100_000];
        let s = bs(&vals);
        assert_eq!(s.iter().collect::<Vec<_>>(), vals);
        assert_eq!(s.len(), vals.len());
        assert_eq!(s.max(), Some(100_000));
    }

    #[test]
    fn contains_and_rank() {
        let vals = vec![3, 64, 255, 256, 700];
        let s = bs(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert!(s.contains(v));
            assert_eq!(s.rank(v), Some(i));
        }
        assert!(!s.contains(4));
        assert_eq!(s.rank(4), None);
        assert!(!s.contains(10_000));
    }

    #[test]
    fn empty() {
        let s = bs(&[]);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn bitset_and_bitset() {
        let a = bs(&[1, 2, 3, 300, 301, 600]);
        let b = bs(&[2, 3, 4, 301, 999]);
        for simd_on in [true, false] {
            let mut out = Vec::new();
            values_bitset_bitset(&a, &b, simd_on, &mut out);
            assert_eq!(out, vec![2, 3, 301]);
        }
        assert_eq!(count_bitset_bitset(&a, &b), 3);
    }

    #[test]
    fn uint_and_bitset() {
        let a = vec![2, 5, 301, 999, 5000];
        let b = bs(&[2, 3, 301, 5000, 5001]);
        let mut out = Vec::new();
        intersect_uint_bitset(&a, &b, &mut out);
        assert_eq!(out, vec![2, 301, 5000]);
        assert_eq!(count_uint_bitset(&a, &b), 3);
    }

    #[test]
    fn uint_and_bitset_disjoint() {
        let a = vec![10_000, 20_000];
        let b = bs(&[1, 2, 3]);
        let mut out = Vec::new();
        intersect_uint_bitset(&a, &b, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dense_block_full() {
        let vals: Vec<u32> = (256..512).collect();
        let s = bs(&vals);
        assert_eq!(s.offsets(), &[1]);
        assert_eq!(s.len(), 256);
        assert_eq!(s.rank(256), Some(0));
        assert_eq!(s.rank(511), Some(255));
    }
}
