//! The composite block layout (paper §4.3 "Block Level").
//!
//! The domain is chopped into fixed 256-value blocks; each block is stored
//! sparse (in-block u8 offsets) or dense (a 256-bit bitvector) depending on
//! its local density. This copes with *internal* skew — e.g. a set with a
//! long sparse region followed by a dense run (paper Figure 6) — at the cost
//! of per-block dispatch.

use crate::bitset::{push_block_values, BitsetSet};
use crate::simd;
use crate::{bit_of, block_of, Block, BLOCK_BITS, BLOCK_WORDS};

/// Blocks with at least this many elements (out of 256) are stored dense.
/// 32 elements × 8 bits = 256 bits, the break-even point with the bitvector.
pub const DENSE_THRESHOLD: usize = 32;

/// Per-block payload: sparse in-block offsets or a dense bitvector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockData {
    /// Sorted in-block offsets (values are `base + offset`).
    Sparse(Vec<u8>),
    /// 256-bit bitvector.
    Dense(Block),
}

impl BlockData {
    fn bytes(&self) -> usize {
        match self {
            BlockData::Sparse(v) => v.len(),
            BlockData::Dense(_) => BLOCK_WORDS * 8,
        }
    }

    fn view(&self) -> BlockRef<'_> {
        match self {
            BlockData::Sparse(v) => BlockRef::Sparse(v),
            BlockData::Dense(b) => BlockRef::Dense(b),
        }
    }
}

/// A borrowed block payload: what the value and count kernels read, so a
/// [`BitsetSet`] block (always dense) and a composite block share them.
#[derive(Clone, Copy)]
enum BlockRef<'a> {
    Sparse(&'a [u8]),
    Dense(&'a Block),
}

/// Composite layout: sorted block ids with per-block sparse/dense payloads.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BlockSet {
    ids: Vec<u32>,
    data: Vec<BlockData>,
    /// Exclusive prefix cardinalities for rank queries.
    ranks: Vec<u32>,
    card: usize,
}

impl BlockSet {
    /// Build from sorted, deduplicated values, choosing sparse/dense per
    /// block by [`DENSE_THRESHOLD`].
    pub fn from_sorted(values: &[u32]) -> BlockSet {
        let mut set = BlockSet::default();
        let mut i = 0usize;
        while i < values.len() {
            let blk = block_of(values[i]);
            let mut j = i;
            while j < values.len() && block_of(values[j]) == blk {
                j += 1;
            }
            let run = &values[i..j];
            set.ids.push(blk);
            set.ranks.push(set.card as u32);
            set.card += run.len();
            if run.len() >= DENSE_THRESHOLD {
                let mut b = [0u64; BLOCK_WORDS];
                for &v in run {
                    let bit = bit_of(v);
                    b[(bit / 64) as usize] |= 1u64 << (bit % 64);
                }
                set.data.push(BlockData::Dense(b));
            } else {
                set.data.push(BlockData::Sparse(
                    run.iter().map(|&v| bit_of(v) as u8).collect(),
                ));
            }
            i = j;
        }
        set
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.card
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.card == 0
    }

    /// Heap bytes.
    pub fn bytes(&self) -> usize {
        self.ids.len() * 4
            + self.ranks.len() * 4
            + self.data.iter().map(BlockData::bytes).sum::<usize>()
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        let Ok(i) = self.ids.binary_search(&block_of(v)) else {
            return false;
        };
        let bit = bit_of(v);
        match &self.data[i] {
            BlockData::Sparse(offs) => offs.binary_search(&(bit as u8)).is_ok(),
            BlockData::Dense(b) => b[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0,
        }
    }

    /// Rank of `v`, if present.
    pub fn rank(&self, v: u32) -> Option<usize> {
        let i = self.ids.binary_search(&block_of(v)).ok()?;
        let bit = bit_of(v);
        match &self.data[i] {
            BlockData::Sparse(offs) => {
                let k = offs.binary_search(&(bit as u8)).ok()?;
                Some(self.ranks[i] as usize + k)
            }
            BlockData::Dense(b) => {
                let word = (bit / 64) as usize;
                let mask = 1u64 << (bit % 64);
                if b[word] & mask == 0 {
                    return None;
                }
                let mut r = self.ranks[i];
                for w in 0..word {
                    r += b[w].count_ones();
                }
                r += (b[word] & (mask - 1)).count_ones();
                Some(r as usize)
            }
        }
    }

    /// Largest value, if any.
    pub fn max(&self) -> Option<u32> {
        let i = self.ids.len().checked_sub(1)?;
        let base = self.ids[i] * BLOCK_BITS;
        match &self.data[i] {
            BlockData::Sparse(offs) => offs.last().map(|&o| base + o as u32),
            BlockData::Dense(b) => {
                for w in (0..BLOCK_WORDS).rev() {
                    if b[w] != 0 {
                        return Some(base + w as u32 * 64 + 63 - b[w].leading_zeros());
                    }
                }
                None
            }
        }
    }

    /// Iterate values in ascending order.
    pub fn iter(&self) -> BlockSetIter<'_> {
        BlockSetIter {
            set: self,
            block: 0,
            pos: 0,
            word: 0,
            bits: match self.data.first() {
                Some(BlockData::Dense(b)) => b[0],
                _ => 0,
            },
        }
    }
}

/// Ascending-order iterator over a [`BlockSet`].
pub struct BlockSetIter<'a> {
    set: &'a BlockSet,
    block: usize,
    /// Position within a sparse block.
    pos: usize,
    /// Word index within a dense block.
    word: usize,
    /// Remaining bits of the current dense word.
    bits: u64,
}

impl BlockSetIter<'_> {
    fn advance_block(&mut self) {
        self.block += 1;
        self.pos = 0;
        self.word = 0;
        self.bits = match self.set.data.get(self.block) {
            Some(BlockData::Dense(b)) => b[0],
            _ => 0,
        };
    }
}

impl Iterator for BlockSetIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        loop {
            let data = self.set.data.get(self.block)?;
            let base = self.set.ids[self.block] * BLOCK_BITS;
            match data {
                BlockData::Sparse(offs) => {
                    if self.pos < offs.len() {
                        let v = base + offs[self.pos] as u32;
                        self.pos += 1;
                        return Some(v);
                    }
                    self.advance_block();
                }
                BlockData::Dense(b) => {
                    if self.bits != 0 {
                        let tz = self.bits.trailing_zeros();
                        self.bits &= self.bits - 1;
                        return Some(base + self.word as u32 * 64 + tz);
                    }
                    self.word += 1;
                    if self.word == BLOCK_WORDS {
                        self.advance_block();
                    } else {
                        self.bits = b[self.word];
                    }
                }
            }
        }
    }
}

// lint:region-start(alloc-free): composite-layout kernels Generic-Join calls per loop level — count, or append to the caller's buffer
/// Count-only block ∩ block.
pub fn count_block_block(a: &BlockSet, b: &BlockSet) -> usize {
    let mut n = 0usize;
    for_common_ids(&a.ids, &b.ids, |_, i, j| {
        n += count_block_refs(a.data[i].view(), b.data[j].view());
    });
    n
}

/// block ∩ block as *values* appended to `out` — no intermediate set.
pub fn values_block_block(a: &BlockSet, b: &BlockSet, simd_on: bool, out: &mut Vec<u32>) {
    for_common_ids(&a.ids, &b.ids, |id, i, j| {
        push_block_refs(id, a.data[i].view(), b.data[j].view(), simd_on, out);
    });
}

/// Count-only bitset ∩ block: the bitset's blocks are dense blocks.
pub fn count_bitset_block(a: &BitsetSet, b: &BlockSet) -> usize {
    let mut n = 0usize;
    for_common_ids(a.offsets(), &b.ids, |_, i, j| {
        n += count_block_refs(BlockRef::Dense(&a.blocks()[i]), b.data[j].view());
    });
    n
}

/// bitset ∩ block as *values* appended to `out`.
pub fn values_bitset_block(a: &BitsetSet, b: &BlockSet, simd_on: bool, out: &mut Vec<u32>) {
    for_common_ids(a.offsets(), &b.ids, |id, i, j| {
        let dense = BlockRef::Dense(&a.blocks()[i]);
        push_block_refs(id, dense, b.data[j].view(), simd_on, out);
    });
}

/// Merge-walk two sorted block-id arrays, invoking `f(id, i, j)` for each
/// id both hold (at positions `i` and `j`).
#[inline]
fn for_common_ids(a: &[u32], b: &[u32], mut f: impl FnMut(u32, usize, usize)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            f(x, i, j);
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Whether in-block offset `o` is set in the dense block `b`.
#[inline]
fn has_bit(b: &Block, o: u8) -> bool {
    b[(o / 64) as usize] & (1u64 << (o % 64)) != 0
}

/// Merge-walk two sorted in-block offset lists, invoking `f` per match.
#[inline]
fn for_common_offsets(xs: &[u8], ys: &[u8], mut f: impl FnMut(u8)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < xs.len() && j < ys.len() {
        if xs[i] == ys[j] {
            f(xs[i]);
            i += 1;
            j += 1;
        } else if xs[i] < ys[j] {
            i += 1;
        } else {
            j += 1;
        }
    }
}

fn count_block_refs(a: BlockRef<'_>, b: BlockRef<'_>) -> usize {
    use BlockRef::*;
    match (a, b) {
        (Dense(x), Dense(y)) => simd::and_block_count(x, y) as usize,
        (Sparse(xs), Sparse(ys)) => {
            let mut n = 0usize;
            for_common_offsets(xs, ys, |_| n += 1);
            n
        }
        (Sparse(xs), Dense(y)) | (Dense(y), Sparse(xs)) => {
            xs.iter().filter(|&&o| has_bit(y, o)).count()
        }
    }
}

/// Append the values block `id` holds in both `a` and `b`.
fn push_block_refs(id: u32, a: BlockRef<'_>, b: BlockRef<'_>, simd_on: bool, out: &mut Vec<u32>) {
    use BlockRef::*;
    let base = id * BLOCK_BITS;
    match (a, b) {
        (Dense(x), Dense(y)) => {
            let anded = if simd_on {
                simd::and_block(x, y)
            } else {
                simd::and_block_scalar(x, y)
            };
            push_block_values(id, &anded, out);
        }
        (Sparse(xs), Sparse(ys)) => for_common_offsets(xs, ys, |o| out.push(base + o as u32)),
        (Sparse(xs), Dense(y)) | (Dense(y), Sparse(xs)) => {
            for &o in xs {
                if has_bit(y, o) {
                    out.push(base + o as u32);
                }
            }
        }
    }
}
// lint:region-end(alloc-free)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_and_dense_blocks_chosen() {
        // Block 0: 3 values (sparse). Block 1: 200 values (dense).
        let mut vals: Vec<u32> = vec![1, 5, 9];
        vals.extend(256..456);
        let s = BlockSet::from_sorted(&vals);
        assert_eq!(s.len(), 203);
        assert!(matches!(s.data[0], BlockData::Sparse(_)));
        assert!(matches!(s.data[1], BlockData::Dense(_)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn contains_rank_max() {
        let mut vals: Vec<u32> = vec![1, 5, 9];
        vals.extend(256..456);
        let s = BlockSet::from_sorted(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert!(s.contains(v));
            assert_eq!(s.rank(v), Some(i));
        }
        assert!(!s.contains(2));
        assert!(!s.contains(500));
        assert_eq!(s.rank(2), None);
        assert_eq!(s.max(), Some(455));
    }

    #[test]
    fn intersection_mixed_blocks() {
        let mut a_vals: Vec<u32> = vec![1, 5, 9];
        a_vals.extend(256..456);
        let mut b_vals: Vec<u32> = (0..200).collect(); // dense block 0
        b_vals.push(300); // sparse-ish overlap in block 1
        b_vals.push(455);
        let a = BlockSet::from_sorted(&a_vals);
        let b = BlockSet::from_sorted(&b_vals);
        let expect: Vec<u32> = a_vals
            .iter()
            .copied()
            .filter(|v| b_vals.contains(v))
            .collect();
        for simd_on in [true, false] {
            let mut out = Vec::new();
            values_block_block(&a, &b, simd_on, &mut out);
            assert_eq!(out, expect);
        }
        assert_eq!(count_block_block(&a, &b), expect.len());
    }

    #[test]
    fn empty_set() {
        let s = BlockSet::from_sorted(&[]);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn dense_threshold_boundary() {
        let vals: Vec<u32> = (0..DENSE_THRESHOLD as u32).collect();
        let s = BlockSet::from_sorted(&vals);
        assert!(matches!(s.data[0], BlockData::Dense(_)));
        let vals: Vec<u32> = (0..DENSE_THRESHOLD as u32 - 1).collect();
        let s = BlockSet::from_sorted(&vals);
        assert!(matches!(s.data[0], BlockData::Sparse(_)));
    }
}
