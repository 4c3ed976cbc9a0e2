//! The automatic layout optimizer (paper §4.3–4.4).
//!
//! The optimizer decides uint vs bitset at one of three granularities:
//!
//! * **Relation level** — one layout for every set in the trie. Real data is
//!   sparse, so this level always picks uint (paper §4.3).
//! * **Set level** — per set, by the paper's space rule: use a bitset when
//!   each value consumes at most as much space as it would in a SIMD
//!   register, i.e. when `range(set) <= 256·|set|` bits... concretely
//!   `range <= |set| * 32` (a 32-bit uint per element versus one bit per
//!   domain slot: bitset wins when `range/8 <= 4·|set|` bytes). This is
//!   EmptyHeaded's default (§4.4 "Set Optimizer").
//! * **Block level** — the composite layout decides per 256-value block.

use crate::Set;

/// Concrete layout tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Sorted u32 array.
    Uint,
    /// Offset/block bitvector pairs.
    Bitset,
    /// Composite per-block layout.
    Block,
}

/// Layout policy handed to trie construction: either a forced layout
/// (relation level / ablations) or an automatic per-set or per-block choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LayoutPolicy {
    /// Force every set to one layout (relation-level decision; `Uint` is
    /// the paper's `-R` ablation).
    Fixed(LayoutKind),
    /// Decide per set by the space rule (default).
    #[default]
    SetLevel,
    /// Use the composite layout everywhere (block-level decisions).
    BlockLevel,
}

impl LayoutPolicy {
    /// Choose the layout for one sorted set of values under this policy.
    pub fn choose(&self, values: &[u32]) -> LayoutKind {
        match self {
            LayoutPolicy::Fixed(k) => *k,
            LayoutPolicy::SetLevel => choose_layout(values),
            LayoutPolicy::BlockLevel => LayoutKind::Block,
        }
    }

    /// Materialize one sorted set under this policy.
    pub fn build(&self, values: &[u32]) -> Set {
        Set::from_sorted(values, self.choose(values))
    }
}

/// The paper's set-level rule: pick bitset when the bitvector spanning the
/// set's range costs no more than the uint array — i.e. when
/// `range_bits <= 32 · |set|` (one u32 per element vs one bit per domain
/// slot). Equivalently: density over the range ≥ 1/32.
pub fn choose_layout(values: &[u32]) -> LayoutKind {
    let n = values.len();
    if n < 8 {
        // Tiny sets: bitvector bookkeeping never pays off.
        return LayoutKind::Uint;
    }
    let range = (values[n - 1] - values[0]) as u64 + 1;
    if range <= 32 * n as u64 {
        LayoutKind::Bitset
    } else {
        LayoutKind::Uint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_range_picks_bitset() {
        let v: Vec<u32> = (100..400).collect();
        assert_eq!(choose_layout(&v), LayoutKind::Bitset);
    }

    #[test]
    fn sparse_range_picks_uint() {
        let v: Vec<u32> = (0..100).map(|i| i * 1000).collect();
        assert_eq!(choose_layout(&v), LayoutKind::Uint);
    }

    #[test]
    fn boundary_density() {
        // Exactly 1/32 density: n=32 values over range 1024.
        let v: Vec<u32> = (0..32).map(|i| i * 33).collect(); // range = 31*33+1 = 1024
        assert_eq!((v[31] - v[0]) + 1, 1024);
        assert_eq!(choose_layout(&v), LayoutKind::Bitset);
        // One past the boundary.
        let mut v2 = v.clone();
        *v2.last_mut().unwrap() += 2;
        assert_eq!(choose_layout(&v2), LayoutKind::Uint);
    }

    #[test]
    fn tiny_sets_always_uint() {
        assert_eq!(choose_layout(&[1, 2, 3]), LayoutKind::Uint);
        assert_eq!(choose_layout(&[]), LayoutKind::Uint);
    }

    #[test]
    fn policy_fixed() {
        let p = LayoutPolicy::Fixed(LayoutKind::Uint);
        let dense: Vec<u32> = (0..500).collect();
        assert_eq!(p.choose(&dense), LayoutKind::Uint);
        assert_eq!(p.build(&dense).kind(), LayoutKind::Uint);
    }

    #[test]
    fn policy_set_level() {
        let p = LayoutPolicy::SetLevel;
        let dense: Vec<u32> = (0..500).collect();
        assert_eq!(p.build(&dense).kind(), LayoutKind::Bitset);
    }

    #[test]
    fn policy_block_level() {
        let p = LayoutPolicy::BlockLevel;
        let v: Vec<u32> = (0..100).collect();
        assert_eq!(p.build(&v).kind(), LayoutKind::Block);
    }
}
