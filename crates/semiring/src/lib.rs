//! Semiring annotations for EmptyHeaded tries (paper §2.3, §3.2).
//!
//! Following Green et al.'s provenance semirings, every tuple in an
//! EmptyHeaded trie may carry an *annotation* drawn from a commutative
//! semiring `(K, ⊕, ⊗, 0, 1)`. Joins multiply annotations (`⊗`), and
//! projecting an attribute away sums the annotations of the collapsed
//! tuples (`⊕`). This one mechanism expresses COUNT, SUM, MIN, MAX,
//! boolean provenance, and even matrix multiplication (paper Table 1 and
//! Appendix A.2).

pub mod ops;

pub use ops::{AggOp, Carrier, CountOp, DynValue, MaxOp, MinOp, SumOp};

/// A commutative semiring over the annotation type `Self`.
///
/// Laws (checked by property tests in this crate):
/// - `(K, plus, zero)` is a commutative monoid,
/// - `(K, times, one)` is a commutative monoid,
/// - `times` distributes over `plus`,
/// - `zero` annihilates: `times(zero, x) == zero`.
pub trait Semiring: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity (the annotation of "no derivations").
    const ZERO: Self;
    /// Multiplicative identity (the default annotation of a base tuple).
    const ONE: Self;
    /// The semiring addition `⊕`, applied when tuples are merged by projection.
    fn plus(self, other: Self) -> Self;
    /// The semiring multiplication `⊗`, applied when tuples are joined.
    fn times(self, other: Self) -> Self;
}

/// The counting semiring `(u64, +, ×, 0, 1)`; `COUNT(*)` is projection of
/// everything in this semiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Count(pub u64);

impl Semiring for Count {
    const ZERO: Self = Count(0);
    const ONE: Self = Count(1);
    #[inline]
    fn plus(self, other: Self) -> Self {
        Count(self.0.wrapping_add(other.0))
    }
    #[inline]
    fn times(self, other: Self) -> Self {
        Count(self.0.wrapping_mul(other.0))
    }
}

/// The real semiring `(f64, +, ×, 0, 1)`; used by PageRank (SUM aggregate,
/// annotations multiplied across joined relations — a matrix-vector product).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SumF64(pub f64);

impl Semiring for SumF64 {
    const ZERO: Self = SumF64(0.0);
    const ONE: Self = SumF64(1.0);
    #[inline]
    fn plus(self, other: Self) -> Self {
        SumF64(self.0 + other.0)
    }
    #[inline]
    fn times(self, other: Self) -> Self {
        SumF64(self.0 * other.0)
    }
}

/// The tropical (min-plus) semiring `(u32 ∪ {∞}, min, +, ∞, 0)`; SSSP's
/// `MIN(w)+1` recursion is a fixpoint in this semiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MinPlus(pub u32);

impl MinPlus {
    /// The additive identity: "unreachable".
    pub const INF: MinPlus = MinPlus(u32::MAX);

    /// True when this distance is the additive identity.
    pub fn is_inf(self) -> bool {
        self.0 == u32::MAX
    }
}

impl Semiring for MinPlus {
    const ZERO: Self = MinPlus(u32::MAX);
    const ONE: Self = MinPlus(0);
    #[inline]
    fn plus(self, other: Self) -> Self {
        MinPlus(self.0.min(other.0))
    }
    #[inline]
    fn times(self, other: Self) -> Self {
        MinPlus(self.0.saturating_add(other.0))
    }
}

/// The max-times semiring over non-negative reals; used for e.g. widest-path
/// style aggregations and as the `MAX` aggregate carrier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaxF64(pub f64);

impl Semiring for MaxF64 {
    const ZERO: Self = MaxF64(f64::NEG_INFINITY);
    const ONE: Self = MaxF64(1.0);
    #[inline]
    fn plus(self, other: Self) -> Self {
        MaxF64(if self.0 >= other.0 { self.0 } else { other.0 })
    }
    #[inline]
    fn times(self, other: Self) -> Self {
        MaxF64(self.0 * other.0)
    }
}

/// The boolean semiring `({0,1}, ∨, ∧)`; plain relational semantics
/// (set existence / reachability).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Bool(pub bool);

impl Semiring for Bool {
    const ZERO: Self = Bool(false);
    const ONE: Self = Bool(true);
    #[inline]
    fn plus(self, other: Self) -> Self {
        Bool(self.0 || other.0)
    }
    #[inline]
    fn times(self, other: Self) -> Self {
        Bool(self.0 && other.0)
    }
}

/// Fold an iterator of annotations with `⊕`, starting from `ZERO`.
pub fn sum_all<S: Semiring, I: IntoIterator<Item = S>>(iter: I) -> S {
    iter.into_iter().fold(S::ZERO, S::plus)
}

/// Fold an iterator of annotations with `⊗`, starting from `ONE`.
pub fn product_all<S: Semiring, I: IntoIterator<Item = S>>(iter: I) -> S {
    iter.into_iter().fold(S::ONE, S::times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laws<S: Semiring>(vals: &[S]) {
        for &a in vals {
            assert_eq!(a.plus(S::ZERO), a, "zero is additive identity");
            assert_eq!(a.times(S::ONE), a, "one is multiplicative identity");
            assert_eq!(a.times(S::ZERO), S::ZERO, "zero annihilates");
            for &b in vals {
                assert_eq!(a.plus(b), b.plus(a), "plus commutes");
                assert_eq!(a.times(b), b.times(a), "times commutes");
                for &c in vals {
                    assert_eq!(a.plus(b).plus(c), a.plus(b.plus(c)), "plus assoc");
                    assert_eq!(a.times(b).times(c), a.times(b.times(c)), "times assoc");
                    assert_eq!(
                        a.times(b.plus(c)),
                        a.times(b).plus(a.times(c)),
                        "distributivity"
                    );
                }
            }
        }
    }

    #[test]
    fn count_laws() {
        check_laws(&[Count(0), Count(1), Count(2), Count(7), Count(100)]);
    }

    #[test]
    fn minplus_laws() {
        check_laws(&[
            MinPlus::INF,
            MinPlus(0),
            MinPlus(1),
            MinPlus(5),
            MinPlus(1000),
        ]);
    }

    #[test]
    fn bool_laws() {
        check_laws(&[Bool(false), Bool(true)]);
    }

    #[test]
    fn sumf64_identities() {
        let a = SumF64(2.5);
        assert_eq!(a.plus(SumF64::ZERO), a);
        assert_eq!(a.times(SumF64::ONE), a);
        assert_eq!(a.plus(SumF64(1.5)), SumF64(4.0));
        assert_eq!(a.times(SumF64(2.0)), SumF64(5.0));
    }

    #[test]
    fn maxf64_behaviour() {
        assert_eq!(MaxF64(3.0).plus(MaxF64(4.0)), MaxF64(4.0));
        assert_eq!(MaxF64(3.0).times(MaxF64(2.0)), MaxF64(6.0));
        assert_eq!(MaxF64(3.0).plus(MaxF64::ZERO), MaxF64(3.0));
    }

    #[test]
    fn fold_helpers() {
        assert_eq!(sum_all([Count(1), Count(2), Count(3)]), Count(6));
        assert_eq!(product_all([Count(2), Count(3)]), Count(6));
        assert_eq!(sum_all::<Count, _>([]), Count(0));
        assert_eq!(product_all::<Count, _>([]), Count(1));
        assert_eq!(sum_all([MinPlus(4), MinPlus(2), MinPlus(9)]), MinPlus(2));
        assert_eq!(product_all([MinPlus(4), MinPlus(2)]), MinPlus(6));
    }

    #[test]
    fn sssp_as_minplus() {
        // d(v) = min over in-neighbours u of d(u) + 1 — one relaxation step
        // is plus-over-times in the tropical semiring.
        let du = [MinPlus(3), MinPlus(7), MinPlus::INF];
        let step = sum_all(du.iter().map(|d| d.times(MinPlus(1))));
        assert_eq!(step, MinPlus(4));
    }

    #[test]
    fn inf_saturates() {
        assert_eq!(MinPlus::INF.times(MinPlus(1)), MinPlus::INF);
        assert!(MinPlus::INF.is_inf());
        assert!(!MinPlus(3).is_inf());
    }
}
