//! The aggregate operators, their [`Carrier`] semirings, and
//! dynamically-typed annotation values.
//!
//! The query layer doesn't know annotation types at compile time (the user
//! writes `w:long` / `y:float` in the rule head, paper Table 1), so
//! annotations cross the sink/relation boundary as [`DynValue`]s tagged
//! with an [`AggOp`]; inside a plan node the executor runs the operator's
//! [`Carrier`] over plain `u64`/`f64`.

/// Run `$body` with `$K` naming the [`Carrier`] of the runtime operator
/// `$op` — the one place a dynamic `AggOp` becomes a type.
#[macro_export]
macro_rules! with_carrier {
    ($op:expr, $K:ident => $body:expr) => {
        match $op {
            $crate::AggOp::Count => {
                type $K = $crate::ops::CountOp;
                $body
            }
            $crate::AggOp::Sum => {
                type $K = $crate::ops::SumOp;
                $body
            }
            $crate::AggOp::Min => {
                type $K = $crate::ops::MinOp;
                $body
            }
            $crate::AggOp::Max => {
                type $K = $crate::ops::MaxOp;
                $body
            }
        }
    };
}
/// The aggregate operators the surface language supports
/// (`<<COUNT(*)>>`, `<<SUM(z)>>`, `<<MIN(w)>>`, `<<MAX(w)>>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// `COUNT` — counting semiring, default init 1.
    Count,
    /// `SUM` — real semiring, default init 1 (paper App. A.2).
    Sum,
    /// `MIN` — tropical min-plus semiring, monotone (enables seminaive).
    Min,
    /// `MAX` — max semiring, monotone (enables seminaive).
    Max,
}

impl AggOp {
    /// Parse the operator name used inside `<<...>>`.
    pub fn parse(name: &str) -> Option<AggOp> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggOp::Count),
            "SUM" => Some(AggOp::Sum),
            "MIN" => Some(AggOp::Min),
            "MAX" => Some(AggOp::Max),
            _ => None,
        }
    }

    /// Whether the aggregate is monotone under repeated application — the
    /// condition EmptyHeaded checks to decide *seminaive* evaluation of a
    /// recursive rule (paper §3.3.2): MIN/MAX converge monotonically.
    pub fn is_monotone(self) -> bool {
        matches!(self, AggOp::Min | AggOp::Max)
    }

    /// Additive identity for this operator's carrier semiring.
    pub fn zero(self) -> DynValue {
        with_carrier!(self, K => K::to_dyn(K::ZERO))
    }

    /// Default initialization value for an un-annotated base relation
    /// (paper: "COUNT and SUM use an initialization value of 1").
    pub fn one(self) -> DynValue {
        with_carrier!(self, K => K::to_dyn(K::ONE))
    }

    /// Semiring `⊕` for this operator.
    pub fn plus(self, a: DynValue, b: DynValue) -> DynValue {
        with_carrier!(self, K => K::to_dyn(K::plus(K::from_dyn(a), K::from_dyn(b))))
    }

    /// Semiring `⊗` for this operator.
    pub fn times(self, a: DynValue, b: DynValue) -> DynValue {
        with_carrier!(self, K => K::to_dyn(K::times(K::from_dyn(a), K::from_dyn(b))))
    }
}

/// One `(AggOp, carrier)` pair as a type: the operator's `⊕`/`⊗` over the
/// plain machine value (`u64` or `f64`) its semiring is carried in. The
/// executor picks the implementor once per plan node ([`with_carrier!`])
/// and runs its loop nest monomorphised over it, so a binding's `⊗` and a
/// fold's `⊕` are one arithmetic instruction, not a [`DynValue`] match.
/// [`AggOp::plus`] and [`AggOp::times`] are defined through these, so the
/// dynamic and the typed arithmetic cannot disagree.
pub trait Carrier: Copy + Send + Sync + 'static {
    /// The machine type values travel in.
    type T: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;
    /// The operator this carrier implements.
    const OP: AggOp;
    /// Whether `T` is `f64` (else `u64`).
    const FLOAT: bool;
    /// Additive identity.
    const ZERO: Self::T;
    /// Multiplicative identity (the annotation of an un-annotated tuple).
    const ONE: Self::T;
    /// Semiring `⊕`.
    fn plus(a: Self::T, b: Self::T) -> Self::T;
    /// Semiring `⊗`.
    fn times(a: Self::T, b: Self::T) -> Self::T;
    /// `x ⊕ … ⊕ x`, `count` times (`count ≥ 1`): what the innermost
    /// count fast path folds instead of visiting `count` bindings.
    fn repeat(x: Self::T, count: usize) -> Self::T;
    /// Read a dynamic value in this carrier (converting across carriers
    /// the way [`DynValue::as_u64`]/[`DynValue::as_f64`] do).
    fn from_dyn(v: DynValue) -> Self::T;
    /// Wrap a carried value for the sink/relation boundary.
    fn to_dyn(v: Self::T) -> DynValue;
    /// The value whose raw 8 bytes are `bits` (see [`DynValue::to_bits`]).
    fn from_bits(bits: u64) -> Self::T;
    /// The raw 8 bytes of `v`.
    fn to_bits(v: Self::T) -> u64;

    /// Read one entry of a raw annotation column whose values are `f64`
    /// bits when `float`, `u64` otherwise: a plain reinterpretation when
    /// the column already is this carrier's, a conversion when not.
    #[inline(always)]
    fn read(bits: u64, float: bool) -> Self::T {
        if float == Self::FLOAT {
            Self::from_bits(bits)
        } else {
            Self::from_dyn(DynValue::from_bits(bits, float))
        }
    }
}

/// The conversions of a `u64`-carried operator.
macro_rules! u64_carrier {
    () => {
        type T = u64;
        const FLOAT: bool = false;
        #[inline(always)]
        fn from_dyn(v: DynValue) -> u64 {
            v.as_u64()
        }
        #[inline(always)]
        fn to_dyn(v: u64) -> DynValue {
            DynValue::U64(v)
        }
        #[inline(always)]
        fn from_bits(bits: u64) -> u64 {
            bits
        }
        #[inline(always)]
        fn to_bits(v: u64) -> u64 {
            v
        }
    };
}

/// The conversions of an `f64`-carried operator.
macro_rules! f64_carrier {
    () => {
        type T = f64;
        const FLOAT: bool = true;
        #[inline(always)]
        fn from_dyn(v: DynValue) -> f64 {
            v.as_f64()
        }
        #[inline(always)]
        fn to_dyn(v: f64) -> DynValue {
            DynValue::F64(v)
        }
        #[inline(always)]
        fn from_bits(bits: u64) -> f64 {
            f64::from_bits(bits)
        }
        #[inline(always)]
        fn to_bits(v: f64) -> u64 {
            v.to_bits()
        }
    };
}

/// `COUNT` over `u64`: wrapping `+`, wrapping `×`.
#[derive(Clone, Copy, Debug)]
pub struct CountOp;

impl Carrier for CountOp {
    u64_carrier!();
    const OP: AggOp = AggOp::Count;
    const ZERO: u64 = 0;
    const ONE: u64 = 1;
    #[inline(always)]
    fn plus(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }
    #[inline(always)]
    fn times(a: u64, b: u64) -> u64 {
        a.wrapping_mul(b)
    }
    #[inline(always)]
    fn repeat(x: u64, count: usize) -> u64 {
        x.wrapping_mul(count as u64)
    }
}

/// `SUM` over `f64`: `+`, `×`.
#[derive(Clone, Copy, Debug)]
pub struct SumOp;

impl Carrier for SumOp {
    f64_carrier!();
    const OP: AggOp = AggOp::Sum;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn plus(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn times(a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn repeat(x: f64, count: usize) -> f64 {
        x * count as f64
    }
}

/// `MIN` over `u64`: `min`, saturating `+` with `u32::MAX` as the
/// absorbing "unreachable" distance.
#[derive(Clone, Copy, Debug)]
pub struct MinOp;

impl Carrier for MinOp {
    u64_carrier!();
    const OP: AggOp = AggOp::Min;
    const ZERO: u64 = u32::MAX as u64;
    const ONE: u64 = 0;
    #[inline(always)]
    fn plus(a: u64, b: u64) -> u64 {
        a.min(b)
    }
    #[inline(always)]
    fn times(a: u64, b: u64) -> u64 {
        if a == Self::ZERO || b == Self::ZERO {
            Self::ZERO
        } else {
            a.saturating_add(b)
        }
    }
    #[inline(always)]
    fn repeat(x: u64, _count: usize) -> u64 {
        x
    }
}

/// `MAX` over `f64`: `max` (the left operand wins ties and NaNs), `×`
/// with `−∞` (the ⊕-identity) absorbing, as `MIN`'s `∞` does.
#[derive(Clone, Copy, Debug)]
pub struct MaxOp;

impl Carrier for MaxOp {
    f64_carrier!();
    const OP: AggOp = AggOp::Max;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn plus(a: f64, b: f64) -> f64 {
        if a >= b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn times(a: f64, b: f64) -> f64 {
        if a == Self::ZERO || b == Self::ZERO {
            Self::ZERO
        } else {
            a * b
        }
    }
    #[inline(always)]
    fn repeat(x: f64, _count: usize) -> f64 {
        x
    }
}

/// A dynamically-typed annotation value.
///
/// EmptyHeaded relations carry one annotation column of a declared type;
/// the executor sees it as a `DynValue` and dispatches on the [`AggOp`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DynValue {
    /// Integer-carried annotations (COUNT, MIN distances).
    U64(u64),
    /// Float-carried annotations (SUM, MAX, PageRank values).
    F64(f64),
}

impl DynValue {
    /// Read as u64 (F64 values are truncated).
    pub fn as_u64(self) -> u64 {
        match self {
            DynValue::U64(v) => v,
            DynValue::F64(v) => v as u64,
        }
    }

    /// Read as f64.
    pub fn as_f64(self) -> f64 {
        match self {
            DynValue::U64(v) => v as f64,
            DynValue::F64(v) => v,
        }
    }

    /// The raw 8 bytes of the payload: the integer itself, or the float's
    /// bit pattern. With [`DynValue::is_float`] this is the whole value —
    /// the form annotation columns are stored in.
    pub fn to_bits(self) -> u64 {
        match self {
            DynValue::U64(v) => v,
            DynValue::F64(v) => v.to_bits(),
        }
    }

    /// Whether the payload is an `f64`.
    pub fn is_float(self) -> bool {
        matches!(self, DynValue::F64(_))
    }

    /// Inverse of [`DynValue::to_bits`].
    pub fn from_bits(bits: u64, float: bool) -> DynValue {
        if float {
            DynValue::F64(f64::from_bits(bits))
        } else {
            DynValue::U64(bits)
        }
    }

    /// Approximate equality for convergence tests (PageRank fixpoints).
    pub fn approx_eq(self, other: DynValue, eps: f64) -> bool {
        (self.as_f64() - other.as_f64()).abs() <= eps
    }
}

impl Default for DynValue {
    fn default() -> Self {
        DynValue::U64(0)
    }
}

impl From<u64> for DynValue {
    fn from(v: u64) -> Self {
        DynValue::U64(v)
    }
}

impl From<f64> for DynValue {
    fn from(v: f64) -> Self {
        DynValue::F64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ops() {
        assert_eq!(AggOp::parse("COUNT"), Some(AggOp::Count));
        assert_eq!(AggOp::parse("sum"), Some(AggOp::Sum));
        assert_eq!(AggOp::parse("Min"), Some(AggOp::Min));
        assert_eq!(AggOp::parse("MAX"), Some(AggOp::Max));
        assert_eq!(AggOp::parse("AVG"), None);
    }

    #[test]
    fn monotonicity_flags() {
        assert!(AggOp::Min.is_monotone());
        assert!(AggOp::Max.is_monotone());
        assert!(!AggOp::Count.is_monotone());
        assert!(!AggOp::Sum.is_monotone());
    }

    /// The commutative-semiring laws of `K` over `vals` (which must
    /// include `ZERO`): identities, annihilation by `ZERO`,
    /// commutativity, associativity and distributivity of `⊗` over `⊕`.
    fn check_laws<K: Carrier>(vals: &[K::T]) {
        let (plus, times, op) = (K::plus, K::times, K::OP);
        for &a in vals {
            assert_eq!(plus(a, K::ZERO), a, "{op:?}: additive identity");
            assert_eq!(times(a, K::ONE), a, "{op:?}: multiplicative identity");
            assert_eq!(times(a, K::ZERO), K::ZERO, "{op:?}: ZERO ⊗ {a:?}");
            for &b in vals {
                assert_eq!(plus(a, b), plus(b, a), "{op:?}: ⊕ commutes");
                assert_eq!(times(a, b), times(b, a), "{op:?}: ⊗ commutes");
                for &c in vals {
                    let at = format!("{op:?} at {a:?}, {b:?}, {c:?}");
                    assert_eq!(plus(plus(a, b), c), plus(a, plus(b, c)), "⊕ assoc, {at}");
                    assert_eq!(
                        times(times(a, b), c),
                        times(a, times(b, c)),
                        "⊗ assoc, {at}"
                    );
                    let (l, r) = (times(a, plus(b, c)), plus(times(a, b), times(a, c)));
                    assert_eq!(l, r, "distributivity, {at}");
                }
            }
        }
    }

    #[test]
    fn carrier_semiring_laws() {
        // Wrapping arithmetic is the ring of integers mod 2^64.
        check_laws::<CountOp>(&[0, 1, 2, 7, 100, u64::MAX]);
        // Dyadic values: every sum and product here is exact in f64.
        check_laws::<SumOp>(&[0.0, 0.5, 1.0, 2.0, 3.0]);
        // Products stay below the absorbing u32::MAX.
        check_laws::<MinOp>(&[MinOp::ZERO, 0, 1, 5, 1000]);
        check_laws::<MaxOp>(&[MaxOp::ZERO, 0.0, 0.5, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn min_relaxes_one_sssp_step() {
        // d(v) = min over in-neighbours u of d(u) + 1 is ⊕ over ⊗ in the
        // tropical semiring; an unreachable neighbour contributes nothing.
        let step = [3, 7, MinOp::ZERO]
            .into_iter()
            .map(|d| MinOp::times(d, 1))
            .fold(MinOp::ZERO, MinOp::plus);
        assert_eq!(step, 4);
    }

    #[test]
    fn count_dyn_matches_static() {
        let op = AggOp::Count;
        let a = op.times(DynValue::U64(3), DynValue::U64(4));
        assert_eq!(a, DynValue::U64(12));
        let s = op.plus(a, DynValue::U64(5));
        assert_eq!(s, DynValue::U64(17));
        assert_eq!(op.plus(op.zero(), DynValue::U64(9)), DynValue::U64(9));
    }

    #[test]
    fn min_dyn_saturates_at_inf() {
        let op = AggOp::Min;
        let inf = op.zero();
        assert_eq!(op.times(inf, DynValue::U64(1)), inf);
        assert_eq!(
            op.plus(DynValue::U64(7), DynValue::U64(3)),
            DynValue::U64(3)
        );
        assert_eq!(
            op.times(DynValue::U64(7), DynValue::U64(3)),
            DynValue::U64(10)
        );
    }

    #[test]
    fn sum_dyn() {
        let op = AggOp::Sum;
        assert_eq!(
            op.plus(DynValue::F64(0.25), DynValue::F64(0.5)),
            DynValue::F64(0.75)
        );
        assert_eq!(
            op.times(DynValue::F64(0.5), DynValue::F64(0.5)),
            DynValue::F64(0.25)
        );
        assert_eq!(op.one(), DynValue::F64(1.0));
    }

    #[test]
    fn carriers_spell_out_the_four_semirings() {
        // The dynamic ops are defined through the carriers; pin the
        // arithmetic itself, conversions across carriers included.
        let inf = u32::MAX as u64;
        assert_eq!(CountOp::times(u64::MAX, 2), u64::MAX - 1, "wrapping");
        assert_eq!(CountOp::repeat(3, 4), 12);
        assert_eq!(SumOp::repeat(2.5, 4), 10.0);
        assert_eq!(MinOp::times(inf, 1), inf, "unreachable absorbs");
        assert_eq!(MinOp::times(inf - 1, 5), inf + 4, "only u32::MAX absorbs");
        assert_eq!(MinOp::repeat(7, 9), 7);
        assert_eq!(MaxOp::plus(-2.0, -3.0), -2.0);
        assert!(MaxOp::plus(f64::NAN, 1.0) == 1.0 && MaxOp::plus(1.0, f64::NAN).is_nan());
        assert_eq!(MaxOp::repeat(0.5, 3), 0.5);
        for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
            let carried = with_carrier!(op, K => (K::OP, K::to_dyn(K::ZERO), K::to_dyn(K::ONE)));
            assert_eq!(carried, (op, op.zero(), op.one()));
        }
        assert_eq!(AggOp::Min.zero(), DynValue::U64(inf));
        assert_eq!(AggOp::Max.zero(), DynValue::F64(f64::NEG_INFINITY));
        // A raw column entry reads back exactly in its own carrier and
        // converts (u64 → f64 exactly, f64 → u64 truncating) in the other.
        for v in [DynValue::U64(7), DynValue::F64(-0.0), DynValue::F64(2.75)] {
            let (bits, float) = (v.to_bits(), v.is_float());
            assert_eq!(DynValue::from_bits(bits, float), v);
            assert_eq!(CountOp::read(bits, float), v.as_u64());
            assert_eq!(SumOp::read(bits, float).to_bits(), v.as_f64().to_bits());
        }
    }

    #[test]
    fn approx_eq() {
        assert!(DynValue::F64(1.0).approx_eq(DynValue::F64(1.0 + 1e-12), 1e-9));
        assert!(!DynValue::F64(1.0).approx_eq(DynValue::F64(1.1), 1e-9));
        assert!(DynValue::U64(5).approx_eq(DynValue::F64(5.0), 0.0));
    }
}
