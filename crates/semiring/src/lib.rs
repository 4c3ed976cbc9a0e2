//! Semiring annotations for EmptyHeaded tries (paper §2.3, §3.2).
//!
//! Following Green et al.'s provenance semirings, every tuple in an
//! EmptyHeaded trie may carry an *annotation* drawn from a commutative
//! semiring `(K, ⊕, ⊗, 0, 1)`. Joins multiply annotations (`⊗`), and
//! projecting an attribute away sums the annotations of the collapsed
//! tuples (`⊕`). This one mechanism expresses COUNT, SUM, MIN and MAX
//! (paper Table 1 and Appendix A.2).
//!
//! [`Carrier`] is the semiring: one implementor per [`AggOp`]
//! ([`CountOp`], [`SumOp`], [`MinOp`], [`MaxOp`]), whose `⊕`/`⊗` over a
//! plain `u64` or `f64` are the arithmetic the executor runs. The
//! semiring laws are tested on these implementors.

pub mod ops;

pub use ops::{AggOp, Carrier, CountOp, DynValue, MaxOp, MinOp, SumOp};
