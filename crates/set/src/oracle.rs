//! The oracle layout/algorithm optimizer (paper §4.4 "Oracle Comparison").
//!
//! The oracle is an unachievable lower bound: for every individual
//! intersection it is allowed to pick any layout pair and any algorithm,
//! with perfect knowledge of each combination's cost. We implement it the
//! way the paper does — brute force: run *every* combination, time each,
//! and charge only the best one. Table 4 compares the relation-, set- and
//! block-level optimizers against this bound.

use crate::intersect::{intersect_count, IntersectConfig};
use crate::{LayoutKind, Set};
use std::time::{Duration, Instant};

/// Cost report for a single oracle-evaluated intersection.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// Best (minimum) time over all combinations.
    pub best: Duration,
    /// The winning layout pair.
    pub best_layouts: (LayoutKind, LayoutKind),
    /// Time of every combination tried, for diagnostics.
    pub all: Vec<((LayoutKind, LayoutKind), Duration)>,
}

const KINDS: [LayoutKind; 3] = [LayoutKind::Uint, LayoutKind::Bitset, LayoutKind::Block];

/// Time one count-intersection under every layout combination and return
/// the oracle (minimum) outcome. `a` and `b` are the sorted value arrays of
/// the two sets; rebuild cost is *not* charged (the oracle assumes perfect
/// pre-materialization, which is what makes it a lower bound).
pub fn oracle_intersect(a: &[u32], b: &[u32], cfg: &IntersectConfig) -> OracleOutcome {
    let mut all = Vec::with_capacity(9);
    let mut best = Duration::MAX;
    let mut best_layouts = (LayoutKind::Uint, LayoutKind::Uint);
    for ka in KINDS {
        let sa = Set::from_sorted(a, ka);
        for kb in KINDS {
            let sb = Set::from_sorted(b, kb);
            // Warm once, then charge the best of three runs — the oracle
            // assumes perfect knowledge, so cold-cache noise must not make
            // it look slower than a real (warm, amortized) optimizer.
            std::hint::black_box(intersect_count(&sa, &sb, cfg));
            let mut dt = Duration::MAX;
            for _ in 0..3 {
                let t0 = Instant::now();
                std::hint::black_box(intersect_count(&sa, &sb, cfg));
                dt = dt.min(t0.elapsed());
            }
            all.push(((ka, kb), dt));
            if dt < best {
                best = dt;
                best_layouts = (ka, kb);
            }
        }
    }
    OracleOutcome {
        best,
        best_layouts,
        all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_tries_all_nine_combinations() {
        let a: Vec<u32> = (0..256).collect();
        let b: Vec<u32> = (128..384).collect();
        let out = oracle_intersect(&a, &b, &IntersectConfig::default());
        assert_eq!(out.all.len(), 9);
        assert!(out.best <= out.all.iter().map(|(_, d)| *d).min().unwrap());
    }

    #[test]
    fn oracle_best_is_minimum() {
        let a: Vec<u32> = (0..512).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..512).map(|i| i * 3).collect();
        let out = oracle_intersect(&a, &b, &IntersectConfig::default());
        for (_, d) in &out.all {
            assert!(out.best <= *d);
        }
    }
}
