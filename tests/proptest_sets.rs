//! Property-based tests for the set layer: every layout and kernel
//! combination must agree with a `BTreeSet` model.

use emptyheaded::set::intersect::intersect_values;
use emptyheaded::set::{
    count_all_into, intersect_all_into, intersect_count, range_rank, IntersectConfig, LayoutKind,
    MultiwayScratch, Set,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_values(max_len: usize, max_val: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::btree_set(0..max_val, 0..max_len).prop_map(|s| s.into_iter().collect())
}

const KINDS: [LayoutKind; 3] = [LayoutKind::Uint, LayoutKind::Bitset, LayoutKind::Block];

/// Every layout pair under every `simd` × `algorithm_optimizer` config.
fn every_pair_and_config() -> impl Iterator<Item = (LayoutKind, LayoutKind, IntersectConfig)> {
    KINDS.into_iter().flat_map(|ka| {
        KINDS.into_iter().flat_map(move |kb| {
            [(true, true), (true, false), (false, true), (false, false)].map(
                move |(simd, algorithm_optimizer)| {
                    let cfg = IntersectConfig {
                        simd,
                        algorithm_optimizer,
                    };
                    (ka, kb, cfg)
                },
            )
        })
    })
}

/// `a ∩ b` through both 2-way streaming paths — `intersect_values` with
/// `intersect_count`, and the multiway entry points at n = 2 (a two-atom
/// loop level) — as `(values, count)` per path.
fn two_way(a: &Set, b: &Set, cfg: &IntersectConfig) -> [(Vec<u32>, usize); 2] {
    let mut values = Vec::new();
    intersect_values(a, b, cfg, &mut values);
    let mut scratch = MultiwayScratch::new();
    let mut multi = Vec::new();
    intersect_all_into(&[a, b], cfg, &mut scratch, &mut multi);
    let multi_count = count_all_into(&[a, b], cfg, &mut scratch);
    [(values, intersect_count(a, b, cfg)), (multi, multi_count)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_every_layout(vals in arb_values(300, 100_000)) {
        for kind in KINDS {
            let s = Set::from_sorted(&vals, kind);
            prop_assert_eq!(s.to_vec(), vals.clone(), "{:?}", kind);
            prop_assert_eq!(s.len(), vals.len());
        }
    }

    #[test]
    fn rank_is_index(vals in arb_values(200, 50_000)) {
        for kind in KINDS {
            let s = Set::from_sorted(&vals, kind);
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(s.rank(v), Some(i));
                prop_assert!(s.contains(v));
            }
        }
    }

    #[test]
    fn absent_values_not_found(vals in arb_values(100, 10_000), probe in 0u32..20_000) {
        let model: BTreeSet<u32> = vals.iter().copied().collect();
        for kind in KINDS {
            let s = Set::from_sorted(&vals, kind);
            prop_assert_eq!(s.contains(probe), model.contains(&probe));
        }
    }

    #[test]
    fn intersection_matches_model(
        a in arb_values(300, 5_000),
        b in arb_values(300, 5_000),
    ) {
        let ma: BTreeSet<u32> = a.iter().copied().collect();
        let mb: BTreeSet<u32> = b.iter().copied().collect();
        let expect: Vec<u32> = ma.intersection(&mb).copied().collect();
        for (ka, kb, cfg) in every_pair_and_config() {
            let sa = Set::from_sorted(&a, ka);
            let sb = Set::from_sorted(&b, kb);
            for got in two_way(&sa, &sb, &cfg) {
                prop_assert_eq!(got, (expect.clone(), expect.len()), "{:?}x{:?} {:?}", ka, kb, cfg);
            }
        }
    }

    #[test]
    fn intersection_with_skewed_cardinalities(
        small in arb_values(8, 100_000),
        large in arb_values(2_000, 100_000),
    ) {
        // Exercises the galloping path (ratio > 32:1), from either side.
        let ms: BTreeSet<u32> = small.iter().copied().collect();
        let ml: BTreeSet<u32> = large.iter().copied().collect();
        let expect: Vec<u32> = ms.intersection(&ml).copied().collect();
        for (ka, kb, cfg) in every_pair_and_config() {
            let sa = Set::from_sorted(&small, ka);
            let sb = Set::from_sorted(&large, kb);
            for got in two_way(&sa, &sb, &cfg).into_iter().chain(two_way(&sb, &sa, &cfg)) {
                prop_assert_eq!(got, (expect.clone(), expect.len()), "{:?}x{:?} {:?}", ka, kb, cfg);
            }
        }
    }

    #[test]
    fn multiway_matches_model(
        inputs in prop::collection::vec(arb_values(400, 3_000), 2..6),
        kinds in prop::collection::vec(0usize..3, 5),
        all_bitsets in any::<bool>(),
        simd in any::<bool>(),
        algo in any::<bool>(),
    ) {
        // 2- to 5-way: the 2-way dispatch at n = 2; above it the fused
        // k-way bitset pass when every layout is a bitset, the probe or the
        // mixed-layout chain otherwise.
        let mut model: BTreeSet<u32> = inputs[0].iter().copied().collect();
        for v in &inputs[1..] {
            let other: BTreeSet<u32> = v.iter().copied().collect();
            model = model.intersection(&other).copied().collect();
        }
        let expect: Vec<u32> = model.into_iter().collect();
        let sets: Vec<Set> = inputs
            .iter()
            .zip(&kinds)
            .map(|(v, &k)| Set::from_sorted(v, if all_bitsets { LayoutKind::Bitset } else { KINDS[k] }))
            .collect();
        let refs: Vec<&Set> = sets.iter().collect();
        let cfg = IntersectConfig { simd, algorithm_optimizer: algo };
        let mut scratch = MultiwayScratch::new();
        let mut got = Vec::new();
        intersect_all_into(&refs, &cfg, &mut scratch, &mut got);
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(count_all_into(&refs, &cfg, &mut scratch), expect.len());
    }

    #[test]
    fn dense_base_rank_is_rank(lo in 0u32..5_000, len in 1u32..700, probe in 0u32..7_000, hole in any::<bool>()) {
        // A complete range ranks by subtraction; knock one value out and
        // it must stop claiming to be one.
        let mut vals: Vec<u32> = (lo..lo + len).collect();
        if hole && len > 2 {
            vals.remove(len as usize / 2);
        }
        for kind in [LayoutKind::Uint, LayoutKind::Bitset] {
            let s = Set::from_sorted(&vals, kind);
            match s.dense_base() {
                Some(base) => {
                    prop_assert!(!(hole && len > 2));
                    prop_assert_eq!(base, lo);
                    prop_assert_eq!(range_rank(base, s.len(), probe), s.rank(probe));
                }
                None => prop_assert!(hole && len > 2),
            }
            let mut hint = 0usize;
            prop_assert_eq!(s.rank_hinted(probe, &mut hint), s.rank(probe));
        }
    }

    #[test]
    fn auto_layout_is_transparent(vals in arb_values(500, 20_000)) {
        let auto = Set::from_sorted_auto(&vals);
        prop_assert_eq!(auto.to_vec(), vals);
    }

    #[test]
    fn density_bounded(vals in arb_values(200, 10_000)) {
        let s = Set::from_sorted(&vals, LayoutKind::Uint);
        let d = s.density();
        prop_assert!((0.0..=1.0).contains(&d));
    }
}

#[test]
fn intersection_is_commutative_and_idempotent() {
    let a: Vec<u32> = (0..500).map(|i| i * 3).collect();
    let b: Vec<u32> = (0..500).map(|i| i * 7 + 1).collect();
    for (ka, kb, cfg) in every_pair_and_config() {
        let sa = Set::from_sorted(&a, ka);
        let sb = Set::from_sorted(&b, kb);
        assert_eq!(
            two_way(&sa, &sb, &cfg),
            two_way(&sb, &sa, &cfg),
            "{ka:?} x {kb:?} {cfg:?}"
        );
        for got in two_way(&sa, &sa, &cfg) {
            assert_eq!(
                got,
                (a.clone(), a.len()),
                "{ka:?} self-intersection {cfg:?}"
            );
        }
    }
}
