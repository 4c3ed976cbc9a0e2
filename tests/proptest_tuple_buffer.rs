//! Differential property tests for the columnar refactor: a relation
//! built through the legacy `from_rows` adapter and the same relation
//! built directly as a flat [`TupleBuffer`] must produce *identical*
//! executor output — rows, aggregates, and annotations — under every
//! ablation config the paper studies.

use emptyheaded::exec::{execute_rule, Config, MemCatalog, Relation, Scheduler};
use emptyheaded::query::parse_rule;
use emptyheaded::semiring::{AggOp, DynValue};
use emptyheaded::{Graph, TupleBuffer};
use proptest::prelude::*;

/// The six ablation configurations (paper Tables 8/11 columns).
fn all_configs() -> [Config; 6] {
    [
        Config::default(),
        Config::no_simd(),
        Config::uint_only(),
        Config::no_layout_no_algorithms(),
        Config::no_ghd(),
        Config::block_level(),
    ]
}

/// Random small directed edge set.
fn arb_edges(max_node: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::btree_set((0..max_node, 0..max_node), 0..max_edges)
        .prop_map(|s| s.into_iter().filter(|(a, b)| a != b).collect())
}

/// The two construction paths under test.
fn legacy_and_columnar(edges: &[(u32, u32)]) -> (Relation, Relation) {
    let rows: Vec<Vec<u32>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
    let legacy = Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum);
    let mut buf = TupleBuffer::new(2);
    for &(a, b) in edges {
        buf.push_row(&[a, b]);
    }
    let columnar = Relation::from_buffer(buf, AggOp::Sum);
    (legacy, columnar)
}

fn catalog_with(rel: Relation) -> MemCatalog {
    let mut cat = MemCatalog::new();
    cat.insert("E", rel);
    cat
}

/// Assert serial == static fan-out == morsel at threads {2, 3, 4} for
/// every ablation config over the paper's pattern-query shapes. Exact-count queries only: u64
/// `⊕` is order-independent, so every scheduler must reproduce the serial
/// result bit-for-bit.
fn scheduler_differential(cat: &MemCatalog) {
    for q in [
        "T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
        "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
        "P(x,z;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",
    ] {
        let rule = parse_rule(q).unwrap();
        for base in all_configs() {
            let serial = execute_rule(&rule, cat, &base).unwrap().relation;
            for threads in [2usize, 3, 4] {
                for scheduler in [Scheduler::Static, Scheduler::Morsel] {
                    let cfg = base.with_threads(threads).with_scheduler(scheduler);
                    let par = execute_rule(&rule, cat, &cfg).unwrap().relation;
                    let label = format!("{q} {scheduler:?} x{threads} base={base:?}");
                    assert_eq!(serial.rows(), par.rows(), "{label}");
                    assert_eq!(serial.annotations(), par.annotations(), "{label}");
                    assert_eq!(serial.scalar(), par.scalar(), "{label}");
                }
            }
        }
    }
}

/// The sort-kernel oracle: rows gathered in `sort_perm` order — the
/// permutation radix sort, which handles any arity — with adjacent
/// duplicates folded left to right. The key-packed sort that
/// `sorted_dedup` takes for arity 1–2 must be indistinguishable from it.
fn permutation_sorted_dedup(buf: &TupleBuffer, op: AggOp) -> TupleBuffer {
    let mut out = TupleBuffer::new(buf.arity());
    if buf.is_annotated() {
        out.set_annotations(Vec::new());
    }
    let mut groups: Vec<(Vec<u32>, Option<DynValue>)> = Vec::new();
    for i in buf.sort_perm() {
        let (row, annot) = (buf.row(i as usize), buf.annot(i as usize));
        match groups.last_mut() {
            Some((last, acc)) if last.as_slice() == row => {
                *acc = acc.map(|a| op.plus(a, annot.unwrap()));
            }
            _ => groups.push((row.to_vec(), annot)),
        }
    }
    for (row, annot) in groups {
        match annot {
            Some(a) => out.push_annotated(&row, a),
            None => out.push_row(&row),
        }
    }
    out
}

/// `rows` as a buffer of `arity`, annotated with distinct powers-of-two
/// counts when asked (so a fold's operands are readable off its value).
fn buffer_of(arity: usize, rows: &[Vec<u32>], annotated: bool) -> TupleBuffer {
    let mut buf = TupleBuffer::from_rows(arity, rows);
    if annotated {
        let annots = (0..rows.len()).map(|i| DynValue::U64(1 << (i % 60)));
        buf.set_annotations(annots.collect());
    }
    buf
}

/// Every public route through the sort agrees with the oracle: borrowed,
/// owned (in place for unannotated arity 1–2) and chunk-parallel. The
/// annotations are integers, so chunk partials recombine exactly.
fn assert_sorts_like_the_oracle(buf: &TupleBuffer) {
    let want = permutation_sorted_dedup(buf, AggOp::Count);
    assert!(want.is_strictly_sorted());
    assert_eq!(buf.sorted_dedup(AggOp::Count), want, "borrowed {buf:?}");
    assert_eq!(
        buf.clone().into_sorted_dedup(AggOp::Count),
        want,
        "owned {buf:?}"
    );
    for threads in [1, 2, 4] {
        let got = buf.sorted_dedup_parallel(AggOp::Count, threads);
        assert_eq!(got, want, "x{threads} {buf:?}");
    }
}

/// Values that populate every radix digit or none: both ends of the
/// range, and both sides of each byte boundary.
const DIGIT_EDGES: [u32; 9] = [
    0,
    1,
    255,
    256,
    65_535,
    65_536,
    1 << 24,
    u32::MAX - 1,
    u32::MAX,
];

#[test]
fn packed_sort_matches_the_permutation_sort_on_edge_shapes() {
    for arity in 0..=4usize {
        let row = |v: u32| vec![v; arity];
        // A row whose last column varies fastest: ascending as a sequence.
        let stepped = |i: u32| -> Vec<u32> {
            (0..arity)
                .map(|c| DIGIT_EDGES[(i as usize / 3usize.pow((arity - 1 - c) as u32)) % 3 * 4])
                .collect()
        };
        let ascending: Vec<Vec<u32>> = (0..3u32.pow(arity as u32)).map(stepped).collect();
        let mut reversed = ascending.clone();
        reversed.reverse();
        let mut with_repeats = ascending.clone();
        with_repeats.extend(ascending.iter().cloned());
        with_repeats.sort();
        let shapes: [(&str, Vec<Vec<u32>>); 7] = [
            ("empty", Vec::new()),
            ("single row", vec![row(u32::MAX)]),
            ("all equal", vec![row(7); 9]),
            (
                "all zero and all max",
                vec![row(u32::MAX), row(0), row(u32::MAX), row(0)],
            ),
            ("already sorted", ascending),
            ("sorted with repeats", with_repeats),
            ("reversed", reversed),
        ];
        for (shape, rows) in &shapes {
            for annotated in [false, true] {
                let buf = buffer_of(arity, rows, annotated);
                assert_eq!(buf.len(), rows.len(), "arity {arity} {shape}");
                assert_sorts_like_the_oracle(&buf);
            }
        }
    }
}

#[test]
fn duplicate_annotations_fold_left_to_right_in_original_row_order() {
    // f64 addition does not associate: (1e16 + 1) − 1e16 = 0 but
    // (1e16 − 1e16) + 1 = 1. The sort is stable, so each key's duplicates
    // must fold exactly as a left-to-right pass over the unsorted rows
    // would — for the packed kernel (arity 1–2) and the permutation sort.
    let values = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3, -0.1];
    for arity in 1..=3usize {
        let n = 64usize;
        let key = |i: usize| -> Vec<u32> {
            let k = [u32::MAX, 0, 70_000, 3][(i * 7 + i / 5) % 4];
            vec![k; arity]
        };
        let rows: Vec<Vec<u32>> = (0..n).map(key).collect();
        let annots: Vec<DynValue> = (0..n)
            .map(|i| DynValue::F64(values[(i * 3 + i / 8) % values.len()]))
            .collect();
        let mut want: std::collections::BTreeMap<Vec<u32>, f64> = Default::default();
        for (row, a) in rows.iter().zip(&annots) {
            want.entry(row.clone())
                .and_modify(|acc| *acc += a.as_f64())
                .or_insert(a.as_f64());
        }
        let buf = TupleBuffer::from_annotated_rows(arity, &rows, annots);
        for got in [
            buf.sorted_dedup(AggOp::Sum),
            buf.clone().into_sorted_dedup(AggOp::Sum),
            buf.sorted_dedup_parallel(AggOp::Sum, 1),
            permutation_sorted_dedup(&buf, AggOp::Sum),
        ] {
            let got: Vec<(Vec<u32>, u64)> = got
                .iter()
                .zip(got.annotations().unwrap())
                .map(|(r, a)| (r.to_vec(), a.as_f64().to_bits()))
                .collect();
            let want: Vec<(Vec<u32>, u64)> =
                want.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
            assert_eq!(got, want, "arity {arity}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn adapter_and_buffer_relations_execute_identically(edges in arb_edges(18, 90)) {
        let (legacy, columnar) = legacy_and_columnar(&edges);
        prop_assert_eq!(legacy.rows(), columnar.rows());
        for q in [
            "T(x,y,z) :- E(x,y),E(y,z),E(x,z).",   // listing (Rows sink)
            "S(x) :- E(x,y).",                     // projection + dedup
            "C(;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",   // scalar agg
            "D(x;w:long) :- E(x,y); w=<<COUNT(*)>>.",         // 1-key agg
            "P(x,z;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.", // 2-key (sorted rows) agg
        ] {
            let rule = parse_rule(q).unwrap();
            for cfg in all_configs() {
                let a = execute_rule(&rule, &catalog_with(legacy.clone()), &cfg).unwrap().relation;
                let b = execute_rule(&rule, &catalog_with(columnar.clone()), &cfg).unwrap().relation;
                prop_assert_eq!(a.rows(), b.rows(), "{} under {:?}", q, cfg);
                prop_assert_eq!(a.annotations(), b.annotations(), "{} under {:?}", q, cfg);
                prop_assert_eq!(a.scalar(), b.scalar(), "{} under {:?}", q, cfg);
            }
        }
    }

    #[test]
    fn annotated_paths_execute_identically(edges in arb_edges(14, 60)) {
        // Deterministic weights derived from the edge endpoints.
        let weights: Vec<DynValue> = edges
            .iter()
            .map(|&(a, b)| DynValue::F64((a * 31 + b + 1) as f64 / 7.0))
            .collect();
        let rows: Vec<Vec<u32>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
        let legacy = Relation::from_buffer(TupleBuffer::from_annotated_rows(2, &rows, weights.clone()), AggOp::Sum);
        let mut buf = TupleBuffer::new(2);
        for (&(a, b), &w) in edges.iter().zip(&weights) {
            buf.push_annotated(&[a, b], w);
        }
        let columnar = Relation::from_buffer(buf, AggOp::Sum);
        for q in [
            "W(;w:float) :- E(x,y),E(y,z); w=<<SUM(z)>>.",
            "G(x;w:float) :- E(x,y); w=<<SUM(y)>>.",
        ] {
            let rule = parse_rule(q).unwrap();
            for cfg in all_configs() {
                let a = execute_rule(&rule, &catalog_with(legacy.clone()), &cfg).unwrap().relation;
                let b = execute_rule(&rule, &catalog_with(columnar.clone()), &cfg).unwrap().relation;
                prop_assert_eq!(a.rows(), b.rows(), "{} under {:?}", q, cfg);
                prop_assert_eq!(a.annotations(), b.annotations(), "{} under {:?}", q, cfg);
            }
        }
    }

    #[test]
    fn parallel_fanout_matches_serial(edges in arb_edges(16, 80)) {
        // Exact-count queries only: u64 ⊕ is order-independent, so the
        // per-thread sink merge must reproduce the serial result bit-for-bit.
        let (_, columnar) = legacy_and_columnar(&edges);
        for q in [
            "T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
            "P(x,z;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",
        ] {
            let rule = parse_rule(q).unwrap();
            let serial = execute_rule(&rule, &catalog_with(columnar.clone()), &Config::default())
                .unwrap().relation;
            for threads in [2usize, 4] {
                let cfg = Config::default().with_threads(threads);
                let par = execute_rule(&rule, &catalog_with(columnar.clone()), &cfg).unwrap().relation;
                prop_assert_eq!(serial.rows(), par.rows(), "{} x{}", q, threads);
                prop_assert_eq!(serial.annotations(), par.annotations(), "{} x{}", q, threads);
            }
        }
    }

    #[test]
    fn serial_static_morsel_execute_identically_uniform(edges in arb_edges(16, 80)) {
        // Differential equality: serial == static fan-out == morsel, on
        // every ablation config, over uniform random edge sets. Exact
        // (integer) aggregates only, so ⊕-merge order cannot matter.
        let (_, columnar) = legacy_and_columnar(&edges);
        scheduler_differential(&catalog_with(columnar.clone()));
    }

    #[test]
    fn serial_static_morsel_execute_identically_power_law(
        nodes in 24u32..64, seed in 0u64..4_294_967_296u64)
    {
        // The same differential on preferential-attachment graphs — the
        // skewed degree distributions the morsel scheduler exists for.
        let g = Graph::power_law(nodes, 3, seed).prune_by_degree();
        let mut buf = TupleBuffer::new(2);
        for &(a, b) in &g.edges {
            buf.push_row(&[a, b]);
        }
        let rel = Relation::from_buffer(buf, AggOp::Sum);
        scheduler_differential(&catalog_with(rel));
    }

    #[test]
    fn buffer_sort_matches_model(rows in prop::collection::vec(
        prop::collection::vec(0u32..64, 2..=2), 0..150))
    {
        // The radix sorted_dedup agrees with the comparison-sort model,
        // serially and chunk-parallel.
        let buf = TupleBuffer::from_rows(2, &rows);
        let sorted = buf.sorted_dedup(AggOp::Sum);
        let mut model = rows.clone();
        model.sort();
        model.dedup();
        let got: Vec<Vec<u32>> = sorted.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(&got, &model);
        let par = buf.sorted_dedup_parallel(AggOp::Sum, 3);
        prop_assert_eq!(&sorted, &par);
    }

    #[test]
    fn packed_sort_matches_the_permutation_sort(
        arity in 0usize..=4,
        annotated in any::<bool>(),
        cells in prop::collection::vec((0usize..14, any::<u32>()), 0..480))
    {
        // Random rows over digit-edge values, a few small ones (so rows
        // repeat) and arbitrary u32s.
        let value = |&(pick, random): &(usize, u32)| match pick {
            0..=8 => DIGIT_EDGES[pick],
            9..=11 => random % 3,
            _ => random,
        };
        let rows: Vec<Vec<u32>> = cells
            .chunks_exact(arity.max(1))
            .map(|c| c.iter().take(arity).map(value).collect())
            .collect();
        assert_sorts_like_the_oracle(&buffer_of(arity, &rows, annotated));
    }
}
