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
    let legacy = Relation::from_rows(2, rows);
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

/// Assert serial == static fan-out == morsel for every ablation config
/// over the paper's pattern-query shapes. Exact-count queries only: u64
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
            for (scheduler, morsel) in [
                (Scheduler::Static, 0usize),
                (Scheduler::Morsel, 0),
                (Scheduler::Morsel, 1),
                (Scheduler::Morsel, 5),
            ] {
                let cfg = base
                    .with_threads(3)
                    .with_scheduler(scheduler)
                    .with_morsel(morsel);
                let par = execute_rule(&rule, cat, &cfg).unwrap().relation;
                let label = format!("{q} {scheduler:?} morsel={morsel} base={base:?}");
                assert_eq!(serial.rows(), par.rows(), "{label}");
                assert_eq!(serial.annotations(), par.annotations(), "{label}");
                assert_eq!(serial.scalar(), par.scalar(), "{label}");
            }
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
            "P(x,z;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.", // 2-key (packed u64) agg
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
        let legacy = Relation::from_annotated_rows(2, rows, weights.clone(), AggOp::Sum);
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
}
