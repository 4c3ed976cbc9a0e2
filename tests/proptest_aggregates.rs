//! Property tests for grouped aggregates — the shapes `proptest_engine`'s
//! fixed queries never covered: annotated joins under SUM and MIN, COUNT
//! grouped by a non-leading variable (the scatter order), and a two-key
//! group-by. Each result is checked against a naive nested-loop oracle,
//! run serially, on 4 threads, and as 2 shards ⊕-merged in shard order.
//! Annotations are dyadic rationals (multiples of 1/8), so every `f64`
//! fold is exact under any association and equality is exact.

use emptyheaded::semiring::{AggOp, DynValue};
use emptyheaded::{Config, Database, Relation, TupleBuffer};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Groups = BTreeMap<Vec<u32>, DynValue>;

/// Distinct `(x, z)` pairs, each with a weight in eighths.
fn arb_binary(nodes: u32, max: usize) -> impl Strategy<Value = BTreeMap<(u32, u32), u32>> {
    prop::collection::vec(((0..nodes, 0..nodes), 1u32..16), 0..max)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// Distinct `z` keys, each with a weight in eighths.
fn arb_unary(nodes: u32) -> impl Strategy<Value = BTreeMap<u32, u32>> {
    prop::collection::vec((0..nodes, 1u32..16), 0..nodes as usize)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// The weight `w` (in eighths) as `op`'s carrier: a dyadic `f64` for
/// SUM, the integer itself for MIN.
fn annot(op: AggOp, w: u32) -> DynValue {
    match op {
        AggOp::Sum => DynValue::F64(w as f64 / 8.0),
        _ => DynValue::U64(w as u64),
    }
}

fn load(db: &mut Database, op: AggOp, r: &BTreeMap<(u32, u32), u32>, s: &BTreeMap<u32, u32>) {
    let rows: Vec<[u32; 2]> = r.keys().map(|&(x, z)| [x, z]).collect();
    db.register(
        "Plain",
        Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum),
    );
    let annots = r.values().map(|&w| annot(op, w)).collect();
    db.register(
        "R",
        Relation::from_buffer(TupleBuffer::from_annotated_rows(2, &rows, annots), op),
    );
    let rows: Vec<[u32; 1]> = s.keys().map(|&z| [z]).collect();
    let annots = s.values().map(|&w| annot(op, w)).collect();
    db.register(
        "S",
        Relation::from_buffer(TupleBuffer::from_annotated_rows(1, &rows, annots), op),
    );
}

fn groups_of(result: &emptyheaded::QueryResult) -> Groups {
    result
        .annotated_rows()
        .iter()
        .map(|(row, v)| (row.to_vec(), *v))
        .collect()
}

/// Run `query` serially, on 4 threads and as 2 shards merged with `op`.
fn run_everywhere(
    query: &str,
    op: AggOp,
    r: &BTreeMap<(u32, u32), u32>,
    s: &BTreeMap<u32, u32>,
) -> Vec<(&'static str, Groups)> {
    let mut out = Vec::new();
    for (name, cfg) in [
        ("serial", Config::default()),
        ("4 threads", Config::default().with_threads(4)),
    ] {
        let mut db = Database::with_config(cfg);
        load(&mut db, op, r, s);
        out.push((name, groups_of(&db.query(query).unwrap())));
    }
    let mut db = Database::new();
    load(&mut db, op, r, s);
    let prepared = db.prepare(query).unwrap();
    assert!(prepared.plan().shard_mergeable(), "{query}");
    let mut merged = Groups::new();
    for k in 0..2 {
        let cfg = Config::default().with_shard(k, 2);
        let partial = prepared.execute_with(&db, &cfg).unwrap();
        for (key, v) in groups_of(&partial) {
            merged
                .entry(key)
                .and_modify(|acc| *acc = op.plus(*acc, v))
                .or_insert(v);
        }
    }
    out.push(("2 shards", merged));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn annotated_sum_and_min_match_nested_loops(r in arb_binary(14, 70), s in arb_unary(14)) {
        for (op, query) in [
            (AggOp::Sum, "A(x;y:float) :- R(x,z),S(z); y=<<SUM(z)>>."),
            (AggOp::Min, "A(x;y:int) :- R(x,z),S(z); y=<<MIN(z)>>."),
        ] {
            let mut expect = Groups::new();
            for (&(x, z), &rw) in &r {
                if let Some(&sw) = s.get(&z) {
                    let term = op.times(annot(op, rw), annot(op, sw));
                    expect
                        .entry(vec![x])
                        .and_modify(|acc| *acc = op.plus(*acc, term))
                        .or_insert(term);
                }
            }
            for (name, got) in run_everywhere(query, op, &r, &s) {
                prop_assert_eq!(&got, &expect, "{:?} {}", op, name);
            }
        }
    }

    #[test]
    fn count_grouped_by_a_non_leading_variable(r in arb_binary(14, 70), s in arb_unary(14)) {
        let fanout = |v: u32| r.keys().filter(|&&(a, _)| a == v).count() as u64;
        // Keyed on the last variable of an atom, alone and filtered, and
        // keyed on `x` of a join the planner drives from `z` — the plan
        // `for z: for x: emit`, whose key is innermost (the scatter order).
        for (query, by_source, filtered) in [
            ("B(z;w:long) :- Plain(x,z); w=<<COUNT(*)>>.", false, false),
            ("B(z;w:long) :- Plain(x,z),Plain(z,u); w=<<COUNT(*)>>.", false, true),
            ("B(x;w:long) :- Plain(x,z),Plain(z,u); w=<<COUNT(*)>>.", true, true),
        ] {
            let mut expect = Groups::new();
            for &(x, z) in r.keys() {
                let paths = if filtered { fanout(z) } else { 1 };
                if paths > 0 {
                    let key = if by_source { x } else { z };
                    let slot = expect.entry(vec![key]).or_insert(DynValue::U64(0));
                    *slot = DynValue::U64(slot.as_u64() + paths);
                }
            }
            for (name, got) in run_everywhere(query, AggOp::Count, &r, &s) {
                prop_assert_eq!(&got, &expect, "{} {}", query, name);
            }
        }
    }

    #[test]
    fn two_key_group_by_counts_paths(r in arb_binary(12, 60), s in arb_unary(12)) {
        let mut expect = Groups::new();
        for &(x, y) in r.keys() {
            for &(y2, z) in r.keys() {
                if y == y2 {
                    let slot = expect.entry(vec![x, z]).or_insert(DynValue::U64(0));
                    *slot = DynValue::U64(slot.as_u64() + 1);
                }
            }
        }
        let query = "P(x,z;w:long) :- Plain(x,y),Plain(y,z); w=<<COUNT(*)>>.";
        for (name, got) in run_everywhere(query, AggOp::Count, &r, &s) {
            prop_assert_eq!(&got, &expect, "{}", name);
        }
    }
}
