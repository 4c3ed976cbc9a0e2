//! Parameterised plans: a plan compiled for one constant answers every
//! other constant of the same shape byte-identically to a freshly
//! prepared plan.
//!
//! The server's plan cache keys a program on its shape — the canonical
//! print with each distinct body constant lifted into a slot `$k` — and
//! binds each request's values to the cached template. These tests run
//! the anchored shapes of the `serve_adhoc` traffic through that one
//! caching path (`Shared::cached_plan`), compile each with a first
//! constant, and compare every later binding's encoded answer with
//! `Database::prepare` + `execute` of the same text.

use emptyheaded::graph::gen::power_law;
use emptyheaded::server::{batch_from_result, Shared};
use emptyheaded::{CsvOptions, Database, TypedValue};
use std::io::Cursor;

/// The anchored shapes of the `serve_adhoc` workload; `{c}` is the
/// anchor.
const SHAPES: [&str; 6] = [
    "N(y) :- Edge('{c}',y).",
    "AT(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z); w=<<COUNT(*)>>.",
    "AL(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z),Edge('{c}',u); w=<<COUNT(*)>>.",
    "AB(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z),Edge('{c}',a),Edge(a,b),Edge(b,d),Edge(a,d); w=<<COUNT(*)>>.",
    "AK(;w:long) :- Edge('{c}',y),Edge(y,z),Edge('{c}',z),Edge('{c}',u),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.",
    "H(z) :- Edge('{c}',y),Edge(y,z).",
];

const NODES: u32 = 300;

/// Edges of a small power-law graph, the serve workload's generator.
fn edges() -> Vec<(u32, u32)> {
    let g = power_law(NODES, 1_800, 2.6, 7);
    g.tuple_buffer().iter().map(|r| (r[0], r[1])).collect()
}

/// The graph as the serve workload loads it: positional u32 columns,
/// so a constant is the node id it spells.
fn id_db() -> Database {
    let mut db = Database::new();
    db.load_edges("Edge", &edges());
    db
}

/// The same graph with string node names in one dictionary domain, so
/// a constant resolves through the dictionary: `n7` is node 7.
fn named_db() -> Database {
    let mut csv = String::from("src:str@node,dst:str@node\n");
    for (a, b) in edges() {
        csv.push_str(&format!("n{a},n{b}\n"));
    }
    let mut db = Database::new();
    db.load_csv_reader("Edge", Cursor::new(csv), &CsvOptions::csv())
        .unwrap();
    db
}

/// The encoded answer of `text` on a plan fetched from (or compiled
/// into) the cache, whether it was a hit, and the encoded answer of a
/// freshly prepared plan.
fn cached_vs_fresh(shared: &Shared, text: &str) -> (Vec<u8>, bool, Vec<u8>) {
    let db = shared.db.read();
    let (plan, hit) = shared.cached_plan(&db, text).unwrap();
    let cached = plan.execute(&db).unwrap();
    let fresh = db.prepare(text).unwrap().execute(&db).unwrap();
    let encode = |r| batch_from_result(&db, r).encode().unwrap();
    (encode(&cached), hit, encode(&fresh))
}

/// Every shape, compiled with the first constant, answers each later
/// one — present or absent — exactly as a fresh plan does.
fn check_rebinding(db: Database, present: &[String], absent: &[&str]) {
    let shared = Shared::new(db, 64);
    for shape in SHAPES {
        let text = |c: &str| shape.replace("{c}", c);
        let (_, hit, _) = cached_vs_fresh(&shared, &text(&present[0]));
        assert!(!hit, "the first constant compiles: {shape}");
        let mut nonempty = 0;
        for c in present[1..]
            .iter()
            .map(String::as_str)
            .chain(absent.iter().copied())
        {
            let (cached, hit, fresh) = cached_vs_fresh(&shared, &text(c));
            assert!(hit, "another constant of the shape hits: {}", text(c));
            assert_eq!(cached, fresh, "{}", text(c));
            let rows = shared.db.read().query_ref(&text(c)).unwrap();
            if absent.contains(&c) {
                assert!(
                    rows.num_rows() == 0 || rows.scalar_u64() == Some(0),
                    "an absent constant answers nothing: {}",
                    text(c)
                );
            } else if rows.num_rows() > 0 && rows.scalar_u64() != Some(0) {
                nonempty += 1;
            }
        }
        assert!(nonempty > 0, "some anchor has an answer: {shape}");
    }
    let cache = shared.cache.lock();
    assert_eq!(cache.misses(), SHAPES.len() as u64, "one plan per shape");
}

/// The anchors: the highest-degree nodes first (dense answers), then a
/// spread of the rest.
fn anchors() -> Vec<u32> {
    let g = power_law(NODES, 1_800, 2.6, 7);
    let deg = g.degrees();
    let mut by_degree: Vec<u32> = (0..NODES).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(deg[v as usize]));
    by_degree[..6]
        .iter()
        .copied()
        .chain((0..NODES).step_by(37))
        .collect()
}

#[test]
fn anchored_shapes_rebind_node_ids() {
    let present: Vec<String> = anchors().iter().map(u32::to_string).collect();
    // Ids past the graph and text that is no id name no node.
    check_rebinding(id_db(), &present, &["99999", "nobody"]);
}

#[test]
fn anchored_shapes_rebind_dictionary_names() {
    let present: Vec<String> = anchors().iter().map(|v| format!("n{v}")).collect();
    // Names absent from the dictionary: an empty answer, not an error.
    check_rebinding(named_db(), &present, &["n99999", "nobody", "7"]);
}

#[test]
fn equal_and_distinct_constants_are_different_shapes() {
    let shared = Shared::new(id_db(), 64);
    let two = |a: u32, b: u32| {
        format!("AT(;w:long) :- Edge('{a}',y),Edge(y,z),Edge('{b}',z); w=<<COUNT(*)>>.")
    };
    let [hub, ..] = anchors()[..] else {
        unreachable!()
    };
    // Equal anchors: one slot. Distinct anchors: two slots, another
    // plan — which then serves every distinct pair.
    let (_, hit, _) = cached_vs_fresh(&shared, &two(hub, hub));
    assert!(!hit);
    let (cached, hit, fresh) = cached_vs_fresh(&shared, &two(hub, 1));
    assert!(!hit, "two distinct constants are not the one-slot shape");
    assert_eq!(cached, fresh);
    for (a, b) in [(1, hub), (2, 3), (hub, 99_999)] {
        let (cached, hit, fresh) = cached_vs_fresh(&shared, &two(a, b));
        assert!(hit, "{}", two(a, b));
        assert_eq!(cached, fresh, "{}", two(a, b));
    }
    // Equal pairs keep binding the one-slot plan.
    for v in [1, 2, hub] {
        let (cached, hit, fresh) = cached_vs_fresh(&shared, &two(v, v));
        assert!(hit);
        assert_eq!(cached, fresh, "{}", two(v, v));
    }
    assert_eq!(shared.cache.lock().misses(), 2);
}

/// The typed answer of `text` on the cached path, and whether it hit.
fn typed(shared: &Shared, text: &str) -> (Vec<Vec<TypedValue>>, bool) {
    let db = shared.db.read();
    let (plan, hit) = shared.cached_plan(&db, text).unwrap();
    (plan.execute(&db).unwrap().typed_rows(&db), hit)
}

#[test]
fn a_template_binds_non_ascii_strings_and_u64_keys_exactly() {
    let mut db = Database::new();
    let strings = "src:str@p,dst:str@p\ncafé,bar\ncafe,baz\n";
    db.load_csv_reader("P", Cursor::new(strings), &CsvOptions::csv())
        .unwrap();
    let keys = "k:u64@k,v:u64@k\n9007199254740993,1\n9007199254740992,2\n";
    db.load_csv_reader("K", Cursor::new(keys), &CsvOptions::csv())
        .unwrap();
    let shared = Shared::new(db, 64);
    let str_of = |s: &str| vec![vec![TypedValue::Str(s.into())]];
    assert_eq!(
        typed(&shared, "A(y) :- P('cafe',y)."),
        (str_of("baz"), false)
    );
    assert_eq!(
        typed(&shared, "A(y) :- P('café',y)."),
        (str_of("bar"), true)
    );
    let u64_of = |v: u64| vec![vec![TypedValue::U64(v)]];
    let (two, hit) = typed(&shared, "B(y) :- K(9007199254740992,y).");
    assert_eq!((two, hit), (u64_of(2), false));
    let (one, hit) = typed(&shared, "B(y) :- K(9007199254740993,y).");
    assert_eq!((one, hit), (u64_of(1), true));
}
