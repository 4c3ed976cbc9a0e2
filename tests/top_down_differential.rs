//! The Yannakakis top-down pass against an oracle.
//!
//! Every query of the main list has head variables outside its GHD's
//! root, so the answer is assembled by `sink::assemble`: a sort-merge
//! walk over the node results with projection pushdown. The fixture
//! covers the shapes that walk distinguishes — an interface that leads
//! the parent's columns (merge cursor) and one that does not (restarting
//! seek), one- and two-column and empty interfaces, a root with two
//! children, a child of a child, join variables projected away, head
//! variables in another order than the attribute order, nodes shared
//! through the equivalence shortcut, aggregate subtrees the bottom-up
//! pass already folded, and group-bys of up to four keys — and
//! `the_fixture_reaches_every_shape_of_the_pass` checks that it does
//! rather than assuming the planner cooperates.
//!
//! Each query runs under the six ablation configs × threads {1, 4} ×
//! shards {1, 2, 3} (partials merged in shard order, as the cluster
//! coordinator does) over three id spaces, against a nested-loop
//! evaluator that knows nothing about plans. `Config::no_ghd` is one of
//! the six: the single-node plan, which never runs the pass. Annotation
//! values are dyadic, so `f64` sums are exact whatever the fold order; a
//! non-dyadic SUM is pinned, separately, to the bits the engine produced
//! before the pass was rewritten.
//!
//! A second list, run the same way, joins one directed relation with
//! itself, where the node-equivalence shortcut (paper App. B.2) decides
//! the answer: a node may reuse another's result only when the two
//! buffers are identical column for column, never when one is the other's
//! transpose or keeps different columns.

use emptyheaded::exec::{
    compile_rule, execute, plan_sink_kinds, Catalog, Config, MemCatalog, Relation, SinkKind,
};
use emptyheaded::query::ast::{AggOp as QueryAggOp, Expr, Term};
use emptyheaded::query::{parse_rule, Rule};
use emptyheaded::semiring::{AggOp, DynValue};
use emptyheaded::trie::merge_sorted_runs;
use emptyheaded::TupleBuffer;
use std::collections::BTreeMap;

const NODES: u32 = 22;

/// A logical node → its id in one of the id spaces.
type IdMap = fn(u32) -> u32;

/// `0..n`; every third id from 200 (holes, both sides of a bitset block
/// edge); and the top of the `u32` range.
fn id_spaces() -> [(&'static str, IdMap); 3] {
    [
        ("dense", |v| v),
        ("holes", |v| 200 + 3 * v),
        ("near-max", |v| u32::MAX - 40 + v),
    ]
}

/// The logical node every constant-bridged query anchors on.
const ANCHOR: u32 = 3;

/// Directed edge sets from fixed multiplicative hashes — no RNG. `salt`
/// tells the relations apart; about one pair in six is an edge.
fn directed(salt: u32) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for a in 0..NODES {
        for b in 0..NODES {
            let h = (a * 7_919 + b * 104_729 + salt * 1_299_709) % 97;
            if a != b && (h < 16 || (a == ANCHOR || b == ANCHOR) && h < 40) {
                edges.push((a, b));
            }
        }
    }
    edges
}

/// Dyadic weight in `[1/8, 2]`.
fn weight(a: u32, b: u32) -> f64 {
    (1 + (a * 5 + b * 3) % 16) as f64 / 8.0
}

/// Non-dyadic weight.
fn ragged_weight(a: u32, b: u32) -> f64 {
    1.0 / (3.0 + ((a * 11 + b * 7) % 23) as f64)
}

fn catalog(id: IdMap) -> MemCatalog {
    let plain = |edges: &[(u32, u32)]| {
        let mut buf = TupleBuffer::new(2);
        for &(a, b) in edges {
            buf.push_row(&[id(a), id(b)]);
        }
        Relation::from_buffer(buf, AggOp::Count)
    };
    let weighted = |edges: &[(u32, u32)], value: fn(u32, u32) -> f64| {
        let mut buf = TupleBuffer::new(2);
        for &(a, b) in edges {
            buf.push_annotated(&[id(a), id(b)], DynValue::F64(value(a, b)));
        }
        Relation::from_buffer(buf, AggOp::Sum)
    };
    let mut cat = MemCatalog::new();
    for (name, salt) in [("E", 1), ("F", 2), ("G", 3), ("H", 4)] {
        cat.insert(name, plain(&directed(salt)));
    }
    let mut symmetric = directed(5);
    symmetric.extend(directed(5).iter().map(|&(a, b)| (b, a)));
    cat.insert("U", plain(&symmetric));
    cat.insert("E9", plain(&NINE_EDGES));
    cat.insert("W", weighted(&directed(1), weight));
    cat.insert("V", weighted(&directed(2), weight));
    cat.insert("R", weighted(&directed(1), ragged_weight));
    cat.insert("S", weighted(&directed(2), ragged_weight));
    cat
}

/// A small directed graph on which the 3-path has 28 walks between 17
/// distinct end pairs.
const NINE_EDGES: [(u32, u32); 9] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 0),
    (0, 2),
    (1, 3),
    (3, 4),
    (4, 1),
    (2, 4),
];

/// The queries, `{c}` standing for the anchor's id in the space at hand.
const QUERIES: &[&str] = &[
    // 2-path, join variable projected away; and the head the other way.
    "P2(x,z) :- E(x,y),F(y,z).",
    "P2r(z,x) :- E(x,y),F(y,z).",
    // 3-path, ends only and in full: a root with two children, the second
    // joined on a column that does not lead the rows the first produced.
    "P3(x,u) :- E(x,y),F(y,z),G(z,u).",
    "P3f(x,y,z,u) :- E(x,y),F(y,z),G(z,u).",
    // Star: the centre projected away.
    "St(a,b,c) :- E(x,a),F(x,b),G(x,c).",
    // 4-path: a child of a child.
    "P4(x,v) :- E(x,y),F(y,z),G(z,u),H(u,v).",
    // Two triangles-with-a-tail sharing an edge: two-column interfaces.
    "D(x,u) :- E(x,y),E(x,z),F(y,z),G(y,u),G(z,u).",
    // A triangle hanging off an edge, its corners wanted in reverse.
    "Tr(x,c,b) :- E(x,a),F(a,b),G(b,c),H(a,c).",
    // Symmetric relation, the leaves transposed: computed twice.
    "P3u(x,u) :- U(x,y),U(y,z),U(z,u).",
    // Both leaves hold E as stored: one shared node result.
    "P3s(x,u) :- E(y,x),E(y,z),E(z,u).",
    // Constant-bridged cross products: empty interfaces.
    "X(x,a) :- E(x,'{c}'),F('{c}',a).",
    "Xt(x,a,b) :- E(x,y),F(y,'{c}'),G('{c}',a),H(a,b).",
    // Keyed aggregates whose keys live in two nodes.
    "KC(x,z;w:long) :- E(x,y),F(y,z); w=<<COUNT(*)>>.",
    "KS(x,z;w:float) :- W(x,y),V(y,z); w=<<SUM(y)>>.",
    "K3(x,u;w:long) :- E(x,y),F(y,z),G(z,u); w=<<COUNT(*)>>.",
    "K3s(x,u;w:float) :- W(x,y),V(y,z),G(z,u); w=<<SUM(y)>>.",
    // Three and four keys: wider than the packed sort, so the sink's rows
    // (one node under no_ghd) and finalize's fold take the permutation sort.
    "G3(x,y,u;w:long) :- E(x,y),F(y,z),G(z,u); w=<<COUNT(*)>>.",
    "G3s(x,y,u;w:float) :- W(x,y),V(y,z),G(z,u); w=<<SUM(y)>>.",
    "G4(x,y,z,u;w:long) :- E(x,y),F(y,z),G(z,u),H(u,v); w=<<COUNT(*)>>.",
    "G4s(x,y,z,u;w:float) :- W(x,y),V(y,z),G(z,u),H(u,v); w=<<SUM(y)>>.",
    // ... with a third node that binds no key: the bottom-up pass folds
    // it into its parent, and the top-down pass must not fold it again.
    "KF(x,z;w:long) :- E(x,y),F(y,z),G(z,u); w=<<COUNT(*)>>.",
    "KFs(y,u;w:float) :- E(x,y),W(x,z),F(z,u),V(z,v); w=<<SUM(v)>>.",
    "KX(x,a;w:long) :- E(x,y),F(y,'{c}'),G('{c}',a),H(a,b); w=<<COUNT(*)>>.",
];

/// One directed relation joined with itself.
const SELF_JOINS: &[&str] = &[
    // The 3-path's leaves E(x,y) and E(z,u) are transposes of each other
    // under the planned orders (y, x) and (z, u).
    "C3(;w:long) :- E9(x,y),E9(y,z),E9(z,u); w=<<COUNT(*)>>.",
    "P3(x,u) :- E9(x,y),E9(y,z),E9(z,u).",
    "P4(x,v) :- E(x,y),E(y,z),E(z,u),E(u,v).",
    // Identically written triangles that keep different head columns:
    // [x, z] and [a, b].
    "Bd(z,b) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c).",
    // ... and with an anchor on x: only the first triangle filters on it.
    "Ba(;w:long) :- E(x,'{c}'),E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c); w=<<COUNT(*)>>.",
];

/// The non-dyadic SUM pinned to the parent commit's bits.
const RAGGED: &str = "KR(x,z;w:float) :- R(x,y),S(y,z); w=<<SUM(y)>>.";

fn rule_for(query: &str, id: IdMap) -> Rule {
    parse_rule(&query.replace("{c}", &id(ANCHOR).to_string())).unwrap()
}

/// A whole answer: rows in order, each with its annotation's raw bits.
type Answer = Vec<(Vec<u32>, Option<u64>)>;

fn bits(v: DynValue) -> u64 {
    match v {
        DynValue::U64(x) => x,
        DynValue::F64(x) => x.to_bits(),
    }
}

fn answer_of(tuples: &TupleBuffer) -> Answer {
    tuples
        .iter()
        .enumerate()
        .map(|(i, row)| (row.to_vec(), tuples.annot(i).map(bits)))
        .collect()
}

/// Run `rule` as `shards` shard slices and merge the partials in shard
/// order under the head's ⊕, the way the cluster coordinator does.
fn run(rule: &Rule, cat: &MemCatalog, cfg: &Config, shards: u32) -> Answer {
    let plan = compile_rule(rule, cat, cfg).unwrap();
    let partials: Vec<TupleBuffer> = (0..shards)
        .map(|k| {
            let cfg = if shards > 1 {
                cfg.with_shard(k, shards)
            } else {
                *cfg
            };
            execute(&plan, &rule.consts, cat, &cfg)
                .unwrap()
                .relation
                .rows()
                .clone()
        })
        .collect();
    let combine = plan.agg.as_ref().map_or(AggOp::Count, |a| a.op);
    answer_of(&merge_sorted_runs(partials, combine))
}

/// Nested loops over the body atoms' tuples, in body order: every
/// consistent assignment contributes its head key (a listing), one (a
/// COUNT) or the product of its tuples' annotations (a SUM).
fn oracle(rule: &Rule, cat: &MemCatalog) -> Answer {
    enum Fold {
        List,
        Count,
        Sum,
    }
    let fold = match rule.agg.as_ref().map(|a| &a.expr) {
        None => Fold::List,
        Some(Expr::Agg(QueryAggOp::Count, _)) => Fold::Count,
        Some(Expr::Agg(QueryAggOp::Sum, _)) => Fold::Sum,
        Some(other) => panic!("the oracle does not evaluate {other:?}"),
    };
    let mut groups: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    fn extend(
        rule: &Rule,
        cat: &MemCatalog,
        atom: usize,
        binding: &mut BTreeMap<String, u32>,
        product: f64,
        groups: &mut BTreeMap<Vec<u32>, f64>,
    ) {
        let Some(body) = rule.body.get(atom) else {
            let key = rule.head.key_vars.iter().map(|v| binding[v]).collect();
            *groups.entry(key).or_insert(0.0) += product;
            return;
        };
        let relation = cat.relation(&body.relation).unwrap();
        for (i, row) in relation.rows().iter().enumerate() {
            let mut bound = Vec::new();
            let consistent = body.terms.iter().zip(row).all(|(term, &value)| match term {
                Term::Const(k) => rule.consts[*k].parse() == Ok(value),
                Term::Var(v) => match binding.get(v) {
                    Some(&held) => held == value,
                    None => {
                        binding.insert(v.clone(), value);
                        bound.push(v.clone());
                        true
                    }
                },
            });
            if consistent {
                let annot = relation.annotations().map_or(1.0, |a| a[i].as_f64());
                extend(rule, cat, atom + 1, binding, product * annot, groups);
            }
            for v in bound {
                binding.remove(&v);
            }
        }
    }
    extend(rule, cat, 0, &mut BTreeMap::new(), 1.0, &mut groups);
    groups
        .into_iter()
        .map(|(key, total)| {
            let annot = match fold {
                Fold::List => None,
                // Every relation a COUNT reads is unannotated: the total
                // is the number of assignments.
                Fold::Count => Some(total as u64),
                Fold::Sum => Some(total.to_bits()),
            };
            (key, annot)
        })
        .collect()
}

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

/// Run `query` under every config × threads {1, 4} × shards {1, 2, 3}
/// in `space` and compare each answer with the oracle's.
fn matches_the_oracle_everywhere(space: &str, id: IdMap, cat: &MemCatalog, query: &str) {
    let rule = rule_for(query, id);
    let want = oracle(&rule, cat);
    for base in all_configs() {
        for threads in [1usize, 4] {
            let cfg = base.with_threads(threads);
            for shards in [1u32, 2, 3] {
                assert_eq!(
                    run(&rule, cat, &cfg, shards),
                    want,
                    "{space} ids, x{threads}, {shards} shard(s), {query}\nunder {base:?}"
                );
            }
        }
    }
}

#[test]
fn every_config_thread_and_shard_count_matches_the_nested_loop_oracle() {
    for (space, id) in id_spaces() {
        let cat = catalog(id);
        for query in QUERIES {
            let want = oracle(&rule_for(query, id), &cat);
            assert!(want.len() > 3, "{space}: {query} must not be trivial");
            matches_the_oracle_everywhere(space, id, &cat, query);
        }
    }
}

#[test]
fn directed_self_joins_match_the_nested_loop_oracle() {
    for (space, id) in id_spaces() {
        let cat = catalog(id);
        for query in SELF_JOINS {
            let want = oracle(&rule_for(query, id), &cat);
            let nontrivial = match want.as_slice() {
                [(key, Some(count))] if key.is_empty() => *count > 3,
                rows => rows.len() > 3,
            };
            assert!(nontrivial, "{space}: {query} must not be trivial");
            matches_the_oracle_everywhere(space, id, &cat, query);
        }
    }
}

#[test]
fn the_directed_three_path_counts_28_walks_and_lists_17_pairs() {
    let id: IdMap = |v| v;
    let cat = catalog(id);
    let count = run(&rule_for(SELF_JOINS[0], id), &cat, &Config::default(), 1);
    assert_eq!(count, vec![(vec![], Some(28))]);
    let rows: Vec<Vec<u32>> = run(&rule_for(SELF_JOINS[1], id), &cat, &Config::default(), 1)
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    let truth = [
        [0, 0],
        [0, 1],
        [0, 3],
        [0, 4],
        [1, 0],
        [1, 1],
        [1, 2],
        [1, 4],
        [2, 1],
        [2, 2],
        [2, 3],
        [3, 2],
        [3, 3],
        [3, 4],
        [4, 0],
        [4, 3],
        [4, 4],
    ];
    assert_eq!(rows, truth.map(|r| r.to_vec()));
}

#[test]
fn a_non_dyadic_two_node_sum_keeps_the_bits_it_had_before_the_rewrite() {
    // Each (x, z) group folds one contribution per y, in y order: the
    // pass must hand `finalize` the rows in the order it always has, or
    // the last bits of these sums move. The digest is FNV-1a over the
    // annotations, in key order, of the answer the parent commit produced
    // — the same in every id space, because the id maps are monotone.
    const PARENT_DIGEST: u64 = 0xd192_393f_e095_179d;
    for (space, id) in id_spaces() {
        let cat = catalog(id);
        let rule = rule_for(RAGGED, id);
        let got = run(&rule, &cat, &Config::default(), 1);
        assert!(got.len() > 40, "{space}: {} groups", got.len());
        // It is the right sum: the oracle's keys, its values within ulps.
        let want = oracle(&rule, &cat);
        assert_eq!(got.len(), want.len(), "{space}");
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for ((key, sum), (want_key, want_sum)) in got.iter().zip(&want) {
            assert_eq!(key, want_key, "{space}");
            let sum = sum.expect("an aggregate annotates every group");
            let (g, w) = (f64::from_bits(sum), f64::from_bits(want_sum.unwrap()));
            assert!(
                (g - w).abs() <= 1e-12 * w.abs(),
                "{space} {key:?}: {g} vs {w}"
            );
            for byte in sum.to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, PARENT_DIGEST, "{space}: {digest:#x}");
    }
}

#[test]
fn the_fixture_reaches_every_shape_of_the_pass() {
    let id: IdMap = |v| v;
    let cat = catalog(id);
    let (mut leads, mut restarts, mut two_children, mut grandchild) = (0, 0, 0, 0);
    let (mut wide_key, mut empty_key, mut shared, mut folded) = (0, 0, 0, 0);
    let (mut reordered, mut wide_sink) = (0, 0);
    for query in QUERIES {
        let rule = rule_for(query, id);
        let single = compile_rule(&rule, &cat, &Config::no_ghd()).unwrap();
        wide_sink += plan_sink_kinds(&single, &cat)
            .iter()
            .zip(&single.nodes)
            .filter(|(kind, node)| **kind == SinkKind::Sorted && node.output_attrs.len() >= 3)
            .count();
        let plan = compile_rule(&rule, &cat, &Config::default()).unwrap();
        assert!(!plan.skip_top_down, "{query} must run the pass");
        assert!(plan.nodes.len() > 1, "{query}");
        for node in &plan.nodes {
            let Some(parent) = node.parent else { continue };
            let parent = &plan.nodes[parent];
            match node.interface.len() {
                0 => empty_key += 1,
                1 => {}
                _ => wide_key += 1,
            }
            if parent.output_attrs.starts_with(&node.interface) {
                leads += 1;
            } else {
                restarts += 1;
            }
            // A leaf's rows come sorted in attribute order; the head may
            // want its variables the other way round.
            let wanted: Vec<&String> = plan
                .output_vars
                .iter()
                .filter(|v| node.output_attrs.contains(v) && !node.interface.contains(v))
                .collect();
            let held: Vec<&String> = node
                .output_attrs
                .iter()
                .filter(|a| wanted.contains(a))
                .collect();
            reordered += (node.children.is_empty() && wanted != held) as usize;
            two_children += (parent.children.len() > 1) as usize;
            grandchild += parent.parent.is_some() as usize;
            shared += node.equiv_to.is_some() as usize;
            folded += (plan.agg.is_some() && node.output_attrs == node.interface) as usize;
        }
    }
    for (shape, hits) in [
        ("interface leads the parent", leads),
        ("interface does not lead the parent", restarts),
        ("a node with two children", two_children),
        ("a child of a child", grandchild),
        ("a two-column interface", wide_key),
        ("an empty interface", empty_key),
        (
            "a leaf whose columns are wanted in another order",
            reordered,
        ),
        ("a shared node result", shared),
        ("an already folded aggregate child", folded),
        ("a sorted sink of three or more keys (no_ghd)", wide_sink),
    ] {
        assert!(hits > 0, "no query of the fixture has {shape}");
    }
}
