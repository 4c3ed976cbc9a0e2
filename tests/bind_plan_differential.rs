//! Same answers from every way the loop nest can be driven.
//!
//! The compiled bind plan picks a rank source per `(level, participant)`
//! from what it can see of the data — a complete-range root ranks by
//! subtraction, a root with holes by cursor, a lone participant by walk
//! position — and the kernels underneath pick a strategy from the
//! layouts (the fused k-way bitset pass or the mixed-layout chain). So
//! the same six queries run here on graphs whose id space is dense, has
//! holes, and starts above 0 (straddling a bitset block edge), under all
//! six ablation configs × threads {1, 4} × morsel/static × profile
//! on/off, against a deliberately naive nested-loop oracle.
//!
//! Annotation values are dyadic, so `f64` sums are exact and *every*
//! run must equal the oracle bit for bit, whatever plan the config
//! compiles. Two non-dyadic SUMs pin fold-order rule 2 on top: within
//! one config (one plan), a one-key and a two-key group-by are
//! bit-identical across thread counts, schedulers and profiling.

use emptyheaded::exec::{compile_rule, execute_rule, Config, MemCatalog, Relation, Scheduler};
use emptyheaded::query::parse_rule;
use emptyheaded::semiring::{AggOp, DynValue};
use emptyheaded::TupleBuffer;
use std::collections::{BTreeMap, BTreeSet};

const NODES: u32 = 36;

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

/// Every way to drive one config's loop nest: serial and 4 threads, both
/// level-0 schedulers, profiling off and on.
fn drivers(base: &Config) -> Vec<(String, Config)> {
    let mut out = Vec::new();
    for threads in [1usize, 4] {
        for scheduler in [Scheduler::Morsel, Scheduler::Static] {
            for profile in [false, true] {
                let cfg = base
                    .with_threads(threads)
                    .with_scheduler(scheduler)
                    .with_profile(profile);
                out.push((format!("x{threads} {scheduler:?} profile={profile}"), cfg));
            }
        }
    }
    out
}

/// A symmetric graph on `0..NODES` with a dense core (neighbourhoods of
/// a dozen ids: bitsets under the set-level optimizer) and a sparse fringe
/// (uint), from a fixed multiplicative hash — no RNG, no seed to drift.
fn logical_edges() -> BTreeSet<(u32, u32)> {
    let mut edges = BTreeSet::new();
    for a in 0..NODES {
        for b in a + 1..NODES {
            let h = (a * 7_919 + b * 104_729) % 100;
            let keep = if a < 20 && b < 20 { h < 66 } else { h < 10 };
            if keep {
                edges.insert((a, b));
                edges.insert((b, a));
            }
        }
    }
    edges
}

/// A logical node → its id in one of the id spaces.
type IdMap = fn(u32) -> u32;

/// The three id spaces: `0..n` (a complete range from 0), every third id
/// from 200 (holes, and ids on both sides of the 255/256 block edge), and
/// `1000..1000+n` (a complete range starting above 0).
fn id_spaces() -> [(&'static str, IdMap); 3] {
    [
        ("dense", |v| v),
        ("holes", |v| 200 + 3 * v),
        ("above-0", |v| 1000 + v),
    ]
}

/// Dyadic edge weight in `[1/8, 2]`.
fn weight(a: u32, b: u32) -> f64 {
    (1 + (a * 5 + b * 3) % 16) as f64 / 8.0
}

/// Non-dyadic edge weight.
fn ragged_weight(a: u32, b: u32) -> f64 {
    1.0 / (3.0 + ((a * 11 + b * 7) % 23) as f64)
}

/// Edge length for the MIN query.
fn length(a: u32, b: u32) -> u64 {
    1 + ((a * 13 + b * 17) % 9) as u64
}

fn catalog(edges: &BTreeSet<(u32, u32)>, id: IdMap) -> MemCatalog {
    let annotated = |value: &dyn Fn(u32, u32) -> DynValue, op: AggOp| {
        let mut buf = TupleBuffer::new(2);
        for &(a, b) in edges {
            buf.push_annotated(&[id(a), id(b)], value(a, b));
        }
        Relation::from_buffer(buf, op)
    };
    let mut plain = TupleBuffer::new(2);
    for &(a, b) in edges {
        plain.push_row(&[id(a), id(b)]);
    }
    let mut cat = MemCatalog::new();
    cat.insert("E", Relation::from_buffer(plain, AggOp::Count));
    cat.insert(
        "W",
        annotated(&|a, b| DynValue::F64(weight(a, b)), AggOp::Sum),
    );
    cat.insert(
        "R",
        annotated(&|a, b| DynValue::F64(ragged_weight(a, b)), AggOp::Sum),
    );
    cat.insert(
        "D",
        annotated(&|a, b| DynValue::U64(length(a, b)), AggOp::Min),
    );
    cat
}

/// One query's whole observable answer: the scalar, or the key → value
/// groups with `f64`s as raw bits.
#[derive(Debug, PartialEq, Eq, Clone)]
enum Answer {
    Scalar(u64),
    Groups(BTreeMap<u32, u64>),
}

fn bits(v: DynValue) -> u64 {
    match v {
        DynValue::U64(x) => x,
        DynValue::F64(x) => x.to_bits(),
    }
}

fn run(query: &str, cat: &MemCatalog, cfg: &Config) -> Answer {
    let rule = parse_rule(query).unwrap();
    let out = execute_rule(&rule, cat, cfg).unwrap().relation;
    match out.scalar() {
        Some(v) => Answer::Scalar(bits(v)),
        None => {
            let keys = out.rows().iter().map(|row| row[0]);
            let values = out.annotations().unwrap_or_default().iter().copied();
            Answer::Groups(keys.zip(values.map(bits)).collect())
        }
    }
}

const TRIANGLE: &str = "T(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.";
const FOUR_CLIQUE: &str =
    "K(;w:long) :- E(x,y),E(y,z),E(x,z),E(x,u),E(y,u),E(z,u); w=<<COUNT(*)>>.";
const LOLLIPOP: &str = "L(;w:long) :- E(x,y),E(y,z),E(x,z),E(x,u); w=<<COUNT(*)>>.";
const BARBELL: &str =
    "B(;w:long) :- E(x,y),E(y,z),E(x,z),E(x,a),E(a,b),E(b,c),E(a,c); w=<<COUNT(*)>>.";
const SUM_PATHS: &str = "S(x;w:float) :- W(x,y),W(y,z); w=<<SUM(z)>>.";
const MIN_PATHS: &str = "M(x;w:long) :- D(x,y),D(y,z); w=<<MIN(z)>>.";
const RAGGED_SUM_PATHS: &str = "S(x;w:float) :- R(x,y),R(y,z); w=<<SUM(z)>>.";

/// Nested loops over the logical graph, answers keyed by mapped ids.
fn oracle(edges: &BTreeSet<(u32, u32)>, id: IdMap) -> Vec<(&'static str, Answer)> {
    let e = |a: u32, b: u32| edges.contains(&(a, b));
    let nodes = || 0..NODES;
    // Ordered triangles at each corner x, and each node's degree.
    let mut corner = vec![0u64; NODES as usize];
    let mut degree = vec![0u64; NODES as usize];
    let mut cliques = 0u64;
    for x in nodes() {
        for y in nodes().filter(|&y| e(x, y)) {
            degree[x as usize] += 1;
            for z in nodes().filter(|&z| e(y, z) && e(x, z)) {
                corner[x as usize] += 1;
                cliques += nodes().filter(|&u| e(x, u) && e(y, u) && e(z, u)).count() as u64;
            }
        }
    }
    let triangles: u64 = corner.iter().sum();
    let lollipops: u64 = nodes()
        .map(|x| corner[x as usize] * degree[x as usize])
        .sum();
    let barbells: u64 = edges
        .iter()
        .map(|&(x, a)| corner[x as usize] * corner[a as usize])
        .sum();
    let mut sums = BTreeMap::new();
    let mut mins = BTreeMap::new();
    for x in nodes() {
        let (mut sum, mut min) = (0.0f64, None::<u64>);
        for y in nodes().filter(|&y| e(x, y)) {
            for z in nodes().filter(|&z| e(y, z)) {
                sum += weight(x, y) * weight(y, z);
                let d = length(x, y) + length(y, z);
                min = Some(min.map_or(d, |m| m.min(d)));
            }
        }
        if let Some(min) = min {
            sums.insert(id(x), sum.to_bits());
            mins.insert(id(x), min);
        }
    }
    vec![
        (TRIANGLE, Answer::Scalar(triangles)),
        (FOUR_CLIQUE, Answer::Scalar(cliques)),
        (LOLLIPOP, Answer::Scalar(lollipops)),
        (BARBELL, Answer::Scalar(barbells)),
        (SUM_PATHS, Answer::Groups(sums)),
        (MIN_PATHS, Answer::Groups(mins)),
    ]
}

#[test]
fn every_driver_of_every_config_matches_the_nested_loop_oracle() {
    let edges = logical_edges();
    for (space, id) in id_spaces() {
        let cat = catalog(&edges, id);
        let expected = oracle(&edges, id);
        assert!(
            matches!(expected[1].1, Answer::Scalar(n) if n > 0),
            "the dense core must hold 4-cliques"
        );
        for base in all_configs() {
            for (driver, cfg) in drivers(&base) {
                for (query, want) in &expected {
                    assert_eq!(
                        &run(query, &cat, &cfg),
                        want,
                        "{space} ids, {driver}, {query}\nunder {base:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_one_key_float_sum_is_bit_identical_however_one_plan_is_driven() {
    // Non-dyadic weights: the f64 fold order shows in the last bits, and
    // fold-order rule 2 says the partitioning must not.
    let edges = logical_edges();
    for (space, id) in id_spaces() {
        let cat = catalog(&edges, id);
        for base in all_configs() {
            let serial = run(RAGGED_SUM_PATHS, &cat, &base);
            assert!(matches!(&serial, Answer::Groups(g) if g.len() > 25));
            for (driver, cfg) in drivers(&base) {
                assert_eq!(
                    run(RAGGED_SUM_PATHS, &cat, &cfg),
                    serial,
                    "{space} ids, {driver}\nunder {base:?}"
                );
            }
        }
    }
}

#[test]
fn a_two_key_float_sum_is_bit_identical_however_the_level0_range_is_split() {
    // Keyed on y and z, never on the node's level-0 attribute x: each
    // (y, z) group takes one non-dyadic contribution per common neighbour
    // x, and those x fall in different chunks of the level-0 range. Rule 2
    // says every chunk partition folds them in the serial order anyway.
    const TWO_KEY: &str = "K(y,z;w:float) :- R(x,y),R(x,z); w=<<SUM(x)>>.";
    let answer = |cat: &MemCatalog, cfg: &Config| -> Vec<(Vec<u32>, u64)> {
        let out = execute_rule(&parse_rule(TWO_KEY).unwrap(), cat, cfg)
            .unwrap()
            .relation;
        let values = out.annotations().unwrap().iter().map(|&v| bits(v));
        out.rows().iter().map(<[u32]>::to_vec).zip(values).collect()
    };
    let edges = logical_edges();
    for (space, id) in id_spaces() {
        let cat = catalog(&edges, id);
        for base in all_configs() {
            if !base.plan.ghd_optimizations {
                let plan = compile_rule(&parse_rule(TWO_KEY).unwrap(), &cat, &base).unwrap();
                assert_eq!(plan.nodes.len(), 1);
                assert_eq!(plan.nodes[0].attrs[0], "x", "{space}: x is the outer loop");
            }
            let serial = answer(&cat, &base);
            assert!(serial.len() > 100, "{space}: {} groups", serial.len());
            for threads in [1usize, 2, 4] {
                for scheduler in [Scheduler::Morsel, Scheduler::Static] {
                    let cfg = base.with_threads(threads).with_scheduler(scheduler);
                    assert!(
                        answer(&cat, &cfg) == serial,
                        "{space} ids, x{threads} {scheduler:?}\nunder {base:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_fixture_exercises_both_layouts_and_all_rank_sources() {
    // What the suite claims to cover, checked rather than assumed: the
    // set-level optimizer gives the core bitsets and the fringe uints,
    // and the roots are complete ranges exactly where the id space is.
    use emptyheaded::set::{LayoutKind, LayoutPolicy};
    let edges = logical_edges();
    for (space, id) in id_spaces() {
        let cat = catalog(&edges, id);
        let trie = emptyheaded::exec::Catalog::relation(&cat, "E")
            .unwrap()
            .trie(&[0, 1], LayoutPolicy::SetLevel);
        let (uint, bitset, _) = trie.level_census(1);
        assert!(
            uint > 5 && bitset > 5,
            "{space}: {uint} uint, {bitset} bitset"
        );
        let root = &trie.root().set;
        match space {
            "dense" => assert_eq!(root.dense_base(), Some(0)),
            "above-0" => assert_eq!(root.dense_base(), Some(1000)),
            _ => {
                assert_eq!(root.dense_base(), None);
                assert!(root.min() < Some(256) && root.max() > Some(256));
            }
        }
        assert_eq!(root.kind(), LayoutKind::Bitset, "{space}");
    }
}
