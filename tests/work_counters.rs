//! "Did the same work" as a `cargo test`, not only as the yardstick's
//! traced pass: the exact work counters of three pattern counts on one
//! seeded power-law graph, pinned as literals.
//!
//! A counter is charged by the dispatch arm that picks the kernel, so
//! these numbers move exactly when a change alters *which kernels run
//! over which sets* — a different attribute order, layout decision,
//! merge↔gallop boundary or multiway strategy — and stay put when the
//! same work is merely done faster. They are a function of the plan and
//! the data only: thread count and scheduler must not show (the level-0
//! prologue runs once either way, and per-worker blocks fold exactly).
//! (`count_fast_hits` of a single-participant count level — the
//! lollipop's tail — is the profile's sampled estimate, which is a
//! function of the candidate values and positions alone.)
//!
//! When a change moves them on purpose, re-pin from the assertion
//! message and say in the PR which decision changed.

use emptyheaded::{Config, Database, Graph};

/// `WorkCounters` as a tuple, in declaration order.
type Work = (u64, u64, u64, u64, u64, u64, u64);

fn work(db: &Database, query: &str) -> Work {
    // The first run: layouts are fixed when a trie is built, so it does
    // exactly the work every later run repeats.
    let result = db.prepare(query).unwrap().execute(db).unwrap();
    let w = result.profile().expect("profiling is on").work;
    (
        w.values_scanned,
        w.intersections,
        w.merge_kernels,
        w.gallop_kernels,
        w.bitset_kernels,
        w.count_fast_hits,
        w.relayouts,
    )
}

#[test]
fn pattern_counts_do_exactly_this_much_work() {
    // Heavy-tailed: hubs get bitset neighbourhoods, the tail stays uint,
    // so merge, gallop and bitset kernels all fire.
    let und = Graph::power_law(1_500, 6, 0x5eed);
    let pinned: [(&str, &str, Work); 3] = [
        (
            "triangle",
            "TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.",
            (2_360_436, 10_329, 7_765, 0, 2_564, 17_658, 0),
        ),
        (
            "lollipop",
            "L31(;w:long) :- Und(x,y),Und(y,z),Und(x,z),Und(x,u); w=<<COUNT(*)>>.",
            (3_234_360, 19_459, 12_880, 0, 6_580, 1_571_916, 0),
        ),
        (
            "barbell",
            "B31(;w:long) :- Und(x,y),Und(y,z),Und(x,z),Und(x,a),Und(a,b),Und(b,c),Und(a,c); w=<<COUNT(*)>>.",
            (4_166_822, 20_428, 12_880, 0, 7_548, 35_916, 0),
        ),
    ];
    for threads in [1usize, 4] {
        let cfg = Config::default().with_threads(threads).with_profile(true);
        let mut db = Database::with_config(cfg);
        db.load_graph("Edge", &und.prune_by_degree());
        db.load_graph("Und", &und);
        for (name, query, want) in &pinned {
            assert_eq!(
                work(&db, query),
                *want,
                "{name} x{threads}: (values_scanned, intersections, merge, gallop, bitset, \
                 count_fast_hits, relayouts)"
            );
        }
    }
}
