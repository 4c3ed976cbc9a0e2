//! The plans the cost model picks, pinned: for each pattern statement of
//! the yardstick, the attribute order and GHD nodes `Database::explain`
//! prints, on small seeded graphs of the three power-law families the
//! yardstick draws (the Google+, LiveJournal and Patents analogs of
//! `paper_datasets`, exponents 1.9, 2.6 and 2.9).
//!
//! `Edge` and `Small` are a family's graph pruned by degree (edges point
//! from low to high degree, so in-sets are heavy-tailed and out-sets are
//! not); `Und` is the graph as generated. A change to the cost model that
//! flips an order or a decomposition shows here as a test diff; re-pin
//! from the assertion message and say which decision changed.

use emptyheaded::graph::datasets::paper_datasets;
use emptyheaded::graph::gen::power_law;
use emptyheaded::Database;

const TC: &str = "TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.";
const TL: &str = "TL(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).";
const L31: &str = "L31(;w:long) :- Und(x,y),Und(y,z),Und(x,z),Und(x,u); w=<<COUNT(*)>>.";
const B31: &str = "B31(;w:long) :- Und(x,y),Und(y,z),Und(x,z),Und(x,a),Und(a,b),Und(b,c),Und(a,c); w=<<COUNT(*)>>.";
const K4: &str = "K4(;w:long) :- Small(x,y),Small(y,z),Small(x,z),Small(x,u),Small(y,u),Small(z,u); w=<<COUNT(*)>>.";
const HL: &str = "HL(x,z) :- Edge(x,y),Edge(y,z).";

/// The order line's attribute order, then each node's χ (as `explain`
/// lists them), with `≡` marking a node that reuses another's result.
fn plan_of(db: &Database, query: &str) -> String {
    let explained = db.explain(query).unwrap();
    let mut lines = explained.lines();
    let order = lines.next().unwrap();
    let order = order
        .strip_prefix("order: ")
        .and_then(|o| o.split(" (").next())
        .unwrap_or_else(|| panic!("no order line: {order}"));
    let nodes: Vec<String> = lines
        .filter_map(|l| {
            let chi = l.strip_prefix("node ")?.split("χ: ").nth(1)?;
            let chi = &chi[..chi.find(']')? + 1];
            Some(format!("{chi}{}", if l.contains('≡') { "≡" } else { "" }))
        })
        .collect();
    format!("{order} | {}", nodes.join(" ")).replace('"', "")
}

/// A database over one family's analog at the yardstick's smoke scale,
/// loaded as the yardstick loads it (`Small` is its four-clique graph).
fn family(index: usize, scale: f64) -> Database {
    let mut spec = paper_datasets()[index].clone();
    spec.seed = 7;
    let und = spec.generate_scaled(scale);
    let small = power_law(120, 1_500, 1.9, 7 ^ 0x4b34);
    let mut db = Database::new();
    db.load_graph("Edge", &und.prune_by_degree());
    db.load_graph("Und", &und);
    db.load_graph("Small", &small.prune_by_degree());
    db
}

fn check(name: &str, db: &Database, pinned: [(&str, &str); 6]) {
    for (query, want) in [TC, TL, L31, B31, K4, HL].into_iter().zip(pinned) {
        assert_eq!(plan_of(db, query), want.1, "{name} {}", want.0);
    }
}

#[test]
fn google_plus_family() {
    check(
        "Google+",
        &family(0, 0.1),
        [
            ("TC", "x y z | [x, y, z]"),
            ("TL", "x y z | [x, y, z]"),
            ("L31", "x y z u | [x, y, z] [x, u]"),
            ("B31", "x a y z b c | [x, a] [a, b, c]≡ [x, y, z]"),
            ("K4", "z x y u | [z, x, y, u]"),
            ("HL", "y x z | [y, x] [y, z]"),
        ],
    );
}

#[test]
fn livejournal_family() {
    check(
        "LiveJournal",
        &family(2, 0.02),
        [
            ("TC", "x y z | [x, y, z]"),
            ("TL", "x y z | [x, y, z]"),
            ("L31", "x y z u | [x, y, z] [x, u]"),
            ("B31", "x a y z b c | [x, a] [a, b, c]≡ [x, y, z]"),
            ("K4", "z x y u | [z, x, y, u]"),
            ("HL", "y x z | [y, x] [y, z]"),
        ],
    );
}

#[test]
fn patents_family() {
    check(
        "Patents",
        &family(4, 0.05),
        [
            ("TC", "x y z | [x, y, z]"),
            ("TL", "x y z | [x, y, z]"),
            ("L31", "x y z u | [x, y, z] [x, u]"),
            ("B31", "x a y z b c | [x, a] [a, b, c]≡ [x, y, z]"),
            ("K4", "z x y u | [z, x, y, u]"),
            ("HL", "y x z | [y, x] [y, z]"),
        ],
    );
}
