//! A program's rules are planned against what each relation name means
//! at that point of the program. A rule that reads an earlier rule's head
//! is planned without that head's statistics, which do not exist until it
//! runs; a stored relation of the same name must not lend it its own.

use emptyheaded::graph::gen::power_law;
use emptyheaded::Database;

/// Rule 2 reads rule 1's head `H`.
const PROGRAM: &str = "H(x,y) :- E(x,y).\nR(x,y,z) :- H(x,y),E(y,z),E(x,z).";
/// Rule 2 alone, planned against whatever `H` is stored.
const RULE2: &str = "R(x,y,z) :- H(x,y),E(y,z),E(x,z).";

/// A skewed graph `E`, and, when `stored_h`, a stored `H` of a different
/// shape: a star out of one node.
fn db(stored_h: bool) -> Database {
    let mut db = Database::new();
    db.load_graph("E", &power_law(300, 2_000, 1.9, 7).prune_by_degree());
    if stored_h {
        let star: Vec<(u32, u32)> = (1..300).map(|v| (0, v)).collect();
        db.load_edges("H", &star);
    }
    db
}

/// The last rule's rendered plan (it has no constants to bind).
fn plan(db: &Database, text: &str) -> String {
    db.prepare(text).unwrap().plan().render(&[])
}

#[test]
fn a_stored_namesake_of_an_earlier_head_does_not_plan_a_later_rule() {
    let unborn = plan(&db(false), PROGRAM);
    let shadowed = plan(&db(true), PROGRAM);
    assert_eq!(shadowed, unborn);
    // Not vacuous: the stored `H`'s statistics change rule 2's attribute
    // order when rule 2 is planned on its own.
    let order = |plan: &str| plan.lines().next().unwrap().to_string();
    assert_ne!(order(&plan(&db(true), RULE2)), order(&unborn));
}
