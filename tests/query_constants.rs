//! Query-text constants resolve to the key they spell: a string
//! constant keeps its UTF-8 text, and an integer constant keeps its
//! exact value, even above 2⁵³ where an `f64` would round it onto a
//! neighbouring key.

use emptyheaded::{CsvOptions, Database, TypedValue};
use std::io::Cursor;

fn load(text: &str) -> Database {
    let mut db = Database::new();
    db.load_csv_reader("P", Cursor::new(text), &CsvOptions::csv())
        .unwrap();
    db
}

/// The typed rows `q` answers.
fn answer(db: &mut Database, q: &str) -> Vec<Vec<TypedValue>> {
    let out = db.query(q).unwrap();
    out.typed_rows(db)
}

#[test]
fn non_ascii_string_constants_match_their_key() {
    let mut db = load("src:str@p,dst:str@p\ncafé,bar\ncafe,baz\n");
    for q in ["A(y) :- P('café',y).", "A(y) :- P(\"café\",y)."] {
        let bar = vec![vec![TypedValue::Str("bar".into())]];
        assert_eq!(answer(&mut db, q), bar, "{q}");
    }
}

#[test]
fn integer_constants_above_2_pow_53_are_exact() {
    let mut db = load("k:u64@k,v:u64@k\n9007199254740993,1\n9007199254740992,2\n");
    assert_eq!(
        answer(&mut db, "A(y) :- P(9007199254740993,y)."),
        vec![vec![TypedValue::U64(1)]]
    );
    assert_eq!(
        answer(&mut db, "A(y) :- P(9007199254740992,y)."),
        vec![vec![TypedValue::U64(2)]]
    );
    // Leading zeros spell the same value.
    assert_eq!(
        answer(&mut db, "A(y) :- P(009007199254740993,y)."),
        vec![vec![TypedValue::U64(1)]]
    );
    // A literal past u64::MAX names no key: a parse error, not a
    // rounded neighbour.
    assert!(db.query("A(y) :- P(18446744073709551616,y).").is_err());
}
