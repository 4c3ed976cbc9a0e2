//! The canonical printer round-trips every query text the repository
//! writes down: `parse(print(q)) == q` for the queries in `tests/`, the
//! README, and the paper-table runner with its query constants.
//!
//! The plan cache keys a program on the same printer (with constants
//! lifted into slots), so a text the printer loses information on
//! would let two different programs share one plan.

use emptyheaded::query::{parse_program, Program};
use std::path::Path;

/// The contents of every string literal in Rust source: escapes
/// resolved, `\` line continuations joined, raw strings included.
fn string_literals(src: &str) -> Vec<String> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            // A line comment may hold an apostrophe or a quote.
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            // A char literal: `'"'` is no string.
            '\'' if b.get(i + 2) == Some(&'\'') && b[i + 1] != '\\' => i += 3,
            '\'' if b.get(i + 1) == Some(&'\\') && b.get(i + 3) == Some(&'\'') => i += 4,
            'r' if (b.get(i + 1) == Some(&'"') || b.get(i + 1) == Some(&'#'))
                && (i == 0 || !(b[i - 1].is_alphanumeric() || b[i - 1] == '_')) =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == '#').count();
                let open = i + 1 + hashes;
                if b.get(open) != Some(&'"') {
                    i += 1;
                    continue;
                }
                let close: String = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let rest: String = b[open + 1..].iter().collect();
                let end = rest.find(&close).expect("a raw string closes");
                out.push(rest[..end].to_string());
                i = open + 1 + rest[..end].chars().count() + close.chars().count();
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while b[i] != '"' {
                    if b[i] == '\\' {
                        i += 1;
                        match b[i] {
                            'n' => s.push('\n'),
                            't' => s.push('\t'),
                            '\n' => {
                                while b[i + 1].is_whitespace() {
                                    i += 1;
                                }
                            }
                            c => s.push(c),
                        }
                    } else {
                        s.push(b[i]);
                    }
                    i += 1;
                }
                out.push(s);
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// The longest program inside `segment`: it starts at a word before the
/// first `:-` and ends at a `.` — prose, shell prompts and quotes
/// around a query fall away.
fn program_in(segment: &str) -> Option<Program> {
    let arrow = segment.find(":-")?;
    let starts = segment[..arrow].char_indices().filter(|&(i, c)| {
        let before = segment[..i].chars().next_back();
        (c.is_ascii_alphabetic() || c == '_')
            && !before.is_some_and(|p| p.is_ascii_alphanumeric() || p == '_')
    });
    for (start, _) in starts {
        let ends = segment.match_indices('.').map(|(i, _)| i + 1).rev();
        for end in ends.filter(|&end| end > arrow) {
            if let Ok(p) = parse_program(&segment[start..end]) {
                return Some(p);
            }
        }
    }
    None
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every program the repository's query texts spell, with the file
/// each came from. Template placeholders become a constant.
fn corpus() -> Vec<(String, Program)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<(String, Vec<String>)> = Vec::new();
    let mut rust_files: Vec<_> = std::fs::read_dir(root.join("tests"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    rust_files.push(root.join("crates/bench/src/paper_tables.rs"));
    rust_files.push(root.join("crates/bench/src/lib.rs"));
    rust_files.sort();
    for path in rust_files {
        let literals = string_literals(&read(&path));
        sources.push((path.display().to_string(), literals));
    }
    let readme = read(&root.join("README.md"));
    let lines = readme.lines().map(str::to_string).collect();
    sources.push(("README.md".into(), lines));
    let mut out = Vec::new();
    for (file, segments) in sources {
        for segment in segments {
            let text = segment.replace("{c}", "7").replace("{node}", "7");
            if let Some(program) = program_in(&text) {
                out.push((file.clone(), program));
            }
        }
    }
    out
}

#[test]
fn every_query_text_round_trips_through_the_canonical_printer() {
    let corpus = corpus();
    for (file, q) in &corpus {
        let printed = q.to_string();
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{file}: `{printed}` does not parse: {e}"));
        assert_eq!(&reparsed, q, "{file}: `{printed}`");
        assert_eq!(reparsed.to_string(), printed, "{file}: a fixed point");
        assert_eq!(reparsed.shape(), q.shape(), "{file}: `{printed}`");
    }
    // The corpus covers the language, not a handful of texts.
    assert!(corpus.len() >= 150, "only {} programs found", corpus.len());
    let has = |f: &dyn Fn(&Program) -> bool| corpus.iter().any(|(_, q)| f(q));
    assert!(has(&|q| q.rules.len() > 1), "a multi-rule program");
    assert!(has(&|q| q.rules.iter().any(|r| r.head.recursion.is_some())));
    assert!(has(&|q| q.rules.iter().any(|r| r.consts.len() > 1)));
    assert!(has(&|q| q
        .rules
        .iter()
        .any(|r| r.consts.iter().any(|c| !c.is_ascii()))));
    let files: std::collections::BTreeSet<&str> = corpus.iter().map(|(f, _)| f.as_str()).collect();
    for file in ["README.md", "paper_tables.rs", "lib.rs"] {
        assert!(
            files.iter().any(|f| f.ends_with(file)),
            "nothing from {file}"
        );
    }
}

#[test]
fn the_literal_scanner_reads_what_rustc_reads() {
    let src = r##"let a = "T(x) :- E(x,'y').\
                   U(x) :- E(x,y).";
        let c = '"'; // it's "not" a string
        let b = r#"V(x) :- E("q",x)."#;"##;
    assert_eq!(
        string_literals(src),
        vec!["T(x) :- E(x,'y').U(x) :- E(x,y).", "V(x) :- E(\"q\",x)."]
    );
    let p = program_in("eh> \\prepare t C(;w:long) :- E(x,y); w=<<COUNT(*)>>.').").unwrap();
    assert_eq!(p.to_string(), "C(;w:long) :- E(x,y); w=<<COUNT(*)>>.");
}
