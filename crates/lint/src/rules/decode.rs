//! **decode-panic-free**: wire and image decode paths must not panic.
//!
//! Bytes arriving off a socket or out of a file are attacker-shaped:
//! a malformed frame must surface as an `Err`, never unwind a server
//! thread — or, on the response-handling side (the client and the
//! cluster coordinator), the process embedding it: a worker's answer is
//! as untrusted as a client's request. In the covered files this rule
//! flags `unwrap`/`expect`,
//! the panicking macro family, and slice indexing whose index is an
//! expression (a literal index after an explicit length check is
//! considered guarded — `b[0]` following `take(4)?` cannot panic).

use super::{is_keyword, FileCtx, Rule, Scope};
use crate::lexer::TokKind;
use crate::report::Finding;

pub struct DecodePanicFree;

/// Files whose non-test code decodes untrusted bytes.
const COVERED: &[&str] = &[
    "crates/storage/src/wire.rs",
    "crates/storage/src/image.rs",
    "crates/storage/src/trace_wire.rs",
    "crates/server/src/protocol.rs",
    "crates/server/src/client.rs",
    "crates/server/src/cluster.rs",
];

/// Macros that unwind.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Rule for DecodePanicFree {
    fn name(&self) -> &'static str {
        "decode-panic-free"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unguarded indexing in storage wire+image decode paths and the server protocol, client and cluster coordinator"
    }

    fn applies(&self, path: &str) -> Option<Scope> {
        COVERED.contains(&path).then_some(Scope::WholeFile)
    }

    fn check(&self, ctx: &FileCtx<'_, '_>, out: &mut Vec<Finding>) {
        let toks = &ctx.lexed.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !ctx.active(t.line) {
                continue;
            }
            // `.unwrap` / `.expect` (idents lex whole, so `unwrap_or`
            // and `expect_err` never match).
            if t.is_punct('.') {
                if let Some(n) = toks.get(i + 1) {
                    if n.is_ident("unwrap") || n.is_ident("expect") {
                        out.push(ctx.finding(
                            self.name(),
                            n.line,
                            format!(
                                ".{}() panics on malformed input; return a decode error",
                                n.text
                            ),
                        ));
                    }
                }
            }
            // panic!-family macro invocations.
            if matches!(t.kind, TokKind::Ident)
                && PANIC_MACROS.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(ctx.finding(
                    self.name(),
                    t.line,
                    format!("{}! unwinds; decode paths must return Err instead", t.text),
                ));
            }
            // Indexing with a non-literal index: `expr[idx]` where the
            // bracket contents mention an identifier. `[` is indexing
            // (not an array literal / attribute / slice pattern) when
            // preceded by a non-keyword identifier, `)` or `]`.
            if t.is_punct('[') && i > 0 {
                let prev = &toks[i - 1];
                let indexing = match prev.kind {
                    TokKind::Ident => !is_keyword(prev.text),
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if indexing && index_mentions_ident(toks, i) {
                    out.push(ctx.finding(
                        self.name(),
                        t.line,
                        "slice indexing with a computed index can panic; bounds-check and return a decode error (or lint:allow with the guard cited)"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

/// True if the bracket group opening at `toks[open]` contains any
/// identifier token (i.e. the index is computed, not a literal).
fn index_mentions_ident(toks: &[crate::lexer::Token<'_>], open: usize) -> bool {
    let mut depth = 0usize;
    for t in &toks[open..] {
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if depth >= 1 => return true,
            _ => {}
        }
    }
    false
}
