//! **lock-discipline**: the server's declared lock order, checked
//! lexically.
//!
//! Declared order (rank 0 acquired first): `Shared.db` RwLock (0) →
//! `PlanCache` mutex `cache` (1) → connection/session list mutexes
//! `conns`/`sessions`/`session_threads` (2). Within the lexical extent
//! of a held guard, acquiring a lock of rank ≤ the held rank is
//! flagged (out-of-order acquisition is how AB/BA deadlocks are born;
//! equal rank means the order between the two was never declared).
//! Known-expensive calls (`prepare`/`compile`/`plan`/`ghd` — query
//! compilation and GHD search — and `parse`/`bind`, the per-request
//! work of a cache hit) are flagged under the `cache` mutex, which sits
//! on the hot path of every request.
//!
//! Guard extents are tracked lexically:
//! - `let g = x.lock();` (or `x.lock().unwrap()`/`.expect(..)`) binds
//!   the guard, which lives to the end of the enclosing block, or an
//!   explicit `drop(g)`.
//! - Temporaries (`x.lock().get(..)`, `let v = x.lock().get(..);`,
//!   `if let Some(v) = x.lock().get(..)`) live to the end of their
//!   statement — for `if let`, through the whole `if`/`else` chain,
//!   matching Rust 2021 temporary lifetimes.
//!
//! Receivers not in the rank table (`stdout`, iterators, tries, …) are
//! ignored, as are `.read(..)`/`.write(..)` calls that take arguments
//! (those are `io::Read`/`io::Write`, not lock acquisitions).

use super::{FileCtx, Rule, Scope};
use crate::lexer::{TokKind, Token};
use crate::report::Finding;

pub struct LockDiscipline;

/// Lock receiver name → rank in the declared order.
fn rank_of(recv: &str) -> Option<u8> {
    match recv {
        "db" => Some(0),
        "cache" => Some(1),
        "conns" | "sessions" | "session_threads" => Some(2),
        _ => None,
    }
}

/// Calls too expensive to make while the plan-cache mutex is held.
const EXPENSIVE: &[&str] = &["prepare", "compile", "plan", "ghd", "parse", "bind"];

#[derive(Debug)]
enum GuardKind {
    /// `let g = x.lock();` — the guard itself is bound, so it dies when
    /// the enclosing block closes, or at `drop(g)`.
    Block { depth: usize, name: Option<String> },
    /// Statement temporary — dies at `;` at its depth, or at a `}`
    /// returning to its depth (unless an `else` continues the
    /// statement).
    Stmt { depth: usize },
}

#[derive(Debug)]
struct Guard {
    recv: String,
    rank: u8,
    line: u32,
    kind: GuardKind,
}

impl Rule for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "respect lock order db -> cache -> conns/sessions; no expensive calls (prepare/compile/plan/ghd/parse/bind) under the cache mutex"
    }

    fn applies(&self, path: &str) -> Option<Scope> {
        path.starts_with("crates/server/src/")
            .then_some(Scope::WholeFile)
    }

    fn check(&self, ctx: &FileCtx<'_, '_>, out: &mut Vec<Finding>) {
        let toks = &ctx.lexed.tokens;
        let mut depth = 0usize;
        let mut guards: Vec<Guard> = Vec::new();
        // `let` at (depth, bound name) opening the current statement —
        // makes the next acquisition a Block guard.
        let mut pending_let: Option<(usize, Option<String>)> = None;

        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    let else_next = toks.get(i + 1).is_some_and(|n| n.is_ident("else"));
                    guards.retain(|g| match g.kind {
                        GuardKind::Block { depth: d, .. } => d <= depth,
                        GuardKind::Stmt { depth: d } => {
                            if d > depth {
                                false // its statement's block closed
                            } else if d == depth {
                                else_next // if-let chain continues
                            } else {
                                true
                            }
                        }
                    });
                }
                TokKind::Punct(';') => {
                    guards
                        .retain(|g| !matches!(g.kind, GuardKind::Stmt { depth: d } if d == depth));
                    if let Some((d, _)) = &pending_let {
                        if *d == depth {
                            pending_let = None;
                        }
                    }
                }
                TokKind::Ident if t.text == "let" => {
                    let scrutinee =
                        i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
                    if !scrutinee {
                        pending_let = Some((depth, let_binding_name(toks, i)));
                    }
                }
                TokKind::Ident
                    if t.text == "drop"
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && toks.get(i + 3).is_some_and(|n| n.is_punct(')')) =>
                {
                    // drop(g) releases a named Block guard early.
                    if let Some(nt) = toks.get(i + 2) {
                        if matches!(nt.kind, TokKind::Ident) {
                            guards.retain(|g| {
                                !matches!(&g.kind, GuardKind::Block { name: Some(n), .. }
                                    if n == nt.text)
                            });
                        }
                    }
                }
                TokKind::Ident
                    if EXPENSIVE.contains(&t.text)
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && ctx.active(t.line) =>
                {
                    if let Some(g) = guards.iter().find(|g| g.rank == 1) {
                        out.push(ctx.finding(
                            self.name(),
                            t.line,
                            format!(
                                "expensive call `{}()` while holding `{}` (acquired line {}); \
                                 compile/plan outside the cache mutex and insert the result",
                                t.text, g.recv, g.line
                            ),
                        ));
                    }
                }
                _ => {}
            }

            // Acquisition: `<recv> . (lock|read|write) ( )` with zero args.
            if let Some((recv, rank)) = acquisition_at(toks, i) {
                if ctx.active(t.line) {
                    for g in &guards {
                        if rank <= g.rank {
                            out.push(ctx.finding(
                                self.name(),
                                toks[i].line,
                                format!(
                                    "acquiring `{recv}` (rank {rank}) while holding `{}` (rank {}, \
                                     acquired line {}); declared order is db -> cache -> conns/sessions",
                                    g.recv, g.rank, g.line
                                ),
                            ));
                        }
                    }
                }
                let kind = match &pending_let {
                    Some((d, name)) if *d == depth && binds_guard(toks, i) => GuardKind::Block {
                        depth,
                        name: name.clone(),
                    },
                    _ => GuardKind::Stmt { depth },
                };
                guards.push(Guard {
                    recv: recv.to_string(),
                    rank,
                    line: toks[i].line,
                    kind,
                });
            }

            i += 1;
        }
    }
}

/// If `toks[i]` is the `.` of `<recv>.lock()` / `.read()` / `.write()`
/// with a ranked receiver, return (receiver, rank).
fn acquisition_at<'a>(toks: &'a [Token<'a>], i: usize) -> Option<(&'a str, u8)> {
    if !toks[i].is_punct('.') || i == 0 {
        return None;
    }
    let m = toks.get(i + 1)?;
    if !(m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")) {
        return None;
    }
    // Zero-arg call only: `.read(&mut buf)` is io::Read, not a lock.
    if !(toks.get(i + 2)?.is_punct('(') && toks.get(i + 3)?.is_punct(')')) {
        return None;
    }
    let recv = &toks[i - 1];
    if !matches!(recv.kind, TokKind::Ident) {
        return None;
    }
    rank_of(recv.text).map(|r| (recv.text, r))
}

/// Whether the acquisition whose `.` is `toks[i]` ends its statement,
/// bare or through `.unwrap()`/`.expect(..)`, so a `let` binds the guard
/// itself. Any other method call on it consumes a temporary guard,
/// which Rust drops at the end of the statement.
fn binds_guard(toks: &[Token<'_>], i: usize) -> bool {
    let mut j = i + 4; // past `. lock ( )`
    if toks.get(j).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(j + 1)
            .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
    {
        let mut open = 0usize;
        j += 2;
        while let Some(t) = toks.get(j) {
            if t.is_punct('(') {
                open += 1;
            } else if t.is_punct(')') {
                open -= 1;
                if open == 0 {
                    break;
                }
            }
            j += 1;
        }
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_punct(';'))
}

/// Name bound by `let [mut] <name> = …`, if simple.
fn let_binding_name(toks: &[Token<'_>], let_idx: usize) -> Option<String> {
    let mut j = let_idx + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let t = toks.get(j)?;
    matches!(t.kind, TokKind::Ident).then(|| t.text.to_string())
}
