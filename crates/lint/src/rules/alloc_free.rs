//! **alloc-free**: no heap allocation in hot-path regions.
//!
//! The generic-join recursion (`crates/exec/src/gj.rs`) and the `eh_set`
//! intersection kernels get their speed from reusing caller-provided
//! buffers; a stray `Vec::new()` or `collect()` inside them turns an
//! O(1)-allocation join into one allocation per recursion level. The
//! whole of `gj.rs` is covered — the fused fold and scatter loops of the
//! aggregation-aware recursion included; in the `eh_set` modules and in
//! `crates/exec/src/sink.rs` only the marked regions are: the kernels,
//! and the per-binding sink paths (emit, scatter, the dense fold). The
//! entry points around them — materializing intersections, sink
//! construction and drain — allocate by design.
//!
//! Two kinds of evidence count. A token pattern that allocates on the
//! spot (`Vec::new()`, `.collect()`, …), and a call to one of the
//! crate's own entry points that are *known* to allocate
//! (`ALLOCATING_CALLEES`): a kernel that builds its answer through
//! `intersect(…)` or `BitsetSet::from_parts(…)` allocates per call just
//! the same, and no token in the kernel itself says so.

use super::{match_seq, FileCtx, Rule, Scope};
use crate::report::Finding;

pub struct AllocFree;

/// Token patterns that mean "this line allocates".
const PATTERNS: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new()"),
    (&["Vec", ":", ":", "with_capacity"], "Vec::with_capacity()"),
    (&["vec", "!"], "vec![]"),
    (&["Box", ":", ":", "new"], "Box::new()"),
    (&["format", "!"], "format!()"),
    (&["String", ":", ":", "new"], "String::new()"),
    (&[".", "collect"], ".collect()"),
    (&[".", "to_owned"], ".to_owned()"),
    (&[".", "to_string"], ".to_string()"),
];

/// Functions of the covered crates that allocate their result: calling
/// one inside a hot-path region is an allocation per call, invisible to
/// the token patterns above. (`fn name(` — a definition — is not a call.)
const ALLOCATING_CALLEES: &[&str] = &[
    "intersect",
    "intersect_bitset_bitset",
    "intersect_block_block",
    "from_parts",
    "to_vec",
];

impl Rule for AllocFree {
    fn name(&self) -> &'static str {
        "alloc-free"
    }

    fn description(&self) -> &'static str {
        "no Vec::new/vec!/collect/Box::new/format!/to_vec, and no call to a \
         known-allocating callee (intersect, from_parts, …), in hot-path \
         regions (gj.rs whole-file; eh_set kernels and the exec sink's \
         emit/scatter paths via lint:region markers)"
    }

    fn applies(&self, path: &str) -> Option<Scope> {
        if path == "crates/exec/src/gj.rs" {
            Some(Scope::WholeFile)
        } else if matches!(
            path,
            "crates/set/src/intersect.rs"
                | "crates/set/src/uint.rs"
                | "crates/set/src/bitset.rs"
                | "crates/set/src/block.rs"
                | "crates/exec/src/sink.rs"
        ) {
            Some(Scope::Marked)
        } else {
            None
        }
    }

    fn check(&self, ctx: &FileCtx<'_, '_>, out: &mut Vec<Finding>) {
        let toks = &ctx.lexed.tokens;
        for i in 0..toks.len() {
            let line = toks[i].line;
            let is_call = ALLOCATING_CALLEES
                .iter()
                .any(|callee| match_seq(toks, i, &[callee, "("]))
                && !(i > 0 && match_seq(toks, i - 1, &["fn"]));
            if is_call && ctx.active(line) {
                out.push(ctx.finding(
                    self.name(),
                    line,
                    format!(
                        "{}() allocates its result; a hot-path region must append to a caller-provided buffer",
                        toks[i].text
                    ),
                ));
                continue;
            }
            for (pat, what) in PATTERNS {
                if match_seq(toks, i, pat) {
                    if ctx.active(line) {
                        out.push(ctx.finding(
                            self.name(),
                            line,
                            format!("{what} allocates in a hot-path region; reuse a caller-provided buffer"),
                        ));
                    }
                    break;
                }
            }
        }
    }
}
