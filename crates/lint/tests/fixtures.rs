//! Fixture self-tests: every rule must catch a seeded violation at the
//! right file:line, pass the cleaned twin, and — unlike the shell grep
//! gates this crate replaced — must NOT fire on comments, strings, or
//! test code that merely mention the banned constructs.

use eh_lint::lint_source;
use eh_lint::report::Finding;

fn run(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src, &[])
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---- alloc-free -----------------------------------------------------------

#[test]
fn alloc_free_catches_seeded_violations_in_gj() {
    let src = "\
fn recurse(out: &mut Vec<u32>) {
    let v: Vec<u32> = Vec::new();
    let b = Box::new(1u32);
    let s = format!(\"{}\", 1);
    let c: Vec<u32> = out.iter().copied().collect();
}
";
    let f = run("crates/exec/src/gj.rs", src);
    assert_eq!(lines_of(&f, "alloc-free"), vec![2, 3, 4, 5]);
}

#[test]
fn alloc_free_cleaned_twin_passes() {
    let src = "\
fn recurse(out: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    scratch.clear();
    out.extend_from_slice(scratch);
}
";
    assert!(run("crates/exec/src/gj.rs", src).is_empty());
}

#[test]
fn alloc_free_ignores_comments_and_strings() {
    // The old CI grep fired on any textual `Vec::new` in gj.rs — prose
    // in a doc comment or a string literal was enough. Token-level
    // analysis is not fooled.
    let src = "\
//! No `Vec::new()` or `collect()` happens in this module.
fn recurse() {
    let msg = \"Vec::new() is banned here; vec![] too\";
    let _ = msg;
}
";
    assert!(run("crates/exec/src/gj.rs", src).is_empty());
}

#[test]
fn alloc_free_exempts_test_code() {
    let src = "\
fn hot() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Vec<u32> = Vec::new();
        let _ = v;
    }
}
";
    assert!(run("crates/exec/src/gj.rs", src).is_empty());
}

#[test]
fn alloc_free_marked_scope_only_fires_inside_markers() {
    let src = "\
pub fn materialize() -> Vec<u32> {
    Vec::new()
}
// lint:region-start(alloc-free): kernels below reuse caller buffers
pub fn kernel(out: &mut Vec<u32>) {
    let v = Vec::new();
    out.extend(v);
}
// lint:region-end(alloc-free)
pub fn also_materialize() -> Vec<u32> {
    Vec::new()
}
";
    // Only line 6 (inside the region) fires; the materializing entry
    // points outside the region are by-design allocators.
    let f = run("crates/set/src/intersect.rs", src);
    assert_eq!(lines_of(&f, "alloc-free"), vec![6]);
}

#[test]
fn alloc_free_covers_the_sinks_fused_scatter_loop() {
    // The exec sink's emit/scatter/dense-fold region runs once per join
    // binding: an allocation inside it must be flagged, while the sink
    // constructor outside the region allocates its arrays by design.
    let src = "\
pub fn new_dense(slots: usize) -> Vec<u64> {
    vec![0; slots]
}
// lint:region-start(alloc-free): per-binding sink paths
pub fn scatter(vals: &mut [u64], keys: &[u32], raw: u64) {
    let touched: Vec<u32> = Vec::new();
    for &k in keys {
        vals[k as usize] += raw;
    }
    let _ = touched;
}
// lint:region-end(alloc-free)
";
    let f = run("crates/exec/src/sink.rs", src);
    assert_eq!(lines_of(&f, "alloc-free"), vec![6]);
}

#[test]
fn alloc_free_catches_known_allocating_callees_in_regions() {
    // The defect the token patterns could not see: a "values into the
    // caller's buffer" kernel that builds its answer through an
    // allocating entry point. Calls fire; the definitions themselves,
    // and the same calls outside a region, do not.
    let src = "\
pub fn intersect(a: &Set, b: &Set) -> Set {
    Set::Bitset(intersect_bitset_bitset(a, b))
}
// lint:region-start(alloc-free): kernels append to caller buffers
pub fn intersect_values(a: &Set, b: &Set, out: &mut Vec<u32>) {
    let r = intersect_bitset_bitset(a, b);
    out.extend(r.iter());
    let s = intersect(a, b);
    out.extend(BitsetSet::from_parts(offsets, blocks).iter());
    out.extend(s.iter().to_vec());
}
fn from_parts(offsets: &[u32]) {}
// lint:region-end(alloc-free)
";
    for path in ["crates/set/src/intersect.rs", "crates/set/src/bitset.rs"] {
        let f = run(path, src);
        assert_eq!(lines_of(&f, "alloc-free"), vec![6, 8, 9, 10], "{path}");
    }
}

#[test]
fn alloc_free_does_not_apply_outside_hot_paths() {
    let src = "fn anywhere() { let v: Vec<u32> = Vec::new(); let _ = v; }\n";
    assert!(run("crates/query/src/parse.rs", src).is_empty());
}

#[test]
fn alloc_free_allow_suppresses_with_justification() {
    let src = "\
fn recurse() {
    // lint:allow(alloc-free): one-time setup outside the per-tuple loop
    let v: Vec<u32> = Vec::new();
    let _ = v;
}
";
    assert!(run("crates/exec/src/gj.rs", src).is_empty());
}

#[test]
fn alloc_free_accepts_work_counter_bumps() {
    // The observability counters (PR 8) are plain field increments on a
    // caller-owned struct — no allocation, no collect, no formatting.
    // The exact idiom gj.rs uses must stay legal in the hot recursion.
    let src = "\
fn recurse(ctx: &mut GjContext, depth: usize) {
    let c = ctx.counters_mut(0, depth);
    c.intersections += 1;
    c.values_scanned = c.values_scanned.wrapping_add(n as u64);
    ctx.work.merge_kernels += 1;
}
";
    assert!(run("crates/exec/src/gj.rs", src).is_empty());
}

// ---- columnar -------------------------------------------------------------

#[test]
fn columnar_catches_nested_vec() {
    let src = "\
pub struct Rows {
    data: Vec<Vec<u32>>,
}
";
    let f = run("crates/trie/src/tuple.rs", src);
    assert_eq!(lines_of(&f, "columnar"), vec![2]);
}

#[test]
fn columnar_cleaned_twin_passes() {
    let src = "\
pub struct Rows {
    data: Vec<u32>,
    arity: usize,
}
";
    assert!(run("crates/trie/src/tuple.rs", src).is_empty());
}

#[test]
fn columnar_ignores_comment_mentions() {
    // The old grep gate fired on `Vec<Vec<u32>>` in prose. This is the
    // exact false-positive class that motivated the token-level lexer.
    let src = "\
//! Never store tuples as `Vec<Vec<u32>>` — flat buffers only.
pub struct Rows {
    data: Vec<u32>,
}
";
    assert!(run("crates/trie/src/tuple.rs", src).is_empty());
}

#[test]
fn columnar_allows_nested_vec_in_tests_and_other_crates() {
    let in_tests = "\
#[cfg(test)]
mod tests {
    fn fixture() -> Vec<Vec<u32>> {
        vec![vec![1, 2]]
    }
}
";
    assert!(run("crates/exec/src/gj_test_helpers.rs", in_tests).is_empty());
    let other_crate = "pub fn anywhere() -> Vec<Vec<u32>> { Vec::new() }\n";
    assert!(run("crates/bench/src/datagen.rs", other_crate).is_empty());
}

#[test]
fn columnar_covers_the_obs_crate() {
    // eh_obs ships with the engine; its profile structures must stay
    // flat (the wire encoding depends on it).
    let src = "\
pub struct Samples {
    data: Vec<Vec<u32>>,
}
";
    let f = run("crates/obs/src/lib.rs", src);
    assert_eq!(lines_of(&f, "columnar"), vec![2]);
}

// ---- decode-panic-free ----------------------------------------------------

#[test]
fn decode_catches_unwrap_expect_and_panics() {
    let src = "\
fn decode(b: &[u8]) -> u32 {
    let x = parse(b).unwrap();
    let y = parse(b).expect(\"oops\");
    if b.is_empty() {
        panic!(\"empty\");
    }
    x + y
}
";
    let f = run("crates/storage/src/wire.rs", src);
    assert_eq!(lines_of(&f, "decode-panic-free"), vec![2, 3, 5]);
}

#[test]
fn decode_catches_computed_index_but_not_literal() {
    let src = "\
fn decode(b: &[u8], n: usize) -> u8 {
    let first = b[0];
    let nth = b[n];
    first + nth
}
";
    let f = run("crates/server/src/protocol.rs", src);
    // Literal b[0] is the guarded-read idiom (after take(1)); computed
    // b[n] on line 3 is flagged.
    assert_eq!(lines_of(&f, "decode-panic-free"), vec![3]);
}

#[test]
fn decode_covers_trace_wire() {
    // The trace wire decoder is attacker-shaped input like the rest of
    // the COVERED set: panicking idioms must be flagged there too.
    let src = "\
fn decode_trace(b: &[u8]) -> u64 {
    let checksum = parse(b).unwrap();
    checksum
}
";
    let f = run("crates/storage/src/trace_wire.rs", src);
    assert_eq!(lines_of(&f, "decode-panic-free"), vec![2]);
}

#[test]
fn decode_covers_the_response_handling_side() {
    // A worker's answer is as untrusted as a client's request: the
    // coordinator's gather and the client's response handling must turn
    // a missing slot, an empty fleet or a short batch into an error.
    let src = "\
fn gather(slots: Vec<Option<u32>>, addrs: &[String]) -> u32 {
    assert!(!addrs.is_empty());
    let first = slots[0].expect(\"scatter thread wrote its slot\");
    first + slots[addrs.len()].unwrap_or(0)
}
";
    for path in [
        "crates/server/src/cluster.rs",
        "crates/server/src/client.rs",
    ] {
        let f = run(path, src);
        assert_eq!(lines_of(&f, "decode-panic-free"), vec![2, 3, 4], "{path}");
    }
    // The shell renders what those two hand it; it stays uncovered.
    assert!(run("crates/server/src/shell.rs", src).is_empty());
}

#[test]
fn decode_does_not_flag_unwrap_or_family() {
    let src = "\
fn decode(b: &[u8]) -> u8 {
    let v = b.first().copied().unwrap_or(0);
    let w = b.first().copied().unwrap_or_default();
    v + w
}
";
    assert!(run("crates/storage/src/image.rs", src).is_empty());
}

#[test]
fn decode_cleaned_twin_passes() {
    let src = "\
fn decode(b: &[u8]) -> Result<u8, String> {
    match b.first() {
        Some(&v) => Ok(v),
        None => Err(String::from(\"truncated\")),
    }
}
";
    assert!(run("crates/storage/src/wire.rs", src).is_empty());
}

#[test]
fn decode_exempts_tests_and_uncovered_files() {
    let in_tests = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        decode(b\"x\").unwrap();
    }
}
";
    assert!(run("crates/storage/src/wire.rs", in_tests).is_empty());
    let other = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert!(run("crates/storage/src/encode.rs", other).is_empty());
}

// ---- unsafe-audit ---------------------------------------------------------

#[test]
fn unsafe_audit_catches_uncommented_unsafe() {
    let src = "\
fn f(p: *const u32) -> u32 {
    unsafe { *p }
}
";
    let f = run("crates/set/src/simd.rs", src);
    assert_eq!(lines_of(&f, "unsafe-audit"), vec![2]);
}

#[test]
fn unsafe_audit_accepts_safety_comment_above() {
    let src = "\
fn f(p: *const u32) -> u32 {
    // SAFETY: caller guarantees p is valid and aligned.
    unsafe { *p }
}
";
    assert!(run("crates/set/src/simd.rs", src).is_empty());
}

#[test]
fn unsafe_audit_sees_through_attributes() {
    // #[target_feature] fns carry attributes between the SAFETY comment
    // and the unsafe fn — adjacency must tolerate attribute lines.
    let src = "\
// SAFETY: callers check sse4.1 availability first.
#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"sse4.1\")]
unsafe fn kernel(a: &[u32]) {}
";
    assert!(run("crates/set/src/simd.rs", src).is_empty());
}

#[test]
fn unsafe_audit_blank_line_breaks_adjacency() {
    let src = "\
// SAFETY: stale comment separated from the code it described.

fn f(p: *const u32) -> u32 {
    unsafe { *p }
}
";
    let f = run("crates/set/src/simd.rs", src);
    assert_eq!(lines_of(&f, "unsafe-audit"), vec![4]);
}

#[test]
fn unsafe_audit_ignores_unsafe_in_prose() {
    // The word "unsafe" in a doc comment (e.g. the head-variable
    // "unsafe rule" in eh_query::validate) is not an unsafe block.
    let src = "\
/// A head variable never appears in the body (unsafe rule).
fn check() {}
";
    assert!(run("crates/query/src/validate.rs", src).is_empty());
}

// ---- lock-discipline ------------------------------------------------------

#[test]
fn locks_catch_out_of_order_acquisition() {
    let src = "\
fn bad(shared: &Shared) {
    let cache = shared.cache.lock();
    let db = shared.db.read();
    drop(db);
    drop(cache);
}
";
    let f = run("crates/server/src/server.rs", src);
    assert_eq!(lines_of(&f, "lock-discipline"), vec![3]);
}

#[test]
fn locks_ordered_acquisition_passes() {
    let src = "\
fn good(shared: &Shared) {
    let db = shared.db.read();
    let cache = shared.cache.lock();
    drop(cache);
    drop(db);
}
";
    assert!(run("crates/server/src/server.rs", src).is_empty());
}

#[test]
fn locks_guard_dies_at_block_end() {
    let src = "\
fn fine(shared: &Shared) {
    {
        let cache = shared.cache.lock();
        cache.touch();
    }
    let db = shared.db.read();
    let _ = db;
}
";
    assert!(run("crates/server/src/server.rs", src).is_empty());
}

#[test]
fn locks_drop_releases_named_guard() {
    let src = "\
fn fine(shared: &Shared) {
    let cache = shared.cache.lock();
    drop(cache);
    let db = shared.db.read();
    let _ = db;
}
";
    assert!(run("crates/server/src/server.rs", src).is_empty());
}

#[test]
fn locks_if_let_temporary_lives_through_else() {
    // Rust 2021: the scrutinee temporary (the cache guard) lives for
    // the whole if/else statement, so acquiring db in the else branch
    // is a real rank inversion.
    let src = "\
fn bad(shared: &Shared, k: &str) {
    if let Some(p) = shared.cache.lock().get(k) {
        use_plan(p);
    } else {
        let db = shared.db.read();
        let _ = db;
    }
}
";
    let f = run("crates/server/src/server.rs", src);
    assert_eq!(lines_of(&f, "lock-discipline"), vec![5]);
}

#[test]
fn locks_if_let_temporary_dies_after_statement() {
    let src = "\
fn fine(shared: &Shared, k: &str) {
    if let Some(p) = shared.cache.lock().get(k) {
        return use_plan(p);
    }
    let db = shared.db.read();
    let _ = db;
}
";
    assert!(run("crates/server/src/server.rs", src).is_empty());
}

#[test]
fn locks_flag_expensive_call_under_cache_mutex() {
    let src = "\
fn bad(shared: &Shared, text: &str) {
    let mut cache = shared.cache.lock();
    let plan = db.prepare(text);
    cache.insert(text, plan);
}
";
    let f = run("crates/server/src/session.rs", src);
    assert_eq!(lines_of(&f, "lock-discipline"), vec![3]);
}

#[test]
fn locks_flag_binding_a_cached_template_under_cache_mutex() {
    let src = "\
fn bad(shared: &Shared, program: Program) {
    if let Some(t) = shared.cache.lock().lookup(&program.shape()) {
        return t.bind(program);
    }
    let hit = {
        let mut cache = shared.cache.lock();
        cache.lookup(&program.shape())
    };
    hit.map(|t| t.bind(program))
}
";
    let f = run("crates/server/src/server.rs", src);
    assert_eq!(lines_of(&f, "lock-discipline"), vec![3]);
}

#[test]
fn locks_let_of_a_call_on_the_guard_holds_it_one_statement() {
    // The guard is a temporary of the `let` statement: Rust drops it at
    // the `;`, so nothing after that line runs under the cache mutex.
    let src = "\
fn good(shared: &Shared, program: Program) -> Prepared {
    let template = shared.cache.lock().lookup(&program.shape());
    if let Some(t) = template {
        return t.bind(program);
    }
    let compiled = shared.db.read().compile(program);
    shared.cache.lock().insert(compiled.clone());
    compiled
}
";
    assert!(run("crates/server/src/server.rs", src).is_empty());
}

#[test]
fn locks_let_of_an_unwrapped_guard_holds_it_to_block_end() {
    let src = "\
fn bad(shared: &Shared, text: &str) {
    let cache = shared.cache.lock().unwrap();
    let plan = db.prepare(text);
    let held = shared.cache.lock().expect(\"poisoned\");
    let db = shared.db.read();
}
";
    let f = run("crates/server/src/server.rs", src);
    assert_eq!(lines_of(&f, "lock-discipline"), vec![3, 4, 5, 5]);
}

#[test]
fn locks_expensive_call_outside_guard_passes() {
    let src = "\
fn good(shared: &Shared, text: &str) {
    if let Some(p) = shared.cache.lock().get(text) {
        return p;
    }
    let plan = db.prepare(text);
    shared.cache.lock().insert(text, plan);
}
";
    assert!(run("crates/server/src/server.rs", src).is_empty());
}

#[test]
fn locks_ignore_unranked_receivers_and_io_read() {
    let src = "\
fn fine(stream: &mut TcpStream, buf: &mut [u8]) {
    let out = stdout().lock();
    stream.read(buf);
    file.write(buf);
    let _ = out;
}
";
    assert!(run("crates/server/src/session.rs", src).is_empty());
}

#[test]
fn locks_only_apply_to_server_crate() {
    let src = "\
fn elsewhere(shared: &Shared) {
    let cache = shared.cache.lock();
    let db = shared.db.read();
    let _ = (cache, db);
}
";
    assert!(run("crates/storage/src/image.rs", src).is_empty());
}

// ---- allow hatch ----------------------------------------------------------

#[test]
fn malformed_allow_is_itself_a_finding() {
    let src = "\
fn f() {
    // lint:allow(alloc-free)
    let v: Vec<u32> = Vec::new();
    let _ = v;
}
";
    let f = run("crates/exec/src/gj.rs", src);
    // The missing justification is flagged AND the violation still fires.
    assert_eq!(lines_of(&f, "allow-syntax"), vec![2]);
    assert_eq!(lines_of(&f, "alloc-free"), vec![3]);
}

#[test]
fn allow_for_unknown_rule_is_flagged() {
    let src = "\
fn f() {
    // lint:allow(no-such-rule): misspelled
    let x = 1;
    let _ = x;
}
";
    let f = run("crates/exec/src/gj.rs", src);
    assert_eq!(lines_of(&f, "allow-syntax"), vec![2]);
}

#[test]
fn allow_mentioned_in_prose_is_not_a_directive() {
    let src = "\
//! Use `// lint:allow(rule): why` to suppress a single line.
fn f() {}
";
    assert!(run("crates/exec/src/gj.rs", src).is_empty());
}

// ---- rule filter ----------------------------------------------------------

#[test]
fn rule_filter_restricts_output() {
    let src = "\
fn decode(b: &[u8]) -> u32 {
    let v: Vec<Vec<u32>> = Vec::new();
    parse(b).unwrap()
}
";
    let all = lint_source("crates/storage/src/wire.rs", src, &[]);
    assert!(all.iter().any(|f| f.rule == "columnar"));
    assert!(all.iter().any(|f| f.rule == "decode-panic-free"));
    let only = lint_source("crates/storage/src/wire.rs", src, &["columnar".to_string()]);
    assert!(only.iter().all(|f| f.rule == "columnar"));
    assert!(!only.is_empty());
}
