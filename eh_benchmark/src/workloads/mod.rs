//! The five workloads: their sizes, statements, seeded inputs, expected
//! answers, program set-up and closed-loop callers.
//!
//! Why these five (README.md has the long form): each one puts the window
//! into a different set of layers, so that a change to one layer has a
//! workload that exercises it and one that bypasses it.
//!
//! * `pattern_dense`  — bitset/mixed kernels + the Generic-Join interpreter.
//! * `pattern_sparse` — uint merge/gallop kernels, a materialising sink,
//!   the morsel scheduler (2 threads), CSV ingest at set-up.
//! * `analytics`      — trie re-build, semiring ⊕ and the recursion driver.
//! * `serve_adhoc`    — parse, GHD, plan cache, session and wire; little join.
//! * `cluster_scatter`— sharded execution, big batches, range-ordered merge.

mod analytics;
mod cluster;
mod embedded;
mod serve;

pub use analytics::Analytics;
pub use cluster::ClusterScatter;
pub use embedded::{PatternDense, PatternSparse};
pub(crate) use embedded::{BARBELL, LOLLIPOP, TRIANGLE};
pub use serve::ServeAdhoc;

use crate::api::{paper_datasets, Csr, Graph, QueryResult, ResultSet, TypedValue};
use crate::oracle::{Digest, RowDigest};
use crate::stats::{Rng, Zipf};
use crate::trace::Recorder;
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOAD_NAMES: [&str; 5] = [
    "pattern_dense",
    "pattern_sparse",
    "analytics",
    "serve_adhoc",
    "cluster_scatter",
];

/// Input sizes. `FULL` was chosen on the 2-core reference box so that a
/// 10 s window holds at least 200 operations of every statement and no
/// statement's steady median leaves 0.05–40 ms; `SMOKE` only has to run.
pub struct Sizes {
    /// Google+ analog (`paper_datasets()[0]`, exponent 1.9) scale.
    pub dense_scale: f64,
    /// The 4-clique runs on its own, smaller exponent-1.9 graph: on the
    /// dense analog it takes over a second.
    pub k4_nodes: u32,
    pub k4_edges: usize,
    /// Patents analog (`paper_datasets()[4]`, exponent 2.9) scale.
    pub sparse_scale: f64,
    /// Higgs analog (`paper_datasets()[1]`) scale.
    pub analytics_scale: f64,
    pub pagerank_iterations: u32,
    /// `serve_adhoc`: a small sparse graph, so a request's join work
    /// stays well under a millisecond.
    pub serve_nodes: u32,
    pub serve_edges: usize,
    /// LiveJournal analog (`paper_datasets()[2]`, exponent 2.6) scale.
    pub cluster_scale: f64,
}

pub const FULL: Sizes = Sizes {
    dense_scale: 0.3,
    k4_nodes: 400,
    k4_edges: 9_000,
    sparse_scale: 0.5,
    analytics_scale: 0.4,
    pagerank_iterations: 5,
    serve_nodes: 6_000,
    serve_edges: 30_000,
    cluster_scale: 0.15,
};

pub const SMOKE: Sizes = Sizes {
    dense_scale: 0.1,
    k4_nodes: 120,
    k4_edges: 1_500,
    sparse_scale: 0.05,
    analytics_scale: 0.05,
    pagerank_iterations: 5,
    serve_nodes: 1_000,
    serve_edges: 4_000,
    cluster_scale: 0.02,
};

/// Hot constants of `serve_adhoc`'s `select` class (Zipf(1.0) over them).
pub const HOT_NODES: usize = 48;
/// Hubs whose 2-hop neighbourhood the `list` class fetches.
pub const HUBS: usize = 8;
/// Closed-loop client connections of `serve_adhoc`.
pub const SERVE_CLIENTS: usize = 2;
/// Shard workers of `cluster_scatter`.
pub const CLUSTER_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Count,
    List,
    Select,
    Adhoc,
    Pagerank,
    Sssp,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Count,
        Class::List,
        Class::Select,
        Class::Adhoc,
        Class::Pagerank,
        Class::Sssp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Count => "count",
            Class::List => "list",
            Class::Select => "select",
            Class::Adhoc => "adhoc",
            Class::Pagerank => "pagerank",
            Class::Sssp => "sssp",
        }
    }
}

/// How a statement's constant is drawn for each operation.
#[derive(Clone, Copy, Debug)]
pub enum ArgKind {
    /// No constant (or always the same one).
    Fixed,
    /// Zipf(1.0) over `n` hot constants: repeats, so plans stay cached.
    Zipf(usize),
    /// Walks `n` constants in turn: none repeats within `n` uses, so the
    /// text is never among the plan cache's 64 most recent.
    Cycle(usize),
    /// Round-robin over `n` constants.
    Rotate(usize),
}

#[derive(Clone, Copy, Debug)]
pub struct Stmt {
    pub name: &'static str,
    pub class: Class,
    /// Occurrences per schedule round.
    pub weight: u32,
    pub arg: ArgKind,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub stmt: u16,
    pub arg: u32,
}

/// Expected digest per statement and constant index.
pub type Expected = Vec<Vec<Digest>>;

/// One closed-loop caller. `call` returns the answer's digest and the
/// nanoseconds from handing the request to the program until the answer
/// was read; building the request text is not the program's time.
pub trait Caller: Send {
    fn call(&mut self, op: Op) -> Result<(Digest, u64), String>;

    /// The same operation with a span around each layer call.
    fn traced(&mut self, op: Op, rec: &mut Recorder) -> Result<Digest, String>;
}

pub trait Workload: Sized {
    const NAME: &'static str;
    type Inputs;
    /// First answers, in whatever form verification needs.
    type Firsts;

    fn stmts(inputs: &Self::Inputs) -> Vec<Stmt>;

    /// Inputs and expected answers from the seed. Not program time.
    fn generate(seed: u64, sizes: &Sizes) -> Self::Inputs;

    /// Hand the inputs to the program and take every statement's first
    /// answer: load or ingest, bind and connect, prepare, lazy trie build.
    /// This is what `setup_s` times. `profile` turns the engine's work
    /// counters on (traced pass only).
    fn setup(inputs: &Self::Inputs, profile: bool) -> Result<(Self, Self::Firsts), String>;

    /// Check the first answers against the oracle; returns the digests
    /// every timed operation is then compared with.
    fn verify(inputs: &Self::Inputs, firsts: &Self::Firsts) -> Result<Expected, String>;

    fn callers(&mut self) -> Vec<&mut dyn Caller>;

    /// Stop whatever set-up started (servers, connections).
    fn teardown(self) {}
}

/// The seeded round-robin schedule of one caller: one round holds every
/// statement `weight` times in a seeded order, and is repeated; constants
/// are drawn per operation. A pure function of its arguments.
pub fn schedule(stmts: &[Stmt], seed: u64, caller: usize, callers: usize, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ caller as u64);
    let mut round: Vec<u16> = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        round.extend(std::iter::repeat_n(i as u16, s.weight as usize));
    }
    rng.shuffle(&mut round);
    let zipfs: Vec<Option<Zipf>> = stmts
        .iter()
        .map(|s| match s.arg {
            ArgKind::Zipf(n) => Some(Zipf::new(n)),
            _ => None,
        })
        .collect();
    let mut uses = vec![0usize; stmts.len()];
    (0..len)
        .map(|i| {
            let stmt = round[i % round.len()];
            let s = stmt as usize;
            let arg = match stmts[s].arg {
                ArgKind::Fixed => 0,
                ArgKind::Zipf(_) => zipfs[s].as_ref().expect("built above").sample(&mut rng),
                // Callers walk disjoint residues, so two clients never
                // send the same never-repeated text close together.
                ArgKind::Cycle(n) | ArgKind::Rotate(n) => (caller + uses[s] * callers) % n,
            };
            uses[s] += 1;
            Op {
                stmt,
                arg: arg as u32,
            }
        })
        .collect()
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

pub(crate) fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Digest of an embedded result: the scalar, or the rows in order.
fn digest_result(r: &QueryResult) -> Digest {
    match r.scalar_u64() {
        Some(v) => Digest::scalar(v),
        None => Digest::of_flat(r.rows().arity(), r.rows().flat()),
    }
}

/// Digest of a served result. Rows are decoded with `typed_rows()`, the
/// way a client reads them.
fn digest_served(r: &ResultSet) -> Digest {
    match r.scalar_u64() {
        Some(v) => Digest::scalar(v),
        None => {
            let mut d = RowDigest::new();
            let mut row = Vec::new();
            for typed in r.typed_rows() {
                row.clear();
                row.extend(typed.iter().map(|v| match v {
                    TypedValue::U32(x) => *x,
                    // The inputs are u32 pass-through columns; anything
                    // else would be a wrong answer, and hashes as one.
                    _ => u32::MAX,
                }));
                d.row(&row);
            }
            d.finish()
        }
    }
}

fn check(name: &str, got: Digest, want: Digest) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{name}: first answer {got:?} differs from the oracle's {want:?}"
        ))
    }
}

const TSV_HEADER: &str = "src:u32\tdst:u32\n";

pub(crate) fn edges_tsv(g: &Graph) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::with_capacity(g.edges.len() * 12 + TSV_HEADER.len());
    out.extend_from_slice(TSV_HEADER.as_bytes());
    for &(s, d) in &g.edges {
        let _ = writeln!(out, "{s}\t{d}");
    }
    out
}

pub(crate) fn analog(index: usize, seed: u64, scale: f64) -> Graph {
    let mut spec = paper_datasets()[index].clone();
    spec.seed = seed;
    spec.generate_scaled(scale)
}

/// Nodes by descending degree (ties by id, so the order is seeded only
/// through the graph).
fn by_degree(csr: &Csr) -> Vec<u32> {
    let mut nodes: Vec<u32> = (0..csr.num_nodes() as u32).collect();
    nodes.sort_by_key(|&v| (std::cmp::Reverse(csr.neighbors(v).len()), v));
    nodes
}

/// Replace `{c}` in `template` with `c`, reusing `buf`.
fn fill(buf: &mut String, template: &str, c: u32) {
    use std::fmt::Write;
    buf.clear();
    for (i, part) in template.split("{c}").enumerate() {
        if i > 0 {
            let _ = write!(buf, "{c}");
        }
        buf.push_str(part);
    }
}

fn verify_digests(
    stmts: &[Stmt],
    expected: &Expected,
    firsts: &[Digest],
) -> Result<Expected, String> {
    for ((s, want), got) in stmts.iter().zip(expected).zip(firsts) {
        check(s.name, *got, want[0])?;
    }
    Ok(expected.clone())
}

/// Where sockets and the trace file go: `eh_benchmark/out`, whether the
/// command runs from the checkout's root (the driver, the README) or from
/// the package directory (`cargo test`).
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("eh_benchmark").is_dir() {
        PathBuf::from("eh_benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn socket_addr(tag: &str) -> Result<String, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // Unique within the process too: unit tests bind servers in parallel.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(err("create output directory"))?;
    // Relative, so the path stays under the 108-byte socket limit however
    // deep the checkout is.
    Ok(format!(
        "unix:{}/{}-{}-{}.sock",
        dir.display(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
        tag
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_stmts() -> Vec<Stmt> {
        vec![
            Stmt {
                name: "a",
                class: Class::Select,
                weight: 3,
                arg: ArgKind::Zipf(48),
            },
            Stmt {
                name: "b",
                class: Class::Adhoc,
                weight: 1,
                arg: ArgKind::Cycle(1000),
            },
            Stmt {
                name: "c",
                class: Class::Count,
                weight: 1,
                arg: ArgKind::Fixed,
            },
        ]
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let key = |ops: &[Op]| ops.iter().map(|o| (o.stmt, o.arg)).collect::<Vec<_>>();
        let a = schedule(&demo_stmts(), 7, 0, 2, 500);
        assert_eq!(key(&a), key(&schedule(&demo_stmts(), 7, 0, 2, 500)));
        assert_ne!(key(&a), key(&schedule(&demo_stmts(), 8, 0, 2, 500)));
        assert_ne!(key(&a), key(&schedule(&demo_stmts(), 7, 1, 2, 500)));
    }

    #[test]
    fn schedule_keeps_the_weights_and_never_repeats_a_cycled_constant() {
        let ops = schedule(&demo_stmts(), 3, 1, 2, 500);
        let count = |s: u16| ops.iter().filter(|o| o.stmt == s).count();
        assert_eq!((count(0), count(1), count(2)), (300, 100, 100));
        let cycled: Vec<u32> = ops.iter().filter(|o| o.stmt == 1).map(|o| o.arg).collect();
        let mut distinct = cycled.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            cycled.len(),
            "no constant twice in 100 uses"
        );
        assert!(
            cycled.iter().all(|a| a % 2 == 1),
            "caller 1 walks odd residues"
        );
        assert!(ops.iter().filter(|o| o.stmt == 0).all(|o| o.arg < 48));
    }

    #[test]
    fn statement_and_workload_names_are_plain() {
        let plain = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        assert!(WORKLOAD_NAMES.iter().all(|w| plain(w)));
        assert!(Class::ALL.iter().all(|c| plain(c.name())));
        assert_eq!(
            [
                PatternDense::NAME,
                PatternSparse::NAME,
                Analytics::NAME,
                ServeAdhoc::NAME,
                ClusterScatter::NAME
            ],
            WORKLOAD_NAMES
        );
    }
}
