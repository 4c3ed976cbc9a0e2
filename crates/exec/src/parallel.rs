//! The parallel level-0 runtime: distribute the outermost Generic-Join
//! loop across worker threads.
//!
//! The level-0 merged values are computed **once** by the caller through
//! the same prologue the serial path uses ([`crate::gj::fill_level`]);
//! this module only decides which worker binds which values. Every
//! worker pulls contiguous chunks of the level-0 range off a shared
//! atomic cursor; the [`Scheduler`](crate::Scheduler) picks only the
//! chunk size ([`crate::Config::effective_morsel`]):
//!
//! * [`Scheduler::Morsel`](crate::Scheduler::Morsel) (the default): ~8
//!   morsels per worker. A power-law hub whose subtree dominates the
//!   work stalls only its own morsel — idle workers keep draining the
//!   rest of the range, which is the standard cure for partition skew in
//!   in-memory engines (morsel-driven parallelism).
//! * [`Scheduler::Static`](crate::Scheduler::Static): `threads` chunks
//!   of ⌈len/threads⌉ values — the paper's original contiguous
//!   partition, kept as the skew-blind ablation baseline: the worker
//!   holding the hub's chunk straggles. (A worker that finishes its chunk
//!   before another worker starts may claim that chunk too.)
//!
//! Each worker forks the context (tries stay shared behind `Arc`; scratch
//! is per-worker) and emits into **one private [`Sink`] per claimed
//! chunk**; afterwards the chunk sinks merge in range order (scalars by
//! `⊕`, everything else by appending or replaying its contributions), and
//! the workers' profiling tallies fold back — nothing else flows back.
//! The chunk→value mapping is fixed (only the chunk→worker mapping
//! races), so the final `⊕` fold order is bit-deterministic run-to-run
//! even for non-associative `f64` sums, not just for exact integer
//! aggregates — and for a keyed group-by it is the serial order outright.
//! Within one worker, values still arrive in ascending order (the cursor
//! only moves forward), so the monotone rank hints stay effective.

use crate::gj::{child_sample, step_value};
use crate::program::{GjContext, JoinProgram};
use crate::sink::Sink;
use eh_obs::Span;
use eh_semiring::Carrier;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Run level 0 over `candidates[range]` with `threads` workers and fold
/// the per-chunk sinks into `sink`. `candidates` is the whole level-0
/// list, so a value's index in it is its candidate position (what
/// [`step_value`] binds by); `range` is this process's slice of it.
/// `ctx` is the post-prologue context the workers fork from; its cursors
/// are not advanced, but each worker's profiling tally is merged back
/// into it and, when profiling, each worker's `thread k` span appended.
pub(crate) fn run<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    candidates: &[u32],
    range: Range<usize>,
    base_product: K::T,
    sink: &mut Sink,
    threads: usize,
) {
    // Workers only read the node's sink, to shape their chunk sinks.
    let shape: &Sink = sink;
    let morsel = ctx.cfg.effective_morsel(range.len(), threads);
    let cursor = AtomicUsize::new(range.start);
    let mut workers: Vec<GjContext<'_>> = (0..threads).map(|_| ctx.fork()).collect();
    let mut chunks = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .drain(..)
            .enumerate()
            .map(|(k, mut local)| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let clock = local.origin.map(|origin| (origin, Instant::now()));
                    // One sink per claimed chunk, tagged with its range
                    // start: merging in range order below makes the ⊕
                    // fold order independent of which worker won each
                    // chunk.
                    let mut claimed: Vec<(usize, Sink)> = Vec::new();
                    let mut seen = 0u64;
                    loop {
                        let start = cursor.fetch_add(morsel, Ordering::Relaxed);
                        if start >= range.end {
                            break;
                        }
                        let end = (start + morsel).min(range.end);
                        seen += (end - start) as u64;
                        let mut chunk_sink = shape.chunk(program.op);
                        for idx in start..end {
                            let v = candidates[idx];
                            step_value::<K>(
                                program,
                                &mut local,
                                0,
                                v,
                                idx,
                                base_product,
                                &mut chunk_sink,
                                child_sample(v, idx),
                            );
                        }
                        claimed.push((start, chunk_sink));
                    }
                    let thread = thread_span(k, clock, claimed.len(), seen);
                    (claimed, local.take_tally(), thread)
                })
            })
            .collect();
        let mut chunks = Vec::new();
        for h in handles {
            let (claimed, tally, thread) = h.join().expect("worker thread panicked");
            ctx.merge_tally(&tally);
            ctx.threads.extend(thread);
            chunks.extend(claimed);
        }
        chunks
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    // Merge the chunk sinks in range order.
    let merge_started = ctx.cfg.profile.then(Instant::now);
    for (_, local) in chunks {
        sink.merge::<K>(local);
    }
    if let Some(t) = merge_started {
        ctx.sink_merge_ns += t.elapsed().as_nanos() as u64;
    }
}

/// Worker `k`'s span when profiling (`clock` holds the query's start and
/// the worker's): its busy time, the morsels it claimed and the level-0
/// values it processed.
fn thread_span(
    k: usize,
    clock: Option<(Instant, Instant)>,
    morsels: usize,
    seen: u64,
) -> Option<Span> {
    clock.map(|(origin, started)| {
        Span::timed(format!("thread {k}"), origin, started, Instant::now())
            .with_value("morsels", morsels as u64)
            .with_value("values", seen)
    })
}

#[cfg(test)]
mod tests {
    use crate::config::{Config, Scheduler};
    use crate::executor::execute_rule;
    use crate::storage::{MemCatalog, Relation};
    use eh_query::parse_rule;
    use eh_semiring::AggOp;
    use eh_trie::TupleBuffer;

    /// A skewed graph: one hub connected to everything plus a sparse tail.
    fn skewed_catalog() -> MemCatalog {
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for i in 1..40u32 {
            rows.push(vec![0, i]);
            rows.push(vec![i, 0]);
        }
        for i in 1..39u32 {
            rows.push(vec![i, i + 1]);
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(TupleBuffer::from_rows(2, &rows), AggOp::Sum),
        );
        cat
    }

    #[test]
    fn morsel_and_static_match_serial() {
        let cat = skewed_catalog();
        for q in [
            "T(x,y,z) :- E(x,y),E(y,z),E(x,z).",
            "C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.",
            "D(x;w:long) :- E(x,y),E(y,z); w=<<COUNT(*)>>.",
        ] {
            let rule = parse_rule(q).unwrap();
            let serial = execute_rule(&rule, &cat, &Config::default())
                .unwrap()
                .relation;
            for scheduler in [Scheduler::Morsel, Scheduler::Static] {
                for threads in [2usize, 3, 8] {
                    let cfg = Config::default()
                        .with_threads(threads)
                        .with_scheduler(scheduler);
                    let par = execute_rule(&rule, &cat, &cfg).unwrap().relation;
                    assert_eq!(serial.rows(), par.rows(), "{q} {scheduler:?} x{threads}");
                    assert_eq!(
                        serial.annotations(),
                        par.annotations(),
                        "{q} {scheduler:?} x{threads}"
                    );
                    assert_eq!(
                        serial.scalar(),
                        par.scalar(),
                        "{q} {scheduler:?} x{threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn morsel_float_sums_are_bit_deterministic() {
        // f64 ⊕ is not associative, so determinism requires the fold
        // order to be fixed: per-chunk sinks merged in range order make
        // the result depend only on the chunk partition (thread count ×
        // scheduler), not on which worker won which chunk.
        use eh_semiring::{AggOp, DynValue};
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let mut weights: Vec<DynValue> = Vec::new();
        for i in 1..30u32 {
            for (s, d) in [(0, i), (i, 0), (i, (i % 7) + 30)] {
                rows.push(vec![s, d]);
                weights.push(DynValue::F64(1.0 / (rows.len() as f64)));
            }
        }
        let mut cat = MemCatalog::new();
        cat.insert(
            "W",
            Relation::from_buffer(
                TupleBuffer::from_annotated_rows(2, &rows, weights),
                AggOp::Sum,
            ),
        );
        let rule = parse_rule("S(;w:float) :- W(x,y),W(y,z); w=<<SUM(z)>>.").unwrap();
        for scheduler in [Scheduler::Morsel, Scheduler::Static] {
            let cfg = Config::default().with_threads(4).with_scheduler(scheduler);
            let first = execute_rule(&rule, &cat, &cfg).unwrap().relation;
            for _ in 0..5 {
                let again = execute_rule(&rule, &cat, &cfg).unwrap().relation;
                assert_eq!(first.scalar(), again.scalar(), "{scheduler:?} run-to-run");
            }
        }
    }

    #[test]
    fn more_threads_than_values_is_fine() {
        let mut cat = MemCatalog::new();
        cat.insert(
            "E",
            Relation::from_buffer(
                TupleBuffer::from_rows(2, &[vec![0, 1], vec![1, 2]]),
                AggOp::Sum,
            ),
        );
        let rule = parse_rule("P(x,z) :- E(x,y),E(y,z).").unwrap();
        let serial = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        for scheduler in [Scheduler::Morsel, Scheduler::Static] {
            let cfg = Config::default().with_threads(16).with_scheduler(scheduler);
            let par = execute_rule(&rule, &cat, &cfg).unwrap().relation;
            assert_eq!(serial.rows(), par.rows(), "{scheduler:?}");
        }
    }
}
