//! The parallel level-0 runtime: distribute the outermost Generic-Join
//! loop across worker threads.
//!
//! The level-0 merged values are computed **once** by the caller through
//! the same prologue the serial path uses ([`crate::gj::fill_level`]);
//! this module only decides which worker binds which values:
//!
//! * [`Scheduler::Morsel`] (the default): workers pull fixed-size chunks
//!   off a shared atomic cursor. A power-law hub whose subtree dominates
//!   the work stalls only its own morsel — idle workers keep draining the
//!   rest of the range, which is the standard cure for partition skew in
//!   in-memory engines (morsel-driven parallelism).
//! * [`Scheduler::Static`]: one contiguous range per worker, fixed up
//!   front — the paper's original strategy, kept as the skew-blind
//!   ablation baseline.
//!
//! Each worker forks the context (tries stay shared behind `Arc`; scratch
//! is per-worker) and emits into private [`Sink`]s; sinks merge with `⊕`
//! afterwards, and so do the workers' profiling tallies — nothing else
//! flows back. Under the morsel scheduler workers keep **one sink per
//! claimed chunk** and the chunks merge in range order: the chunk→value
//! mapping is fixed (only the chunk→worker mapping races), so the final
//! `⊕` fold order is bit-deterministic run-to-run even for
//! non-associative `f64` sums, not just for exact integer aggregates.
//! Within one worker, values still arrive in ascending order (the cursor
//! only moves forward), so the monotone rank hints stay effective.

use crate::config::Scheduler;
use crate::gj::{child_sample, step_value};
use crate::program::{GjContext, JoinProgram};
use crate::sink::Sink;
use eh_obs::WorkerProfile;
use eh_semiring::Carrier;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Run level 0 over `candidates[range]` with `threads` workers and fold
/// the per-worker sinks into `sink`. `candidates` is the whole level-0
/// list, so a value's index in it is its candidate position (what
/// [`step_value`] binds by); `range` is this process's slice of it.
/// `ctx` is the post-prologue context the workers fork from; its cursors
/// are not advanced, but each worker's profiling tally is merged back
/// into it.
pub(crate) fn run<K: Carrier>(
    program: &JoinProgram,
    ctx: &mut GjContext<'_>,
    candidates: &[u32],
    range: Range<usize>,
    base_product: K::T,
    sink: &mut Sink,
    threads: usize,
) {
    let keys = program.output_levels.len();
    // Workers only read the node's sink, to shape their chunk sinks.
    let shape: &Sink = sink;
    let locals: Vec<Sink> = match ctx.cfg.scheduler {
        Scheduler::Morsel => {
            let morsel = ctx.cfg.effective_morsel(range.len(), threads);
            let profiling = ctx.cfg.profile;
            let cursor = AtomicUsize::new(range.start);
            let mut workers: Vec<GjContext<'_>> = (0..threads).map(|_| ctx.fork()).collect();
            let mut chunks = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .drain(..)
                    .map(|mut local| {
                        let cursor = &cursor;
                        scope.spawn(move || {
                            // One sink per claimed chunk, tagged with its
                            // range start: merging in range order below
                            // makes the ⊕ fold order independent of which
                            // worker won each chunk.
                            let mut claimed: Vec<(usize, Sink)> = Vec::new();
                            let mut seen = 0u64;
                            loop {
                                let start = cursor.fetch_add(morsel, Ordering::Relaxed);
                                if start >= range.end {
                                    break;
                                }
                                let end = (start + morsel).min(range.end);
                                seen += (end - start) as u64;
                                let mut chunk_sink = shape.chunk(keys, program.op);
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
                            (claimed, local.take_tally(), seen)
                        })
                    })
                    .collect();
                let mut chunks = Vec::new();
                for h in handles {
                    let (claimed, tally, seen) = h.join().expect("worker thread panicked");
                    ctx.merge_tally(&tally);
                    if profiling {
                        ctx.worker_profiles.push(WorkerProfile {
                            morsels: claimed.len() as u64,
                            values: seen,
                        });
                    }
                    chunks.extend(claimed);
                }
                chunks
            });
            chunks.sort_unstable_by_key(|&(start, _)| start);
            chunks.into_iter().map(|(_, s)| s).collect()
        }
        Scheduler::Static => {
            let chunk = range.len().div_ceil(threads);
            let ctx_ref = &*ctx;
            let (sinks, tallies) = std::thread::scope(|scope| {
                let handles: Vec<_> = range
                    .clone()
                    .step_by(chunk)
                    .map(|start| {
                        let end = (start + chunk).min(range.end);
                        let mut local = ctx_ref.fork();
                        scope.spawn(move || {
                            let mut local_sink = shape.chunk(keys, program.op);
                            for idx in start..end {
                                let v = candidates[idx];
                                step_value::<K>(
                                    program,
                                    &mut local,
                                    0,
                                    v,
                                    idx,
                                    base_product,
                                    &mut local_sink,
                                    child_sample(v, idx),
                                );
                            }
                            (local_sink, local.take_tally(), (end - start) as u64)
                        })
                    })
                    .collect();
                let mut sinks = Vec::new();
                let mut tallies = Vec::new();
                for h in handles {
                    let (s, t, seen) = h.join().expect("worker thread panicked");
                    sinks.push(s);
                    tallies.push((t, seen));
                }
                (sinks, tallies)
            });
            for (t, seen) in &tallies {
                ctx.merge_tally(t);
                if ctx.cfg.profile {
                    // Static partitioning: one contiguous chunk per worker.
                    ctx.worker_profiles.push(WorkerProfile {
                        morsels: 1,
                        values: *seen,
                    });
                }
            }
            sinks
        }
    };
    // Merge per-thread sinks.
    let merge_started = if ctx.cfg.profile {
        Some(Instant::now())
    } else {
        None
    };
    for local in locals {
        sink.merge::<K>(local);
    }
    if let Some(t) = merge_started {
        ctx.sink_merge_ns += t.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Config, Scheduler};
    use crate::executor::execute_rule;
    use crate::storage::{MemCatalog, Relation};
    use eh_query::parse_rule;

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
        cat.insert("E", Relation::from_rows(2, rows));
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
    fn tiny_morsels_still_correct() {
        // Morsel size 1 maximizes cursor contention and chunk churn; the
        // result must not change.
        let cat = skewed_catalog();
        let rule = parse_rule("C(;w:long) :- E(x,y),E(y,z),E(x,z); w=<<COUNT(*)>>.").unwrap();
        let serial = execute_rule(&rule, &cat, &Config::default())
            .unwrap()
            .relation;
        for morsel in [1usize, 2, 7, 1000] {
            let cfg = Config::default().with_threads(4).with_morsel(morsel);
            let par = execute_rule(&rule, &cat, &cfg).unwrap().relation;
            assert_eq!(serial.scalar(), par.scalar(), "morsel={morsel}");
        }
    }

    #[test]
    fn morsel_float_sums_are_bit_deterministic() {
        // f64 ⊕ is not associative, so determinism requires the fold
        // order to be fixed: per-chunk sinks merged in range order make
        // the result depend only on the morsel size, not on which worker
        // won which chunk or on the thread count.
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
            Relation::from_annotated_rows(2, rows, weights, AggOp::Sum),
        );
        let rule = parse_rule("S(;w:float) :- W(x,y),W(y,z); w=<<SUM(z)>>.").unwrap();
        let pinned = |threads: usize| {
            Config::default()
                .with_threads(threads)
                .with_morsel(4)
                .with_scheduler(Scheduler::Morsel)
        };
        let first = execute_rule(&rule, &cat, &pinned(4)).unwrap().relation;
        for _ in 0..5 {
            let again = execute_rule(&rule, &cat, &pinned(4)).unwrap().relation;
            assert_eq!(first.scalar(), again.scalar(), "run-to-run");
        }
        // Same morsel size, different worker count: same chunk partition,
        // same fold order, bit-identical result.
        let other = execute_rule(&rule, &cat, &pinned(2)).unwrap().relation;
        assert_eq!(first.scalar(), other.scalar(), "across thread counts");
    }

    #[test]
    fn more_threads_than_values_is_fine() {
        let mut cat = MemCatalog::new();
        cat.insert("E", Relation::from_rows(2, vec![vec![0, 1], vec![1, 2]]));
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
