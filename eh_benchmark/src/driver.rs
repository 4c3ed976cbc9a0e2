//! One run of one workload: repeated set-up, warm-up, the timed closed
//! loop (tracing off) or the traced pass plus the layer probes.

use crate::metrics::{Metric, RunResult};
use crate::oracle::Digest;
use crate::probes;
use crate::stats::{highest_supported_percentile, median, percentile, REPORTED_PERCENTILES};
use crate::trace::{layer_shares, Recorder, LAYERS};
use crate::workloads::{schedule, Caller, Class, Expected, Op, Sizes, Stmt, Workload};
use std::time::{Duration, Instant};

/// Operations scheduled per caller; the loop wraps if it ever gets there.
const SCHEDULE_LEN: usize = 1 << 16;
/// Latency samples a caller can record without allocating in the loop.
const SAMPLE_CAPACITY: usize = 1 << 18;
/// A caller that keeps failing (a dead connection) stops instead of
/// spinning through the window.
const MAX_CONSECUTIVE_ERRORS: usize = 100;
/// Rounds of the schedule replayed untraced and traced.
const TRACE_ROUNDS: usize = 20;
/// Share of each statement's executions that is measured: the fastest
/// (see [`quiet_operations`]).
const QUIET_SHARE: f64 = 0.25;
/// `setup_s` is the median of at least `MIN_SETUPS` set-ups, and of more —
/// up to `MAX_SETUPS` — until `SETUP_BUDGET_S` of set-up time backs it.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.6;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sizes: &'static Sizes,
}

#[derive(Clone, Copy)]
pub struct Sample {
    stmt: u16,
    ok: bool,
    ns: u64,
}

/// What one caller's loop produced.
struct LoopOutcome {
    samples: Vec<Sample>,
    first_error: Option<String>,
}

/// The closed loop: the next request is sent only after the previous
/// answer was read and checked. Nothing in it allocates: `samples` was
/// sized before the loop and recording stops at its capacity.
fn closed_loop(
    caller: &mut dyn Caller,
    ops: &[Op],
    cursor: &mut usize,
    expected: &Expected,
    window: Duration,
    samples: &mut Vec<Sample>,
) -> (Duration, Option<String>) {
    let start = Instant::now();
    let mut first_error = None;
    let mut consecutive = 0;
    let mut end = start;
    while end.duration_since(start) < window {
        let op = ops[*cursor % ops.len()];
        *cursor += 1;
        let (ok, ns) = match caller.call(op) {
            Ok((digest, ns)) if digest == expected[op.stmt as usize][op.arg as usize] => {
                consecutive = 0;
                (true, ns)
            }
            outcome => {
                consecutive += 1;
                if first_error.is_none() {
                    first_error = Some(match outcome {
                        Ok((d, _)) => format!("statement {} returned {d:?}", op.stmt),
                        Err(e) => e,
                    });
                }
                (false, 0)
            }
        };
        end = Instant::now();
        if samples.len() < samples.capacity() {
            samples.push(Sample {
                stmt: op.stmt,
                ok,
                ns,
            });
        }
        if consecutive >= MAX_CONSECUTIVE_ERRORS {
            break;
        }
    }
    (end.duration_since(start), first_error)
}

/// Run every caller's loop for `window`, each on its own thread when
/// there is more than one (never more than two: the box has two cores).
fn run_callers(
    callers: Vec<&mut dyn Caller>,
    schedules: &[Vec<Op>],
    cursors: &mut [usize],
    expected: &Expected,
    window: Duration,
) -> Vec<LoopOutcome> {
    assert!(callers.len() <= 2, "at most two closed-loop callers");
    let mut buffers: Vec<Vec<Sample>> = callers
        .iter()
        .map(|_| Vec::with_capacity(SAMPLE_CAPACITY))
        .collect();
    let mut timings: Vec<(Duration, Option<String>)> = Vec::new();
    if callers.len() == 1 {
        let caller = callers.into_iter().next().expect("one caller");
        timings.push(closed_loop(
            caller,
            &schedules[0],
            &mut cursors[0],
            expected,
            window,
            &mut buffers[0],
        ));
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .into_iter()
                .zip(schedules)
                .zip(cursors.iter_mut())
                .zip(buffers.iter_mut())
                .map(|(((caller, ops), cursor), buf)| {
                    scope.spawn(move || closed_loop(caller, ops, cursor, expected, window, buf))
                })
                .collect();
            for h in handles {
                timings.push(h.join().expect("a caller thread panicked"));
            }
        });
    }
    buffers
        .into_iter()
        .zip(timings)
        .map(|(samples, (_, first_error))| LoopOutcome {
            samples,
            first_error,
        })
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Set the program up, check every first answer, return the live state.
fn verified_setup<W: Workload>(
    inputs: &W::Inputs,
    profile: bool,
) -> Result<(W, Expected, f64), String> {
    let t = Instant::now();
    let (live, firsts) = W::setup(inputs, profile)?;
    let secs = t.elapsed().as_secs_f64();
    match W::verify(inputs, &firsts) {
        Ok(expected) => Ok((live, expected, secs)),
        Err(e) => {
            live.teardown();
            Err(e)
        }
    }
}

pub fn run<W: Workload>(args: &RunArgs) -> RunResult {
    let mut result = RunResult::new(W::NAME, args.seed, args.trace);
    let t = Instant::now();
    let inputs = W::generate(args.seed, args.sizes);
    let gen_s = t.elapsed().as_secs_f64();
    let outcome = if args.trace {
        traced_run::<W>(args, &inputs, gen_s, &mut result)
    } else {
        timed_run::<W>(args, &inputs, &mut result)
    };
    if let Err(e) = outcome {
        result.fail(e);
    }
    if !args.trace {
        result.info.push(Metric::new("bench.gen_s", gen_s, "s"));
    }
    result
}

/// Latencies of the quiet operations of a window, ascending.
///
/// On a shared 2-core box other tenants preempt the program in bursts of
/// milliseconds whose density changes from minute to minute — they only
/// ever make an operation slower. So of each statement's verified
/// executions only the fastest [`QUIET_SHARE`] are measured: the ones the
/// box left alone. Every statement keeps its share of the mix. A slower
/// program slows its fastest executions too; a disturbed box does not.
fn quiet_operations(samples: &[Sample], n_stmts: usize) -> Vec<u64> {
    let mut by_stmt: Vec<Vec<u64>> = vec![Vec::new(); n_stmts];
    for s in samples.iter().filter(|s| s.ok) {
        by_stmt[s.stmt as usize].push(s.ns);
    }
    let mut quiet = Vec::new();
    for mut latencies in by_stmt {
        latencies.sort_unstable();
        let keep = (latencies.len() as f64 * QUIET_SHARE).ceil() as usize;
        quiet.extend_from_slice(&latencies[..keep]);
    }
    quiet.sort_unstable();
    quiet
}

/// Tracing off: set-up, warm-up, the timed window, then the remaining
/// set-ups.
fn timed_run<W: Workload>(
    args: &RunArgs,
    inputs: &W::Inputs,
    result: &mut RunResult,
) -> Result<(), String> {
    let stmts = W::stmts(inputs);
    let (mut live, expected, first_setup) = verified_setup::<W>(inputs, false)?;
    let n_callers = live.callers().len();
    let schedules: Vec<Vec<Op>> = (0..n_callers)
        .map(|c| schedule(&stmts, args.seed, c, n_callers, SCHEDULE_LEN))
        .collect();
    let mut cursors = vec![0usize; n_callers];

    let warm = Duration::from_secs_f64((args.seconds * 0.15).clamp(0.2, 1.5));
    run_callers(live.callers(), &schedules, &mut cursors, &expected, warm);
    let window = Duration::from_secs_f64(args.seconds);
    let outcomes = run_callers(live.callers(), &schedules, &mut cursors, &expected, window);
    // Peak memory is read before the repeated set-ups below: they churn
    // the allocator and would make the peak a matter of luck.
    let rss = crate::env::rss_peak_mb();
    live.teardown();

    // `setup_s` is a median: one set-up is a few dozen milliseconds, so it
    // is repeated until enough of them (and enough time) back the number.
    let mut setups = vec![first_setup];
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (live, _, secs) = verified_setup::<W>(inputs, false)?;
        live.teardown();
        setups.push(secs);
    }

    let samples: Vec<Sample> = outcomes
        .iter()
        .flat_map(|o| o.samples.iter().copied())
        .collect();
    result.attempted = samples.len() as u64;
    result.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    if let Some(e) = outcomes.iter().find_map(|o| o.first_error.clone()) {
        result.fail(e);
    }
    let quiet = quiet_operations(&samples, stmts.len());
    let kept = quiet.len();
    if kept == 0 {
        return Err("no operation completed in the window".into());
    }
    // A percentile is a measurement only with ten samples beyond it.
    let top = *REPORTED_PERCENTILES.last().expect("non-empty");
    if !args.smoke && highest_supported_percentile(kept, &REPORTED_PERCENTILES) != Some(top) {
        result.fail(format!(
            "{kept} operations are too few to report p{top}: lengthen --seconds"
        ));
    }
    result
        .metrics
        .push(Metric::new("setup_s", median(&setups), "s").n(setups.len()));
    // Closed loops: each caller completes one operation per latency.
    let busy_s = quiet.iter().sum::<u64>() as f64 / 1e9;
    result
        .metrics
        .push(Metric::new("ops_per_s", (n_callers * kept) as f64 / busy_s, "1/s").n(kept));
    for p in REPORTED_PERCENTILES {
        let value = ms(percentile(&quiet, p));
        result
            .metrics
            .push(Metric::new(format!("op_ms.p{p}"), value, "ms").n(kept));
    }
    result.metrics.push(Metric::new("rss_peak_mb", rss, "MB"));

    // Informative, over every verified operation of the window: what a
    // user of this box saw, disturbances included.
    let mut all: Vec<u64> = samples.iter().filter(|s| s.ok).map(|s| s.ns).collect();
    all.sort_unstable();
    let per_s = all.len() as f64 / window.as_secs_f64();
    result
        .info
        .push(Metric::new("window.ops_per_s", per_s, "1/s").n(all.len()));
    for p in REPORTED_PERCENTILES {
        let name = format!("window.op_ms.p{p}");
        result
            .info
            .push(Metric::new(name, ms(percentile(&all, p)), "ms").n(all.len()));
    }
    let p50_of = |keep: &dyn Fn(&Stmt) -> bool| -> Option<(f64, usize)> {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| s.ok && keep(&stmts[s.stmt as usize]))
            .map(|s| s.ns)
            .collect();
        v.sort_unstable();
        (!v.is_empty()).then(|| (ms(percentile(&v, 50)), v.len()))
    };
    for class in Class::ALL {
        if let Some((p50, n)) = p50_of(&|s| s.class == class) {
            let name = format!("{}_ms.p50", class.name());
            result.info.push(Metric::new(name, p50, "ms").n(n));
        }
    }
    for s in &stmts {
        if let Some((p50, n)) = p50_of(&|t| t.name == s.name) {
            let name = format!("stmt.{}_ms.p50", s.name);
            result.info.push(Metric::new(name, p50, "ms").n(n));
        }
    }
    let fail_ratio = result.failed as f64 / result.attempted.max(1) as f64;
    result
        .info
        .push(Metric::new("fail_ratio", fail_ratio, "ratio").n(samples.len()));
    Ok(())
}

/// One pass over `rounds` schedule rounds on the first caller; returns
/// each round's time (the sum of its operations' times).
fn replay_rounds(
    caller: &mut dyn Caller,
    ops: &[Op],
    round_len: usize,
    rounds: usize,
    expected: &Expected,
    mut rec: Option<&mut Recorder>,
) -> Result<Vec<f64>, String> {
    let mut totals = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut total = 0u64;
        for &op in &ops[round * round_len..(round + 1) * round_len] {
            let digest = match rec.as_deref_mut() {
                Some(rec) => {
                    let before = rec.spans.len();
                    let d = caller.traced(op, rec)?;
                    total += rec.spans[before].duration();
                    d
                }
                None => {
                    let (d, ns) = caller.call(op)?;
                    total += ns;
                    d
                }
            };
            check_digest(op, digest, expected)?;
        }
        totals.push(total as f64);
    }
    Ok(totals)
}

fn check_digest(op: Op, got: Digest, expected: &Expected) -> Result<(), String> {
    let want = expected[op.stmt as usize][op.arg as usize];
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "statement {} returned {got:?}, expected {want:?}",
            op.stmt
        ))
    }
}

/// Tracing on: the same rounds untraced and traced, the spans' layer
/// shares, then the layer probes.
fn traced_run<W: Workload>(
    args: &RunArgs,
    inputs: &W::Inputs,
    gen_s: f64,
    result: &mut RunResult,
) -> Result<(), String> {
    let stmts = W::stmts(inputs);
    let round_len: usize = stmts.iter().map(|s| s.weight as usize).sum();
    let rounds = if args.smoke { 3 } else { TRACE_ROUNDS };
    // One warm-up round, then the measured ones.
    let n_ops = round_len * (rounds + 1);

    // Two live copies of the program, one with the engine's profiling on.
    // The same rounds run on both in turns — untraced, traced, untraced, …
    // — so that drift of the box lands on both sides alike.
    let (mut plain, expected, _) = verified_setup::<W>(inputs, false)?;
    let (mut profiled, _) = match verified_setup::<W>(inputs, true) {
        Ok((live, expected, _)) => (live, expected),
        Err(e) => {
            plain.teardown();
            return Err(e);
        }
    };
    let n_callers = plain.callers().len();
    let ops = schedule(&stmts, args.seed, 0, n_callers, n_ops);
    let mut rec = Recorder::new();
    let replayed = (|| {
        let (mut plain_callers, mut profiled_callers) = (plain.callers(), profiled.callers());
        let (a, b) = (&mut *plain_callers[0], &mut *profiled_callers[0]);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for (round, ops) in ops.chunks(round_len).enumerate() {
            let u = replay_rounds(a, ops, round_len, 1, &expected, None)?;
            let t = replay_rounds(b, ops, round_len, 1, &expected, Some(&mut rec))?;
            // Round 0 warms both sides up.
            if round > 0 {
                untraced.extend(u);
                traced.extend(t);
            }
        }
        Ok::<_, String>((untraced, traced))
    })();
    plain.teardown();
    profiled.teardown();
    let (untraced, traced) = replayed?;

    result.attempted = (2 * (rounds + 1) * round_len) as u64;
    let shares = layer_shares(&rec.spans);
    for (layer, share) in LAYERS.iter().zip(shares) {
        result
            .metrics
            .push(Metric::new(format!("share.{layer}_pct"), share, "%"));
    }
    let u = median(&untraced);
    let extra: Vec<f64> = traced.iter().zip(&untraced).map(|(t, u)| t - u).collect();
    result
        .metrics
        .push(Metric::new("trace.overhead_pct", median(&extra) * 100.0 / u, "%").n(rounds));
    result
        .info
        .push(Metric::new("trace.round_ms", u / 1e6, "ms").n(rounds));
    result
        .info
        .push(Metric::new("trace.spans", rec.spans.len() as f64, "count"));
    result.trace_jsonl = rec.to_jsonl(W::NAME);

    result.metrics.extend(probes::all(args)?);
    result.metrics.push(Metric::new("bench.gen_s", gen_s, "s"));
    result.metrics.push(Metric::new(
        "bench.loop_overhead_ns",
        loop_overhead_ns(),
        "ns",
    ));
    Ok(())
}

/// What the closed loop itself costs per operation, with a caller that
/// does nothing: the floor under every latency this benchmark reports.
fn loop_overhead_ns() -> f64 {
    struct Idle;
    impl Caller for Idle {
        fn call(&mut self, _: Op) -> Result<(Digest, u64), String> {
            Ok((Digest::default(), 0))
        }
        fn traced(&mut self, _: Op, _: &mut Recorder) -> Result<Digest, String> {
            Ok(Digest::default())
        }
    }
    let ops = [Op { stmt: 0, arg: 0 }];
    let expected = vec![vec![Digest::default()]];
    let mut samples = Vec::with_capacity(SAMPLE_CAPACITY);
    let mut cursor = 0;
    let window = Duration::from_millis(20);
    let (elapsed, _) = closed_loop(
        &mut Idle,
        &ops,
        &mut cursor,
        &expected,
        window,
        &mut samples,
    );
    elapsed.as_nanos() as f64 / cursor.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every operation with its statement number, after `delay`.
    struct Echo;
    impl Caller for Echo {
        fn call(&mut self, op: Op) -> Result<(Digest, u64), String> {
            match op.stmt {
                2 => Err("refused".into()),
                s => Ok((Digest::scalar(s as u64), 1_000 + s as u64)),
            }
        }
        fn traced(&mut self, op: Op, rec: &mut Recorder) -> Result<Digest, String> {
            let req = rec.request();
            rec.close(req);
            self.call(op).map(|(d, _)| d)
        }
    }

    fn ops(stmts: &[u16]) -> Vec<Op> {
        stmts.iter().map(|&stmt| Op { stmt, arg: 0 }).collect()
    }

    #[test]
    fn wrong_answers_and_errors_are_counted_as_failed_operations() {
        // Statement 1's expected answer is deliberately wrong; 2 errors.
        let expected = vec![
            vec![Digest::scalar(0)],
            vec![Digest::scalar(99)],
            vec![Digest::scalar(2)],
        ];
        let mut samples = Vec::with_capacity(64);
        let mut cursor = 0;
        let (_, first_error) = closed_loop(
            &mut Echo,
            &ops(&[0, 1, 2, 0]),
            &mut cursor,
            &expected,
            Duration::from_micros(200),
            &mut samples,
        );
        assert!(cursor >= 4, "the loop wraps around the schedule");
        let failed = samples.iter().filter(|s| !s.ok).count();
        let by_stmt = |s: u16| samples.iter().filter(|x| x.stmt == s).all(|x| x.ok);
        assert!(by_stmt(0) && !by_stmt(1) && !by_stmt(2));
        assert!(failed > 0 && failed < samples.len());
        assert!(first_error.expect("recorded").contains("statement 1"));

        let mut result = RunResult::new("t", 1, false);
        result.attempted = samples.len() as u64;
        result.failed = failed as u64;
        assert!(!result.correct(), "main turns this into a non-zero exit");
    }

    #[test]
    fn only_the_fastest_share_of_each_statement_is_measured() {
        // Statement 0: 8 executions of 1..=8 us; statement 1: 4 of 10..=40
        // us, one of them failed; statement 2 never ran.
        let sample = |stmt: u16, ns: u64, ok: bool| Sample { stmt, ok, ns };
        let mut samples: Vec<Sample> = (1..=8).rev().map(|i| sample(0, i * 1_000, true)).collect();
        samples.extend([10, 20, 30, 40].map(|i| sample(1, i * 1_000, i != 10)));
        assert_eq!(QUIET_SHARE, 0.25);
        // A quarter of 8 is 2; a quarter of the 3 verified is 1 (rounded up,
        // so every statement that ran stays in the mix).
        assert_eq!(quiet_operations(&samples, 3), vec![1_000, 2_000, 20_000]);
        assert!(quiet_operations(&[], 3).is_empty());
    }

    #[test]
    fn the_loop_never_outgrows_its_preallocated_buffer() {
        let expected = vec![vec![Digest::scalar(0)]];
        let mut samples = Vec::with_capacity(8);
        let mut cursor = 0;
        closed_loop(
            &mut Echo,
            &ops(&[0]),
            &mut cursor,
            &expected,
            Duration::from_millis(2),
            &mut samples,
        );
        assert!(cursor > 8);
        assert_eq!((samples.len(), samples.capacity()), (8, 8));
    }

    #[test]
    fn a_dead_caller_stops_the_loop_early() {
        let expected = vec![vec![], vec![], vec![Digest::scalar(2)]];
        let mut samples = Vec::with_capacity(1024);
        let mut cursor = 0;
        let (elapsed, _) = closed_loop(
            &mut Echo,
            &ops(&[2]),
            &mut cursor,
            &expected,
            Duration::from_secs(30),
            &mut samples,
        );
        assert_eq!(cursor, MAX_CONSECUTIVE_ERRORS);
        assert!(elapsed < Duration::from_secs(5));
    }

    #[test]
    fn replayed_rounds_sum_their_operations() {
        let expected = vec![vec![Digest::scalar(0)], vec![Digest::scalar(1)]];
        let schedule = ops(&[0, 1, 0, 1]);
        let totals = replay_rounds(&mut Echo, &schedule, 2, 2, &expected, None).unwrap();
        assert_eq!(totals, vec![2001.0, 2001.0]);
        let wrong = vec![vec![Digest::scalar(0)], vec![Digest::scalar(7)]];
        assert!(replay_rounds(&mut Echo, &schedule, 2, 2, &wrong, None).is_err());
        let mut rec = Recorder::new();
        let traced = replay_rounds(&mut Echo, &schedule, 2, 2, &expected, Some(&mut rec)).unwrap();
        assert_eq!((traced.len(), rec.spans.len()), (2, 4));
    }
}
