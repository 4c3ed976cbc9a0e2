//! `eh_benchmark`: the yardstick every later performance claim uses.
//!
//! ```text
//! eh_benchmark --workload <name|all> --seed N --seconds S [--trace 0|1]
//!              [--smoke] [--repeat N] [--out FILE]
//! eh_benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! One run builds its inputs from `--seed`, sets the program up (several
//! times: `setup_s` is the median), checks every statement's first answer
//! against an independent oracle, then measures. With `--trace 0` it runs
//! the closed loop for `--seconds` with tracing off and reports the
//! end-to-end metrics; with `--trace 1` it replays the schedule untraced
//! and traced, runs the layer probes, reports the per-layer metrics and
//! writes the spans to `eh_benchmark/out/trace.jsonl`. Without `--trace`
//! it does both. Every metric is printed as `workload metric value unit`;
//! the last line of a run is its result object.
//!
//! The exit code is non-zero if any operation failed or any answer was
//! wrong.

mod api;
mod compare;
mod driver;
mod env;
mod json;
mod metrics;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workloads;

use driver::RunArgs;
use json::Json;
use metrics::RunResult;
use std::process::ExitCode;
use workloads::{
    Analytics, ClusterScatter, PatternDense, PatternSparse, ServeAdhoc, Workload, FULL, SMOKE,
    WORKLOAD_NAMES,
};

struct Cli {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("eh_benchmark: {problem}");
    eprintln!(
        "usage: eh_benchmark --workload <{}|all> --seed N --seconds S [--trace 0|1] \
         [--smoke] [--repeat N] [--out FILE]\n       \
         eh_benchmark compare A.json B.json [--bounds BENCHMARK.json]",
        WORKLOAD_NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--repeat" => {
                cli.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number")?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => cli.out = Some(value()?.clone()),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.workload != "all" && !WORKLOAD_NAMES.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cli.workload));
    }
    Ok(cli)
}

fn run_one(name: &str, args: &RunArgs) -> RunResult {
    match name {
        PatternDense::NAME => driver::run::<PatternDense>(args),
        PatternSparse::NAME => driver::run::<PatternSparse>(args),
        Analytics::NAME => driver::run::<Analytics>(args),
        ServeAdhoc::NAME => driver::run::<ServeAdhoc>(args),
        ClusterScatter::NAME => driver::run::<ClusterScatter>(args),
        other => unreachable!("workload '{other}' was checked at parse time"),
    }
}

fn benchmark(cli: &Cli) -> Result<bool, String> {
    if env::nproc() < 2 {
        return Err(
            "needs at least 2 processors: two workloads run two busy threads, and on one \
             core their numbers would measure the scheduler"
                .into(),
        );
    }
    let environment = env::record(cli.seed);
    println!("# env {}", environment.render());
    let names: Vec<&str> = match cli.workload.as_str() {
        "all" => WORKLOAD_NAMES.to_vec(),
        one => vec![one],
    };
    let passes: Vec<bool> = match cli.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut all_correct = true;
    let mut saved = Vec::new();
    let mut spans = String::new();
    for _ in 0..cli.repeat {
        for name in &names {
            for &trace in &passes {
                let args = RunArgs {
                    seed: cli.seed,
                    seconds: cli.seconds.unwrap_or(if cli.smoke { 1.0 } else { 15.0 }),
                    trace,
                    smoke: cli.smoke,
                    sizes: if cli.smoke { &SMOKE } else { &FULL },
                };
                let result = run_one(name, &args);
                result.print_lines();
                all_correct &= result.correct();
                spans.push_str(&result.trace_jsonl);
                saved.push(result.saved_json());
                // Last, so that a run's final line is its result object.
                println!("{}", result.contract_json().render());
            }
        }
    }
    if !spans.is_empty() {
        let dir = workloads::out_dir();
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(dir.join("trace.jsonl"), spans))
            .map_err(|e| format!("cannot write the trace: {e}"))?;
    }
    if let Some(path) = &cli.out {
        let doc = Json::obj(vec![("env", environment), ("runs", Json::Arr(saved))]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return usage("compare needs two result files");
        };
        let bounds = match args.get(3).map(String::as_str) {
            None => "BENCHMARK.json",
            Some("--bounds") if args.len() == 5 => &args[4],
            Some(_) => return usage("compare takes A.json B.json [--bounds FILE]"),
        };
        return match compare::run(a, b, bounds) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => usage(&e),
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    match benchmark(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("eh_benchmark: an operation failed or an answer was wrong");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("eh_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract this benchmark is run under.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(result: &RunResult) -> Vec<(String, String)> {
        assert!(result.correct(), "{}: {:?}", result.workload, result.errors);
        result
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn plain(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// Every workload, at smoke scale, reports exactly the metrics
    /// `BENCHMARK.json` lists — names, units and order — with tracing off
    /// and on; and every name in the file is within the contract's limits.
    #[test]
    fn every_workload_reports_exactly_what_benchmark_json_lists() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOAD_NAMES);
        let end_to_end = listed(&doc, "end_to_end");
        let per_layer = listed(&doc, "per_layer");
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            assert!(plain(name, "_.-", 64), "metric name {name:?}");
            assert!(plain(unit, "_/%.-", 16), "unit {unit:?} of {name}");
        }
        let mut names: Vec<&String> = end_to_end.iter().chain(&per_layer).map(|m| &m.0).collect();
        names.extend(&workloads);
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");

        for name in WORKLOAD_NAMES {
            for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
                let args = RunArgs {
                    seed: 11,
                    seconds: 0.3,
                    trace,
                    smoke: true,
                    sizes: &SMOKE,
                };
                let result = run_one(name, &args);
                assert_eq!(&reported(&result), want, "{name} --trace {}", trace as u8);
                let line = result.contract_json().render();
                let parsed = json::parse(&line).expect("the result line is JSON");
                assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
                assert!(result.attempted >= 1);
            }
        }
    }

    #[test]
    fn the_command_line_is_checked() {
        let cli = |s: &str| parse_cli(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = cli("--workload serve_adhoc --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve_adhoc", 9, Some(2.5), Some(true))
        );
        assert_eq!(cli("").unwrap().workload, "all");
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--repeat 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(cli(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
