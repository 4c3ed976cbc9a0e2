//! `eh_benchmark compare A.json B.json`: apply the bounds `BENCHMARK.json`
//! fixes, one row per end-to-end metric and workload, and check that the
//! exact-count metrics did not move.

use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound: the
    /// runs cannot tell "unchanged" from "regressed".
    Unresolved,
}

pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Judge B against A: both are the metric's values over repeated runs.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound.bound;
    if wide(a) || wide(b) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive when B is worse.
    let worse_by = if bound.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `(workload, metric) → values`, from a saved result file, for runs with
/// tracing `traced`; `unit` keeps only the metrics of that unit.
fn collect(doc: &Json, traced: bool, unit: Option<&str>) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if run.get("trace") != Some(&Json::Bool(traced)) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if unit.is_some() && m.get("unit").and_then(Json::as_str) != unit {
                continue;
            }
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

fn seeds(doc: &Json) -> Vec<f64> {
    let mut s: Vec<f64> = doc
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| r.get("seed").and_then(Json::as_f64))
        .collect();
    s.sort_by(f64::total_cmp);
    s.dedup();
    s
}

/// Print the comparison; returns whether anything got worse or a count
/// that must repeat did not.
pub fn run(a_path: &str, b_path: &str, bounds_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds_from(&load(bounds_path)?)?;
    let (ea, eb) = (collect(&a, false, None), collect(&b, false, None));
    let mut bad = false;
    println!("workload metric median_a median_b change bound verdict");
    for ((workload, metric), va) in &ea {
        let (Some(vb), Some(bound)) = (
            eb.get(&(workload.clone(), metric.clone())),
            bounds.iter().find(|x| x.name == *metric),
        ) else {
            continue;
        };
        let verdict = judge(va, vb, bound);
        bad |= verdict == Verdict::Worse;
        let (ma, mb) = (median(va), median(vb));
        println!(
            "{workload} {metric} {ma} {mb} {:+.2}% {:.0}% {}",
            (mb - ma) * 100.0 / ma,
            bound.bound * 100.0,
            match verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    // The executor's work counts are exact at a fixed seed: they must be
    // the same in every run of both files, or one side did more work.
    if seeds(&a) == seeds(&b) && seeds(&a).len() == 1 {
        let (ta, tb) = (
            collect(&a, true, Some("count")),
            collect(&b, true, Some("count")),
        );
        for ((workload, metric), va) in &ta {
            let Some(vb) = tb.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let equal = va.iter().chain(vb).all(|v| *v == va[0]);
            bad |= !equal;
            println!(
                "{workload} {metric} {} {} count {}",
                va[0],
                vb[0],
                if equal { "equal" } else { "differs" }
            );
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_ms.p50".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&a, &[10.2, 10.1, 10.3, 10.2, 10.25], &lower(0.05)),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[11.0, 11.1, 10.9, 11.0, 11.05], &lower(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[9.0, 9.1, 8.9, 9.0, 9.05], &lower(0.05)),
            Verdict::Better
        );
        let higher = Bound {
            name: "ops_per_s".into(),
            higher_is_better: true,
            bound: 0.05,
        };
        assert_eq!(
            judge(&a, &[9.0, 9.1, 8.9, 9.0, 9.05], &higher),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.0, 10.0], &lower(0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[10.0], &[10.1], &lower(0.05)),
            Verdict::Same,
            "one run: no spread"
        );
    }

    #[test]
    fn saved_runs_group_by_workload_metric_and_trace() {
        let doc = json::parse(
            r#"{"runs": [
                {"workload": "w", "seed": 1, "trace": false, "metrics": {"m": {"value": 1.5, "unit": "ms"}}},
                {"workload": "w", "seed": 1, "trace": false, "metrics": {"m": {"value": 2.5, "unit": "ms"}}},
                {"workload": "w", "seed": 1, "trace": true, "metrics": {"c": {"value": 7, "unit": "count"}}}
            ]}"#,
        )
        .unwrap();
        let key = |m: &str| ("w".to_string(), m.to_string());
        assert_eq!(collect(&doc, false, None)[&key("m")], vec![1.5, 2.5]);
        assert_eq!(collect(&doc, true, Some("count"))[&key("c")], vec![7.0]);
        assert!(collect(&doc, false, Some("count")).is_empty());
        assert_eq!(seeds(&doc), vec![1.0]);
    }
}
