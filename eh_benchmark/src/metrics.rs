//! Metric values, a run's result, and how both are printed.

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of samples.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: None,
        }
    }

    pub fn n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run: every
    /// end-to-end metric with tracing off, every per-layer metric with it.
    pub metrics: Vec<Metric>,
    /// Printed and saved, but not part of the contract's result object:
    /// per-class and per-statement medians, sample counts, `fail_ratio`.
    pub info: Vec<Metric>,
    pub errors: Vec<String>,
    pub trace_jsonl: String,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
            errors: Vec::new(),
            trace_jsonl: String::new(),
        }
    }

    /// Record an error or a wrong answer. Either makes the run incorrect
    /// and the command exit non-zero.
    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `workload metric value unit [n=…]`, one line per metric.
    pub fn print_lines(&self) {
        for m in self.metrics.iter().chain(&self.info) {
            let n = m.n.map(|n| format!(" n={n}")).unwrap_or_default();
            println!("{} {} {} {}{}", self.workload, m.name, m.value, m.unit, n);
        }
        for e in &self.errors {
            println!("{} error: {e}", self.workload);
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, false)),
        ])
    }

    /// The saved form (`--out`): the contract object plus what identifies
    /// the run and the informative metrics.
    pub fn saved_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, true)),
            ("info", metrics_json(&self.info, true)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// `name → {value, unit}`; the contract's result object allows exactly
/// those two, the saved form adds the sample count `n`.
fn metrics_json(metrics: &[Metric], with_n: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                if let (true, Some(n)) = (with_n, m.n) {
                    fields.push(("n", Json::Num(n as f64)));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut r = RunResult::new("pattern_dense", 3, false);
        r.attempted = 10;
        r.metrics.push(Metric::new("op_ms.p50", 1.25, "ms").n(10));
        r.info.push(Metric::new("count_ms.p50", 1.25, "ms"));
        r
    }

    #[test]
    fn contract_object_has_exactly_the_four_keys() {
        let j = sample().contract_json();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let m = j.get("metrics").unwrap().get("op_ms.p50").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(m.as_obj().unwrap().len(), 2, "value and unit, nothing else");
        let saved = sample().saved_json();
        let m = saved.get("metrics").unwrap().get("op_ms.p50").unwrap();
        assert_eq!(m.get("n").and_then(Json::as_f64), Some(10.0));
        assert!(j.get("metrics").unwrap().get("count_ms.p50").is_none());
        crate::json::parse(&j.render()).expect("well-formed");
    }

    #[test]
    fn any_error_wrong_answer_or_missing_value_makes_the_run_incorrect() {
        let mut r = sample();
        r.failed = 1;
        assert!(!r.correct());
        let mut r = sample();
        r.fail("boom".into());
        assert!(!r.correct());
        assert_eq!(r.contract_json().get("correct"), Some(&Json::Bool(false)));
        let mut r = sample();
        r.metrics.push(Metric::new("x", f64::NAN, "ms"));
        assert!(!r.correct());
        let mut r = sample();
        r.attempted = 0;
        assert!(!r.correct());
    }
}
