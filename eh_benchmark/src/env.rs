//! The environment a result was measured in, recorded with it.

use crate::json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, when it is a git repository (the driver's
/// checkouts are not).
fn git_commit() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map_or_else(|| head.clone(), |c| c.trim().to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

pub fn record(seed: u64) -> Json {
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = read("/proc/loadavg")
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN);
    Json::obj(vec![
        ("git_commit", Json::str(git_commit())),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu)),
        ("avx2", Json::Bool(avx2())),
        ("rustc", Json::str(rustc_version())),
        ("seed", Json::Num(seed as f64)),
        ("load_average_1m", Json::Num(load)),
    ])
}
