//! **benchcmp** — compare two `BENCH_*.json` reports and flag regressions.
//!
//! ```text
//! benchcmp baseline.json candidate.json [--threshold 0.10]
//! ```
//!
//! Runs are matched by `label`. For each matched run the throughput
//! metrics (`iops`, `write_bandwidth_mbps`) must not *drop* by more than
//! the threshold, and the cost metrics (latency percentiles, WAF, erase
//! count) must not *rise* by more than the threshold. Exit status:
//!
//! * `0` — no regression beyond the threshold (improvements are fine);
//! * `1` — at least one regression (each is printed);
//! * `2` — usage, I/O, or schema error.
//!
//! The simulator is deterministic, so two runs of the same commit produce
//! byte-identical reports and compare clean at any threshold; CI uses this
//! as a cheap performance-regression gate (see `.github/workflows/ci.yml`).

use std::process::ExitCode;

use esp_core::validate_bench;
use esp_sim::Json;

/// Relative drop in a higher-is-better metric that counts as a regression.
const DEFAULT_THRESHOLD: f64 = 0.10;

/// Metric paths where *larger* is better.
const HIGHER_IS_BETTER: [&str; 2] = ["iops", "write_bandwidth_mbps"];

/// Metric paths where *smaller* is better.
const LOWER_IS_BETTER: [&str; 8] = [
    "latency.all.p50_ns",
    "latency.all.p95_ns",
    "latency.all.p99_ns",
    "latency.all.p999_ns",
    "latency.read.p99_ns",
    "latency.write.p99_ns",
    "waf.total",
    "erases",
];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    validate_bench(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

fn runs(doc: &Json) -> Vec<(String, &Json)> {
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Vec::new();
    };
    runs.iter()
        .filter_map(|r| {
            r.get("label")
                .and_then(Json::as_str)
                .map(|l| (l.to_string(), r))
        })
        .collect()
}

struct Regression {
    label: String,
    metric: &'static str,
    base: f64,
    cand: f64,
    change: f64,
}

/// Relative change of `cand` against `base`, oriented so positive =
/// worse. `None` when the baseline is zero (nothing to be relative to) —
/// unless the candidate became nonzero latency/WAF from a zero baseline,
/// which still compares clean: a threshold on 0 is meaningless.
fn worsening(base: f64, cand: f64, lower_is_better: bool) -> Option<f64> {
    if base == 0.0 {
        return None;
    }
    let delta = (cand - base) / base;
    Some(if lower_is_better { delta } else { -delta })
}

fn compare(base: &Json, cand: &Json, threshold: f64) -> Vec<Regression> {
    let base_runs = runs(base);
    let cand_runs = runs(cand);
    let mut regressions = Vec::new();
    for (label, b) in &base_runs {
        let Some((_, c)) = cand_runs.iter().find(|(l, _)| l == label) else {
            println!("~ {label}: missing from candidate, skipped");
            continue;
        };
        let checks = HIGHER_IS_BETTER
            .iter()
            .map(|m| (*m, false))
            .chain(LOWER_IS_BETTER.iter().map(|m| (*m, true)));
        for (metric, lower) in checks {
            let (Some(bv), Some(cv)) = (
                b.path(metric).and_then(Json::as_f64),
                c.path(metric).and_then(Json::as_f64),
            ) else {
                continue;
            };
            let Some(w) = worsening(bv, cv, lower) else {
                continue;
            };
            if w > threshold {
                regressions.push(Regression {
                    label: label.clone(),
                    metric,
                    base: bv,
                    cand: cv,
                    change: w,
                });
            }
        }
    }
    regressions
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                threshold = v.parse().map_err(|e| format!("bad --threshold: {e}"))?;
            }
            "--help" | "-h" => {
                println!("usage: benchcmp <baseline.json> <candidate.json> [--threshold 0.10]");
                return Ok(ExitCode::SUCCESS);
            }
            _ => paths.push(a.clone()),
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        return Err("usage: benchcmp <baseline.json> <candidate.json> [--threshold 0.10]".into());
    };
    let base = load(base_path)?;
    let cand = load(cand_path)?;
    let (bn, cn) = (
        base.get("name").and_then(Json::as_str).unwrap_or("?"),
        cand.get("name").and_then(Json::as_str).unwrap_or("?"),
    );
    if bn != cn {
        println!("~ comparing different experiments: `{bn}` vs `{cn}`");
    }
    let matched = runs(&base).len();
    let regressions = compare(&base, &cand, threshold);
    if regressions.is_empty() {
        println!(
            "OK: {matched} run(s) of `{bn}` within {:.0}% of baseline",
            threshold * 100.0
        );
        return Ok(ExitCode::SUCCESS);
    }
    for r in &regressions {
        println!(
            "REGRESSION: {} / {}: {:.3} -> {:.3} ({:+.1}% worse)",
            r.label,
            r.metric,
            r.base,
            r.cand,
            r.change * 100.0
        );
    }
    println!(
        "{} regression(s) beyond {:.0}% in `{cn}`",
        regressions.len(),
        threshold * 100.0
    );
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchcmp: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(runs: Vec<Json>) -> Json {
        Json::obj([("name", Json::from("t")), ("runs", Json::Arr(runs))])
    }

    fn run_json(label: &str, iops: f64, p99: u64, waf: f64) -> Json {
        Json::obj([
            ("label", Json::from(label)),
            ("iops", Json::from(iops)),
            (
                "latency",
                Json::obj([("all", Json::obj([("p99_ns", Json::from(p99))]))]),
            ),
            ("waf", Json::obj([("total", Json::from(waf))])),
        ])
    }

    /// Every regressing metric is collected — across metrics of one run
    /// *and* across runs — before the caller exits nonzero, not just the
    /// first one hit.
    #[test]
    fn all_regressions_are_reported_not_just_the_first() {
        let base = doc(vec![
            run_json("a", 1000.0, 100, 1.0),
            run_json("b", 1000.0, 100, 1.0),
        ]);
        // Run `a` regresses on three metrics at once, run `b` on one.
        let cand = doc(vec![
            run_json("a", 500.0, 500, 3.0),
            run_json("b", 1000.0, 400, 1.0),
        ]);
        let regs = compare(&base, &cand, 0.10);
        let seen: Vec<(String, &str)> = regs.iter().map(|r| (r.label.clone(), r.metric)).collect();
        assert_eq!(
            seen,
            vec![
                ("a".to_string(), "iops"),
                ("a".to_string(), "latency.all.p99_ns"),
                ("a".to_string(), "waf.total"),
                ("b".to_string(), "latency.all.p99_ns"),
            ]
        );
    }

    #[test]
    fn improvements_and_small_drifts_compare_clean() {
        let base = doc(vec![run_json("a", 1000.0, 100, 1.0)]);
        let cand = doc(vec![run_json("a", 1050.0, 105, 0.9)]);
        assert!(compare(&base, &cand, 0.10).is_empty());
    }

    #[test]
    fn zero_baseline_is_not_a_regression() {
        let base = doc(vec![run_json("a", 0.0, 0, 0.0)]);
        let cand = doc(vec![run_json("a", 10.0, 10, 1.0)]);
        assert!(compare(&base, &cand, 0.10).is_empty());
    }
}
