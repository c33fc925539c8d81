//! `bench compare A.json B.json`: did B change anything against A?
//!
//! One verdict per (workload, end-to-end metric), by the bounds in
//! `BENCHMARK.json`, plus exact-equality rows for everything simulated:
//! digests and counts must not move at all between two sets of runs of
//! the same scenario, whatever happened to host time.

use crate::json::Value;
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// shift of the size the bound guards against could not be seen.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for one metric where lower is better (all three end-to-end
/// metrics are). `bound` is the share of A's median B may be worse by.
///
/// With a spread wider than the bound the metric is unresolved unless
/// every run of B reads better than every run of A. Otherwise B regressed
/// if its median is worse by more than the bound; it improved if it wins
/// at least nine tenths of all (A run, B run) pairs and the medians differ
/// by more than the distance between A's own quartiles; and it is
/// unchanged in between.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let pairs = (a.len() * b.len()) as f64;
    let wins = b
        .iter()
        .map(|&vb| a.iter().filter(|&&va| vb < va).count())
        .sum::<usize>() as f64;
    if spread(a).max(spread(b)) > bound {
        return if wins == pairs {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let (q1_a, q3_a) = quartiles(a);
    if med_b > med_a * (1.0 + bound) {
        Verdict::Regressed
    } else if wins >= 0.9 * pairs && med_a - med_b > q3_a - q1_a {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn samples(doc: &Value, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(Value::as_arr)
        .map(|arr| arr.iter().filter_map(Value::as_f64).collect())
        .ok_or_else(|| format!("result file lacks {workload} / {metric} samples"))
}

/// Compares two result files under the bounds of `contract`
/// (`BENCHMARK.json`). Returns the report and whether anything regressed
/// or any simulated value differs.
pub fn compare(contract: &Value, a: &Value, b: &Value) -> Result<(String, bool), String> {
    let bounds: Vec<(&str, f64)> = contract
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("bound")?.as_f64()?)))
        .collect();
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("result file lacks workloads")?;

    let mut report = format!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut bad = false;
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            report.push_str(&format!("{workload:<16} missing from B\n"));
            bad = true;
            continue;
        };
        for &(metric, bound) in &bounds {
            let (sa, sb) = (samples(a, workload, metric)?, samples(b, workload, metric)?);
            let v = verdict(&sa, &sb, bound);
            bad |= v == Verdict::Regressed;
            report.push_str(&format!(
                "{workload:<16} {metric:<12} {:>12.6} {:>12.6} {:>+7.1}% {:>7.1}% {:>7.1}%  {}\n",
                median(&sa),
                median(&sb),
                (median(&sb) / median(&sa) - 1.0) * 100.0,
                spread(&sa).max(spread(&sb)) * 100.0,
                bound * 100.0,
                v.word()
            ));
        }
        // Everything simulated must be exactly equal.
        for key in ["digest", "counts", "ops_failed"] {
            let same = in_a.get(key) == in_b.get(key) && in_a.get(key).is_some();
            bad |= !same;
            report.push_str(&format!(
                "{workload:<16} {key:<12} {}\n",
                if same { "equal" } else { "DIFFERENT" }
            ));
        }
    }
    Ok((report, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const STEADY: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    fn scaled(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(verdict(&STEADY, &scaled(1.0), 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&STEADY, &scaled(1.05), 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&STEADY, &scaled(1.15), 0.10), Verdict::Regressed);
        assert_eq!(verdict(&STEADY, &scaled(0.80), 0.10), Verdict::Improved);
        // Better, but by less than the spread between runs: not a gain.
        assert_eq!(verdict(&STEADY, &scaled(0.995), 0.10), Verdict::Unchanged);
        // Better in the median, but it loses too many of the pairs.
        let mixed = [0.97, 0.97, 0.97, 1.015, 1.03];
        assert_eq!(verdict(&STEADY, &mixed, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.9];
        assert_eq!(verdict(&noisy, &noisy, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &scaled(1.3), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &scaled(0.5), 0.10), Verdict::Improved);
    }

    fn result(run_s: [f64; 3], digest: &str) -> Value {
        parse(&format!(
            r#"{{"workloads": {{"w": {{
                "end_to_end": {{"run_s": {{"samples": [{}, {}, {}]}}}},
                "digest": "{digest}", "counts": {{"engine.events": 5}},
                "ops_attempted": 3, "ops_failed": 0}}}}}}"#,
            run_s[0], run_s[1], run_s[2]
        ))
        .expect("valid")
    }

    #[test]
    fn files_compare_by_metric_and_by_exact_rows() {
        let contract =
            parse(r#"{"end_to_end": [{"name": "run_s", "bound": 0.1}]}"#).expect("valid");
        let a = result([1.0, 1.01, 0.99], "aa");
        let (report, bad) = compare(&contract, &a, &a).expect("comparable");
        assert!(!bad, "{report}");
        assert!(report.contains("unchanged"));
        assert_eq!(report.matches("equal").count(), 3);

        let (report, bad) = compare(&contract, &a, &result([1.2, 1.21, 1.19], "aa")).expect("ok");
        assert!(bad && report.contains("regressed"), "{report}");

        let (report, bad) = compare(&contract, &a, &result([1.0, 1.01, 0.99], "bb")).expect("ok");
        assert!(bad && report.contains("DIFFERENT"), "{report}");
    }
}
