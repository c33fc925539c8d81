//! Figure 7: just execution vs transmission + execution, per SC peer.
//!
//! The paper's virtual-campus workload: a processing task either runs on
//! data already present at the peer ("just execution") or first ships its
//! 50 Mb input file and then runs ("transmission & execution"). The figure
//! shows both bars per peer, in minutes, with SC7 dominating.

use overlay::broker::{BrokerCommand, TargetSpec};

use crate::experiments::sc_labels;
use crate::report::{FigureReport, SeriesRow};
use crate::runner::{run_replications, SeriesAggregate};
use crate::scenario::{run_scenario, ScenarioConfig, ScenarioResult};
use crate::spec::{ExperimentSpec, MB};

/// Compute demand of the processing task, giga-ops (≈5 min on a healthy,
/// lightly loaded 1-gops peer).
pub const WORK_GOPS: f64 = 300.0;
/// Input file shipped in the transmission+execution variant.
pub const INPUT_SIZE: u64 = 50 * MB;
/// Parts used to ship the input (1 MB parts, as in the Fig 3 study).
pub const INPUT_PARTS: u32 = 50;

/// Typed result.
pub struct Fig7Result {
    /// Just-execution minutes per SC.
    pub exec_only: SeriesAggregate,
    /// Transmission+execution minutes per SC.
    pub trans_exec: SeriesAggregate,
}

fn per_sc_task_minutes(result: &ScenarioResult, label: &str) -> Vec<f64> {
    result
        .testbed
        .scs
        .iter()
        .map(|&sc| {
            let vals: Vec<f64> = result
                .run
                .log
                .tasks
                .iter()
                .filter(|t| t.on == sc && t.success)
                .filter(|t| {
                    // Exec-only tasks have no input; shipped tasks do.
                    match label {
                        "exec" => t.input_bytes == 0,
                        _ => t.input_bytes > 0,
                    }
                })
                .filter_map(|t| t.total_secs().map(|s| s / 60.0))
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

fn scenario(with_input: bool) -> ScenarioConfig {
    let (input_bytes, label) = if with_input {
        (INPUT_SIZE, "fig7-trans")
    } else {
        (0, "fig7-exec")
    };
    ScenarioConfig {
        commands: vec![(
            netsim::time::SimDuration::from_secs(60),
            BrokerCommand::SubmitTask {
                target: TargetSpec::AllClients,
                work_gops: WORK_GOPS,
                input_bytes,
                input_parts: INPUT_PARTS,
                label: label.into(),
            },
        )],
        ..ScenarioConfig::default()
    }
}

/// Runs the experiment: exec-only and transmission+execution scenarios.
pub fn run_experiment(spec: &ExperimentSpec) -> Fig7Result {
    let exec_rows = run_replications(&spec.seeds, |seed| {
        let result = run_scenario(&scenario(false), seed);
        per_sc_task_minutes(&result, "exec")
    });
    let trans_rows = run_replications(&spec.seeds, |seed| {
        let result = run_scenario(&scenario(true), seed);
        per_sc_task_minutes(&result, "trans")
    });
    Fig7Result {
        exec_only: SeriesAggregate::from_replications(&exec_rows),
        trans_exec: SeriesAggregate::from_replications(&trans_rows),
    }
}

/// Runs the experiment and builds the report.
pub fn run(spec: &ExperimentSpec) -> FigureReport {
    report(&run_experiment(spec))
}

/// Builds the Fig 7 report from a typed result.
pub fn report(result: &Fig7Result) -> FigureReport {
    let mut f = FigureReport::new(
        "Figure 7",
        "Just execution vs transmission & execution",
        "minutes",
        sc_labels(),
    );
    f.push(SeriesRow::with_sd(
        "just execution",
        result.exec_only.means(),
        result.exec_only.std_devs(),
    ));
    f.push(SeriesRow::with_sd(
        "transmission & execution",
        result.trans_exec.means(),
        result.trans_exec.std_devs(),
    ));
    let exec = result.exec_only.means();
    let trans = result.trans_exec.means();
    let overhead: Vec<f64> = exec.iter().zip(&trans).map(|(e, t)| t - e).collect();
    let mean_overhead = overhead.iter().sum::<f64>() / overhead.len() as f64;
    f.note(format!(
        "mean transmission overhead: {mean_overhead:.2} min; SC7 dominates both bars \
         (paper: chart only, shape criterion)"
    ));
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::argmax;

    fn result() -> &'static Fig7Result {
        use std::sync::OnceLock;
        static R: OnceLock<Fig7Result> = OnceLock::new();
        R.get_or_init(|| run_experiment(&ExperimentSpec::quick()))
    }

    #[test]
    fn transmission_adds_overhead_everywhere() {
        let r = result();
        let exec = r.exec_only.means();
        let trans = r.trans_exec.means();
        for i in 0..8 {
            assert!(exec[i].is_finite(), "SC{} exec missing", i + 1);
            assert!(
                trans[i] > exec[i],
                "SC{}: trans+exec {} must exceed exec {}",
                i + 1,
                trans[i],
                exec[i]
            );
        }
    }

    #[test]
    fn sc7_dominates_both_series() {
        let r = result();
        assert_eq!(argmax(&r.exec_only.means()), Some(6));
        assert_eq!(argmax(&r.trans_exec.means()), Some(6));
    }

    #[test]
    fn minutes_scale_matches_paper_band() {
        // Paper's Fig 7 y-axis runs 0–30 minutes.
        let r = result();
        for &m in &r.trans_exec.means() {
            assert!((1.0..40.0).contains(&m), "implausible minutes {m}");
        }
        let exec = r.exec_only.means();
        assert!(exec[6] > 3.0 * exec[1], "SC7 execution far slower than SC2");
    }

    #[test]
    fn report_renders() {
        let s = report(result()).render();
        assert!(s.contains("Figure 7"));
        assert!(s.contains("just execution"));
        assert!(s.contains("transmission overhead"));
    }
}
