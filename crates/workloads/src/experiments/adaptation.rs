//! Adaptation study: how selection models respond when the world changes.
//!
//! The paper's models are static policies; its future work asks about
//! real large-scale deployments, where peer conditions *shift*. This
//! experiment runs a long campaign of selected transfers and injects a
//! sustained backlog on the favourite peer (SC4) partway through:
//!
//! * rounds 0–7   — steady state ("pre");
//! * rounds 8–15  — SC4 is congested by repeated background transfers
//!   ("congested");
//! * rounds 16–23 — the background has drained ("recovered").
//!
//! Economic selection re-plans instantly from live queue state; the bandits
//! must *relearn* from outcome feedback; quick-peer never adapts at all.

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};

use crate::report::{FigureReport, SeriesRow};
use crate::runner::{run_replications, SeriesAggregate};
use crate::scenario::{run_scenario, ScenarioConfig, SelectorFactory};
use crate::spec::{ExperimentSpec, MB};

/// Measured transfer rounds.
pub(crate) const ROUNDS: u64 = 24;
/// Seconds between rounds.
pub(crate) const ROUND_SPACING: u64 = 60;
/// Size of each measured transfer.
pub(crate) const MEASURED_SIZE: u64 = 5 * MB;
/// The congested phase: rounds `[8, 16)`.
pub(crate) const SHIFT_START: u64 = 8;
/// End of the congested phase.
pub(crate) const SHIFT_END: u64 = 16;

/// Models compared.
pub(crate) fn model_names() -> Vec<&'static str> {
    vec!["economic", "ucb1", "eps-greedy", "quick-peer"]
}

/// Seed salt keeping this study's random streams disjoint from the other
/// drivers'.
const SEED_SALT: u64 = 0xADA7;

fn factory(model: &'static str) -> SelectorFactory {
    peer_selection::service::try_factory_for(model, SEED_SALT)
        .expect("adaptation study uses known model names")
}

/// Per-model mean transfer seconds in each phase window.
pub(crate) struct AdaptationResult {
    /// Model names, report order.
    pub(crate) models: Vec<&'static str>,
    /// `[model]` → aggregate over (pre, congested, recovered).
    pub(crate) windows: Vec<SeriesAggregate>,
}

fn one_run(model: &'static str, seed: u64) -> Vec<f64> {
    let t0 = SimDuration::from_secs(60);
    let campaign_start = 600u64;
    let mut cfg = ScenarioConfig {
        selector: Some(factory(model)),
        commands: vec![(
            t0,
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 4 * MB,
                num_parts: 4,
                label: "warmup".into(),
            },
        )],
        ..ScenarioConfig::default()
    };
    for r in 0..ROUNDS {
        cfg.commands.push((
            SimDuration::from_secs(campaign_start + ROUND_SPACING * r),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: MEASURED_SIZE,
                num_parts: 5,
                label: format!("round-{r:02}"),
            },
        ));
    }
    // Sustained congestion on SC4 through the shift window: a 120 MB
    // background (~85 s at SC4's rate) starts 5 s before every second
    // measured round, so the backlog is always visible at selection time.
    for k in 0..4u64 {
        cfg.commands.push((
            SimDuration::from_secs(campaign_start + ROUND_SPACING * (SHIFT_START + 2 * k) - 5),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Node(netsim::node::NodeId(4)),
                size_bytes: 120 * MB,
                num_parts: 20,
                label: format!("background-{k}"),
            },
        ));
    }
    let result = run_scenario(&cfg, seed);
    let mut windows = vec![Vec::new(), Vec::new(), Vec::new()];
    for r in 0..ROUNDS {
        let label = format!("round-{r:02}");
        if let Some(secs) = result
            .run
            .log
            .transfers
            .iter()
            .find(|t| t.label == label)
            .and_then(|t| t.total_secs())
        {
            let w = if r < SHIFT_START {
                0
            } else if r < SHIFT_END {
                1
            } else {
                2
            };
            windows[w].push(secs);
        }
    }
    windows
        .into_iter()
        .map(|w| w.iter().sum::<f64>() / w.len().max(1) as f64)
        .collect()
}

/// Runs the study.
pub(crate) fn run_experiment(spec: &ExperimentSpec) -> AdaptationResult {
    let models = model_names();
    let windows = models
        .iter()
        .map(|model| {
            let rows = run_replications(&spec.seeds, |seed| one_run(model, seed));
            SeriesAggregate::from_replications(&rows)
        })
        .collect();
    AdaptationResult { models, windows }
}

/// Runs and renders.
pub fn run(spec: &ExperimentSpec) -> FigureReport {
    let result = run_experiment(spec);
    let mut f = FigureReport::new(
        "Extension: adaptation",
        "Mean selected 5 MB transfer per phase (favourite peer congested mid-campaign)",
        "seconds",
        vec!["pre".into(), "congested".into(), "recovered".into()],
    );
    for (m, agg) in result.models.iter().zip(&result.windows) {
        f.push(SeriesRow::with_sd(*m, agg.means(), agg.std_devs()));
    }
    f.note("economic re-plans from live queues; bandits relearn from outcomes; quick-peer never adapts");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static AdaptationResult {
        use std::sync::OnceLock;
        static R: OnceLock<AdaptationResult> = OnceLock::new();
        R.get_or_init(|| run_experiment(&ExperimentSpec { seeds: vec![1, 2] }))
    }

    fn window(model: &str, w: usize) -> f64 {
        let r = result();
        let i = r.models.iter().position(|m| *m == model).unwrap();
        r.windows[i].means()[w]
    }

    #[test]
    fn all_models_have_complete_curves() {
        let r = result();
        for (m, agg) in r.models.iter().zip(&r.windows) {
            for v in agg.means() {
                assert!(v.is_finite() && v > 0.0, "{m} has a hole in its curve");
            }
        }
    }

    #[test]
    fn congestion_hurts_the_static_model_most() {
        // Quick-peer keeps sending to the congested favourite; economic
        // routes around it.
        let econ = window("economic", 1);
        let quick = window("quick-peer", 1);
        assert!(
            quick > 1.5 * econ,
            "congested phase: quick-peer {quick} vs economic {econ}"
        );
    }

    #[test]
    fn economic_is_stable_across_phases() {
        let pre = window("economic", 0);
        let congested = window("economic", 1);
        assert!(
            congested < pre * 2.0,
            "economic should degrade little: pre {pre}, congested {congested}"
        );
    }

    #[test]
    fn quick_peer_snaps_back_after_drain() {
        let congested = window("quick-peer", 1);
        let recovered = window("quick-peer", 2);
        assert!(
            recovered < congested,
            "recovery should help the static model: {congested} → {recovered}"
        );
    }

    #[test]
    fn report_renders() {
        let spec = ExperimentSpec { seeds: vec![1] };
        let s = run(&spec).render();
        assert!(s.contains("adaptation"));
        assert!(s.contains("congested"));
    }
}
