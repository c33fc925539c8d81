//! Testable transport-model ablations.
//!
//! DESIGN.md commits to ablating the simulator's design choices, and this
//! module *asserts* them: each transport knob is switched off in turn and
//! the effect on the paper's headline numbers is measured. The key claim —
//! "sending the file whole is not worth it" exists *because* JXTA pipes
//! degrade on huge messages — is visible here: without the large-message
//! penalty, whole-file transfer matches chunked transfer (minus per-part
//! overhead).

use netsim::transport::TransportConfig;
use overlay::broker::{BrokerCommand, TargetSpec};

use crate::report::{FigureReport, SeriesRow};
use crate::scenario::{run_scenario, ScenarioConfig};
use crate::spec::{ExperimentSpec, MB};

/// The transport variants ablated.
pub(crate) fn variants() -> Vec<(&'static str, TransportConfig)> {
    vec![
        ("full model", TransportConfig::default()),
        (
            "no TCP bound",
            TransportConfig {
                enable_tcp_bound: false,
                ..TransportConfig::default()
            },
        ),
        (
            "no slow start",
            TransportConfig {
                enable_slow_start: false,
                ..TransportConfig::default()
            },
        ),
        (
            "no large-msg penalty",
            TransportConfig {
                enable_large_msg_penalty: false,
                ..TransportConfig::default()
            },
        ),
        ("ideal", TransportConfig::ideal()),
    ]
}

/// Per-variant headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AblationPoint {
    /// Variant name.
    pub(crate) name: &'static str,
    /// Mean blind 20 MB / 20-part transfer across the eight SCs, seconds.
    pub(crate) chunked_secs: f64,
    /// Whole-file 100 MB transfer to SC4, minutes.
    pub(crate) whole_file_min: f64,
    /// 16-part 100 MB transfer to SC4, minutes.
    pub(crate) parts16_min: f64,
}

fn blind_mean_secs(transport: &TransportConfig, seed: u64) -> f64 {
    let cfg = ScenarioConfig {
        transport: transport.clone(),
        commands: vec![(
            netsim::time::SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 20 * MB,
                num_parts: 20,
                label: "ablate".into(),
            },
        )],
        ..ScenarioConfig::default()
    };
    let r = run_scenario(&cfg, seed);
    let ts: Vec<f64> = r
        .run
        .log
        .transfers
        .iter()
        .filter_map(|t| t.total_secs())
        .collect();
    ts.iter().sum::<f64>() / ts.len().max(1) as f64
}

fn sc4_transfer_min(transport: &TransportConfig, parts: u32, seed: u64) -> f64 {
    let cfg = ScenarioConfig {
        transport: transport.clone(),
        commands: vec![(
            netsim::time::SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Node(netsim::node::NodeId(4)),
                size_bytes: 100 * MB,
                num_parts: parts,
                label: "g".into(),
            },
        )],
        ..ScenarioConfig::default()
    };
    let r = run_scenario(&cfg, seed);
    r.run.log.transfers[0]
        .total_secs()
        .map(|s| s / 60.0)
        .unwrap_or(f64::NAN)
}

/// Measures every variant (single representative seed per point — the
/// ablation compares model structure, not noise).
pub(crate) fn run_experiment(seed: u64) -> Vec<AblationPoint> {
    variants()
        .into_iter()
        .map(|(name, transport)| AblationPoint {
            name,
            chunked_secs: blind_mean_secs(&transport, seed),
            whole_file_min: sc4_transfer_min(&transport, 1, seed),
            parts16_min: sc4_transfer_min(&transport, 16, seed),
        })
        .collect()
}

/// Runs and renders the ablation table.
pub fn run(_spec: &ExperimentSpec) -> FigureReport {
    let points = run_experiment(1);
    let mut f = FigureReport::new(
        "Ablation: transport model",
        "Headline metrics with each penalty removed",
        "mixed units (s / min / min)",
        vec![
            "blind 20MB (s)".into(),
            "whole 100MB (min)".into(),
            "16-part 100MB (min)".into(),
        ],
    );
    for p in &points {
        f.push(SeriesRow::new(
            p.name,
            vec![p.chunked_secs, p.whole_file_min, p.parts16_min],
        ));
    }
    f.note("the whole-file pathology (Fig 5) exists iff the large-message penalty is on");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> &'static Vec<AblationPoint> {
        use std::sync::OnceLock;
        static P: OnceLock<Vec<AblationPoint>> = OnceLock::new();
        P.get_or_init(|| run_experiment(1))
    }

    fn by_name(name: &str) -> &'static AblationPoint {
        points().iter().find(|p| p.name == name).expect("variant")
    }

    #[test]
    fn every_penalty_slows_things_down() {
        let full = by_name("full model");
        let ideal = by_name("ideal");
        assert!(full.chunked_secs > ideal.chunked_secs);
        assert!(full.whole_file_min > ideal.whole_file_min);
    }

    #[test]
    fn whole_file_pathology_requires_large_msg_penalty() {
        let full = by_name("full model");
        let no_penalty = by_name("no large-msg penalty");
        // With the penalty: whole ≫ 16 parts (the paper's Fig 5 finding).
        assert!(
            full.whole_file_min > 5.0 * full.parts16_min,
            "whole {} vs 16-part {}",
            full.whole_file_min,
            full.parts16_min
        );
        // Without it: whole-file transfer is fine (even slightly better —
        // no per-part round trips).
        assert!(
            no_penalty.whole_file_min < 1.5 * no_penalty.parts16_min,
            "whole {} vs 16-part {}",
            no_penalty.whole_file_min,
            no_penalty.parts16_min
        );
    }

    #[test]
    fn slow_start_costs_per_part() {
        let full = by_name("full model");
        let no_ss = by_name("no slow start");
        // Chunked transfers pay slow start per part; removing it helps.
        assert!(no_ss.chunked_secs < full.chunked_secs);
    }

    /// The Fig 6 contention scenario: the quick-peer contention penalty is
    /// a property of sharing the receiver's FIFO downlink, so a second
    /// 10 MB transfer to SC4 launched one second after the first is slower
    /// than the same transfer alone.
    #[test]
    fn contention_slows_the_second_transfer() {
        use netsim::time::SimDuration;

        let second_secs = |starts: &[u64]| {
            let commands = starts.iter().map(|&at| {
                let cmd = BrokerCommand::DistributeFile {
                    target: TargetSpec::Node(netsim::node::NodeId(4)),
                    size_bytes: 10 * MB,
                    num_parts: 10,
                    label: format!("t{at}"),
                };
                (SimDuration::from_secs(at), cmd)
            });
            let cfg = ScenarioConfig {
                commands: commands.collect(),
                ..ScenarioConfig::default()
            };
            let r = run_scenario(&cfg, 1);
            let transfers = &r.run.log.transfers;
            assert_eq!(transfers.len(), starts.len());
            transfers
                .iter()
                .find(|t| t.label == "t61")
                .and_then(|t| t.total_secs())
                .expect("the transfer launched at 61 s completes")
        };
        let alone = second_secs(&[61]);
        let contended = second_secs(&[60, 61]);
        assert!(
            contended > alone,
            "contended {contended} s vs alone {alone} s"
        );
    }

    #[test]
    fn report_renders() {
        let spec = ExperimentSpec::quick();
        let s = run(&spec).render();
        assert!(s.contains("Ablation"));
        assert!(s.contains("full model"));
        assert!(s.contains("ideal"));
    }
}
