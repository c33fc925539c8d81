//! Cross-crate integration tests: full testbed boot, end-to-end protocol
//! flows, and experiment shape criteria on the real stack.

use netsim::engine::RunOutcome;
use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
use workloads::scenario::{run_scenario, ScenarioConfig};
use workloads::spec::{ExperimentSpec, MB};

#[test]
fn full_slice_boot_and_broadcast() {
    // All 25 Table-1 hosts plus the broker; a file reaches every client.
    let cfg = ScenarioConfig::builder()
        .testbed(planetlab::builder::TestbedConfig::full_slice())
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 2 * MB,
                num_parts: 2,
                label: "slice-broadcast".into(),
            },
        )
        .build()
        .expect("valid scenario");
    let result = run_scenario(&cfg, 3);
    assert_eq!(result.run.outcome, RunOutcome::Stopped);
    assert_eq!(result.testbed.len(), 26);
    assert_eq!(
        result.run.log.transfers.len(),
        25,
        "one transfer per client"
    );
    let completed = result
        .run
        .log
        .transfers
        .iter()
        .filter(|t| t.completed_at.is_some())
        .count();
    assert_eq!(completed, 25, "every transfer completes");
}

#[test]
fn mixed_workload_transfers_and_tasks() {
    let cfg = ScenarioConfig::measurement_setup()
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 4 * MB,
                num_parts: 4,
                label: "files".into(),
            },
        )
        .at(
            SimDuration::from_secs(90),
            BrokerCommand::SubmitTask {
                target: TargetSpec::AllClients,
                work_gops: 20.0,
                input_bytes: MB,
                input_parts: 2,
                label: "jobs".into(),
            },
        )
        .at(
            SimDuration::from_secs(95),
            BrokerCommand::SendInstant {
                target: TargetSpec::AllClients,
                text: "hello overlay".into(),
            },
        );
    let result = run_scenario(&cfg, 9);
    assert_eq!(result.run.outcome, RunOutcome::Stopped);
    // 8 file transfers + 8 task-input transfers.
    assert_eq!(result.run.log.transfers.len(), 16);
    assert_eq!(result.run.log.tasks.len(), 8);
    for task in &result.run.log.tasks {
        assert!(task.success, "task on {} failed", task.on_name);
        assert!(task.exec_secs.unwrap() > 0.0);
        assert!(task.input_done_at.is_some());
        assert!(task.total_secs().unwrap() > task.exec_secs.unwrap());
    }
}

#[test]
fn selection_on_real_testbed_avoids_the_bottleneck_peer() {
    // With warm history, every informed model must avoid SC7 for transfers.
    use overlay::selector::PeerSelector;
    use peer_selection::prelude::*;

    let models: Vec<(&str, workloads::scenario::SelectorFactory)> = vec![
        (
            "economic",
            Box::new(|_| -> Box<dyn PeerSelector> { Box::new(Scored::new(EconomicModel::new())) }),
        ),
        (
            "quick-peer",
            Box::new(|_| -> Box<dyn PeerSelector> {
                Box::new(Scored::new(UserPreferenceModel::quick_peer()))
            }),
        ),
    ];
    for (name, factory) in models {
        let cfg = ScenarioConfig::measurement_setup()
            .at(
                SimDuration::from_secs(60),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: 4 * MB,
                    num_parts: 4,
                    label: "warmup".into(),
                },
            )
            .at(
                SimDuration::from_secs(400),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Selected,
                    size_bytes: 8 * MB,
                    num_parts: 8,
                    label: "selected".into(),
                },
            )
            .with_selector(factory);
        let result = run_scenario(&cfg, 11);
        let pick = &result.run.log.selections[0];
        assert_ne!(
            &*pick.chosen_name, "planetlab1.itwm.fhg.de",
            "{name} must not pick SC7"
        );
        let selected = result
            .run
            .log
            .transfers
            .iter()
            .find(|t| t.label == "selected")
            .unwrap();
        assert!(selected.completed_at.is_some());
        // A selected transfer beats the blind mean.
        let blind_mean: f64 = {
            let ts: Vec<f64> = result
                .run
                .log
                .transfers
                .iter()
                .filter(|t| t.label == "warmup")
                .filter_map(|t| t.total_secs())
                .collect();
            ts.iter().sum::<f64>() / ts.len() as f64
        };
        let sel_per_mb = selected.total_secs().unwrap() / 8.0;
        let blind_per_mb = blind_mean / 4.0;
        assert!(
            sel_per_mb < blind_per_mb,
            "{name}: selected {sel_per_mb} s/MB should beat blind {blind_per_mb} s/MB"
        );
    }
}

#[test]
fn experiments_run_end_to_end_with_single_seed() {
    // One-seed smoke pass over every figure driver (fast but complete).
    let spec = ExperimentSpec {
        seeds: vec![5],
        ..ExperimentSpec::quick()
    };
    let study = workloads::experiments::transfer_study::run(&spec);
    assert!(workloads::experiments::fig2::report(&study)
        .render()
        .contains("Figure 2"));
    let f5 = workloads::experiments::fig5::run(&spec);
    assert!(f5.render().contains("Figure 5"));
    let f7 = workloads::experiments::fig7::run(&spec);
    assert!(f7.render().contains("Figure 7"));
    assert!(workloads::experiments::table1::run().contains("Table 1"));
}

#[test]
fn facade_crate_reexports_work() {
    // The root crate exposes the whole stack.
    use p2p_peer_selection::*;
    let _ = netsim::time::SimDuration::from_secs(1);
    let _ = planetlab::sites::BROKER.hostname;
    let _ = overlay::filetransfer::split_parts(10, 2);
    let m = peer_selection::prelude::EconomicModel::new();
    let _ = m;
    let _ = workloads::spec::MB;
}
