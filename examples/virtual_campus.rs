//! The paper's motivating application: processing large files of a virtual
//! campus. A term's worth of lecture recordings must be transcoded; each
//! job ships its input file to a peer and runs there. We submit the batch
//! through each selection model and compare makespans.
//!
//! ```text
//! cargo run --release --example virtual_campus
//! ```

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
use overlay::selector::{PeerSelector, RandomSelector};
use peer_selection::prelude::*;
use workloads::scenario::{run_scenario, ScenarioConfig, SelectorFactory};
use workloads::spec::MB;

const JOBS: usize = 12;
const INPUT: u64 = 20 * MB;
const WORK_GOPS: f64 = 120.0;

fn factory(model: &'static str) -> SelectorFactory {
    Box::new(move |seed| -> Box<dyn PeerSelector> {
        match model {
            "economic" => Box::new(Scored::new(EconomicModel::new())),
            "data evaluator" => Box::new(Scored::new(DataEvaluatorModel::same_priority())),
            "quick peer" => Box::new(Scored::new(UserPreferenceModel::quick_peer())),
            "ucb1 (extension)" => Box::new(Ucb1Selector::new(std::f64::consts::SQRT_2, 2e6)),
            _ => Box::new(RandomSelector::new(seed)),
        }
    })
}

fn campaign(model: &'static str, seed: u64) -> (f64, f64, usize) {
    let mut cfg = ScenarioConfig {
        selector: Some(factory(model)),
        ..ScenarioConfig::default()
    };
    // A small warm-up so history-based models have data.
    cfg.commands.push((
        SimDuration::from_secs(60),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 4 * MB,
            num_parts: 4,
            label: "warmup".into(),
        },
    ));
    // The batch: one transcoding job every 30 s, peer chosen by the model.
    for j in 0..JOBS {
        cfg.commands.push((
            SimDuration::from_secs(300 + 30 * j as u64),
            BrokerCommand::SubmitTask {
                target: TargetSpec::Selected,
                work_gops: WORK_GOPS,
                input_bytes: INPUT,
                input_parts: 20,
                label: format!("lecture-{j:02}"),
            },
        ));
    }
    let result = run_scenario(&cfg, seed);
    let done: Vec<&overlay::records::TaskRecord> = result
        .run
        .log
        .tasks
        .iter()
        .filter(|t| t.success && t.input_bytes > 0)
        .collect();
    let makespan = done
        .iter()
        .filter_map(|t| t.result_at)
        .max()
        .map(|end| {
            end.duration_since(
                done.iter()
                    .map(|t| t.submitted_at)
                    .min()
                    .unwrap_or(netsim::time::SimTime::ZERO),
            )
            .as_secs_f64()
                / 60.0
        })
        .unwrap_or(f64::NAN);
    let mean_job: f64 =
        done.iter().filter_map(|t| t.total_secs()).sum::<f64>() / done.len().max(1) as f64 / 60.0;
    (makespan, mean_job, done.len())
}

fn main() {
    println!(
        "virtual campus batch: {JOBS} transcoding jobs, {} MB input each, {WORK_GOPS} gops\n",
        INPUT / MB
    );
    println!(
        "{:<20} {:>14} {:>16} {:>10}",
        "selection model", "makespan(min)", "mean job(min)", "completed"
    );
    for model in [
        "economic",
        "data evaluator",
        "quick peer",
        "ucb1 (extension)",
        "random",
    ] {
        let (makespan, mean_job, done) = campaign(model, 42);
        println!("{model:<20} {makespan:>14.1} {mean_job:>16.1} {done:>10}");
    }
    println!("\nthe broker learns each peer's speed; models differ in how they use it.");
}
