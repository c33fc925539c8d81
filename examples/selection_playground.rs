//! Selection-model playground: run a long sequence of selected transfers
//! and watch each model's cumulative behaviour — including the adaptive
//! bandit extensions learning the testbed from scratch.
//!
//! ```text
//! cargo run --release --example selection_playground
//! ```

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
use overlay::selector::{PeerSelector, RandomSelector, RoundRobinSelector};
use peer_selection::prelude::*;
use workloads::scenario::{run_scenario, ScenarioConfig, SelectorFactory};
use workloads::spec::MB;

const ROUNDS: u64 = 30;

fn factory(name: &'static str) -> SelectorFactory {
    Box::new(move |seed| -> Box<dyn PeerSelector> {
        match name {
            "economic" => Box::new(Scored::new(EconomicModel::new())),
            "evaluator" => Box::new(Scored::new(DataEvaluatorModel::same_priority())),
            "quick-peer" => Box::new(Scored::new(UserPreferenceModel::quick_peer())),
            "eps-greedy" => Box::new(EpsilonGreedySelector::new(0.1, seed)),
            "ucb1" => Box::new(Ucb1Selector::new(std::f64::consts::SQRT_2, 2e6)),
            "hybrid" => Box::new(Scored::new(
                CompositeModel::new("economic+evaluator")
                    .plus(Box::new(EconomicModel::new()), 0.7)
                    .plus(Box::new(DataEvaluatorModel::same_priority()), 0.3),
            )),
            "sticky" => Box::new(StickySelector::new(EconomicModel::new(), 0.15)),
            "round-robin" => Box::new(RoundRobinSelector::new()),
            _ => Box::new(RandomSelector::new(seed)),
        }
    })
}

fn run_model(name: &'static str, seed: u64) -> (f64, Vec<(String, usize)>) {
    let mut cfg = ScenarioConfig::measurement_setup().with_selector(factory(name));
    for r in 0..ROUNDS {
        cfg = cfg.at(
            SimDuration::from_secs(60 + 45 * r),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: 5 * MB,
                num_parts: 5,
                label: format!("round-{r:02}"),
            },
        );
    }
    let result = run_scenario(&cfg, seed);
    let mean_secs = {
        let done: Vec<f64> = result
            .run
            .log
            .transfers
            .iter()
            .filter_map(|t| t.total_secs())
            .collect();
        done.iter().sum::<f64>() / done.len().max(1) as f64
    };
    // Pick distribution.
    let mut counts: Vec<(String, usize)> = Vec::new();
    for sel in &result.run.log.selections {
        let short = sel
            .chosen_name
            .split('.')
            .next()
            .unwrap_or(&sel.chosen_name)
            .to_string();
        match counts.iter_mut().find(|(n, _)| *n == short) {
            Some((_, c)) => *c += 1,
            None => counts.push((short, 1)),
        }
    }
    counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    (mean_secs, counts)
}

fn main() {
    println!("{ROUNDS} selected 5 MB transfers per model, seed 7\n");
    println!("{:<12} {:>14}  picks", "model", "mean xfer (s)");
    for name in [
        "economic",
        "evaluator",
        "quick-peer",
        "eps-greedy",
        "ucb1",
        "hybrid",
        "sticky",
        "round-robin",
        "random",
    ] {
        let (mean, picks) = run_model(name, 7);
        let dist: Vec<String> = picks
            .iter()
            .take(4)
            .map(|(n, c)| format!("{n}×{c}"))
            .collect();
        println!("{name:<12} {mean:>14.2}  {}", dist.join(" "));
    }
    println!("\nbandits start blind and converge; economic exploits its completion estimates.");
}
