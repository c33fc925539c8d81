//! Extension studies beyond the paper's evaluation — its stated future
//! work ("a larger number of peer nodes", "real P2P large scale
//! applications") plus robustness under churn and selection for the file
//! *request* primitive.

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
use overlay::client::ClientCommand;
use overlay::selector::PeerSelector;
use peer_selection::prelude::*;

use crate::report::{FigureReport, SeriesRow};
use crate::runner::{run_replications, SeriesAggregate};
use crate::scenario::{run_scenario, ScenarioConfig, SelectorFactory};
use crate::spec::{ExperimentSpec, MB};

/// Seed salt keeping the extension studies' random streams disjoint from
/// the other drivers'.
const SEED_SALT: u64 = 0xEE7;

fn factory(model: &'static str) -> SelectorFactory {
    peer_selection::service::try_factory_for(model, SEED_SALT)
        .expect("extension studies use known model names")
}

/// The 4 MB, 4-part broadcast one minute in that seeds every peer's
/// statistics before a selected campaign.
fn warmup() -> (SimDuration, BrokerCommand) {
    let cmd = BrokerCommand::DistributeFile {
        target: TargetSpec::AllClients,
        size_bytes: 4 * MB,
        num_parts: 4,
        label: "warmup".into(),
    };
    (SimDuration::from_secs(60), cmd)
}

/// Scaling study: selected-transfer quality as the peergroup grows.
///
/// The paper evaluates 8 peers and asks what happens with more; we sweep
/// the slice from the 8 SCs up to all 25 members and measure the mean
/// selected-transfer time for the economic model vs the blind baseline.
/// Expected: the baseline *degrades* as more (heterogeneous, sometimes
/// poor) peers join the pool, while informed selection stays flat or
/// improves — more peers means more choice.
pub mod scaling {
    use super::*;

    /// Peer counts swept (SCs + capped others).
    pub const OTHERS: [usize; 4] = [0, 5, 11, 17];
    /// Selected transfers measured per run.
    pub const ROUNDS: u64 = 6;

    /// Typed result: `[models][sweep]` mean seconds.
    pub struct ScalingResult {
        /// Model names.
        pub models: Vec<&'static str>,
        /// Per-model aggregate across the sweep points.
        pub seconds: Vec<SeriesAggregate>,
    }

    fn one_run(model: &'static str, others: usize, seed: u64) -> f64 {
        let mut cfg = ScenarioConfig {
            testbed: planetlab::builder::TestbedConfig::slice_with_others(others),
            selector: Some(factory(model)),
            commands: vec![warmup()],
            ..ScenarioConfig::default()
        };
        for r in 0..ROUNDS {
            cfg.commands.push((
                SimDuration::from_secs(600 + 60 * r),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Selected,
                    size_bytes: 8 * MB,
                    num_parts: 8,
                    label: format!("scale-{r}"),
                },
            ));
        }
        let result = run_scenario(&cfg, seed);
        let ts: Vec<f64> = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label.starts_with("scale-"))
            .filter_map(|t| t.total_secs())
            .collect();
        ts.iter().sum::<f64>() / ts.len().max(1) as f64
    }

    /// Runs the sweep.
    pub fn run_experiment(spec: &ExperimentSpec) -> ScalingResult {
        let models = vec!["economic", "random"];
        let seconds = models
            .iter()
            .map(|model| {
                let rows: Vec<Vec<f64>> = run_replications(&spec.seeds, |seed| {
                    OTHERS
                        .iter()
                        .map(|&others| one_run(model, others, seed))
                        .collect()
                });
                SeriesAggregate::from_replications(&rows)
            })
            .collect();
        ScalingResult { models, seconds }
    }

    /// Runs and renders.
    pub fn run(spec: &ExperimentSpec) -> FigureReport {
        let result = run_experiment(spec);
        let labels: Vec<String> = OTHERS.iter().map(|o| format!("{} peers", 8 + o)).collect();
        let mut f = FigureReport::new(
            "Extension: scaling",
            "Mean selected 8 MB transfer vs peergroup size",
            "seconds",
            labels,
        );
        for (m, agg) in result.models.iter().zip(&result.seconds) {
            f.push(SeriesRow::with_sd(*m, agg.means(), agg.std_devs()));
        }
        f.note("paper future work: 'study the performance … using a larger number of peer nodes'");
        f
    }
}

/// Churn study: a peer leaves mid-campaign and the broker must stop
/// selecting it; transfers to remaining peers keep completing.
pub mod churn {
    use super::*;

    /// Typed result.
    pub struct ChurnResult {
        /// Selected transfers completed.
        pub completed: usize,
        /// Selected transfers started in total.
        pub started: usize,
        /// Whether the departed peer was ever chosen after leaving.
        pub leaver_chosen_after_departure: bool,
    }

    /// Runs the churn scenario: SC4 (the favourite) leaves at t=700 s,
    /// while selected transfers continue every 60 s.
    pub fn run_experiment(seed: u64) -> ChurnResult {
        let leave_at = SimDuration::from_secs(700);
        // SC4 leaves the overlay mid-campaign. A Leave is passive, so it
        // coexists with the broker's idle-stop (the harness only rejects
        // work-generating scripted clients under stop_when_idle).
        let mut cfg = ScenarioConfig {
            client_commands_by_sc: vec![(4, leave_at, ClientCommand::Leave)],
            selector: Some(factory("economic")),
            commands: vec![warmup()],
            ..ScenarioConfig::default()
        };
        for r in 0..8u64 {
            cfg.commands.push((
                SimDuration::from_secs(600 + 60 * r),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Selected,
                    size_bytes: 4 * MB,
                    num_parts: 4,
                    label: format!("churn-{r}"),
                },
            ));
        }
        let result = run_scenario(&cfg, seed);
        let started = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label.starts_with("churn-"))
            .count();
        let completed = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label.starts_with("churn-") && t.completed_at.is_some())
            .count();
        let leave_time = netsim::time::SimTime::ZERO + leave_at;
        let leaver = result.testbed.sc(4);
        let leaver_chosen_after_departure = result
            .run
            .log
            .selections
            .iter()
            // Allow the Leave message's flight time before the broker knows.
            .any(|s| s.chosen == leaver && s.at > leave_time + SimDuration::from_secs(5));
        ChurnResult {
            completed,
            started,
            leaver_chosen_after_departure,
        }
    }
}

/// File-request selection study: a file replicated on several peers; the
/// broker picks the serving owner per request, per model.
pub mod request {
    use super::*;

    /// Requests issued per run.
    pub const REQUESTS: u64 = 5;

    /// Typed result.
    pub struct RequestResult {
        /// Model names.
        pub models: Vec<&'static str>,
        /// Mean request-transfer seconds per model.
        pub seconds: SeriesAggregate,
    }

    fn one_run(model: &'static str, seed: u64) -> f64 {
        // SC2, SC4, SC6 and SC7 replicate "mirror.iso"; SC1 requests it
        // repeatedly. Good owner selection avoids SC7.
        let requests = (0..REQUESTS).map(|r| {
            let request = ClientCommand::RequestFile {
                name: "mirror.iso".into(),
            };
            (1, SimDuration::from_secs(600 + 90 * r), request)
        });
        let owners = [2, 4, 6, 7].map(|sc| (sc, "mirror.iso".to_string(), 8 * MB));
        let cfg = ScenarioConfig {
            commands: vec![warmup()],
            // Client-initiated requests are invisible to the broker's idle
            // detector, so the run is horizon-bounded instead.
            stop_when_idle: false,
            horizon: SimDuration::from_secs(3000),
            client_commands_by_sc: requests.collect(),
            shared_files_by_sc: owners.to_vec(),
            selector: Some(factory(model)),
            ..ScenarioConfig::default()
        };
        let result = run_scenario(&cfg, seed);
        let ts: Vec<f64> = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label == "mirror.iso")
            .filter_map(|t| t.total_secs())
            .collect();
        ts.iter().sum::<f64>() / ts.len().max(1) as f64
    }

    /// Runs the study.
    pub fn run_experiment(spec: &ExperimentSpec) -> RequestResult {
        let models = vec!["economic", "quick-peer", "random"];
        let rows: Vec<Vec<f64>> = run_replications(&spec.seeds, |seed| {
            models.iter().map(|m| one_run(m, seed)).collect()
        });
        RequestResult {
            models,
            seconds: SeriesAggregate::from_replications(&rows),
        }
    }

    /// Runs and renders.
    pub fn run(spec: &ExperimentSpec) -> FigureReport {
        let result = run_experiment(spec);
        let mut f = FigureReport::new(
            "Extension: file request",
            "Mean peer-to-peer request-transfer time by owner-selection model",
            "seconds",
            result.models.iter().map(|m| m.to_string()).collect(),
        );
        f.push(SeriesRow::with_sd(
            "measured",
            result.seconds.means(),
            result.seconds.std_devs(),
        ));
        f.note("the file is replicated on SC2/SC4/SC6/SC7; informed selection avoids SC7");
        f
    }
}

/// Application-matching study: the paper's headline conclusion is that
/// "appropriate selection model should be used according to the type and
/// characteristics of the application". We compare evaluator weight
/// profiles on two application types:
///
/// * a **transfer campaign** on a testbed where most peers are flaky
///   receivers and only SC6/SC8 are perfect, and
/// * a **compute campaign** where exactly those two perfect receivers are
///   reluctant executors.
///
/// The file-oriented profile reads the cancellation statistics and wins
/// the transfer campaign; the task-oriented profile reads the acceptance
/// statistics and wins the compute campaign; each profile loses on the
/// application it was not designed for.
pub mod profiles {
    use super::*;
    use peer_selection::evaluator::WeightProfile;

    /// Work items per campaign.
    pub const ROUNDS: u64 = 12;

    /// Petition-refusal rates: every peer is mildly flaky *except* SC6 and
    /// SC8, which are perfect receivers…
    pub const REFUSE: [f64; 8] = [0.4, 0.4, 0.4, 0.4, 0.4, 0.0, 0.4, 0.0];
    /// …but those same two peers reject most task offers. The two failure
    /// modes live on disjoint peers, so a profile tuned to one statistics
    /// family actively walks into the other trap.
    pub const ACCEPT: [f64; 8] = [1.0, 1.0, 1.0, 1.0, 1.0, 0.2, 1.0, 0.2];

    fn profile_factory(which: &'static str) -> SelectorFactory {
        Box::new(move |_| -> Box<dyn PeerSelector> {
            let profile = match which {
                "file-oriented" => WeightProfile::file_oriented(),
                "task-oriented" => WeightProfile::task_oriented(),
                "message-oriented" => WeightProfile::message_oriented(),
                _ => WeightProfile::same_priority(),
            };
            Box::new(Scored::new(DataEvaluatorModel::with_profile(
                which, profile,
            )))
        })
    }

    /// Warm-up that exercises *both* statistic families so every profile
    /// has data: transfers (some refused) and tasks (some rejected).
    fn warmup_mixed() -> Vec<(SimDuration, BrokerCommand)> {
        let mut commands = Vec::new();
        for k in 0..12u64 {
            commands.push((
                SimDuration::from_secs(60 + 90 * k),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: 2 * MB,
                    num_parts: 2,
                    label: format!("warm-f-{k}"),
                },
            ));
            commands.push((
                SimDuration::from_secs(90 + 90 * k),
                BrokerCommand::SubmitTask {
                    target: TargetSpec::AllClients,
                    work_gops: 2.0,
                    input_bytes: 0,
                    input_parts: 1,
                    label: format!("warm-t-{k}"),
                },
            ));
        }
        commands
    }

    /// The shared campaign base: flaky-peer refusal and acceptance
    /// profiles, the mixed warm-up, and the profile's selector.
    fn profiled_config(which: &'static str) -> ScenarioConfig {
        ScenarioConfig {
            transfer_refuse_by_sc: REFUSE,
            task_accept_by_sc: ACCEPT,
            commands: warmup_mixed(),
            selector: Some(profile_factory(which)),
            ..ScenarioConfig::default()
        }
    }

    /// Success rate of a selected-transfer campaign under `which` profile.
    pub fn transfer_campaign(which: &'static str, seed: u64) -> f64 {
        let mut cfg = profiled_config(which);
        for r in 0..ROUNDS {
            cfg.commands.push((
                SimDuration::from_secs(1800 + 45 * r),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Selected,
                    size_bytes: 4 * MB,
                    num_parts: 4,
                    label: format!("camp-{r}"),
                },
            ));
        }
        let result = run_scenario(&cfg, seed);
        let xfers: Vec<_> = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label.starts_with("camp-"))
            .collect();
        xfers.iter().filter(|t| t.completed_at.is_some()).count() as f64 / xfers.len().max(1) as f64
    }

    /// Success rate of a selected-task campaign under `which` profile.
    pub fn task_campaign(which: &'static str, seed: u64) -> f64 {
        let mut cfg = profiled_config(which);
        for r in 0..ROUNDS {
            cfg.commands.push((
                SimDuration::from_secs(1800 + 45 * r),
                BrokerCommand::SubmitTask {
                    target: TargetSpec::Selected,
                    work_gops: 20.0,
                    input_bytes: 0,
                    input_parts: 1,
                    label: format!("camp-{r}"),
                },
            ));
        }
        let result = run_scenario(&cfg, seed);
        let tasks: Vec<_> = result
            .run
            .log
            .tasks
            .iter()
            .filter(|t| t.label.starts_with("camp-"))
            .collect();
        tasks.iter().filter(|t| t.success).count() as f64 / tasks.len().max(1) as f64
    }

    /// Runs the full matrix and renders it.
    pub fn run(spec: &ExperimentSpec) -> FigureReport {
        let profiles = ["file-oriented", "task-oriented", "same-priority"];
        let mut f = FigureReport::new(
            "Extension: application matching",
            "Campaign success rate by evaluator weight profile",
            "fraction completed",
            profiles.iter().map(|p| p.to_string()).collect(),
        );
        let xfer_rows: Vec<Vec<f64>> = run_replications(&spec.seeds, |seed| {
            profiles
                .iter()
                .map(|p| transfer_campaign(p, seed))
                .collect()
        });
        let task_rows: Vec<Vec<f64>> = run_replications(&spec.seeds, |seed| {
            profiles.iter().map(|p| task_campaign(p, seed)).collect()
        });
        let xa = SeriesAggregate::from_replications(&xfer_rows);
        let ta = SeriesAggregate::from_replications(&task_rows);
        f.push(SeriesRow::with_sd(
            "transfer campaign",
            xa.means(),
            xa.std_devs(),
        ));
        f.push(SeriesRow::with_sd(
            "compute campaign",
            ta.means(),
            ta.std_devs(),
        ));
        f.note("the paper's conclusion, quantified: each profile wins the application it was designed for");
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_informed_selection_does_not_degrade() {
        let spec = ExperimentSpec {
            seeds: vec![1, 2],
            ..ExperimentSpec::quick()
        };
        let r = scaling::run_experiment(&spec);
        let econ = &r.seconds[0].means();
        let random = &r.seconds[1].means();
        // Economic stays roughly flat from 8 to 25 peers…
        assert!(
            econ[3] < econ[0] * 1.5,
            "economic degraded with scale: {econ:?}"
        );
        // …and beats the blind baseline at the largest scale.
        assert!(
            econ[3] < random[3],
            "economic {econ:?} should beat random {random:?} at 25 peers"
        );
    }

    #[test]
    fn churn_leaver_is_not_selected_after_departure() {
        let r = churn::run_experiment(7);
        assert!(!r.leaver_chosen_after_departure, "departed peer selected");
        assert!(r.started >= 8, "all selected transfers started");
        assert_eq!(r.completed, r.started, "all selected transfers completed");
    }

    #[test]
    fn request_selection_avoids_bad_owner() {
        let spec = ExperimentSpec {
            seeds: vec![1, 2],
            ..ExperimentSpec::quick()
        };
        let r = request::run_experiment(&spec);
        let means = r.seconds.means();
        // economic < random (random sometimes serves from SC7).
        assert!(means[0] < means[2], "economic {means:?} should beat random");
        for m in &means {
            assert!(m.is_finite() && *m > 0.0);
        }
    }

    #[test]
    fn profile_matches_application() {
        let spec = ExperimentSpec {
            seeds: vec![1, 2, 3],
            ..ExperimentSpec::quick()
        };
        let profile_names = ["file-oriented", "task-oriented"];
        let mut xfer = [0.0; 2];
        let mut task = [0.0; 2];
        for (i, p) in profile_names.iter().enumerate() {
            for &seed in &spec.seeds {
                xfer[i] += profiles::transfer_campaign(p, seed) / spec.seeds.len() as f64;
                task[i] += profiles::task_campaign(p, seed) / spec.seeds.len() as f64;
            }
        }
        // file-oriented wins the transfer campaign…
        assert!(
            xfer[0] > xfer[1],
            "transfer campaign: file-oriented {:.2} vs task-oriented {:.2}",
            xfer[0],
            xfer[1]
        );
        // …and task-oriented wins the compute campaign.
        assert!(
            task[1] > task[0],
            "compute campaign: task-oriented {:.2} vs file-oriented {:.2}",
            task[1],
            task[0]
        );
    }

    #[test]
    fn reports_render() {
        let spec = ExperimentSpec {
            seeds: vec![1],
            ..ExperimentSpec::quick()
        };
        assert!(scaling::run(&spec).render().contains("scaling"));
        assert!(request::run(&spec).render().contains("file request"));
    }
}
