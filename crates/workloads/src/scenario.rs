//! The paper's scenario — one broker, the SC peers — as a harness
//! [`Workload`]: config, validation, the named table, and the fleet.

use netsim::engine::Actor;
use netsim::node::NodeId;
use netsim::shard::ShardMap;
use netsim::time::SimDuration;
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use netsim::transport::TransportConfig;
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, RetryPolicy, TargetSpec};
use overlay::client::{ClientCommand, ClientConfig, SimpleClient};
use overlay::message::OverlayMsg;
use planetlab::builder::{build, Testbed, TestbedConfig};

use crate::harness::{BuildCtx, HarnessError, HarnessRun, TopologyPlan, Workload, WorkloadBuilder};

pub use overlay::selector::SelectorFactory;

/// Everything needed to run one scenario replication.
///
/// A plain config: [`Default`] is the paper's measurement setup, and a
/// driver changes the fields it needs with struct-update syntax. The run
/// parameters every workload shares — worker threads, the trace ring, a
/// time series — live on the [`WorkloadBuilder`] that
/// [`harness`](ScenarioConfig::harness) hands out, never here. Nothing is
/// checked until the harness plans the run: [`Harness::check`] and
/// [`Harness::run`] reject a malformed scenario as a
/// [`HarnessError::Scenario`] (or [`HarnessError::ZeroParallelism`] for
/// zero shards), the same way they reject a malformed federation.
///
/// [`Harness::check`]: crate::harness::Harness::check
/// [`Harness::run`]: crate::harness::Harness::run
pub struct ScenarioConfig {
    /// Which testbed to build.
    pub testbed: TestbedConfig,
    /// Transport model parameters; the drop probability must lie in [0, 1].
    pub transport: TransportConfig,
    /// Broker command script: `(delay from start, command)`.
    pub commands: Vec<(SimDuration, BrokerCommand)>,
    /// Selection model factory; `None` leaves the broker without a model.
    pub selector: Option<SelectorFactory>,
    /// Virtual-time safety horizon.
    pub horizon: SimDuration,
    /// Transfer watchdog timeout.
    pub transfer_timeout: SimDuration,
    /// Per-SC task-acceptance probability (index 0 = SC1). Lets
    /// experiments shape the §2.2 task statistics without touching the
    /// testbed; defaults to every peer accepting everything.
    pub task_accept_by_sc: [f64; 8],
    /// Per-SC petition-refusal probability (flaky peers); defaults to
    /// never refusing.
    pub transfer_refuse_by_sc: [f64; 8],
    /// Scripted client commands: `(sc 1..=8, delay, command)`. A `Rejoin`
    /// must come strictly after a `Leave` of the same SC, and a command
    /// that generates work the broker cannot see (`RequestFile`,
    /// `SubmitJob`) needs `stop_when_idle` off.
    pub client_commands_by_sc: Vec<(u8, SimDuration, ClientCommand)>,
    /// Files shared by clients at join: `(sc 1..=8, name, bytes)`.
    pub shared_files_by_sc: Vec<(u8, String, u64)>,
    /// Whether the broker stops the run once its own scripted work is done.
    pub stop_when_idle: bool,
    /// Retransmission policy handed to the broker (needed for lossy
    /// transports; `None` = no retries).
    pub retry: Option<RetryPolicy>,
    /// Shard domains: nodes are dealt round-robin over this many shards.
    /// 1 (the default) is the serial engine — a lone shard *is* it.
    pub shards: usize,
}

impl Default for ScenarioConfig {
    /// The paper's measurement setup with default physics and an empty
    /// script.
    fn default() -> Self {
        ScenarioConfig {
            testbed: TestbedConfig::measurement_setup(),
            transport: TransportConfig::default(),
            commands: Vec::new(),
            selector: None,
            horizon: SimDuration::from_mins(10 * 60),
            transfer_timeout: SimDuration::from_mins(6 * 60),
            task_accept_by_sc: [1.0; 8],
            transfer_refuse_by_sc: [0.0; 8],
            client_commands_by_sc: Vec::new(),
            shared_files_by_sc: Vec::new(),
            stop_when_idle: true,
            retry: None,
            shards: 1,
        }
    }
}

/// Why the harness refused a scenario, carried by
/// [`HarnessError::Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A scripted client command or shared file named an SC outside 1..=8.
    ScIndexOutOfRange {
        /// Which field carried the bad index.
        what: &'static str,
        /// The offending SC index.
        sc: u8,
    },
    /// A probability field left [0, 1] (or was not finite).
    ProbabilityOutOfRange {
        /// Which probability (e.g. `task_accept_by_sc[3]`).
        what: String,
        /// The offending value.
        value: f64,
    },
    /// `stop_when_idle` was left on while a scripted client generates its
    /// own work (`RequestFile`/`SubmitJob`): the broker cannot see that
    /// work and would stop the run underneath it. Disable idle-stop and
    /// bound the run with the horizon instead.
    IdleStopWithScriptedClients {
        /// The SC whose scripted command generates broker-invisible work.
        sc: u8,
    },
    /// A scripted `Rejoin` had no `Leave` of the same SC strictly before
    /// it: the client would try to re-enter an overlay it never left.
    RejoinNotAfterLeave {
        /// The SC with the unmatched rejoin.
        sc: u8,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ScIndexOutOfRange { what, sc } => {
                write!(f, "{what}: SC index {sc} outside 1..=8")
            }
            ScenarioError::ProbabilityOutOfRange { what, value } => {
                write!(f, "{what}: probability {value} outside [0, 1]")
            }
            ScenarioError::IdleStopWithScriptedClients { sc } => write!(
                f,
                "stop_when_idle with a work-generating scripted client on SC{sc}: \
                 the broker cannot see client-initiated work and would stop under it; \
                 set stop_when_idle to false and bound the run with the horizon"
            ),
            ScenarioError::RejoinNotAfterLeave { sc } => write!(
                f,
                "rejoin on SC{sc}: it must come strictly after a leave of the same SC"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A broadcast of `size_bytes` in `num_parts` to every SC, one minute in:
/// the shape of every named scenario.
fn broadcast(size_bytes: u64, num_parts: u32, label: &str) -> ScenarioConfig {
    ScenarioConfig {
        commands: vec![(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes,
                num_parts,
                label: label.into(),
            },
        )],
        ..ScenarioConfig::default()
    }
}

fn named_fig5_lossy() -> ScenarioConfig {
    let mut cfg = broadcast(100 * crate::spec::MB, 16, "fig5-16");
    cfg.transport.message_drop_probability = 0.05;
    cfg.retry = Some(RetryPolicy::default());
    cfg
}

// A churn round-trip on the measurement testbed: everyone gets a file,
// SC3 leaves and rejoins (under the same identity, exercising the
// registry's refresh-on-rejoin path), SC5 leaves for good, and a second
// round goes only to the seven peers still registered.
fn named_churn() -> ScenarioConfig {
    let mut cfg = broadcast(crate::spec::MB, 1, "churn-pre");
    cfg.commands.push((
        SimDuration::from_secs(240),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: crate::spec::MB,
            num_parts: 1,
            label: "churn-post".into(),
        },
    ));
    cfg.client_commands_by_sc = vec![
        (3, SimDuration::from_secs(90), ClientCommand::Leave),
        (3, SimDuration::from_secs(180), ClientCommand::Rejoin),
        (5, SimDuration::from_secs(90), ClientCommand::Leave),
    ];
    cfg
}

/// A named scenario: its name and the function that builds it.
type NamedScenario = (&'static str, fn() -> ScenarioConfig);

/// The static scenario table: both [`ScenarioConfig::named`] and
/// [`named_scenario_list`] derive from it, so the two can never drift.
static NAMED_SCENARIOS: &[NamedScenario] = &[
    ("smoke", || broadcast(crate::spec::MB, 1, "smoke")),
    // The Fig 2 setup distilled: one small file per SC, so the
    // petition/wake-up wait dominates everything else on SC7.
    ("fig2", || broadcast(crate::spec::MB, 1, "fig2-petition")),
    // The Fig 3/4 bulk study: 50 MB in 1 MB parts, so data transmission
    // dominates even on SC7.
    ("fig234", || broadcast(50 * crate::spec::MB, 50, "fig234")),
    ("fig5", || broadcast(100 * crate::spec::MB, 16, "fig5-16")),
    ("fig5-lossy", named_fig5_lossy),
    ("churn", named_churn),
];

impl ScenarioConfig {
    /// The scenarios `psim trace`/`psim report` (and the CI determinism
    /// check) know by name, resolved from the same static table as
    /// [`named_scenario_list`]. `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        NAMED_SCENARIOS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, build)| build())
    }

    /// The harness parameters this config asks for: its horizon. Drivers
    /// that want more — worker threads, a trace ring, a time series, the
    /// execution profiler — set it on the returned builder and hand it to
    /// [`run_with`](Self::run_with).
    pub fn harness(&self) -> WorkloadBuilder {
        WorkloadBuilder::new().horizon(self.horizon)
    }

    /// Every rule a scenario must meet that the harness cannot know:
    /// probabilities in [0, 1], SC indices in 1..=8, no idle-stop under a
    /// work-generating scripted client, and every rejoin strictly after a
    /// leave of the same SC.
    fn validate(&self) -> Result<(), ScenarioError> {
        let out_of_range = |p: f64| !(0.0..=1.0).contains(&p);
        let drop = self.transport.message_drop_probability;
        if out_of_range(drop) {
            return Err(ScenarioError::ProbabilityOutOfRange {
                what: "transport.message_drop_probability".into(),
                value: drop,
            });
        }
        for (name, per_sc) in [
            ("task_accept_by_sc", &self.task_accept_by_sc),
            ("transfer_refuse_by_sc", &self.transfer_refuse_by_sc),
        ] {
            if let Some((i, &value)) = per_sc.iter().enumerate().find(|(_, &p)| out_of_range(p)) {
                return Err(ScenarioError::ProbabilityOutOfRange {
                    what: format!("{name}[{i}]"),
                    value,
                });
            }
        }
        let commands = &self.client_commands_by_sc;
        let leaves_before = |sc: u8, at: SimDuration| {
            (commands.iter()).any(|(s, t, c)| *s == sc && *t < at && *c == ClientCommand::Leave)
        };
        for &(sc, at, ref cmd) in commands {
            if !(1..=8).contains(&sc) {
                return Err(ScenarioError::ScIndexOutOfRange {
                    what: "client_commands_by_sc",
                    sc,
                });
            }
            match cmd {
                // Leave/Instant are passive; only client-initiated *work*
                // is invisible to the broker's idle detector.
                ClientCommand::RequestFile { .. } | ClientCommand::SubmitJob { .. }
                    if self.stop_when_idle =>
                {
                    return Err(ScenarioError::IdleStopWithScriptedClients { sc });
                }
                ClientCommand::Rejoin if !leaves_before(sc, at) => {
                    return Err(ScenarioError::RejoinNotAfterLeave { sc });
                }
                _ => {}
            }
        }
        for &(sc, _, _) in &self.shared_files_by_sc {
            if !(1..=8).contains(&sc) {
                return Err(ScenarioError::ScIndexOutOfRange {
                    what: "shared_files_by_sc",
                    sc,
                });
            }
        }
        Ok(())
    }

    /// Runs one replication under `seed` on `harness`; whatever the
    /// harness rejects — a run parameter, this scenario, the shard
    /// layout — comes back as its [`HarnessError`].
    pub fn run_with(
        &self,
        harness: WorkloadBuilder,
        seed: u64,
    ) -> Result<ScenarioResult, HarnessError> {
        let run = harness.build()?.run(self, seed)?;
        // The engine consumed the topology it ran on; report code gets the
        // same testbed rebuilt (a pure function of the config).
        let testbed = build(&self.testbed);
        Ok(ScenarioResult { run, testbed })
    }
}

/// The names [`ScenarioConfig::named`] accepts, from the same static table.
pub fn named_scenario_list() -> Vec<&'static str> {
    NAMED_SCENARIOS.iter().map(|(name, _)| *name).collect()
}

/// The fleet of the paper's experiment: one non-federated [`Broker`] and a
/// [`SimpleClient`] on every other node. `planetlab::builder::build`
/// numbers the broker first, then SC1…SC8, then the other slice members —
/// [`Testbed::clients`] order — so client `i < 8` is SC`i + 1`.
impl Workload for ScenarioConfig {
    fn name(&self) -> &'static str {
        "scenario"
    }

    fn topology(&self, _seed: u64) -> Result<TopologyPlan, HarnessError> {
        if self.shards == 0 {
            return Err(HarnessError::ZeroParallelism { what: "shards" });
        }
        self.validate().map_err(HarnessError::Scenario)?;
        let testbed = build(&self.testbed);
        Ok(TopologyPlan {
            map: ShardMap::modulo(testbed.len(), self.shards),
            brokers: vec![testbed.broker],
            topo: testbed.topology,
        })
    }

    fn transport(&self) -> TransportConfig {
        self.transport.clone()
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let seed = cx.seed;
        let broker = cx.brokers[0];
        let mut broker_cfg = BrokerConfig::new(seed ^ 0x0B20_CE12);
        broker_cfg.commands = self.commands.clone();
        broker_cfg.transfer_timeout = self.transfer_timeout;
        broker_cfg.stop_when_idle = self.stop_when_idle;
        broker_cfg.retry = self.retry;
        if let Some(factory) = &self.selector {
            broker_cfg.selector = Some(factory(seed));
        }

        let mut actors: Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> = vec![(
            broker,
            Box::new(Broker::new(broker_cfg, cx.sink_of(broker))),
        )];
        let clients = cx.topo.node_ids().filter(|&node| node != broker);
        for (i, node) in clients.enumerate() {
            let mut client_cfg = ClientConfig::new(broker);
            if i < 8 {
                let sc = i as u8 + 1;
                client_cfg.task_accept_probability = self.task_accept_by_sc[i];
                client_cfg.transfer_refuse_probability = self.transfer_refuse_by_sc[i];
                for (target, delay, cmd) in &self.client_commands_by_sc {
                    if *target == sc {
                        client_cfg.commands.push((*delay, cmd.clone()));
                    }
                }
                for (target, name, bytes) in &self.shared_files_by_sc {
                    if *target == sc {
                        client_cfg.shared_files.push((name.clone(), *bytes));
                    }
                }
            }
            actors.push((
                node,
                Box::new(
                    SimpleClient::new(client_cfg, seed.wrapping_mul(31).wrapping_add(i as u64))
                        .with_sink(cx.sink_of(node)),
                ),
            ));
        }
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        crate::telemetry::overlay_series(interval)
    }

    fn summarize(&self, _seed: u64, _run: &HarnessRun) -> String {
        String::new()
    }
}

/// The observable outputs of one replication: what the harness drained,
/// plus the testbed for node-id → SC mapping in report code.
pub struct ScenarioResult {
    /// Log, metrics, trace, outcome, clocks and telemetry of the run.
    pub run: HarnessRun,
    /// The testbed the run executed on.
    pub testbed: Testbed,
}

/// Runs one replication of `cfg` under `seed` on the harness its horizon
/// describes. Panics if the harness rejects the scenario;
/// [`ScenarioConfig::run_with`] returns that as an error instead.
pub fn run_scenario(cfg: &ScenarioConfig, seed: u64) -> ScenarioResult {
    cfg.run_with(cfg.harness(), seed)
        .unwrap_or_else(|e| panic!("scenario run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MB;
    use netsim::engine::RunOutcome;

    #[test]
    fn scenario_runs_and_stops_when_idle() {
        let result = run_scenario(&broadcast(MB, 1, "smoke"), 1);
        assert_eq!(result.run.outcome, RunOutcome::Stopped);
        assert_eq!(result.run.log.transfers.len(), 8, "one transfer per SC");
        for t in &result.run.log.transfers {
            assert!(t.completed_at.is_some(), "{} incomplete", t.to_name);
        }
        assert_eq!(result.testbed.len(), 9);
        assert!(result.run.metrics.counter("overlay.transfers_completed") == 8);
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let cfg = broadcast(5 * MB, 5, "det");
        let a = run_scenario(&cfg, 7);
        let b = run_scenario(&cfg, 7);
        assert_eq!(a.run.elapsed, b.run.elapsed);
        let times_a: Vec<_> = a.run.log.transfers.iter().map(|t| t.completed_at).collect();
        let times_b: Vec<_> = b.run.log.transfers.iter().map(|t| t.completed_at).collect();
        assert_eq!(times_a, times_b);
        // Different seed → different timings (jitter, service samples).
        let c = run_scenario(&cfg, 8);
        let times_c: Vec<_> = c.run.log.transfers.iter().map(|t| t.completed_at).collect();
        assert_ne!(times_a, times_c);
    }

    #[test]
    fn every_listed_name_resolves() {
        let names = named_scenario_list();
        assert!(!names.is_empty());
        for name in names {
            let cfg = ScenarioConfig::named(name)
                .unwrap_or_else(|| panic!("listed scenario {name:?} does not resolve"));
            assert_eq!(checked(&cfg), Ok(()), "named scenario {name:?} is refused");
        }
        assert!(ScenarioConfig::named("no-such-scenario").is_none());
    }

    /// What the harness says about `cfg` before running it.
    fn checked(cfg: &ScenarioConfig) -> Result<(), HarnessError> {
        cfg.harness().build()?.check(cfg, 1)
    }

    /// The scenario reason the harness refused `cfg` with.
    fn rejected(cfg: &ScenarioConfig) -> ScenarioError {
        match checked(cfg) {
            Err(HarnessError::Scenario(e)) => e,
            other => panic!("expected a scenario rejection, got {other:?}"),
        }
    }

    fn request_on(sc: u8) -> Vec<(u8, SimDuration, ClientCommand)> {
        let request = ClientCommand::RequestFile { name: "f".into() };
        vec![(sc, SimDuration::from_secs(1), request)]
    }

    #[test]
    fn builder_rejects_bad_sc_index() {
        let cfg = ScenarioConfig {
            stop_when_idle: false,
            client_commands_by_sc: request_on(9),
            ..ScenarioConfig::default()
        };
        assert_eq!(
            rejected(&cfg),
            ScenarioError::ScIndexOutOfRange {
                what: "client_commands_by_sc",
                sc: 9
            }
        );
        let cfg = ScenarioConfig {
            shared_files_by_sc: vec![(0, "f".into(), 1)],
            ..ScenarioConfig::default()
        };
        assert!(matches!(
            rejected(&cfg),
            ScenarioError::ScIndexOutOfRange { sc: 0, .. }
        ));
        // The run path refuses it the same way, before any engine exists.
        assert!(matches!(
            cfg.run_with(cfg.harness(), 1).err(),
            Some(HarnessError::Scenario(ScenarioError::ScIndexOutOfRange {
                sc: 0,
                ..
            }))
        ));
    }

    #[test]
    fn builder_rejects_bad_probabilities() {
        let mut accept = [1.0; 8];
        accept[3] = 1.5;
        let err = rejected(&ScenarioConfig {
            task_accept_by_sc: accept,
            ..ScenarioConfig::default()
        });
        assert!(matches!(err, ScenarioError::ProbabilityOutOfRange { .. }));
        assert!(err.to_string().contains("task_accept_by_sc[3]"));

        let mut lossy = ScenarioConfig::default();
        lossy.transport.message_drop_probability = -0.1;
        let err = rejected(&lossy);
        assert!(matches!(err, ScenarioError::ProbabilityOutOfRange { .. }));

        let err = rejected(&ScenarioConfig {
            transfer_refuse_by_sc: [f64::NAN; 8],
            ..ScenarioConfig::default()
        });
        assert!(matches!(err, ScenarioError::ProbabilityOutOfRange { .. }));
    }

    #[test]
    fn run_parameters_fall_under_the_harness_rules() {
        let zero_horizon = ScenarioConfig {
            horizon: SimDuration::ZERO,
            ..ScenarioConfig::default()
        };
        assert_eq!(
            checked(&zero_horizon),
            Err(HarnessError::NonPositiveHorizon)
        );
        let zero_shards = ScenarioConfig {
            shards: 0,
            ..ScenarioConfig::default()
        };
        assert_eq!(
            checked(&zero_shards),
            Err(HarnessError::ZeroParallelism { what: "shards" })
        );
        assert_eq!(
            zero_shards.run_with(zero_shards.harness(), 1).err(),
            Some(HarnessError::ZeroParallelism { what: "shards" })
        );
        let cfg = ScenarioConfig::default();
        assert_eq!(
            cfg.run_with(cfg.harness().shard_workers(0), 1).err(),
            Some(HarnessError::ZeroParallelism {
                what: "shard_workers"
            })
        );
        let sharded = ScenarioConfig {
            shards: 3,
            ..ScenarioConfig::default()
        };
        assert_eq!(checked(&sharded), Ok(()));
    }

    /// `actors` reads the roster off node ids; this pins the numbering it
    /// relies on to the testbed builder's.
    #[test]
    fn every_node_but_the_broker_is_a_client_in_id_order() {
        for cfg in [
            TestbedConfig::measurement_setup(),
            TestbedConfig::full_slice(),
        ] {
            let testbed = build(&cfg);
            let by_id: Vec<NodeId> = testbed
                .topology
                .node_ids()
                .filter(|&node| node != testbed.broker)
                .collect();
            assert_eq!(by_id, testbed.clients());
        }
    }

    #[test]
    fn builder_rejects_inverted_churn_windows() {
        let churn = |leave_sc: u8, leave_at: u64, rejoin_at: u64| ScenarioConfig {
            client_commands_by_sc: vec![
                (
                    leave_sc,
                    SimDuration::from_secs(leave_at),
                    ClientCommand::Leave,
                ),
                (3, SimDuration::from_secs(rejoin_at), ClientCommand::Rejoin),
            ],
            ..ScenarioConfig::default()
        };
        let inverted = ScenarioError::RejoinNotAfterLeave { sc: 3 };
        assert_eq!(
            rejected(&churn(3, 90, 90)),
            inverted,
            "at its leave instant"
        );
        assert_eq!(rejected(&churn(3, 90, 60)), inverted, "before its leave");
        assert_eq!(
            rejected(&churn(4, 60, 90)),
            inverted,
            "after another SC's leave"
        );
        assert_eq!(checked(&churn(3, 90, 91)), Ok(()));
    }

    /// A `Rejoin` with no leave before it used to run as a silent no-op on
    /// `SimpleClient`; the harness now refuses it before any engine exists.
    #[test]
    fn a_rejoin_with_no_earlier_leave_is_refused() {
        let lone = ScenarioConfig {
            client_commands_by_sc: vec![(3, SimDuration::from_secs(90), ClientCommand::Rejoin)],
            ..ScenarioConfig::default()
        };
        let refused = ScenarioError::RejoinNotAfterLeave { sc: 3 };
        assert_eq!(rejected(&lone), refused);
        assert_eq!(
            lone.run_with(lone.harness(), 1).err(),
            Some(HarnessError::Scenario(refused))
        );
    }

    #[test]
    fn named_churn_scenario_round_trips_a_rejoin() {
        let cfg = ScenarioConfig::named("churn").expect("churn is a named scenario");
        let result = run_scenario(&cfg, 3);
        assert_eq!(result.run.outcome, RunOutcome::Stopped);
        let pre = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label == "churn-pre")
            .count();
        let post: Vec<_> = result
            .run
            .log
            .transfers
            .iter()
            .filter(|t| t.label == "churn-post")
            .collect();
        assert_eq!(pre, 8, "first round reaches every SC");
        // SC5 left for good, SC3 left and rejoined: the second round goes
        // to exactly seven peers, SC3 among them.
        assert_eq!(post.len(), 7, "second round skips the departed SC5");
        for t in &post {
            assert!(t.completed_at.is_some(), "{} incomplete", t.to_name);
        }
    }

    #[test]
    fn builder_rejects_idle_stop_with_work_generating_clients() {
        let cfg = ScenarioConfig {
            client_commands_by_sc: request_on(2),
            ..ScenarioConfig::default()
        };
        assert_eq!(
            rejected(&cfg),
            ScenarioError::IdleStopWithScriptedClients { sc: 2 }
        );
        // A passive Leave is fine under idle-stop (churn experiments rely
        // on this), and work-generating commands pass once idle-stop is off.
        let leave = ScenarioConfig {
            client_commands_by_sc: vec![(4, SimDuration::from_secs(1), ClientCommand::Leave)],
            ..ScenarioConfig::default()
        };
        assert_eq!(checked(&leave), Ok(()));
        let horizon_bound = ScenarioConfig {
            stop_when_idle: false,
            ..cfg
        };
        assert_eq!(checked(&horizon_bound), Ok(()));
    }
}
