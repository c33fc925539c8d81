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
/// Constructible only through [`ScenarioConfig::measurement_setup`] (the
/// paper's defaults, always valid) or a [`ScenarioBuilder`], which validates
/// the whole configuration at [`ScenarioBuilder::build`]. The fields are
/// private on purpose: every invariant the builder checks (SC indices,
/// probability ranges, horizon, idle-stop consistency) stays true for the
/// config's whole life. The only post-build mutators are the invariant-safe
/// conveniences [`at`](ScenarioConfig::at),
/// [`with_selector`](ScenarioConfig::with_selector) and
/// [`traced`](ScenarioConfig::traced), plus
/// [`sharded`](ScenarioConfig::sharded), which re-checks its invariant.
pub struct ScenarioConfig {
    /// Which testbed to build.
    testbed: TestbedConfig,
    /// Transport model parameters.
    transport: TransportConfig,
    /// Broker command script: `(delay from start, command)`.
    commands: Vec<(SimDuration, BrokerCommand)>,
    /// Optional selection model factory.
    selector: Option<SelectorFactory>,
    /// Virtual-time safety horizon.
    horizon: SimDuration,
    /// Transfer watchdog timeout.
    transfer_timeout: SimDuration,
    /// Optional per-SC task-acceptance probability (index 0 = SC1). Lets
    /// experiments shape the §2.2 task statistics without touching the
    /// testbed; defaults to every peer accepting everything.
    task_accept_by_sc: Option<[f64; 8]>,
    /// Optional per-SC petition-refusal probability (flaky peers).
    transfer_refuse_by_sc: Option<[f64; 8]>,
    /// Scripted client commands: `(sc 1..=8, delay, command)`.
    client_commands_by_sc: Option<Vec<(u8, SimDuration, ClientCommand)>>,
    /// Files shared by clients at join: `(sc 1..=8, name, bytes)`.
    shared_files_by_sc: Option<Vec<(u8, String, u64)>>,
    /// Whether the broker stops the run once its own scripted work is done.
    stop_when_idle: bool,
    /// Retransmission policy handed to the broker (needed for lossy
    /// transports; `None` = no retries).
    retry: Option<RetryPolicy>,
    /// When `Some(n)`, the engine records the last `n` typed trace events
    /// and the run's `trace` carries them out. `None` (the default) keeps
    /// the allocation-free disabled path.
    trace_capacity: Option<usize>,
    /// Shard domains: nodes are dealt round-robin over this many shards.
    /// 1 (the default) is the serial engine — a lone shard *is* it.
    shards: usize,
    /// Worker threads for a sharded run (clamped to the shard count).
    /// Deterministic by construction: any worker count yields the same
    /// history for a fixed shard count and seed.
    shard_workers: usize,
}

/// Why a scenario was rejected, at [`ScenarioBuilder::build`] or by the
/// harness that runs it.
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
    /// A [`ScenarioBuilder::churn`] pair rejoined at or before its leave:
    /// the client would try to re-enter an overlay it never left.
    RejoinNotAfterLeave {
        /// The SC with the inverted churn window.
        sc: u8,
    },
    /// A run parameter every harness workload shares (horizon, shard and
    /// worker counts, series interval) or the engine's own check of the
    /// shard layout was rejected.
    Harness(HarnessError),
}

impl From<HarnessError> for ScenarioError {
    fn from(e: HarnessError) -> Self {
        ScenarioError::Harness(e)
    }
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
                 use stop_when_idle(false) and bound the run with the horizon"
            ),
            ScenarioError::RejoinNotAfterLeave { sc } => write!(
                f,
                "churn pair on SC{sc}: the rejoin must come strictly after the leave"
            ),
            ScenarioError::Harness(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Builder for [`ScenarioConfig`]: the only way to set the validated
/// fields. Starts from the paper's measurement defaults and checks every
/// invariant once, at [`build`](ScenarioBuilder::build).
#[must_use = "a builder does nothing until build() is called"]
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
    /// `(sc, leave_at, rejoin_at)` pairs added via [`churn`]
    /// (ScenarioBuilder::churn), kept for ordering validation at build.
    churn_pairs: Vec<(u8, SimDuration, SimDuration)>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder::measurement_setup()
    }
}

impl ScenarioBuilder {
    /// Starts from the paper's measurement setup with default physics.
    pub fn measurement_setup() -> Self {
        ScenarioBuilder {
            cfg: ScenarioConfig {
                testbed: TestbedConfig::measurement_setup(),
                transport: TransportConfig::default(),
                commands: Vec::new(),
                selector: None,
                horizon: SimDuration::from_mins(10 * 60),
                transfer_timeout: SimDuration::from_mins(6 * 60),
                task_accept_by_sc: None,
                transfer_refuse_by_sc: None,
                client_commands_by_sc: None,
                shared_files_by_sc: None,
                stop_when_idle: true,
                retry: None,
                trace_capacity: None,
                shards: 1,
                shard_workers: 1,
            },
            churn_pairs: Vec::new(),
        }
    }

    /// Number of shard domains (1 = the serial engine; validated ≥ 1 at build).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Worker threads for a sharded run (clamped to the shard count).
    pub fn shard_workers(mut self, workers: usize) -> Self {
        self.cfg.shard_workers = workers;
        self
    }

    /// Replaces the testbed.
    pub fn testbed(mut self, testbed: TestbedConfig) -> Self {
        self.cfg.testbed = testbed;
        self
    }

    /// Replaces the transport model wholesale.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Sets the transport's message-drop probability (validated at build).
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.cfg.transport.message_drop_probability = p;
        self
    }

    /// Appends a broker command at `delay` from start.
    pub fn at(mut self, delay: SimDuration, cmd: BrokerCommand) -> Self {
        self.cfg.commands.push((delay, cmd));
        self
    }

    /// Installs a selection-model factory.
    pub fn selector(mut self, f: SelectorFactory) -> Self {
        self.cfg.selector = Some(f);
        self
    }

    /// Sets the virtual-time safety horizon.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.cfg.horizon = horizon;
        self
    }

    /// Sets the transfer watchdog timeout.
    pub fn transfer_timeout(mut self, timeout: SimDuration) -> Self {
        self.cfg.transfer_timeout = timeout;
        self
    }

    /// Per-SC task-acceptance probabilities (index 0 = SC1).
    pub fn task_accept_by_sc(mut self, accept: [f64; 8]) -> Self {
        self.cfg.task_accept_by_sc = Some(accept);
        self
    }

    /// Per-SC petition-refusal probabilities (index 0 = SC1).
    pub fn transfer_refuse_by_sc(mut self, refuse: [f64; 8]) -> Self {
        self.cfg.transfer_refuse_by_sc = Some(refuse);
        self
    }

    /// Appends one scripted client command on `sc` (1..=8).
    pub fn client_command(mut self, sc: u8, delay: SimDuration, cmd: ClientCommand) -> Self {
        self.cfg
            .client_commands_by_sc
            .get_or_insert_with(Vec::new)
            .push((sc, delay, cmd));
        self
    }

    /// Registers a file shared by `sc` (1..=8) at join.
    pub fn shared_file(mut self, sc: u8, name: impl Into<String>, bytes: u64) -> Self {
        self.cfg
            .shared_files_by_sc
            .get_or_insert_with(Vec::new)
            .push((sc, name.into(), bytes));
        self
    }

    /// Scripts one churn cycle on `sc` (1..=8): a graceful Leave at
    /// `leave_at` and a Rejoin at `rejoin_at`. The rejoin re-advertises
    /// the peer under its original identity, so the broker's registry
    /// refresh path (not a fresh insert) is what gets exercised. Ordering
    /// is validated at [`build`](ScenarioBuilder::build).
    pub fn churn(mut self, sc: u8, leave_at: SimDuration, rejoin_at: SimDuration) -> Self {
        self.churn_pairs.push((sc, leave_at, rejoin_at));
        let commands = self.cfg.client_commands_by_sc.get_or_insert_with(Vec::new);
        commands.push((sc, leave_at, ClientCommand::Leave));
        commands.push((sc, rejoin_at, ClientCommand::Rejoin));
        self
    }

    /// Whether the broker stops the run once its scripted work is done.
    pub fn stop_when_idle(mut self, stop: bool) -> Self {
        self.cfg.stop_when_idle = stop;
        self
    }

    /// Retransmission policy for lossy transports.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = Some(retry);
        self
    }

    /// Enables typed tracing with a ring buffer of `capacity` events.
    pub fn traced(mut self, capacity: usize) -> Self {
        self.cfg.trace_capacity = Some(capacity);
        self
    }

    /// Validates every invariant and returns the finished config.
    pub fn build(self) -> Result<ScenarioConfig, ScenarioError> {
        for &(sc, leave_at, rejoin_at) in &self.churn_pairs {
            if rejoin_at <= leave_at {
                return Err(ScenarioError::RejoinNotAfterLeave { sc });
            }
        }
        let cfg = self.cfg;
        cfg.check_run_params()?;
        let check_prob = |what: String, value: f64| {
            if !(0.0..=1.0).contains(&value) {
                return Err(ScenarioError::ProbabilityOutOfRange { what, value });
            }
            Ok(())
        };
        check_prob(
            "transport.message_drop_probability".into(),
            cfg.transport.message_drop_probability,
        )?;
        if let Some(accept) = &cfg.task_accept_by_sc {
            for (i, &p) in accept.iter().enumerate() {
                check_prob(format!("task_accept_by_sc[{i}]"), p)?;
            }
        }
        if let Some(refuse) = &cfg.transfer_refuse_by_sc {
            for (i, &p) in refuse.iter().enumerate() {
                check_prob(format!("transfer_refuse_by_sc[{i}]"), p)?;
            }
        }
        if let Some(commands) = &cfg.client_commands_by_sc {
            for (sc, _, cmd) in commands {
                if !(1..=8).contains(sc) {
                    return Err(ScenarioError::ScIndexOutOfRange {
                        what: "client_commands_by_sc",
                        sc: *sc,
                    });
                }
                // Leave/Instant are passive; only client-initiated *work*
                // (file requests, job submissions) is invisible to the
                // broker's idle detector.
                let generates_work = matches!(
                    cmd,
                    ClientCommand::RequestFile { .. } | ClientCommand::SubmitJob { .. }
                );
                if generates_work && cfg.stop_when_idle {
                    return Err(ScenarioError::IdleStopWithScriptedClients { sc: *sc });
                }
            }
        }
        if let Some(shared) = &cfg.shared_files_by_sc {
            for (sc, _, _) in shared {
                if !(1..=8).contains(sc) {
                    return Err(ScenarioError::ScIndexOutOfRange {
                        what: "shared_files_by_sc",
                        sc: *sc,
                    });
                }
            }
        }
        Ok(cfg)
    }
}

/// One entry of the static scenario table: both [`ScenarioConfig::named`]
/// and [`named_scenario_list`] derive from it, so the two can never drift.
struct NamedScenario {
    name: &'static str,
    build: fn() -> ScenarioConfig,
}

fn named_smoke() -> ScenarioConfig {
    ScenarioConfig::measurement_setup().at(
        SimDuration::from_secs(60),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: crate::spec::MB,
            num_parts: 1,
            label: "smoke".into(),
        },
    )
}

// The Fig 2 setup distilled: one small file per SC, so the petition/wake-up
// wait dominates everything else on SC7.
fn named_fig2() -> ScenarioConfig {
    ScenarioConfig::measurement_setup().at(
        SimDuration::from_secs(60),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: crate::spec::MB,
            num_parts: 1,
            label: "fig2-petition".into(),
        },
    )
}

// The Fig 3/4 bulk study: 50 MB in 1 MB parts, so data transmission
// dominates even on SC7.
fn named_fig234() -> ScenarioConfig {
    ScenarioConfig::measurement_setup().at(
        SimDuration::from_secs(60),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 50 * crate::spec::MB,
            num_parts: 50,
            label: "fig234".into(),
        },
    )
}

fn named_fig5() -> ScenarioConfig {
    ScenarioConfig::measurement_setup().at(
        SimDuration::from_secs(60),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 100 * crate::spec::MB,
            num_parts: 16,
            label: "fig5-16".into(),
        },
    )
}

fn named_fig5_lossy() -> ScenarioConfig {
    ScenarioBuilder::measurement_setup()
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 100 * crate::spec::MB,
                num_parts: 16,
                label: "fig5-16".into(),
            },
        )
        .drop_probability(0.05)
        .retry(RetryPolicy::default())
        .build()
        .expect("fig5-lossy scenario is valid")
}

// A churn round-trip on the measurement testbed: everyone gets a file,
// SC3 leaves and rejoins (under the same identity, exercising the
// registry's refresh-on-rejoin path), SC5 leaves for good, and a second
// round goes only to the seven peers still registered.
fn named_churn() -> ScenarioConfig {
    ScenarioBuilder::measurement_setup()
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: crate::spec::MB,
                num_parts: 1,
                label: "churn-pre".into(),
            },
        )
        .churn(3, SimDuration::from_secs(90), SimDuration::from_secs(180))
        .client_command(5, SimDuration::from_secs(90), ClientCommand::Leave)
        .at(
            SimDuration::from_secs(240),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: crate::spec::MB,
                num_parts: 1,
                label: "churn-post".into(),
            },
        )
        .build()
        .expect("churn scenario is valid")
}

static NAMED_SCENARIOS: &[NamedScenario] = &[
    NamedScenario {
        name: "smoke",
        build: named_smoke,
    },
    NamedScenario {
        name: "fig2",
        build: named_fig2,
    },
    NamedScenario {
        name: "fig234",
        build: named_fig234,
    },
    NamedScenario {
        name: "fig5",
        build: named_fig5,
    },
    NamedScenario {
        name: "fig5-lossy",
        build: named_fig5_lossy,
    },
    NamedScenario {
        name: "churn",
        build: named_churn,
    },
];

impl ScenarioConfig {
    /// Starts a validating [`ScenarioBuilder`] from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::measurement_setup()
    }

    /// The paper's measurement setup with default physics. Equivalent to
    /// `ScenarioConfig::builder().build()`, which cannot fail for the
    /// defaults.
    pub fn measurement_setup() -> Self {
        ScenarioBuilder::measurement_setup()
            .build()
            .expect("measurement defaults are valid")
    }

    /// Enables typed tracing with a ring buffer of `capacity` events.
    pub fn traced(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The scenarios `psim trace`/`psim report` (and the CI determinism
    /// check) know by name, resolved from the same static table as
    /// [`named_scenario_list`]. `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        NAMED_SCENARIOS
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.build)())
    }

    /// Appends a command. Broker commands are opaque to validation
    /// (targets resolve at run time), so this stays available post-build.
    pub fn at(mut self, delay: SimDuration, cmd: BrokerCommand) -> Self {
        self.commands.push((delay, cmd));
        self
    }

    /// Installs a selector factory (invariant-free, so post-build is fine).
    pub fn with_selector(mut self, f: SelectorFactory) -> Self {
        self.selector = Some(f);
        self
    }

    /// The testbed this scenario builds.
    pub fn testbed(&self) -> &TestbedConfig {
        &self.testbed
    }

    /// The transport model parameters.
    pub fn transport(&self) -> &TransportConfig {
        &self.transport
    }

    /// The broker command script.
    pub fn commands(&self) -> &[(SimDuration, BrokerCommand)] {
        &self.commands
    }

    /// The virtual-time safety horizon.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// The trace ring-buffer capacity, when tracing is enabled.
    pub fn trace_capacity(&self) -> Option<usize> {
        self.trace_capacity
    }

    /// Number of shard domains (1 = the serial engine).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Worker threads for a sharded run.
    pub fn shard_workers(&self) -> usize {
        self.shard_workers
    }

    /// Sets the shard/worker axis post-build, under the same non-zero
    /// rule [`ScenarioBuilder::build`] applies.
    pub fn sharded(mut self, shards: usize, workers: usize) -> Result<Self, ScenarioError> {
        self.shards = shards;
        self.shard_workers = workers;
        self.check_run_params()?;
        Ok(self)
    }

    /// The harness parameters this config asks for. Drivers that want
    /// more — a forced trace, a time series, the execution profiler — set
    /// it on the returned builder and hand it to [`run_with`](Self::run_with).
    pub fn harness(&self) -> WorkloadBuilder {
        WorkloadBuilder::new()
            .horizon(self.horizon)
            .shard_workers(self.shard_workers)
            .trace_capacity(self.trace_capacity)
    }

    /// The run parameters the harness owns, checked by the harness's own
    /// rules, plus the one it cannot see (the shard count lives here).
    fn check_run_params(&self) -> Result<(), HarnessError> {
        if self.shards == 0 {
            return Err(HarnessError::ZeroParallelism { what: "shards" });
        }
        self.harness().build().map(drop)
    }

    /// Runs one replication under `seed` on `harness`, surfacing a rejected
    /// run parameter or shard layout as a [`ScenarioError::Harness`].
    pub fn run_with(
        &self,
        harness: WorkloadBuilder,
        seed: u64,
    ) -> Result<ScenarioResult, ScenarioError> {
        let run = harness.build()?.run(self, seed)?;
        // The engine consumed the topology it ran on; report code gets the
        // same testbed rebuilt (a pure function of the config).
        let testbed = build(&self.testbed);
        Ok(ScenarioResult { run, testbed })
    }
}

/// The names [`ScenarioConfig::named`] accepts, from the same static table.
pub fn named_scenario_list() -> Vec<&'static str> {
    NAMED_SCENARIOS.iter().map(|s| s.name).collect()
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
                if let Some(accept) = &self.task_accept_by_sc {
                    client_cfg.task_accept_probability = accept[i];
                }
                if let Some(refuse) = &self.transfer_refuse_by_sc {
                    client_cfg.transfer_refuse_probability = refuse[i];
                }
                for (target, delay, cmd) in self.client_commands_by_sc.iter().flatten() {
                    if *target == sc {
                        client_cfg.commands.push((*delay, cmd.clone()));
                    }
                }
                for (target, name, bytes) in self.shared_files_by_sc.iter().flatten() {
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

/// Runs one replication of `cfg` under `seed` on the harness its own
/// parameters describe. Panics if the engine refuses the shard layout;
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
        let cfg = ScenarioConfig::measurement_setup().at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: MB,
                num_parts: 1,
                label: "smoke".into(),
            },
        );
        let result = run_scenario(&cfg, 1);
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
        let mk = || {
            ScenarioConfig::measurement_setup().at(
                SimDuration::from_secs(60),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: 5 * MB,
                    num_parts: 5,
                    label: "det".into(),
                },
            )
        };
        let a = run_scenario(&mk(), 7);
        let b = run_scenario(&mk(), 7);
        assert_eq!(a.run.elapsed, b.run.elapsed);
        let times_a: Vec<_> = a.run.log.transfers.iter().map(|t| t.completed_at).collect();
        let times_b: Vec<_> = b.run.log.transfers.iter().map(|t| t.completed_at).collect();
        assert_eq!(times_a, times_b);
        // Different seed → different timings (jitter, service samples).
        let c = run_scenario(&mk(), 8);
        let times_c: Vec<_> = c.run.log.transfers.iter().map(|t| t.completed_at).collect();
        assert_ne!(times_a, times_c);
    }

    #[test]
    fn every_listed_name_resolves() {
        let names = named_scenario_list();
        assert!(!names.is_empty());
        for name in names {
            assert!(
                ScenarioConfig::named(name).is_some(),
                "listed scenario {name:?} does not resolve"
            );
        }
        assert!(ScenarioConfig::named("no-such-scenario").is_none());
    }

    #[test]
    fn builder_rejects_bad_sc_index() {
        let err = ScenarioConfig::builder()
            .stop_when_idle(false)
            .client_command(
                9,
                SimDuration::from_secs(1),
                ClientCommand::RequestFile { name: "f".into() },
            )
            .build()
            .err()
            .expect("expected a build error");
        assert_eq!(
            err,
            ScenarioError::ScIndexOutOfRange {
                what: "client_commands_by_sc",
                sc: 9
            }
        );
        let err = ScenarioConfig::builder()
            .shared_file(0, "f", 1)
            .build()
            .err()
            .expect("expected a build error");
        assert!(matches!(
            err,
            ScenarioError::ScIndexOutOfRange { sc: 0, .. }
        ));
    }

    #[test]
    fn builder_rejects_bad_probabilities() {
        let mut accept = [1.0; 8];
        accept[3] = 1.5;
        let err = ScenarioConfig::builder()
            .task_accept_by_sc(accept)
            .build()
            .err()
            .expect("expected a build error");
        assert!(matches!(err, ScenarioError::ProbabilityOutOfRange { .. }));
        assert!(err.to_string().contains("task_accept_by_sc[3]"));

        let err = ScenarioConfig::builder()
            .drop_probability(-0.1)
            .build()
            .err()
            .expect("expected a build error");
        assert!(matches!(err, ScenarioError::ProbabilityOutOfRange { .. }));

        let err = ScenarioConfig::builder()
            .transfer_refuse_by_sc([f64::NAN; 8])
            .build()
            .err()
            .expect("expected a build error");
        assert!(matches!(err, ScenarioError::ProbabilityOutOfRange { .. }));
    }

    #[test]
    fn run_parameters_fall_under_the_harness_rules() {
        let rejected = |builder: ScenarioBuilder| match builder.build() {
            Err(ScenarioError::Harness(e)) => e,
            _ => panic!("expected a harness rejection"),
        };
        assert_eq!(
            rejected(ScenarioConfig::builder().horizon(SimDuration::ZERO)),
            HarnessError::NonPositiveHorizon
        );
        assert_eq!(
            rejected(ScenarioConfig::builder().shards(0)),
            HarnessError::ZeroParallelism { what: "shards" }
        );
        assert_eq!(
            rejected(ScenarioConfig::builder().shard_workers(0)),
            HarnessError::ZeroParallelism {
                what: "shard_workers"
            }
        );
        // The post-build axis setter is held to the same rule.
        assert!(ScenarioConfig::measurement_setup().sharded(0, 1).is_err());
        assert!(ScenarioConfig::measurement_setup().sharded(3, 2).is_ok());
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
        let err = ScenarioConfig::builder()
            .churn(3, SimDuration::from_secs(90), SimDuration::from_secs(90))
            .build()
            .err()
            .expect("expected a build error");
        assert_eq!(err, ScenarioError::RejoinNotAfterLeave { sc: 3 });
        assert!(ScenarioConfig::builder()
            .churn(3, SimDuration::from_secs(90), SimDuration::from_secs(91))
            .build()
            .is_ok());
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
        let err = ScenarioConfig::builder()
            .client_command(
                2,
                SimDuration::from_secs(1),
                ClientCommand::RequestFile { name: "f".into() },
            )
            .build()
            .err()
            .expect("expected a build error");
        assert_eq!(err, ScenarioError::IdleStopWithScriptedClients { sc: 2 });
        // A passive Leave is fine under idle-stop (churn experiments rely
        // on this), and work-generating commands pass once idle-stop is off.
        assert!(ScenarioConfig::builder()
            .client_command(4, SimDuration::from_secs(1), ClientCommand::Leave)
            .build()
            .is_ok());
        assert!(ScenarioConfig::builder()
            .stop_when_idle(false)
            .client_command(
                2,
                SimDuration::from_secs(1),
                ClientCommand::RequestFile { name: "f".into() },
            )
            .build()
            .is_ok());
    }
}
