//! The workload harness: one typed pipeline, and one result shape,
//! under every driver.
//!
//! The paper scenarios, churn, multiregion, federation and streaming
//! all execute the same sequence — build a testbed and its shard map,
//! hand out per-shard [`RecordSink`]s, wire the brokers into a
//! [`Federation`], construct the actor fleet, assemble a
//! [`ShardedEngine`] with tracing / time-series / profiling plumbing,
//! run to the horizon, and drain everything back into a merged,
//! worker-count-invariant [`HarnessRun`]. A driver is a [`Workload`]
//! implementation — what testbed, which actors, which series columns,
//! what summary line — plus a config whose `harness()` hands out the
//! [`WorkloadBuilder`] its horizon and trace ring imply; worker threads,
//! time series and execution profiling are set on that builder, never on
//! a config. The harness owns the rest, including the only engine
//! construction in this crate (one shard is the serial engine, so no
//! driver chooses an engine type) and the stdout artifact `psim` prints
//! ([`Harness::run_with_artifact`]).
//!
//! Determinism contract: the harness adds no randomness of its own. It
//! threads the caller's seed through untouched, builds sinks/federation
//! in a fixed order, and registers actors in exactly the order the
//! workload returned them, so for a fixed `(workload, config, seed,
//! num_shards)` the artifact bytes are identical at any worker count;
//! `tests/goldens/` pins them at 1, 2, and 4 workers.

use std::sync::Arc;

use netsim::engine::{Actor, RunOutcome};
use netsim::metrics::Metrics;
use netsim::node::NodeId;
use netsim::parallel::{ParallelError, ParallelProfile, ShardedEngine};
use netsim::profile::ExecutionProfile;
use netsim::shard::{ShardMap, ShardMapError};
use netsim::time::{SimDuration, SimTime};
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use netsim::topology::Topology;
use netsim::trace::Trace;
use netsim::transport::TransportConfig;
use overlay::federation::{Federation, FederationBuilder, FederationError, HomingPolicy};
use overlay::message::OverlayMsg;
use overlay::records::{RecordSink, RunLog};

use crate::report::metrics_snapshot_json;
use crate::scenario::ScenarioError;

/// The documented defaults every workload driver resolves to.
///
/// Before the harness these values were restated (and had drifted) in
/// each driver's `Default` impl and in the psim flag table; they now
/// live here once, and `harness::tests::drivers_resolve_to_documented_defaults`
/// pins each driver to them.
pub mod defaults {
    use netsim::time::SimDuration;

    /// Broker-to-broker roster gossip cadence for interactive,
    /// CI-horizon workloads (multiregion, federation, streaming).
    pub const GOSSIP_INTERVAL: SimDuration = SimDuration::from_secs(30);
    /// Gossip cadence for hour-scale churn soaks, where a 30 s cadence
    /// would dominate the event volume. The one *intentional* drift.
    pub const SOAK_GOSSIP_INTERVAL: SimDuration = SimDuration::from_secs(60);
    /// Client probe cadence toward a silent broker
    /// (`FailoverPolicy::default().probe_interval`).
    pub const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(30);
    /// Probe silence threshold before a client re-homes
    /// (`FailoverPolicy::default().probe_timeout`).
    pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(90);
    /// Windowed time-series sampling interval (the psim
    /// `--interval-secs` default).
    pub const SERIES_INTERVAL: SimDuration = SimDuration::from_secs(60);
    /// Typed-trace ring capacity for library-level driver defaults.
    pub const TRACE_CAPACITY: usize = 1 << 14;
    /// Typed-trace ring capacity for psim determinism artifacts, sized
    /// so CI-scale runs never drop events.
    pub const CLI_TRACE_CAPACITY: usize = 1 << 16;
}

/// Why a harness run could not be configured or assembled.
///
/// Builder-checked variants (`NonPositiveHorizon`, `ZeroParallelism`,
/// `ZeroSeriesInterval`) surface from [`WorkloadBuilder::build`];
/// the wrapped variants surface from [`Harness::check`] and
/// [`Harness::run`] when the workload's testbed, shard map, scenario or
/// federation parameters are rejected by the layer that owns them.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The virtual-time horizon was zero: the engine would stop at t=0.
    NonPositiveHorizon,
    /// `shards` or `shard_workers` was zero; both must be at least 1.
    ZeroParallelism {
        /// Which knob was zero (`"shards"` or `"shard_workers"`).
        what: &'static str,
    },
    /// The shard count cannot partition this testbed (zero, or more
    /// shards than regions for region-major workloads).
    InvalidShardCount {
        /// The rejected shard count.
        num_shards: usize,
        /// How many regions the testbed has.
        regions: usize,
    },
    /// The node → shard assignment was rejected by the shard-map layer.
    ShardMap(ShardMapError),
    /// The sharded engine rejected the topology / shard-map pair (e.g.
    /// a zero cross-shard lookahead would deadlock the window schedule).
    Parallel(ParallelError),
    /// A telemetry series interval of zero virtual time was requested;
    /// the window schedule would never advance.
    ZeroSeriesInterval,
    /// The broker-federation parameters were rejected by
    /// [`FederationBuilder`].
    Federation(FederationError),
    /// The paper scenario's own rules (SC indices, probabilities,
    /// idle-stop, rejoin order) were broken.
    Scenario(ScenarioError),
}

impl From<ShardMapError> for HarnessError {
    fn from(e: ShardMapError) -> Self {
        HarnessError::ShardMap(e)
    }
}

impl From<ParallelError> for HarnessError {
    fn from(e: ParallelError) -> Self {
        HarnessError::Parallel(e)
    }
}

impl From<TimeSeriesError> for HarnessError {
    fn from(e: TimeSeriesError) -> Self {
        match e {
            TimeSeriesError::ZeroInterval => HarnessError::ZeroSeriesInterval,
        }
    }
}

impl From<FederationError> for HarnessError {
    fn from(e: FederationError) -> Self {
        HarnessError::Federation(e)
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::NonPositiveHorizon => {
                write!(f, "horizon must be positive virtual time")
            }
            HarnessError::ZeroParallelism { what } => {
                write!(f, "{what} must be at least 1")
            }
            HarnessError::InvalidShardCount {
                num_shards,
                regions,
            } => write!(
                f,
                "num_shards {num_shards} cannot partition a {regions}-region testbed \
                 (need 1 <= num_shards <= regions)"
            ),
            HarnessError::ShardMap(e) => write!(f, "shard assignment rejected: {e:?}"),
            HarnessError::Parallel(e) => write!(f, "sharded engine rejected: {e:?}"),
            HarnessError::ZeroSeriesInterval => {
                write!(f, "telemetry series interval must be positive virtual time")
            }
            HarnessError::Federation(e) => write!(f, "federation rejected: {e}"),
            HarnessError::Scenario(e) => write!(f, "scenario rejected: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// A scripted broker crash (and optional restart), by region.
///
/// Lives in the harness because every federated workload shares the
/// same scripting surface; `workloads::federation` re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerOutage {
    /// Region whose broker goes down (also its federation roster index).
    pub region: usize,
    /// When the crash fires.
    pub down_at: SimDuration,
    /// When the broker comes back empty-handed; `None` = stays down.
    pub restart_at: Option<SimDuration>,
}

/// How a workload's brokers federate. The harness feeds this through
/// [`FederationBuilder`] against the topology plan's broker roster.
///
/// The default is the inert gossip-only wiring the churn and
/// multi-region drivers use: every broker peers with every other on the
/// [`defaults::GOSSIP_INTERVAL`] cadence, but petition forwarding stays
/// off (`forward_hops: 0`) and nothing is scripted to fail.
#[derive(Debug, Clone, Copy)]
pub struct FederationSpec {
    /// How clients map to their home-broker preference list.
    pub homing: HomingPolicy,
    /// Broker-to-broker roster gossip cadence.
    pub gossip_interval: SimDuration,
    /// Tolerated age of gossiped candidate views; `None` = the builder
    /// default of three gossip rounds.
    pub staleness_bound: Option<SimDuration>,
    /// Hop budget for cross-broker petition forwarding (0 = off).
    pub forward_hops: u32,
    /// Scripted broker crash/restart, if any.
    pub outage: Option<BrokerOutage>,
}

impl Default for FederationSpec {
    fn default() -> Self {
        FederationSpec {
            homing: HomingPolicy::RegionAffinity,
            gossip_interval: defaults::GOSSIP_INTERVAL,
            staleness_bound: None,
            forward_hops: 0,
            outage: None,
        }
    }
}

impl FederationSpec {
    /// Wires `brokers` into a [`Federation`] per this spec.
    fn build(&self, brokers: Vec<NodeId>) -> Result<Federation, FederationError> {
        let mut builder = FederationBuilder::new(brokers)
            .homing(self.homing)
            .gossip_interval(self.gossip_interval)
            .forward_hops(self.forward_hops);
        if let Some(bound) = self.staleness_bound {
            builder = builder.staleness_bound(bound);
        }
        if let Some(kill) = self.outage {
            builder = builder.outage(kill.region, kill.down_at, kill.restart_at);
        }
        builder.build()
    }
}

/// The testbed a workload runs on: topology, node → shard assignment,
/// and the broker roster (one broker per region, region order).
pub struct TopologyPlan {
    /// The full topology, moved into the engine after actor construction.
    pub topo: Topology,
    /// Node → shard assignment (fixed across worker counts).
    pub map: ShardMap,
    /// Broker node per region, in region order — the federation roster.
    pub brokers: Vec<NodeId>,
}

/// Everything a workload may consult while constructing its actor fleet.
pub struct BuildCtx<'a> {
    /// The master seed (actor seeds must derive from it and node ids
    /// only, so they survive re-sharding unchanged).
    pub seed: u64,
    /// The planned topology (read-only; the engine takes it afterwards).
    pub topo: &'a Topology,
    /// The broker roster, region order.
    pub brokers: &'a [NodeId],
    /// The built federation (configure brokers, derive home lists).
    pub federation: &'a Federation,
    map: &'a ShardMap,
    sinks: &'a [RecordSink],
}

impl BuildCtx<'_> {
    /// The record sink of the shard owning `node`.
    pub fn sink_of(&self, node: NodeId) -> RecordSink {
        self.sinks[self.map.shard_of(node)].clone()
    }
}

/// One workload on the harness: the testbed, the actor fleet, the
/// telemetry columns, and the summary tail of the stdout artifact.
/// Everything else — engine assembly, plumbing, draining — is the
/// harness's job and identical across workloads.
pub trait Workload {
    /// Short name used in diagnostics.
    fn name(&self) -> &'static str;

    /// Builds the testbed for this seed: topology, shard map, brokers.
    fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError>;

    /// How the brokers federate. Defaults to inert gossip-only wiring.
    fn federation(&self) -> FederationSpec {
        FederationSpec::default()
    }

    /// The transport model the engine plans messages with. Defaults to
    /// the loss-free [`TransportConfig::default`].
    fn transport(&self) -> TransportConfig {
        TransportConfig::default()
    }

    /// Constructs the actor fleet. Registration order is exactly the
    /// returned order, so it must be a deterministic function of the
    /// config and seed.
    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)>;

    /// The time-series column set sampled at `interval`.
    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError>;

    /// The worker-invariant summary tail appended to the stdout
    /// artifact after the trace JSONL and the metrics snapshot —
    /// summary JSON line(s) for most workloads, the attribution phase
    /// CSV for multiregion. Must end with a newline (or be empty).
    fn summarize(&self, seed: u64, run: &HarnessRun) -> String;
}

/// Merged, worker-count-invariant outputs of one harness run.
pub struct HarnessRun {
    /// Merged run log (shard order, worker-count invariant).
    pub log: RunLog,
    /// Merged engine metrics.
    pub metrics: Metrics,
    /// Merged typed trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Final virtual time.
    pub elapsed: SimTime,
    /// Events processed across all shards.
    pub events_processed: u64,
    /// Most events one shard ever stored at once (worker-invariant: each
    /// shard's queue follows the window schedule, not the threads). No
    /// delivery due after the horizon is stored.
    pub peak_queue_len: usize,
    /// Window/occupancy profile of the parallel run.
    pub profile: ParallelProfile,
    /// Display name per node, indexed by `NodeId::index()` — the
    /// `label_of` input for attribution breakdowns.
    pub node_names: Vec<Arc<str>>,
    /// Windowed time-series rows, when a series interval was set.
    pub series: Option<TimeSeriesRecorder>,
    /// Per-shard execution accounting, when profiling was enabled.
    pub exec_profile: Option<ExecutionProfile>,
}

impl HarnessRun {
    /// The worker-invariant stdout artifact: trace JSONL, then the
    /// metrics snapshot line, then `tail` (the workload's
    /// [`Workload::summarize`] output) verbatim.
    pub fn artifact(&self, tail: &str) -> String {
        let mut out = self.trace.to_jsonl();
        out.push_str(&metrics_snapshot_json(&self.metrics));
        out.push('\n');
        out.push_str(tail);
        out
    }
}

/// Builder for a [`Harness`]: the only way to set the validated run
/// parameters. Checks every invariant once, at
/// [`build`](WorkloadBuilder::build), and reports violations as typed
/// [`HarnessError`]s — same discipline as `FederationBuilder`.
#[must_use = "a builder does nothing until build() is called"]
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    horizon: SimDuration,
    shard_workers: usize,
    trace_capacity: Option<usize>,
    series_interval: Option<SimDuration>,
    profile_execution: bool,
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        WorkloadBuilder::new()
    }
}

impl WorkloadBuilder {
    /// Starts from the CI-sized defaults: a 900 s horizon, one worker,
    /// no tracing, no time series, no profiling.
    pub fn new() -> Self {
        WorkloadBuilder {
            horizon: SimDuration::from_secs(900),
            shard_workers: 1,
            trace_capacity: None,
            series_interval: None,
            profile_execution: false,
        }
    }

    /// Virtual-time horizon bounding the run.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Worker threads for the sharded engine.
    pub fn shard_workers(mut self, workers: usize) -> Self {
        self.shard_workers = workers;
        self
    }

    /// Typed-trace ring capacity; `None` keeps tracing disabled.
    pub fn trace_capacity(mut self, capacity: Option<usize>) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// When `Some`, the workload's series schema samples merged metrics
    /// at this sim-time interval.
    pub fn series_interval(mut self, interval: Option<SimDuration>) -> Self {
        self.series_interval = interval;
        self
    }

    /// Record per-shard, per-barrier-round execution accounting.
    pub fn profile_execution(mut self, on: bool) -> Self {
        self.profile_execution = on;
        self
    }

    /// Validates the parameters into a runnable [`Harness`].
    pub fn build(self) -> Result<Harness, HarnessError> {
        if self.horizon.is_zero() {
            return Err(HarnessError::NonPositiveHorizon);
        }
        if self.shard_workers == 0 {
            return Err(HarnessError::ZeroParallelism {
                what: "shard_workers",
            });
        }
        if self.series_interval.is_some_and(|i| i.is_zero()) {
            return Err(HarnessError::ZeroSeriesInterval);
        }
        Ok(Harness { params: self })
    }
}

/// A validated harness, ready to run any [`Workload`].
pub struct Harness {
    params: WorkloadBuilder,
}

impl Harness {
    /// The part of a run that can be rejected before an engine exists:
    /// the workload's testbed and shard map, and its federation wiring.
    fn plan(
        workload: &dyn Workload,
        seed: u64,
    ) -> Result<(TopologyPlan, Federation), HarnessError> {
        let plan = workload.topology(seed)?;
        let federation = workload.federation().build(plan.brokers.clone())?;
        Ok((plan, federation))
    }

    /// Plans `workload` under `seed` without running it, so a caller
    /// about to fan many runs out (a sweep campaign) can refuse a
    /// malformed one first.
    pub fn check(&self, workload: &dyn Workload, seed: u64) -> Result<(), HarnessError> {
        Self::plan(workload, seed).map(|_| ())
    }

    /// Runs `workload` under `seed`: plan the testbed, hand out
    /// per-shard sinks, wire the federation, build the fleet, assemble
    /// the sharded engine with the requested telemetry, run to the
    /// horizon, and drain merged results. Byte-identical for any
    /// `shard_workers` at fixed shards.
    pub fn run(&self, workload: &dyn Workload, seed: u64) -> Result<HarnessRun, HarnessError> {
        let p = &self.params;
        let (TopologyPlan { topo, map, brokers }, federation) = Self::plan(workload, seed)?;
        let sinks: Vec<RecordSink> = (0..map.num_shards()).map(|_| RecordSink::new()).collect();
        let actors = workload.actors(&BuildCtx {
            seed,
            topo: &topo,
            brokers: &brokers,
            federation: &federation,
            map: &map,
            sinks: &sinks,
        });

        let mut engine: ShardedEngine<OverlayMsg> =
            ShardedEngine::new(topo, workload.transport(), seed, map, p.shard_workers)?;
        if let Some(capacity) = p.trace_capacity {
            engine.enable_trace(capacity);
        }
        if let Some(interval) = p.series_interval {
            engine.install_recorder(workload.series_schema(interval)?);
        }
        if p.profile_execution {
            engine.enable_profiling();
        }
        for (node, actor) in actors {
            engine.register(node, actor);
        }
        let outcome = engine.run_until(SimTime::ZERO + p.horizon);
        let exec_profile = engine.execution_profile().cloned();

        let mut log = RunLog::default();
        for sink in &sinks {
            log.absorb(sink.drain());
        }
        // Built after the run: only post-run readers use the names.
        let topo = engine.topology();
        let node_names = (topo.node_ids())
            .map(|id| Arc::from(topo.node(id).name.as_str()))
            .collect();
        Ok(HarnessRun {
            log,
            metrics: engine.metrics(),
            trace: engine.trace(),
            outcome,
            elapsed: engine.now(),
            events_processed: engine.events_processed(),
            peak_queue_len: engine.peak_queue_len(),
            profile: engine.profile(),
            node_names,
            series: engine.take_recorder(),
            exec_profile,
        })
    }

    /// Runs `workload` and renders its full stdout artifact in one go.
    pub fn run_with_artifact(
        &self,
        workload: &dyn Workload,
        seed: u64,
    ) -> Result<(HarnessRun, String), HarnessError> {
        let run = self.run(workload, seed)?;
        let tail = workload.summarize(seed, &run);
        let artifact = run.artifact(&tail);
        Ok((run, artifact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay::federation::FailoverPolicy;

    #[test]
    fn builder_rejects_zero_horizon() {
        let err = WorkloadBuilder::new()
            .horizon(SimDuration::ZERO)
            .build()
            .err()
            .expect("zero horizon must be rejected");
        assert_eq!(err, HarnessError::NonPositiveHorizon);
    }

    #[test]
    fn builder_rejects_zero_workers() {
        let err = WorkloadBuilder::new()
            .shard_workers(0)
            .build()
            .err()
            .expect("zero workers must be rejected");
        assert_eq!(
            err,
            HarnessError::ZeroParallelism {
                what: "shard_workers"
            }
        );
    }

    #[test]
    fn builder_rejects_zero_series_interval() {
        let err = WorkloadBuilder::new()
            .series_interval(Some(SimDuration::ZERO))
            .build()
            .err()
            .expect("zero series interval must be rejected");
        assert_eq!(err, HarnessError::ZeroSeriesInterval);
    }

    #[test]
    fn builder_accepts_defaults() {
        assert!(WorkloadBuilder::new().build().is_ok());
    }

    /// The satellite contract: each driver's `Default` impl resolves to
    /// the documented harness defaults, and the overlay failover policy
    /// matches the probe constants documented here.
    #[test]
    fn drivers_resolve_to_documented_defaults() {
        use crate::churn::ChurnConfig;
        use crate::federation::FederationConfig;
        use crate::multiregion::MultiRegionConfig;
        use crate::streaming::StreamingConfig;

        assert_eq!(
            ChurnConfig::default().gossip_interval,
            defaults::SOAK_GOSSIP_INTERVAL,
            "churn soaks gossip on the hour-scale cadence"
        );
        assert_eq!(
            MultiRegionConfig::default().gossip_interval,
            defaults::GOSSIP_INTERVAL
        );
        assert_eq!(
            FederationConfig::default().gossip_interval,
            defaults::GOSSIP_INTERVAL
        );
        assert_eq!(
            StreamingConfig::default().gossip_interval,
            defaults::GOSSIP_INTERVAL
        );
        let failover = FailoverPolicy::default();
        assert_eq!(failover.probe_interval, defaults::PROBE_INTERVAL);
        assert_eq!(failover.probe_timeout, defaults::PROBE_TIMEOUT);
        assert_eq!(
            FederationConfig::default().failover.probe_interval,
            defaults::PROBE_INTERVAL
        );
        assert_eq!(
            ChurnConfig::default().trace_capacity,
            Some(defaults::TRACE_CAPACITY)
        );
        assert_eq!(
            FederationConfig::default().trace_capacity,
            Some(defaults::TRACE_CAPACITY)
        );
    }

    #[test]
    fn federation_spec_default_is_gossip_only() {
        let spec = FederationSpec::default();
        assert_eq!(spec.forward_hops, 0, "forwarding must default off");
        assert_eq!(spec.gossip_interval, defaults::GOSSIP_INTERVAL);
        assert!(spec.outage.is_none());
    }

    #[test]
    fn stdout_artifact_orders_sections() {
        let harness = WorkloadBuilder::new().build().expect("defaults are valid");
        let (run, artifact) = harness
            .run_with_artifact(&Degenerate(FaultMode::None), 7)
            .expect("the healthy mode runs");
        let expected = format!("{}\ntail\n", metrics_snapshot_json(&run.metrics));
        assert_eq!(artifact, expected, "an untraced run has no JSONL section");
    }

    /// Which layer a [`Degenerate`] workload sabotages, so each wrapped
    /// `HarnessError` variant is reachable through the public run path.
    #[derive(Clone, Copy)]
    enum FaultMode {
        None,
        /// Shard-map assignment skips an id → `ShardMap(UnusedShard)`.
        UnusedShard,
        /// Map covers fewer nodes than the topology → `Parallel(..)`.
        MapMismatch,
        /// Zero shards requested → `InvalidShardCount`.
        BadShardCount,
        /// Zero gossip cadence → `Federation(NonPositiveGossip)`.
        ZeroGossip,
    }

    /// Minimal actor-less workload with one injectable fault per mode.
    struct Degenerate(FaultMode);

    impl Workload for Degenerate {
        fn name(&self) -> &'static str {
            "degenerate"
        }

        fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError> {
            use crate::synthtopo::{build_synth_topo, SynthTopoConfig};
            let cfg = SynthTopoConfig {
                regions: 2,
                peers: 4,
                ..SynthTopoConfig::default()
            };
            let built = build_synth_topo(&cfg, seed);
            let map = match self.0 {
                FaultMode::UnusedShard => ShardMap::from_assignment(vec![0, 2])?,
                FaultMode::MapMismatch => ShardMap::from_assignment(vec![0])?,
                FaultMode::BadShardCount => cfg.shard_map(0)?,
                _ => cfg.shard_map(2)?,
            };
            Ok(TopologyPlan {
                topo: built.topo,
                map,
                brokers: built.brokers,
            })
        }

        fn federation(&self) -> FederationSpec {
            let mut spec = FederationSpec::default();
            if matches!(self.0, FaultMode::ZeroGossip) {
                spec.gossip_interval = SimDuration::ZERO;
            }
            spec
        }

        fn actors(&self, _cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
            Vec::new()
        }

        fn series_schema(
            &self,
            interval: SimDuration,
        ) -> Result<TimeSeriesRecorder, TimeSeriesError> {
            TimeSeriesRecorder::new(interval)
        }

        fn summarize(&self, _seed: u64, _run: &HarnessRun) -> String {
            "tail\n".to_string()
        }
    }

    /// The satellite contract: every `HarnessError` variant is reachable
    /// through the public builder / `Harness::run` path — no dead arms.
    #[test]
    fn every_error_variant_is_reachable() {
        assert_eq!(
            WorkloadBuilder::new()
                .horizon(SimDuration::ZERO)
                .build()
                .err(),
            Some(HarnessError::NonPositiveHorizon)
        );
        assert_eq!(
            WorkloadBuilder::new().shard_workers(0).build().err(),
            Some(HarnessError::ZeroParallelism {
                what: "shard_workers"
            })
        );
        assert_eq!(
            WorkloadBuilder::new()
                .series_interval(Some(SimDuration::ZERO))
                .build()
                .err(),
            Some(HarnessError::ZeroSeriesInterval)
        );

        let harness = WorkloadBuilder::new().build().expect("defaults are valid");
        assert_eq!(
            harness.run(&Degenerate(FaultMode::UnusedShard), 7).err(),
            Some(HarnessError::ShardMap(ShardMapError::UnusedShard(1)))
        );
        let err = harness
            .run(&Degenerate(FaultMode::BadShardCount), 7)
            .err()
            .expect("zero shards must be rejected");
        assert!(matches!(
            err,
            HarnessError::InvalidShardCount {
                num_shards: 0,
                regions: 2
            }
        ));
        let err = harness
            .run(&Degenerate(FaultMode::MapMismatch), 7)
            .err()
            .expect("short shard map must be rejected");
        assert!(matches!(
            err,
            HarnessError::Parallel(ParallelError::MapSizeMismatch { .. })
        ));
        let err = harness
            .run(&Degenerate(FaultMode::ZeroGossip), 7)
            .err()
            .expect("zero gossip cadence must be rejected");
        assert!(matches!(
            err,
            HarnessError::Federation(FederationError::NonPositiveGossip)
        ));
        // The healthy mode runs, so the fixture itself isn't vacuous.
        assert!(harness.run(&Degenerate(FaultMode::None), 7).is_ok());

        // The paper scenarios run on this pipeline too: the harness refuses
        // their own rules, its run parameters and the engine's alike.
        use crate::scenario::{ScenarioConfig, ScenarioError};
        use planetlab::builder::TestbedConfig;
        let cfg = ScenarioConfig {
            shared_files_by_sc: vec![(9, "f".into(), 1)],
            ..ScenarioConfig::default()
        };
        assert_eq!(
            harness.check(&cfg, 7).err(),
            Some(HarnessError::Scenario(ScenarioError::ScIndexOutOfRange {
                what: "shared_files_by_sc",
                sc: 9
            }))
        );
        let cfg = ScenarioConfig::default();
        let zero_interval = cfg.harness().series_interval(Some(SimDuration::ZERO));
        assert_eq!(
            cfg.run_with(zero_interval, 7).err(),
            Some(HarnessError::ZeroSeriesInterval)
        );
        let mut colocated = TestbedConfig::measurement_setup();
        colocated.rtt.floor_ms = 0.0;
        colocated.rtt.path_inflation = 0.0;
        let cfg = ScenarioConfig {
            testbed: colocated,
            shards: 3,
            ..ScenarioConfig::default()
        };
        assert_eq!(
            cfg.run_with(cfg.harness(), 7).err(),
            Some(HarnessError::Parallel(ParallelError::ZeroLookahead))
        );
        let cfg = ScenarioConfig { shards: 1, ..cfg };
        assert!(cfg.run_with(cfg.harness(), 7).is_ok());
    }
}
