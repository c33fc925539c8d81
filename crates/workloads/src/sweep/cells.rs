//! The workloads a grid can run: what each [`CellWorkload`] is, which axes
//! it reads, how one of its cells is built and checked
//! ([`CellWorkload::plan`]) and how a replication is run and reduced to
//! rows ([`CellPlan::run`]).
//!
//! Every cell is put to the validating builder of the layer that will run
//! it — [`ScenarioBuilder`] for the paper's testbed, the harness for the
//! synthetic ones — so a mis-specified grid fails before any thread spins
//! up.

use netsim::metrics::Metrics;
use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, RetryPolicy, TargetSpec};

use super::{Axis, Cell, SweepError, SweepSpec};
use crate::experiments::{fig6, per_sc_transfer_metric, sc_labels};
use crate::federation::{
    petition_latencies, run_federation, FederationConfig, FederationWorkload, LatencySummary,
};
use crate::scenario::{ScenarioBuilder, ScenarioConfig};
use crate::spec::MB;
use crate::streaming::{
    run_streaming, startup_delays, StartupQuantiles, StreamingConfig, StreamingStats,
    StreamingWorkload,
};
use crate::synthtopo::SynthTopoConfig;

/// Label of the broadcast transfer in [`CellWorkload::Distribute`] cells.
pub const DISTRIBUTE_LABEL: &str = "sweep";
/// Label of the measured transfer in [`CellWorkload::SelectedTransfer`].
pub const MEASURED_LABEL: &str = "measured";

/// What each cell simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// Broadcast one file to every SC (the Figs 3–5 shape) on the paper's
    /// 9-node measurement slice. Rows are per-SC transmission minutes.
    /// Broadcasting never consults a selector, so the model stays blind.
    Distribute {
        /// File size in bytes.
        size_bytes: u64,
    },
    /// The Fig 6/7 selection shape: warm-up broadcast + warm-up tasks, a
    /// background transfer congesting the historically-fastest peer, then
    /// one measured transfer to the peer the model selects. The single row
    /// is the measured seconds. Every cell needs a non-blind model, so the
    /// spec must list [`Axis::Models`].
    SelectedTransfer {
        /// Size of the measured transfer in bytes.
        measured_bytes: u64,
        /// Size of the congesting background transfer in bytes.
        background_bytes: u64,
    },
    /// The multi-broker federation shape ([`crate::federation`]): homing,
    /// roster gossip, petition forwarding on a synthetic testbed. The
    /// single row is the mean petition latency. Each federated broker
    /// runs its own round-robin selector.
    Federation {
        /// Peers across the federation.
        peers: usize,
    },
    /// The streaming-on-demand shape ([`crate::streaming`]): playback
    /// buffers over piece exchange on a synthetic testbed. Rows are the
    /// median startup delay and the fleet rebuffering total. Viewers pull
    /// from hash-assigned owners, not a selector.
    Streaming {
        /// Viewers across the testbed.
        viewers: usize,
    },
}

impl CellWorkload {
    /// The unit of this workload's rows.
    pub fn unit(self) -> &'static str {
        match self {
            CellWorkload::Distribute { .. } => "minutes",
            CellWorkload::SelectedTransfer { .. }
            | CellWorkload::Federation { .. }
            | CellWorkload::Streaming { .. } => "seconds",
        }
    }

    pub(super) fn name(self) -> &'static str {
        match self {
            CellWorkload::Distribute { .. } => "distribute",
            CellWorkload::SelectedTransfer { .. } => "selected-transfer",
            CellWorkload::Federation { .. } => "federation",
            CellWorkload::Streaming { .. } => "streaming",
        }
    }

    /// The task-accept profile every cell of this workload runs under: its
    /// name in the `accept` column and the per-SC acceptance probabilities
    /// (`None` = everyone accepts; Fig 6's warm-up has the well-connected
    /// peers decline more often).
    pub(super) fn accept(self) -> (&'static str, Option<[f64; 8]>) {
        match self {
            CellWorkload::SelectedTransfer { .. } => {
                ("fig6-warmup", Some(fig6::WARMUP_TASK_ACCEPT))
            }
            _ => ("accept-all", None),
        }
    }

    /// Whether this workload's cells read `axis`. A spec may only list
    /// axes its workload reads: a level that changes nothing would still
    /// be printed in every row, reporting runs that did not happen.
    pub(super) fn reads(self, axis: &Axis) -> bool {
        match self {
            CellWorkload::Distribute { .. } => matches!(axis, Axis::Drop(_) | Axis::Parts(_)),
            CellWorkload::SelectedTransfer { .. } => {
                matches!(axis, Axis::Models(_) | Axis::Drop(_) | Axis::Parts(_))
            }
            CellWorkload::Federation { .. } => {
                matches!(axis, Axis::Brokers(_) | Axis::Staleness(_) | Axis::Parts(_))
            }
            CellWorkload::Streaming { .. } => {
                matches!(
                    axis,
                    Axis::Policies(_) | Axis::Windows(_) | Axis::Uploads(_)
                )
            }
        }
    }
}

/// One replication's extracted measures.
pub(super) struct RepOutcome {
    /// `(label, value)` rows, identical labels across replications.
    pub(super) values: Vec<(String, f64)>,
    /// The selected peer's name (empty when the cell never selects).
    pub(super) chosen: String,
    /// The replication's full engine metrics.
    pub(super) metrics: Metrics,
}

/// One cell's run config, accepted by the layer that will run it.
pub(super) enum CellPlan {
    Distribute(ScenarioConfig),
    SelectedTransfer(ScenarioConfig),
    Federation(FederationConfig),
    Streaming(StreamingConfig),
}

impl CellWorkload {
    /// Builds `cell`'s config and puts it to its builder: the scenario
    /// builder for the testbed workloads, the harness (run parameters,
    /// shard map, federation wiring) for the synthetic ones, planned
    /// under the cell's first seed.
    pub(super) fn plan(self, spec: &SweepSpec, cell: &Cell) -> Result<CellPlan, SweepError> {
        let seed = spec.seed_for(cell.index, 0);
        match self {
            CellWorkload::Distribute { size_bytes } => {
                let builder = scenario_builder(spec, cell).at(
                    spec.warmup,
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::AllClients,
                        size_bytes,
                        num_parts: cell.parts,
                        label: DISTRIBUTE_LABEL.into(),
                    },
                );
                Ok(CellPlan::Distribute(builder.build()?))
            }
            CellWorkload::SelectedTransfer {
                measured_bytes,
                background_bytes,
            } => selected_transfer_for_cell(spec, cell, measured_bytes, background_bytes)
                .map(CellPlan::SelectedTransfer),
            CellWorkload::Federation { peers } => {
                let cfg = federation_for_cell(cell, peers);
                let harness = cfg.harness().build()?;
                harness.check(&FederationWorkload { cfg: &cfg }, seed)?;
                Ok(CellPlan::Federation(cfg))
            }
            CellWorkload::Streaming { viewers } => {
                let cfg = streaming_for_cell(cell, viewers);
                let harness = cfg.harness().build()?;
                harness.check(&StreamingWorkload { cfg: &cfg }, seed)?;
                Ok(CellPlan::Streaming(cfg))
            }
        }
    }
}

impl CellPlan {
    /// Runs one replication under `seed` and reduces it to the cell's
    /// rows. Whatever the engine still refuses at run time comes back as
    /// an error, never a panic inside the pool.
    pub(super) fn run(&self, seed: u64) -> Result<RepOutcome, SweepError> {
        match self {
            CellPlan::Distribute(cfg) => {
                let result = cfg.run_with(cfg.harness(), seed)?;
                let minutes = per_sc_transfer_metric(&result, DISTRIBUTE_LABEL, |t| {
                    t.total_secs().map(|s| s / 60.0)
                });
                Ok(RepOutcome {
                    values: sc_labels().into_iter().zip(minutes).collect(),
                    chosen: String::new(),
                    metrics: result.run.metrics,
                })
            }
            CellPlan::SelectedTransfer(cfg) => {
                let run = cfg.run_with(cfg.harness(), seed)?.run;
                let secs = run
                    .log
                    .transfers
                    .iter()
                    .find(|t| t.label == MEASURED_LABEL)
                    .and_then(|t| t.total_secs())
                    .unwrap_or(f64::NAN);
                let chosen = run
                    .log
                    .selections
                    .first()
                    .map(|s| s.chosen_name.to_string())
                    .unwrap_or_default();
                Ok(RepOutcome {
                    values: vec![("selected".to_string(), secs)],
                    chosen,
                    metrics: run.metrics,
                })
            }
            CellPlan::Federation(cfg) => {
                let result = run_federation(cfg, seed)?;
                let mean = LatencySummary::from_samples(&petition_latencies(&result.log))
                    .map(|s| s.mean_s)
                    .unwrap_or(f64::NAN);
                Ok(RepOutcome {
                    values: vec![("petition_mean".to_string(), mean)],
                    chosen: String::new(),
                    metrics: result.metrics,
                })
            }
            CellPlan::Streaming(cfg) => {
                let result = run_streaming(cfg, seed)?;
                let StreamingStats { rebuffer_secs, .. } = StreamingStats::from_log(&result.log);
                let startup_p50 = StartupQuantiles::from_samples(&startup_delays(&result.log))
                    .map(|q| q.p50_s)
                    .unwrap_or(f64::NAN);
                Ok(RepOutcome {
                    values: vec![
                        ("startup_p50".to_string(), startup_p50),
                        ("rebuffer_secs".to_string(), rebuffer_secs),
                    ],
                    chosen: String::new(),
                    metrics: result.metrics,
                })
            }
        }
    }
}

/// The paper's measurement setup under the cell's drop level (a lossy
/// cell gets default retries) and the workload's accept profile.
fn scenario_builder(spec: &SweepSpec, cell: &Cell) -> ScenarioBuilder {
    let mut builder = ScenarioBuilder::measurement_setup().drop_probability(cell.drop_probability);
    if cell.drop_probability > 0.0 {
        builder = builder.retry(RetryPolicy::default());
    }
    if let (_, Some(accept)) = spec.workload.accept() {
        builder = builder.task_accept_by_sc(accept);
    }
    builder
}

/// The Fig 6/7 script: warm-up broadcast and tasks, the background
/// transfer, then the measured transfer to the peer the cell's model
/// selects. A blind cell is refused: blind installs no selector.
fn selected_transfer_for_cell(
    spec: &SweepSpec,
    cell: &Cell,
    measured_bytes: u64,
    background_bytes: u64,
) -> Result<ScenarioConfig, SweepError> {
    let factory = fig6::factory_for_kind(cell.model).ok_or(SweepError::ModelWorkloadMismatch {
        model: cell.model,
        workload: spec.workload.name(),
    })?;
    let t0 = spec.warmup;
    let t_bg = t0 + SimDuration::from_secs(600);
    let t_measure = t_bg + SimDuration::from_secs(2);
    let mut builder = scenario_builder(spec, cell).at(
        t0,
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 8 * MB,
            num_parts: 8,
            label: "warmup".into(),
        },
    );
    for k in 0..5u64 {
        builder = builder.at(
            t0 + SimDuration::from_secs(60 + 15 * k),
            BrokerCommand::SubmitTask {
                target: TargetSpec::AllClients,
                work_gops: 2.0,
                input_bytes: 0,
                input_parts: 1,
                label: format!("warmup-task-{k}"),
            },
        );
    }
    let cfg = builder
        .at(
            t_bg,
            BrokerCommand::DistributeFile {
                target: TargetSpec::Node(fig6::fastest_peer_node()),
                size_bytes: background_bytes,
                num_parts: cell.parts,
                label: "background".into(),
            },
        )
        .at(
            t_measure,
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: measured_bytes,
                num_parts: cell.parts,
                label: MEASURED_LABEL.into(),
            },
        )
        .selector(factory)
        .build()?;
    Ok(cfg)
}

/// Builds one federation cell's config: one region (and one shard) per
/// broker, the cell's cadence as both gossip interval and staleness bound,
/// and the parts axis as the per-round split count.
fn federation_for_cell(cell: &Cell, peers: usize) -> FederationConfig {
    let defaults = FederationConfig::default();
    let cadence =
        (cell.gossip_staleness > 0.0).then(|| SimDuration::from_secs_f64(cell.gossip_staleness));
    FederationConfig {
        topo: SynthTopoConfig {
            regions: cell.brokers,
            peers: peers.max(cell.brokers),
            ..SynthTopoConfig::default()
        },
        num_shards: cell.brokers,
        gossip_interval: cadence.unwrap_or(defaults.gossip_interval),
        staleness_bound: cadence,
        file_parts: cell.parts,
        trace_capacity: None,
        ..defaults
    }
}

/// Builds one streaming cell's config: the default four-region testbed,
/// the cell's piece policy, window, and upload distribution, with a CI
/// horizon and tracing off.
fn streaming_for_cell(cell: &Cell, viewers: usize) -> StreamingConfig {
    StreamingConfig {
        topo: SynthTopoConfig {
            regions: 4,
            peers: viewers.max(4),
            ..SynthTopoConfig::default()
        },
        policy: cell.piece_policy,
        window: cell.window,
        upload: cell.upload,
        num_shards: 4,
        total_pieces: 24,
        horizon: SimDuration::from_secs(600),
        trace_capacity: None,
        ..StreamingConfig::default()
    }
}
