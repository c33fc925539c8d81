//! Grid-sweep campaigns: every paper result is a cross-product.
//!
//! A [`SweepSpec`] spans typed axes (selection model, split count, drop
//! probability, testbed, task-accept profile) and expands into a
//! deterministic list of [`Cell`]s — testbed outermost, parts
//! fastest-varying. Each cell runs `replications` independent simulations
//! whose seeds derive from a stable splitmix64 mix of (campaign seed, cell
//! index, replication index), so any cell of any campaign can be re-run in
//! isolation and produce the same numbers.
//!
//! Execution fans all cells × replications out over a bounded work-stealing
//! pool ([`crate::runner::run_indexed`]); results fold back **in seed
//! order**, so the worker count never changes a single digit of the output.
//! [`CampaignResult`] renders deterministic CSV and JSON, and
//! [`CampaignResult::merged_metrics`] folds every cell's engine metrics
//! into one registry under per-cell tags
//! ([`netsim::metrics::Metrics::merge_tagged`]).
//!
//! The named grids [`named_grid`] (`fig345`, `fig67`) reproduce the paper's
//! tables end-to-end; `psim sweep` is the CLI face.

use netsim::metrics::{Metrics, RunningStat};
use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, RetryPolicy, TargetSpec};
pub use overlay::selector::ModelKind;
use planetlab::builder::TestbedConfig;

use crate::experiments::{fig6, per_sc_transfer_metric, sc_labels};
use crate::federation::{petition_latencies, run_federation, FederationConfig, LatencySummary};
use crate::runner::run_indexed;
use crate::scenario::{run_scenario, ScenarioBuilder, ScenarioConfig, ScenarioError};
use crate::spec::MB;
use crate::streaming::{
    run_streaming, startup_delays, PiecePolicy, StartupQuantiles, StreamingConfig, StreamingStats,
    UploadProfile,
};
use crate::synthtopo::SynthTopoConfig;

mod grids;
pub use grids::{
    federation_grid, fig345_grid, fig67_grid, named_grid, named_grid_list, streaming_grid,
};

/// Label of the broadcast transfer in [`CellWorkload::Distribute`] cells.
pub const DISTRIBUTE_LABEL: &str = "sweep";
/// Label of the measured transfer in [`CellWorkload::SelectedTransfer`].
pub const MEASURED_LABEL: &str = "measured";

/// One splitmix64 step: the standard finalizer (Steele et al.), also used
/// by the engine's RNG seeding. Full 64-bit avalanche — consecutive inputs
/// land far apart.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for `(campaign_seed, cell, replication)` by chaining
/// splitmix64 over the three coordinates. Stable across releases: changing
/// it would silently change every derived campaign's numbers, so treat the
/// constants as part of the output format.
pub fn derive_seed(campaign_seed: u64, cell: u64, replication: u64) -> u64 {
    let a = splitmix64(campaign_seed);
    let b = splitmix64(a ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(b ^ replication.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// The testbed axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestbedAxis {
    /// The paper's 9-node measurement slice (broker + 8 SCs).
    Measurement,
    /// The full PlanetLab slice.
    FullSlice,
}

impl TestbedAxis {
    /// Canonical spelling for CSV/JSON columns.
    pub fn name(self) -> &'static str {
        match self {
            TestbedAxis::Measurement => "measurement",
            TestbedAxis::FullSlice => "full-slice",
        }
    }

    /// The concrete testbed configuration.
    pub fn config(self) -> TestbedConfig {
        match self {
            TestbedAxis::Measurement => TestbedConfig::measurement_setup(),
            TestbedAxis::FullSlice => TestbedConfig::full_slice(),
        }
    }
}

/// The task-accept axis: a named per-SC acceptance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptProfile {
    /// Name for CSV/JSON columns.
    pub name: &'static str,
    /// Per-SC acceptance probabilities; `None` = everyone accepts.
    pub accept_by_sc: Option<[f64; 8]>,
}

/// Every peer accepts every task offer.
pub const ACCEPT_ALL: AcceptProfile = AcceptProfile {
    name: "accept-all",
    accept_by_sc: None,
};

/// The Fig 6 warm-up asymmetry: well-connected peers decline more often.
pub const FIG6_WARMUP_ACCEPT: AcceptProfile = AcceptProfile {
    name: "fig6-warmup",
    accept_by_sc: Some(fig6::WARMUP_TASK_ACCEPT),
};

/// What each cell simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// Broadcast one file to every SC (the Figs 3–5 shape). Rows are per-SC
    /// transmission minutes. Requires [`ModelKind::Blind`]: broadcasting
    /// never consults a selector.
    Distribute {
        /// File size in bytes.
        size_bytes: u64,
    },
    /// The Fig 6/7 selection shape: warm-up broadcast + warm-up tasks, a
    /// background transfer congesting the historically-fastest peer, then
    /// one measured transfer to the peer the model selects. The single row
    /// is the measured seconds. Requires a non-blind model.
    SelectedTransfer {
        /// Size of the measured transfer in bytes.
        measured_bytes: u64,
        /// Size of the congesting background transfer in bytes.
        background_bytes: u64,
    },
    /// The multi-broker federation shape ([`crate::federation`]): homing,
    /// roster gossip, petition forwarding on a synthetic testbed driven by
    /// the `brokers` and `gossip_staleness` axes (the testbed and accept
    /// axes do not apply). The single row is the mean petition latency.
    /// Requires [`ModelKind::Blind`]: each federated broker runs its own
    /// round-robin selector.
    Federation {
        /// Peers across the federation.
        peers: usize,
    },
    /// The streaming-on-demand shape ([`crate::streaming`]): playback
    /// buffers over piece exchange on a synthetic testbed, driven by the
    /// `piece_policies`, `windows`, and `uploads` axes (the testbed,
    /// accept, and parts axes do not apply). Rows are the median startup
    /// delay and the fleet rebuffering total. Requires
    /// [`ModelKind::Blind`]: viewers pull from hash-assigned owners, not
    /// a selector.
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

    fn name(self) -> &'static str {
        match self {
            CellWorkload::Distribute { .. } => "distribute",
            CellWorkload::SelectedTransfer { .. } => "selected-transfer",
            CellWorkload::Federation { .. } => "federation",
            CellWorkload::Streaming { .. } => "streaming",
        }
    }
}

/// How per-replication seeds are chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedScheme {
    /// Derive seeds from one campaign seed via [`derive_seed`] — every cell
    /// gets its own independent stream.
    Derived {
        /// The campaign master seed.
        campaign_seed: u64,
        /// Replications per cell.
        replications: usize,
    },
    /// Run the same explicit seed list in every cell (the classic
    /// [`ExperimentSpec`] behaviour the fig5/fig6 harnesses rely on).
    Explicit(Vec<u64>),
}

/// A typed grid: the cross-product of every axis.
#[derive(Debug)]
pub struct SweepSpec {
    /// Campaign name, echoed into every CSV row.
    pub name: String,
    /// What each cell runs.
    pub workload: CellWorkload,
    /// Selection-model axis.
    pub models: Vec<ModelKind>,
    /// Split-count axis (file parts).
    pub parts: Vec<u32>,
    /// Message-drop-probability axis (drop > 0 implies default retries).
    pub drop_probabilities: Vec<f64>,
    /// Testbed axis.
    pub testbeds: Vec<TestbedAxis>,
    /// Task-accept-profile axis.
    pub accept_profiles: Vec<AcceptProfile>,
    /// Broker-count axis (read by [`CellWorkload::Federation`] cells;
    /// singleton `vec![1]` for the classic single-broker workloads).
    pub brokers: Vec<usize>,
    /// Gossip/staleness cadence axis in virtual seconds: each value sets
    /// both the roster gossip interval and the staleness bound of a
    /// federation cell (`0` = workload defaults). Singleton `vec![0.0]`
    /// for non-federation grids.
    pub gossip_staleness: Vec<f64>,
    /// Piece-policy axis (read by [`CellWorkload::Streaming`] cells;
    /// singleton `vec![PiecePolicy::Sequential]` for non-streaming
    /// grids).
    pub piece_policies: Vec<PiecePolicy>,
    /// Request-window axis (read by [`CellWorkload::Streaming`] cells;
    /// singleton `vec![1]` for non-streaming grids).
    pub windows: Vec<u32>,
    /// Uplink-distribution axis (read by [`CellWorkload::Streaming`]
    /// cells; singleton `vec![UploadProfile::Home]` for non-streaming
    /// grids).
    pub uploads: Vec<UploadProfile>,
    /// Seed scheme shared by every cell.
    pub seeds: SeedScheme,
    /// Virtual-time offset of the first scripted command.
    pub warmup: SimDuration,
}

/// One expanded grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in expansion order (also the seed-derivation coordinate).
    pub index: usize,
    /// Testbed axis value.
    pub testbed: TestbedAxis,
    /// Accept-profile axis value.
    pub accept: AcceptProfile,
    /// Model axis value.
    pub model: ModelKind,
    /// Drop-probability axis value.
    pub drop_probability: f64,
    /// Broker-count axis value.
    pub brokers: usize,
    /// Gossip/staleness cadence axis value (virtual seconds).
    pub gossip_staleness: f64,
    /// Piece-policy axis value.
    pub piece_policy: PiecePolicy,
    /// Request-window axis value.
    pub window: u32,
    /// Uplink-distribution axis value.
    pub upload: UploadProfile,
    /// Split-count axis value.
    pub parts: u32,
}

impl Cell {
    /// Human-readable cell id, e.g.
    /// `measurement/accept-all/blind/drop0/brokers1/stale0/sequential/w1/home/parts16`.
    pub fn id_string(&self) -> String {
        format!(
            "{}/{}/{}/drop{}/brokers{}/stale{}/{}/w{}/{}/parts{}",
            self.testbed.name(),
            self.accept.name,
            self.model.name(),
            self.drop_probability,
            self.brokers,
            self.gossip_staleness,
            self.piece_policy.name(),
            self.window,
            self.upload.name(),
            self.parts
        )
    }
}

/// Why a [`SweepSpec`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// An axis was empty — the cross-product would be zero cells.
    EmptyAxis(&'static str),
    /// The seed scheme yields zero replications per cell.
    NoReplications,
    /// A parts axis value was zero (a file cannot have zero parts).
    ZeroParts,
    /// A brokers axis value was zero (a federation needs a broker).
    ZeroBrokers,
    /// A gossip-staleness axis value was negative.
    NegativeStaleness,
    /// A windows axis value was zero (a request window must hold at
    /// least one piece).
    ZeroWindow,
    /// The model cannot drive the workload: `Blind` never selects, so it
    /// cannot run a `SelectedTransfer`; conversely a broadcast
    /// `Distribute` never consults a non-blind model.
    ModelWorkloadMismatch {
        /// The offending model.
        model: ModelKind,
        /// The workload's name.
        workload: &'static str,
    },
    /// A cell's scenario failed [`ScenarioBuilder::build`] validation.
    Scenario(ScenarioError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyAxis(axis) => write!(f, "empty {axis} axis"),
            SweepError::NoReplications => write!(f, "seed scheme yields zero replications"),
            SweepError::ZeroParts => write!(f, "parts axis contains 0"),
            SweepError::ZeroBrokers => write!(f, "brokers axis contains 0"),
            SweepError::NegativeStaleness => {
                write!(f, "gossip_staleness axis contains a negative value")
            }
            SweepError::ZeroWindow => write!(f, "windows axis contains 0"),
            SweepError::ModelWorkloadMismatch { model, workload } => {
                write!(f, "model {model} cannot drive a {workload} workload")
            }
            SweepError::Scenario(e) => write!(f, "cell scenario invalid: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ScenarioError> for SweepError {
    fn from(e: ScenarioError) -> Self {
        SweepError::Scenario(e)
    }
}

impl SweepSpec {
    /// Replications per cell under the seed scheme.
    pub fn replications(&self) -> usize {
        match &self.seeds {
            SeedScheme::Derived { replications, .. } => *replications,
            SeedScheme::Explicit(seeds) => seeds.len(),
        }
    }

    /// The seed of `(cell, replication)` under the seed scheme.
    pub fn seed_for(&self, cell: usize, replication: usize) -> u64 {
        match &self.seeds {
            SeedScheme::Derived { campaign_seed, .. } => {
                derive_seed(*campaign_seed, cell as u64, replication as u64)
            }
            SeedScheme::Explicit(seeds) => seeds[replication],
        }
    }

    /// Checks every axis without expanding.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.models.is_empty() {
            return Err(SweepError::EmptyAxis("models"));
        }
        if self.parts.is_empty() {
            return Err(SweepError::EmptyAxis("parts"));
        }
        if self.drop_probabilities.is_empty() {
            return Err(SweepError::EmptyAxis("drop_probabilities"));
        }
        if self.testbeds.is_empty() {
            return Err(SweepError::EmptyAxis("testbeds"));
        }
        if self.accept_profiles.is_empty() {
            return Err(SweepError::EmptyAxis("accept_profiles"));
        }
        if self.brokers.is_empty() {
            return Err(SweepError::EmptyAxis("brokers"));
        }
        if self.gossip_staleness.is_empty() {
            return Err(SweepError::EmptyAxis("gossip_staleness"));
        }
        if self.piece_policies.is_empty() {
            return Err(SweepError::EmptyAxis("piece_policies"));
        }
        if self.windows.is_empty() {
            return Err(SweepError::EmptyAxis("windows"));
        }
        if self.uploads.is_empty() {
            return Err(SweepError::EmptyAxis("uploads"));
        }
        if self.parts.contains(&0) {
            return Err(SweepError::ZeroParts);
        }
        if self.brokers.contains(&0) {
            return Err(SweepError::ZeroBrokers);
        }
        if self.gossip_staleness.iter().any(|&s| s < 0.0) {
            return Err(SweepError::NegativeStaleness);
        }
        if self.windows.contains(&0) {
            return Err(SweepError::ZeroWindow);
        }
        if self.replications() == 0 {
            return Err(SweepError::NoReplications);
        }
        for &model in &self.models {
            let blind = model == ModelKind::Blind;
            let selective_workload = matches!(self.workload, CellWorkload::SelectedTransfer { .. });
            if blind == selective_workload {
                return Err(SweepError::ModelWorkloadMismatch {
                    model,
                    workload: self.workload.name(),
                });
            }
        }
        Ok(())
    }

    /// Expands the cross-product into cells, in the stable order: testbed
    /// outermost, then accept profile, model, drop probability, brokers,
    /// gossip staleness, piece policy, window, upload, and parts
    /// fastest-varying. The order is part of the output contract — cell
    /// indices feed [`derive_seed`] (singleton broker/staleness/streaming
    /// axes leave the classic grids' indices unchanged).
    pub fn expand(&self) -> Result<Vec<Cell>, SweepError> {
        self.validate()?;
        let mut cells = Vec::new();
        for &testbed in &self.testbeds {
            for &accept in &self.accept_profiles {
                for &model in &self.models {
                    for &drop_probability in &self.drop_probabilities {
                        for &brokers in &self.brokers {
                            for &gossip_staleness in &self.gossip_staleness {
                                for &piece_policy in &self.piece_policies {
                                    for &window in &self.windows {
                                        for &upload in &self.uploads {
                                            for &parts in &self.parts {
                                                cells.push(Cell {
                                                    index: cells.len(),
                                                    testbed,
                                                    accept,
                                                    model,
                                                    drop_probability,
                                                    brokers,
                                                    gossip_staleness,
                                                    piece_policy,
                                                    window,
                                                    upload,
                                                    parts,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// Builds one cell's scenario. Everything funnels through the validating
/// [`ScenarioBuilder`] — a mis-specified grid fails before any thread spins
/// up.
fn scenario_for_cell(spec: &SweepSpec, cell: &Cell) -> Result<ScenarioConfig, ScenarioError> {
    let mut builder = ScenarioBuilder::measurement_setup()
        .testbed(cell.testbed.config())
        .drop_probability(cell.drop_probability);
    if cell.drop_probability > 0.0 {
        builder = builder.retry(RetryPolicy::default());
    }
    if let Some(accept) = cell.accept.accept_by_sc {
        builder = builder.task_accept_by_sc(accept);
    }
    match spec.workload {
        CellWorkload::Distribute { size_bytes } => {
            builder = builder.at(
                spec.warmup,
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes,
                    num_parts: cell.parts,
                    label: DISTRIBUTE_LABEL.into(),
                },
            );
        }
        CellWorkload::SelectedTransfer {
            measured_bytes,
            background_bytes,
        } => {
            let t0 = spec.warmup;
            let t_bg = t0 + SimDuration::from_secs(600);
            let t_measure = t_bg + SimDuration::from_secs(2);
            builder = builder.at(
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
            builder = builder
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
                );
            let factory = fig6::factory_for_kind(cell.model)
                .expect("validate() rejected blind models for selected-transfer cells");
            builder = builder.selector(factory);
        }
        CellWorkload::Federation { .. } | CellWorkload::Streaming { .. } => {
            unreachable!("federation and streaming cells never build a testbed scenario")
        }
    }
    builder.build()
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

/// One replication's extracted measures.
struct RepOutcome {
    /// `(label, value)` rows, identical labels across replications.
    values: Vec<(String, f64)>,
    /// The selected peer's name (empty when the cell never selects).
    chosen: String,
    /// The replication's full engine metrics.
    metrics: Metrics,
}

/// Runs one federation replication and reduces it to the cell's single
/// petition-latency row.
fn run_federation_rep(cell: &Cell, peers: usize, seed: u64) -> RepOutcome {
    let cfg = federation_for_cell(cell, peers);
    let result =
        run_federation(&cfg, seed).expect("axis validation guarantees a well-formed federation");
    let mean = LatencySummary::from_samples(&petition_latencies(&result.log))
        .map(|s| s.mean_s)
        .unwrap_or(f64::NAN);
    RepOutcome {
        values: vec![("petition_mean".to_string(), mean)],
        chosen: String::new(),
        metrics: result.metrics,
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

/// Runs one streaming replication and reduces it to the cell's median
/// startup delay and fleet rebuffering total.
fn run_streaming_rep(cell: &Cell, viewers: usize, seed: u64) -> RepOutcome {
    let cfg = streaming_for_cell(cell, viewers);
    let result =
        run_streaming(&cfg, seed).expect("axis validation guarantees a well-formed stream");
    let StreamingStats { rebuffer_secs, .. } = StreamingStats::from_log(&result.log);
    let startup_p50 = StartupQuantiles::from_samples(&startup_delays(&result.log))
        .map(|q| q.p50_s)
        .unwrap_or(f64::NAN);
    RepOutcome {
        values: vec![
            ("startup_p50".to_string(), startup_p50),
            ("rebuffer_secs".to_string(), rebuffer_secs),
        ],
        chosen: String::new(),
        metrics: result.metrics,
    }
}

fn run_cell_rep(spec: &SweepSpec, cfg: &ScenarioConfig, seed: u64) -> RepOutcome {
    let result = run_scenario(cfg, seed);
    match spec.workload {
        CellWorkload::Distribute { .. } => {
            let minutes = per_sc_transfer_metric(&result, DISTRIBUTE_LABEL, |t| {
                t.total_secs().map(|s| s / 60.0)
            });
            RepOutcome {
                values: sc_labels().into_iter().zip(minutes).collect(),
                chosen: String::new(),
                metrics: result.run.metrics,
            }
        }
        CellWorkload::SelectedTransfer { .. } => {
            let secs = result
                .run
                .log
                .transfers
                .iter()
                .find(|t| t.label == MEASURED_LABEL)
                .and_then(|t| t.total_secs())
                .unwrap_or(f64::NAN);
            let chosen = result
                .run
                .log
                .selections
                .first()
                .map(|s| s.chosen_name.to_string())
                .unwrap_or_default();
            RepOutcome {
                values: vec![("selected".to_string(), secs)],
                chosen,
                metrics: result.run.metrics,
            }
        }
        CellWorkload::Federation { .. } => unreachable!("dispatched to run_federation_rep"),
        CellWorkload::Streaming { .. } => unreachable!("dispatched to run_streaming_rep"),
    }
}

/// One cell's folded result.
pub struct CellResult {
    /// The grid point.
    pub cell: Cell,
    /// The unit of every row value.
    pub unit: &'static str,
    /// `(label, stat)` rows: per-label statistics over the replications,
    /// folded in seed order.
    pub rows: Vec<(String, RunningStat)>,
    /// Distinct selected-peer names, first-seen order over seed order.
    pub chosen: Vec<String>,
    /// The cell's engine metrics, merged across replications in seed order.
    pub metrics: Metrics,
}

/// A finished campaign.
pub struct CampaignResult {
    /// Grid name.
    pub grid: String,
    /// Seed scheme, echoed for provenance ("derived" or "explicit").
    pub scheme: &'static str,
    /// The campaign master seed (derived scheme only).
    pub campaign_seed: Option<u64>,
    /// Replications per cell.
    pub replications: usize,
    /// Per-cell results, in expansion order.
    pub cells: Vec<CellResult>,
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

impl CampaignResult {
    /// Deterministic CSV: one row per (cell, label), shortest-roundtrip
    /// floats, byte-identical for any worker count.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "grid,cell,testbed,accept,model,drop,parts,brokers,staleness,policy,window,upload,label,unit,reps,mean,sd,min,max\n",
        );
        for c in &self.cells {
            for (label, stat) in &c.rows {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    self.grid,
                    c.cell.index,
                    c.cell.testbed.name(),
                    c.cell.accept.name,
                    c.cell.model.name(),
                    c.cell.drop_probability,
                    c.cell.parts,
                    c.cell.brokers,
                    c.cell.gossip_staleness,
                    c.cell.piece_policy.name(),
                    c.cell.window,
                    c.cell.upload.name(),
                    label,
                    c.unit,
                    stat.count(),
                    fmt_f64(stat.mean()),
                    fmt_f64(stat.std_dev()),
                    fmt_f64(stat.min()),
                    fmt_f64(stat.max()),
                ));
            }
        }
        out
    }

    /// Deterministic hand-rolled JSON (same float conventions as the
    /// metrics snapshot: non-finite renders as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"schema\":1,\"grid\":\"{}\"", self.grid));
        out.push_str(&format!(",\"seed_scheme\":\"{}\"", self.scheme));
        match self.campaign_seed {
            Some(seed) => out.push_str(&format!(",\"campaign_seed\":{seed}")),
            None => out.push_str(",\"campaign_seed\":null"),
        }
        out.push_str(&format!(",\"replications\":{}", self.replications));
        out.push_str(",\"cells\":[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"id\":\"{}\",\"testbed\":\"{}\",\"accept\":\"{}\",\"model\":\"{}\",\"drop\":",
                c.cell.index,
                c.cell.id_string(),
                c.cell.testbed.name(),
                c.cell.accept.name,
                c.cell.model.name(),
            ));
            push_json_f64(&mut out, c.cell.drop_probability);
            out.push_str(&format!(",\"brokers\":{},\"staleness\":", c.cell.brokers));
            push_json_f64(&mut out, c.cell.gossip_staleness);
            out.push_str(&format!(
                ",\"policy\":\"{}\",\"window\":{},\"upload\":\"{}\"",
                c.cell.piece_policy.name(),
                c.cell.window,
                c.cell.upload.name(),
            ));
            out.push_str(&format!(
                ",\"parts\":{},\"unit\":\"{}\"",
                c.cell.parts, c.unit
            ));
            out.push_str(",\"chosen\":[");
            for (j, name) in c.chosen.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\""));
            }
            out.push_str("],\"rows\":[");
            for (j, (label, stat)) in c.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"label\":\"{label}\",\"reps\":{},\"mean\":",
                    stat.count()
                ));
                push_json_f64(&mut out, stat.mean());
                out.push_str(",\"sd\":");
                push_json_f64(&mut out, stat.std_dev());
                out.push_str(",\"min\":");
                push_json_f64(&mut out, stat.min());
                out.push_str(",\"max\":");
                push_json_f64(&mut out, stat.max());
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Every cell's engine metrics in one registry, tagged `cell{index}` —
    /// ready for [`Metrics::render_prometheus`] exposition.
    pub fn merged_metrics(&self) -> Metrics {
        let mut merged = Metrics::new();
        for c in &self.cells {
            merged.merge_tagged(&c.metrics, &format!("cell{}", c.cell.index));
        }
        merged
    }

    /// Human summary: one line per cell with the mean across its rows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sweep {}: {} cells x {} reps ({} seeds{})\n",
            self.grid,
            self.cells.len(),
            self.replications,
            self.scheme,
            self.campaign_seed
                .map(|s| format!(", campaign seed {s}"))
                .unwrap_or_default()
        );
        for c in &self.cells {
            let means: Vec<f64> = c.rows.iter().map(|(_, s)| s.mean()).collect();
            let avg = means.iter().sum::<f64>() / means.len().max(1) as f64;
            out.push_str(&format!(
                "  [{}] {}: {} rows, mean {} {}{}\n",
                c.cell.index,
                c.cell.id_string(),
                c.rows.len(),
                fmt_f64(avg),
                c.unit,
                if c.chosen.is_empty() {
                    String::new()
                } else {
                    format!(", chose {}", c.chosen.join("/"))
                },
            ));
        }
        out
    }
}

/// Runs the whole campaign over a pool of `workers` threads.
///
/// Every cell × replication is one task; tasks are claimed work-stealing
/// style but folded strictly in (cell, seed) order, so the result — and its
/// CSV/JSON renderings — is byte-identical for every worker count.
pub fn run_campaign(spec: &SweepSpec, workers: usize) -> Result<CampaignResult, SweepError> {
    let cells = spec.expand()?;
    let synthetic = matches!(
        spec.workload,
        CellWorkload::Federation { .. } | CellWorkload::Streaming { .. }
    );
    // Build (and discard) every cell's scenario up front: a mis-specified
    // grid must fail here, not inside a worker thread. (Federation and
    // streaming cells are validated by the axis checks in `expand`
    // instead.)
    if !synthetic {
        for cell in &cells {
            scenario_for_cell(spec, cell)?;
        }
    }
    let reps = spec.replications();
    let outcomes = run_indexed(cells.len() * reps, workers, |task| {
        let cell = &cells[task / reps];
        let rep = task % reps;
        let seed = spec.seed_for(cell.index, rep);
        match spec.workload {
            CellWorkload::Federation { peers } => run_federation_rep(cell, peers, seed),
            CellWorkload::Streaming { viewers } => run_streaming_rep(cell, viewers, seed),
            _ => {
                let cfg = scenario_for_cell(spec, cell).expect("validated above");
                run_cell_rep(spec, &cfg, seed)
            }
        }
    });

    let mut outcomes = outcomes.into_iter();
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut rows: Vec<(String, RunningStat)> = Vec::new();
        let mut chosen = Vec::new();
        let mut metrics = Metrics::new();
        for rep in 0..reps {
            let o = outcomes.next().expect("one outcome per task");
            if rep == 0 {
                rows = o
                    .values
                    .iter()
                    .map(|(label, _)| (label.clone(), RunningStat::new()))
                    .collect();
            }
            debug_assert_eq!(rows.len(), o.values.len(), "ragged cell rows");
            for ((_, stat), (_, v)) in rows.iter_mut().zip(&o.values) {
                stat.record(*v);
            }
            if !o.chosen.is_empty() && !chosen.contains(&o.chosen) {
                chosen.push(o.chosen);
            }
            metrics.merge(&o.metrics);
        }
        results.push(CellResult {
            unit: spec.workload.unit(),
            cell,
            rows,
            chosen,
            metrics,
        });
    }
    let (scheme, campaign_seed) = match &spec.seeds {
        SeedScheme::Derived { campaign_seed, .. } => ("derived", Some(*campaign_seed)),
        SeedScheme::Explicit(_) => ("explicit", None),
    };
    Ok(CampaignResult {
        grid: spec.name.clone(),
        scheme,
        campaign_seed,
        replications: reps,
        cells: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid(seeds: SeedScheme) -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            workload: CellWorkload::Distribute { size_bytes: 4 * MB },
            models: vec![ModelKind::Blind],
            parts: vec![1, 4],
            drop_probabilities: vec![0.0],
            testbeds: vec![TestbedAxis::Measurement],
            accept_profiles: vec![ACCEPT_ALL],
            brokers: vec![1],
            gossip_staleness: vec![0.0],
            piece_policies: vec![PiecePolicy::Sequential],
            windows: vec![1],
            uploads: vec![UploadProfile::Home],
            seeds,
            warmup: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        // Golden values: the derivation chain is part of the output format.
        assert_eq!(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
        let mut seen = std::collections::HashSet::new();
        for cell in 0..8u64 {
            for rep in 0..8u64 {
                assert!(seen.insert(derive_seed(42, cell, rep)), "seed collision");
            }
        }
        // Different campaign seeds diverge everywhere.
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        assert_ne!(derive_seed(1, 1, 0), derive_seed(1, 0, 1));
    }

    #[test]
    fn expansion_order_is_stable_with_parts_fastest() {
        let spec = SweepSpec {
            parts: vec![1, 4, 16],
            drop_probabilities: vec![0.0, 0.05],
            ..tiny_grid(SeedScheme::Derived {
                campaign_seed: 1,
                replications: 1,
            })
        };
        let cells = spec.expand().expect("valid");
        assert_eq!(cells.len(), 6);
        let keys: Vec<(f64, u32)> = cells
            .iter()
            .map(|c| (c.drop_probability, c.parts))
            .collect();
        assert_eq!(
            keys,
            vec![
                (0.0, 1),
                (0.0, 4),
                (0.0, 16),
                (0.05, 1),
                (0.05, 4),
                (0.05, 16)
            ]
        );
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let base = || {
            tiny_grid(SeedScheme::Derived {
                campaign_seed: 1,
                replications: 1,
            })
        };
        let mut s = base();
        s.models.clear();
        assert_eq!(s.validate(), Err(SweepError::EmptyAxis("models")));
        let mut s = base();
        s.parts = vec![0];
        assert_eq!(s.validate(), Err(SweepError::ZeroParts));
        let mut s = base();
        s.seeds = SeedScheme::Explicit(Vec::new());
        assert_eq!(s.validate(), Err(SweepError::NoReplications));
        let mut s = base();
        s.brokers = vec![0];
        assert_eq!(s.validate(), Err(SweepError::ZeroBrokers));
        let mut s = base();
        s.gossip_staleness = vec![-1.0];
        assert_eq!(s.validate(), Err(SweepError::NegativeStaleness));
        let mut s = base();
        s.windows = vec![0];
        assert_eq!(s.validate(), Err(SweepError::ZeroWindow));
        let mut s = base();
        s.piece_policies.clear();
        assert_eq!(s.validate(), Err(SweepError::EmptyAxis("piece_policies")));
        let mut s = base();
        s.uploads.clear();
        assert_eq!(s.validate(), Err(SweepError::EmptyAxis("uploads")));
        let mut s = federation_grid(SeedScheme::Explicit(vec![1]));
        s.models = vec![ModelKind::Economic];
        assert!(matches!(
            s.validate(),
            Err(SweepError::ModelWorkloadMismatch { .. })
        ));
        let mut s = base();
        s.models = vec![ModelKind::Economic];
        assert!(matches!(
            s.validate(),
            Err(SweepError::ModelWorkloadMismatch { .. })
        ));
        let mut s = fig67_grid(SeedScheme::Explicit(vec![1]), SimDuration::from_secs(60));
        s.models.push(ModelKind::Blind);
        assert!(matches!(
            s.validate(),
            Err(SweepError::ModelWorkloadMismatch { .. })
        ));
    }

    #[test]
    fn campaign_output_is_worker_count_invariant() {
        let mk = || {
            tiny_grid(SeedScheme::Derived {
                campaign_seed: 7,
                replications: 2,
            })
        };
        let one = run_campaign(&mk(), 1).expect("valid grid");
        let four = run_campaign(&mk(), 4).expect("valid grid");
        assert_eq!(one.to_csv(), four.to_csv());
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(
            one.merged_metrics().render(),
            four.merged_metrics().render()
        );
    }

    #[test]
    fn merged_metrics_are_tagged_per_cell() {
        let spec = tiny_grid(SeedScheme::Derived {
            campaign_seed: 3,
            replications: 1,
        });
        let campaign = run_campaign(&spec, 2).expect("valid grid");
        let merged = campaign.merged_metrics();
        assert!(merged.counter("cell0.overlay.transfers_completed") > 0);
        assert!(merged.counter("cell1.overlay.transfers_completed") > 0);
        assert_eq!(merged.counter("overlay.transfers_completed"), 0);
    }

    #[test]
    fn explicit_seeds_reuse_the_same_list_per_cell() {
        let spec = tiny_grid(SeedScheme::Explicit(vec![11, 22]));
        assert_eq!(spec.seed_for(0, 1), 22);
        assert_eq!(spec.seed_for(5, 1), 22);
        let derived = tiny_grid(SeedScheme::Derived {
            campaign_seed: 9,
            replications: 2,
        });
        assert_ne!(derived.seed_for(0, 1), derived.seed_for(5, 1));
    }
}
