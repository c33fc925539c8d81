//! Grid-sweep campaigns: every paper result is a cross-product.
//!
//! A [`SweepSpec`] names a [`CellWorkload`] and lists the [`Axis`]es it
//! varies; an axis it does not list sits at its neutral level, and an
//! axis its workload does not read is refused. The spec expands into a
//! deterministic list of [`Cell`]s in the canonical rank order (model
//! outermost, parts fastest-varying), whatever order the axes were
//! listed in. Each cell runs `replications` independent simulations
//! whose seeds derive from a stable splitmix64 mix of (campaign seed, cell
//! index, replication index), so any cell of any campaign can be re-run in
//! isolation and produce the same numbers.
//!
//! Every cell is built and checked by the layer that will run it before
//! any thread starts; execution then fans all cells × replications out
//! over a bounded work-stealing pool (`crate::runner::run_indexed`) and
//! folds the results back **in seed order**, so the worker count never
//! changes a single digit of the output. [`CampaignResult`] renders
//! deterministic CSV and JSON, and [`CampaignResult::merged_metrics`]
//! folds every cell's engine metrics into one registry under per-cell
//! tags ([`netsim::metrics::Metrics::merge_tagged`]).
//!
//! The named grids ([`named_grid_list`]) reproduce the paper's tables
//! end-to-end; `psim sweep` is the CLI face.

use netsim::metrics::{Metrics, RunningStat};
use netsim::rng::splitmix64;
use netsim::time::SimDuration;
pub use overlay::selector::ModelKind;

use crate::harness::HarnessError;
use crate::runner::run_indexed;
use crate::streaming::{PiecePolicy, UploadProfile};

mod cells;
mod grids;
pub use cells::CellWorkload;
pub(crate) use grids::{fig345_grid, fig67_grid};
pub use grids::{named_grid, named_grid_list};

/// Derives the seed for `(campaign_seed, cell, replication)` by chaining
/// splitmix64 over the three coordinates. Stable across releases: changing
/// it would silently change every derived campaign's numbers, so treat the
/// constants as part of the output format.
pub(crate) fn derive_seed(campaign_seed: u64, cell: u64, replication: u64) -> u64 {
    let a = splitmix64(campaign_seed);
    let b = splitmix64(a ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(b ^ replication.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// How per-replication seeds are chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedScheme {
    /// Derive seeds from one campaign seed via `derive_seed` — every cell
    /// gets its own independent stream.
    Derived {
        /// The campaign master seed.
        campaign_seed: u64,
        /// Replications per cell.
        replications: usize,
    },
    /// Run the same explicit seed list in every cell (the classic
    /// [`crate::spec::ExperimentSpec`] behaviour the fig5/fig6 harnesses rely on).
    Explicit(Vec<u64>),
}

/// One axis of a grid, carrying the levels it takes. Declared in the
/// canonical rank order [`SweepSpec::expand`] walks: `Models` outermost,
/// `Parts` fastest-varying.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Selection models (neutral level: blind).
    Models(Vec<ModelKind>),
    /// Message-drop probabilities; a level above 0 implies default
    /// retries (neutral: 0).
    Drop(Vec<f64>),
    /// Broker counts of a federation (neutral: 1).
    Brokers(Vec<usize>),
    /// Gossip/staleness cadences in virtual seconds: each level sets both
    /// the roster gossip interval and the staleness bound of a federation
    /// cell (neutral: 0 = the workload's defaults).
    Staleness(Vec<f64>),
    /// Piece-selection policies of a stream (neutral: sequential).
    Policies(Vec<PiecePolicy>),
    /// Request windows of a stream, in pieces (neutral: 1).
    Windows(Vec<u32>),
    /// Uplink distributions of a stream (neutral: home).
    Uploads(Vec<UploadProfile>),
    /// Split counts: file parts (neutral: 1, the whole file).
    Parts(Vec<u32>),
}

/// What validation and expansion ask of an axis: its position in the
/// canonical rank order, its name in error messages, how many levels it
/// lists, and the first of them it cannot take.
struct AxisInfo {
    rank: usize,
    name: &'static str,
    len: usize,
    bad_level: Option<String>,
}

impl Axis {
    fn info(&self) -> AxisInfo {
        fn info<T: ToString>(
            rank: usize,
            name: &'static str,
            levels: &[T],
            ok: impl Fn(&T) -> bool,
        ) -> AxisInfo {
            AxisInfo {
                rank,
                name,
                len: levels.len(),
                bad_level: levels.iter().find(|&l| !ok(l)).map(T::to_string),
            }
        }
        match self {
            Axis::Models(v) => info(0, "models", v, |_| true),
            Axis::Drop(v) => info(1, "drop", v, |p| p.is_finite()),
            Axis::Brokers(v) => info(2, "brokers", v, |&b| b >= 1),
            Axis::Staleness(v) => info(3, "staleness", v, |s| s.is_finite() && *s >= 0.0),
            Axis::Policies(v) => info(4, "policies", v, |_| true),
            Axis::Windows(v) => info(5, "windows", v, |&w| w >= 1),
            Axis::Uploads(v) => info(6, "uploads", v, |_| true),
            Axis::Parts(v) => info(7, "parts", v, |&p| p >= 1),
        }
    }

    /// Writes level `i` into `cell`: the one place an axis meets its
    /// [`Cell`] field.
    fn write(&self, i: usize, cell: &mut Cell) {
        match self {
            Axis::Models(v) => cell.model = v[i],
            Axis::Drop(v) => cell.drop_probability = v[i],
            Axis::Brokers(v) => cell.brokers = v[i],
            Axis::Staleness(v) => cell.gossip_staleness = v[i],
            Axis::Policies(v) => cell.piece_policy = v[i],
            Axis::Windows(v) => cell.window = v[i],
            Axis::Uploads(v) => cell.upload = v[i],
            Axis::Parts(v) => cell.parts = v[i],
        }
    }
}

/// A typed grid: the cross-product of the listed axes.
#[derive(Debug)]
pub struct SweepSpec {
    /// Campaign name, echoed into every CSV row.
    pub name: String,
    /// What each cell runs.
    pub workload: CellWorkload,
    /// The axes this grid varies, each at most once, in any order. An
    /// axis left out sits at its neutral level; one the workload does not
    /// read is a [`SweepError::UnreadAxis`].
    pub axes: Vec<Axis>,
    /// Seed scheme shared by every cell.
    pub seeds: SeedScheme,
    /// Virtual-time offset of the first scripted command.
    pub warmup: SimDuration,
}

/// One expanded grid point: every axis at one level.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in expansion order (also the seed-derivation coordinate).
    pub(crate) index: usize,
    /// Name of the workload's task-accept profile (not an axis).
    pub(crate) accept: &'static str,
    /// Model axis level.
    pub(crate) model: ModelKind,
    /// Drop-probability axis level.
    pub(crate) drop_probability: f64,
    /// Broker-count axis level.
    pub(crate) brokers: usize,
    /// Gossip/staleness cadence axis level (virtual seconds).
    pub(crate) gossip_staleness: f64,
    /// Piece-policy axis level.
    pub(crate) piece_policy: PiecePolicy,
    /// Request-window axis level.
    pub(crate) window: u32,
    /// Uplink-distribution axis level.
    pub(crate) upload: UploadProfile,
    /// Split-count axis level.
    pub(crate) parts: u32,
}

/// One printed column of a cell: its CSV header and JSON key, what
/// prefixes the level in [`Cell::id_string`], the rendered level, and
/// whether JSON quotes it (names) or not (numbers).
struct Column {
    key: &'static str,
    id_prefix: &'static str,
    level: String,
    quoted: bool,
}

impl Cell {
    /// The cell with every axis at its neutral level.
    fn neutral(index: usize, accept: &'static str) -> Cell {
        Cell {
            index,
            accept,
            model: ModelKind::Blind,
            drop_probability: 0.0,
            brokers: 1,
            gossip_staleness: 0.0,
            piece_policy: PiecePolicy::Sequential,
            window: 1,
            upload: UploadProfile::Home,
            parts: 1,
        }
    }

    /// The cell's columns in canonical rank order, after the two constant
    /// ones: every cell runs on the paper's `measurement` slice or on a
    /// synthetic testbed that never had a column of its own.
    fn columns(&self) -> [Column; 10] {
        let col = |key, id_prefix, level: &dyn ToString, quoted| Column {
            key,
            id_prefix,
            level: level.to_string(),
            quoted,
        };
        [
            col("testbed", "", &"measurement", true),
            col("accept", "", &self.accept, true),
            col("model", "", &self.model, true),
            col("drop", "drop", &self.drop_probability, false),
            col("brokers", "brokers", &self.brokers, false),
            col("staleness", "stale", &self.gossip_staleness, false),
            col("policy", "", &self.piece_policy, true),
            col("window", "w", &self.window, false),
            col("upload", "", &self.upload, true),
            col("parts", "parts", &self.parts, false),
        ]
    }

    /// The columns in CSV order: canonical, except that `parts` — the
    /// paper's own axis, printed before the federation and streaming
    /// columns were appended — stays right after `drop`.
    fn csv_columns(&self) -> impl Iterator<Item = Column> {
        let [testbed, accept, model, drop, rest @ .., parts] = self.columns();
        [testbed, accept, model, drop, parts]
            .into_iter()
            .chain(rest)
    }

    /// Human-readable cell id, e.g.
    /// `measurement/accept-all/blind/drop0/brokers1/stale0/sequential/w1/home/parts16`.
    pub(crate) fn id_string(&self) -> String {
        let parts: Vec<String> = self
            .columns()
            .iter()
            .map(|c| format!("{}{}", c.id_prefix, c.level))
            .collect();
        parts.join("/")
    }
}

/// Why a [`SweepSpec`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// An axis was listed with no levels — the cross-product would be
    /// zero cells.
    EmptyAxis(&'static str),
    /// An axis was listed twice.
    DuplicateAxis(&'static str),
    /// An axis holds a level it cannot take: zero parts, brokers or
    /// window, a negative staleness, a non-finite staleness or drop.
    BadLevel {
        /// The axis.
        axis: &'static str,
        /// The offending level, rendered.
        level: String,
    },
    /// The spec lists an axis its workload never reads.
    UnreadAxis {
        /// The axis.
        axis: &'static str,
        /// The workload's name.
        workload: &'static str,
    },
    /// The seed scheme yields zero replications per cell.
    NoReplications,
    /// The model cannot drive the workload: `Blind` never selects, so it
    /// cannot run a `SelectedTransfer`.
    ModelWorkloadMismatch {
        /// The offending model.
        model: ModelKind,
        /// The workload's name.
        workload: &'static str,
    },
    /// A cell was refused by the harness: its run parameters, scenario
    /// rules, shard map or federation wiring.
    Harness(HarnessError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyAxis(axis) => write!(f, "empty {axis} axis"),
            SweepError::DuplicateAxis(axis) => write!(f, "{axis} axis listed twice"),
            SweepError::BadLevel { axis, level } => write!(f, "{axis} axis contains {level}"),
            SweepError::UnreadAxis { axis, workload } => {
                write!(f, "a {workload} workload does not read the {axis} axis")
            }
            SweepError::NoReplications => write!(f, "seed scheme yields zero replications"),
            SweepError::ModelWorkloadMismatch { model, workload } => {
                write!(f, "model {model} cannot drive a {workload} workload")
            }
            SweepError::Harness(e) => write!(f, "cell rejected by the harness: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<HarnessError> for SweepError {
    fn from(e: HarnessError) -> Self {
        SweepError::Harness(e)
    }
}

impl SweepSpec {
    /// Replications per cell under the seed scheme.
    pub(crate) fn replications(&self) -> usize {
        match &self.seeds {
            SeedScheme::Derived { replications, .. } => *replications,
            SeedScheme::Explicit(seeds) => seeds.len(),
        }
    }

    /// The seed of `(cell, replication)` under the seed scheme.
    pub(crate) fn seed_for(&self, cell: usize, replication: usize) -> u64 {
        match &self.seeds {
            SeedScheme::Derived { campaign_seed, .. } => {
                derive_seed(*campaign_seed, cell as u64, replication as u64)
            }
            SeedScheme::Explicit(seeds) => seeds[replication],
        }
    }

    /// Checks the seed scheme and every listed axis without expanding: no
    /// empty axis, no axis listed twice, no level the axis cannot take,
    /// no axis the workload does not read. Whether each *cell* is
    /// well-formed is the workload's to say, once the cells exist:
    /// [`run_campaign`] asks before it starts the pool.
    pub(crate) fn validate(&self) -> Result<(), SweepError> {
        if self.replications() == 0 {
            return Err(SweepError::NoReplications);
        }
        for (i, axis) in self.axes.iter().enumerate() {
            let info = axis.info();
            if info.len == 0 {
                return Err(SweepError::EmptyAxis(info.name));
            }
            if self.axes[..i].iter().any(|a| a.info().rank == info.rank) {
                return Err(SweepError::DuplicateAxis(info.name));
            }
            if let Some(level) = info.bad_level {
                return Err(SweepError::BadLevel {
                    axis: info.name,
                    level,
                });
            }
            if !self.workload.reads(axis) {
                return Err(SweepError::UnreadAxis {
                    axis: info.name,
                    workload: self.workload.name(),
                });
            }
        }
        Ok(())
    }

    /// Expands the cross-product into cells: one odometer over the listed
    /// axes taken in canonical rank order — model outermost, then drop,
    /// brokers, staleness, policy, window, upload, and parts
    /// fastest-varying — with every unlisted axis at its neutral level.
    /// The order is part of the output contract: cell indices feed
    /// `derive_seed`, and neither listing order nor an axis left at its
    /// neutral level moves them.
    pub fn expand(&self) -> Result<Vec<Cell>, SweepError> {
        self.validate()?;
        let mut axes: Vec<(AxisInfo, &Axis)> = self.axes.iter().map(|a| (a.info(), a)).collect();
        axes.sort_by_key(|(info, _)| info.rank);
        let count: usize = axes.iter().map(|(info, _)| info.len).product();
        let (accept, _) = self.workload.accept();
        Ok((0..count)
            .map(|index| {
                let mut cell = Cell::neutral(index, accept);
                let mut rest = index;
                for (info, axis) in axes.iter().rev() {
                    axis.write(rest % info.len, &mut cell);
                    rest /= info.len;
                }
                cell
            })
            .collect())
    }
}

/// One cell's folded result.
pub struct CellResult {
    /// The grid point.
    pub(crate) cell: Cell,
    /// The unit of every row value.
    pub(crate) unit: &'static str,
    /// `(label, stat)` rows: per-label statistics over the replications,
    /// folded in seed order.
    pub(crate) rows: Vec<(String, RunningStat)>,
    /// Distinct selected-peer names, first-seen order over seed order.
    pub(crate) chosen: Vec<String>,
    /// The cell's engine metrics, merged across replications in seed order.
    pub metrics: Metrics,
}

/// A finished campaign.
pub struct CampaignResult {
    /// Grid name.
    pub(crate) grid: String,
    /// Seed scheme, echoed for provenance ("derived" or "explicit").
    pub(crate) scheme: &'static str,
    /// The campaign master seed (derived scheme only).
    pub(crate) campaign_seed: Option<u64>,
    /// Replications per cell.
    pub replications: usize,
    /// Per-cell results, in expansion order.
    pub cells: Vec<CellResult>,
}

impl CellResult {
    fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            }
        };
        let columns = self.cell.columns().map(|col| {
            let quote = if col.quoted { "\"" } else { "" };
            format!(",\"{}\":{quote}{}{quote}", col.key, col.level)
        });
        let chosen: Vec<String> = self.chosen.iter().map(|c| format!("\"{c}\"")).collect();
        let row = |(label, stat): &(String, RunningStat)| {
            format!(
                "{{\"label\":\"{label}\",\"reps\":{},\"mean\":{},\"sd\":{},\"min\":{},\"max\":{}}}",
                stat.count(),
                num(stat.mean()),
                num(stat.std_dev()),
                num(stat.min()),
                num(stat.max()),
            )
        };
        let rows: Vec<String> = self.rows.iter().map(row).collect();
        format!(
            "{{\"index\":{},\"id\":\"{}\"{},\"unit\":\"{}\",\"chosen\":[{}],\"rows\":[{}]}}",
            self.cell.index,
            self.cell.id_string(),
            columns.concat(),
            self.unit,
            chosen.join(","),
            rows.join(","),
        )
    }
}

impl CampaignResult {
    /// Deterministic CSV: one row per (cell, label), shortest-roundtrip
    /// floats, byte-identical for any worker count.
    pub fn to_csv(&self) -> String {
        let header = Cell::neutral(0, "").csv_columns().map(|c| c.key);
        let mut out = format!(
            "grid,cell,{},label,unit,reps,mean,sd,min,max\n",
            header.collect::<Vec<_>>().join(",")
        );
        for c in &self.cells {
            let levels: Vec<String> = c.cell.csv_columns().map(|c| c.level).collect();
            for (label, stat) in &c.rows {
                out.push_str(&format!(
                    "{},{},{},{label},{},{},{},{},{},{}\n",
                    self.grid,
                    c.cell.index,
                    levels.join(","),
                    c.unit,
                    stat.count(),
                    stat.mean(),
                    stat.std_dev(),
                    stat.min(),
                    stat.max(),
                ));
            }
        }
        out
    }

    /// Deterministic hand-rolled JSON (same float conventions as the
    /// metrics snapshot: non-finite renders as `null`).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(CellResult::to_json).collect();
        let seed = self.campaign_seed.map(|seed| seed.to_string());
        format!(
            "{{\"schema\":1,\"grid\":\"{}\",\"seed_scheme\":\"{}\",\"campaign_seed\":{},\
             \"replications\":{},\"cells\":[{}]}}",
            self.grid,
            self.scheme,
            seed.as_deref().unwrap_or("null"),
            self.replications,
            cells.join(","),
        )
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
                avg,
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
/// Every cell of every workload is built and checked first
/// ([`CellWorkload`] says how), so a mis-specified grid fails here and not
/// inside a worker thread. Then every cell × replication is one task;
/// tasks are claimed work-stealing style but folded strictly in (cell,
/// seed) order, so the result — and its CSV/JSON renderings — is
/// byte-identical for every worker count. A replication the engine still
/// refuses at run time fails the campaign with the first such error in
/// task order.
pub fn run_campaign(spec: &SweepSpec, workers: usize) -> Result<CampaignResult, SweepError> {
    let cells = spec.expand()?;
    let plans = cells
        .iter()
        .map(|cell| spec.workload.plan(spec, cell))
        .collect::<Result<Vec<_>, _>>()?;
    let reps = spec.replications();
    let outcomes = run_indexed(cells.len() * reps, workers, |task| {
        let cell = task / reps;
        plans[cell].run(spec.seed_for(cell, task % reps))
    });
    let mut outcomes = outcomes
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();

    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut rows: Vec<(String, RunningStat)> = Vec::new();
        let mut chosen = Vec::new();
        let mut metrics = Metrics::new();
        for (rep, o) in outcomes.by_ref().take(reps).enumerate() {
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
mod tests;
