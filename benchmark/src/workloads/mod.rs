//! The five workloads, and one repetition of any of them in this process.
//!
//! Every workload is closed and deterministic: the seed is its only
//! input, the simulated scenario is fixed by the size class, and a
//! repetition reports host time around it. What a workload stresses and
//! why it was chosen is recorded in `BENCHMARK.json` and the README; this
//! module holds only what is needed to run one.

pub mod engine_mesh;
pub mod paper_campaign;
pub mod petition_storm;

use std::collections::BTreeMap;
use std::time::Instant;

use netsim::engine::RunOutcome;
use netsim::time::SimDuration;
use workloads::churn::{ChurnConfig, ChurnWorkload};
use workloads::federation::{BrokerOutage, FederationConfig, FederationWorkload};
use workloads::harness::{defaults, Workload, WorkloadBuilder};
use workloads::report::metrics_snapshot_json;
use workloads::synthtopo::SynthTopoConfig;

use crate::json::Value;
use crate::layers::{harness_layers, HarnessTimes};
use crate::stats::median;
use crate::timed::{Profile, Traced, ACTORS_PHASE, TOPOLOGY_PHASE};

/// Workload names, in the order `bench run` executes them.
pub const NAMES: [&str; 5] = [
    "churn-20k",
    "petition-storm",
    "failover-20k",
    "paper-campaign",
    "engine-mesh",
];

/// How large a scenario a repetition simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` names; every committed number uses these.
    Full,
    /// The same code paths in about a second for all five workloads
    /// together — for the benchmark's own tests and `bench run --quick`.
    Quick,
}

/// What a repetition records besides the end-to-end numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: the end-to-end numbers come from these.
    Timed,
    /// Per-handler buckets, spans and the layer metrics.
    Traced,
    /// Untraced at two workers (shard workers, or pool workers for the
    /// campaign workload). Informational: the host may have one core.
    Workers2,
    /// Untraced with the program's own trace ring at the `psim` default.
    TraceRing,
    /// No run at all: the set-up alone, [`SETUP_ROUNDS`] times over in one
    /// process, reporting the median as `setup_s`. The first round faults
    /// the memory in; the later ones time the work of setting up, which is
    /// what moves when a change shifts work out of `run_s`. (A cold set-up
    /// is mostly page faults, whose cost on a shared host swings by 2×.)
    SetupOnly,
}

/// Set-ups one [`Mode::SetupOnly`] repetition times.
pub const SETUP_ROUNDS: usize = 7;

/// The numbers one repetition produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Host seconds from process entry to the first `Actor::on_start`.
    pub setup_s: f64,
    /// Host seconds from the first `on_start` to the drained result.
    pub run_s: f64,
    /// `VmHWM` of the process; the child fills it in just before it exits.
    pub peak_rss_mb: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// FNV-1a over the workload's summary and metrics snapshot.
    pub digest: u64,
    /// Exact simulated counts; every repetition of a workload must agree.
    pub counts: BTreeMap<String, u64>,
    /// Output checks that did not hold, in words.
    pub failures: Vec<String>,
    /// Per-layer measurements of this repetition, by metric name.
    pub layers: BTreeMap<String, f64>,
}

impl Rep {
    /// A [`Mode::SetupOnly`] repetition: `one` performs one complete
    /// set-up and returns the seconds it took.
    pub fn setup_only(mut one: impl FnMut() -> Result<f64, String>) -> Result<Done, String> {
        let rounds = (0..SETUP_ROUNDS)
            .map(|_| one())
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(Done {
            rep: Rep {
                setup_s: median(&rounds),
                ..Rep::default()
            },
            spans: None,
        })
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("setup_s", Value::from(self.setup_s)),
            ("run_s", Value::from(self.run_s)),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("ops_attempted", Value::from(self.ops_attempted)),
            ("ops_failed", Value::from(self.ops_failed)),
            ("digest", Value::from(format!("{:016x}", self.digest))),
            ("counts", Value::map(&self.counts)),
            (
                "failures",
                Value::Arr(
                    self.failures
                        .iter()
                        .map(|f| Value::from(f.as_str()))
                        .collect(),
                ),
            ),
            ("layers", Value::map(&self.layers)),
        ])
    }

    pub fn from_json(doc: &Value) -> Result<Rep, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("repetition output lacks `{key}`"))
        };
        let pairs = |key: &str| {
            doc.get(key)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("repetition output lacks `{key}`"))
        };
        let digest = doc
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("repetition output lacks `digest`")?;
        Ok(Rep {
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ops_attempted: num("ops_attempted")? as u64,
            ops_failed: num("ops_failed")? as u64,
            digest,
            counts: pairs("counts")?
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN) as u64))
                .collect(),
            failures: doc
                .get("failures")
                .and_then(Value::as_arr)
                .ok_or("repetition output lacks `failures`")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            layers: pairs("layers")?
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
        })
    }
}

/// 64-bit FNV-1a, fed in pieces.
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A finished repetition: its numbers and, in traced mode, its spans file.
pub struct Done {
    pub rep: Rep,
    pub spans: Option<String>,
}

/// Runs one repetition of `name` in this process. `entry` is the instant
/// the process started, which `setup_s` counts from.
pub fn run_rep(
    name: &str,
    size: Size,
    seed: u64,
    mode: Mode,
    entry: Instant,
) -> Result<Done, String> {
    match name {
        "churn-20k" => churn(size, seed, mode, entry),
        "petition-storm" => petition_storm::run(size, seed, mode, entry),
        "failover-20k" => failover(size, seed, mode, entry),
        "paper-campaign" => paper_campaign::run(size, seed, mode, entry),
        "engine-mesh" => engine_mesh::run(size, seed, mode, entry),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn churn(size: Size, seed: u64, mode: Mode, entry: Instant) -> Result<Done, String> {
    let peers = match size {
        Size::Full => 20_000,
        Size::Quick => 400,
    };
    let cfg = ChurnConfig {
        topo: SynthTopoConfig {
            regions: 8,
            peers,
            ..SynthTopoConfig::default()
        },
        horizon: SimDuration::from_secs(1800),
        num_shards: 4,
        trace_capacity: None,
        ..ChurnConfig::default()
    };
    let expect = Expect {
        peers: peers as u64,
        selections: Some((cfg.topo.regions * cfg.rounds) as u64),
        rehomes: false,
    };
    let workload = ChurnWorkload { cfg: &cfg };
    harness_rep(
        "churn-20k",
        &workload,
        cfg.horizon,
        &expect,
        seed,
        mode,
        entry,
    )
}

fn failover(size: Size, seed: u64, mode: Mode, entry: Instant) -> Result<Done, String> {
    let peers = match size {
        Size::Full => 20_000,
        Size::Quick => 400,
    };
    let cfg = FederationConfig {
        topo: SynthTopoConfig {
            regions: 4,
            peers,
            ..SynthTopoConfig::default()
        },
        gossip_interval: SimDuration::from_secs(240),
        staleness_bound: Some(SimDuration::from_secs(720)),
        forward_hops: 2,
        horizon: SimDuration::from_secs(900),
        num_shards: 4,
        kill: Some(BrokerOutage {
            region: 0,
            down_at: SimDuration::from_secs(300),
            restart_at: Some(SimDuration::from_secs(600)),
        }),
        trace_capacity: None,
        ..FederationConfig::default()
    };
    let expect = Expect {
        peers: peers as u64,
        selections: None,
        rehomes: true,
    };
    let workload = FederationWorkload { cfg: &cfg };
    harness_rep(
        "failover-20k",
        &workload,
        cfg.horizon,
        &expect,
        seed,
        mode,
        entry,
    )
}

/// What a harness workload's outputs must show.
pub struct Expect {
    /// Every peer joins exactly once.
    pub peers: u64,
    /// `Selected` petitions the brokers were scripted to place, when every
    /// one of them must end in a recorded selection.
    pub selections: Option<u64>,
    /// Whether a scripted broker crash must have re-homed someone.
    pub rehomes: bool,
}

/// One repetition of a harness workload: run it under [`Traced`], check
/// its outputs, and — in traced mode — turn buckets into layer metrics.
pub fn harness_rep(
    name: &str,
    workload: &dyn Workload,
    horizon: SimDuration,
    expect: &Expect,
    seed: u64,
    mode: Mode,
    entry: Instant,
) -> Result<Done, String> {
    if mode == Mode::SetupOnly {
        // A horizon of one tick: every `on_start` runs and nothing else.
        let harness = WorkloadBuilder::new()
            .horizon(SimDuration::from_nanos(1))
            .build()
            .map_err(|e| e.to_string())?;
        return Rep::setup_only(|| {
            let start = Instant::now();
            let profile = Profile::new(false, start);
            let traced = Traced::new(workload, profile.clone());
            harness.run(&traced, seed).map_err(|e| e.to_string())?;
            let first = profile
                .first_start()
                .ok_or("the workload registered no actor")?;
            Ok((first - start).as_secs_f64())
        });
    }
    let profile = Profile::new(mode == Mode::Traced, entry);
    let traced = Traced::new(workload, profile.clone());
    let harness = WorkloadBuilder::new()
        .horizon(horizon)
        .shard_workers(if mode == Mode::Workers2 { 2 } else { 1 })
        .trace_capacity((mode == Mode::TraceRing).then_some(defaults::CLI_TRACE_CAPACITY))
        .build()
        .map_err(|e| e.to_string())?;
    let run = harness.run(&traced, seed).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let first = profile
        .first_start()
        .ok_or("the workload registered no actor")?;
    let setup = first - entry;
    let run_time = end - first;

    let mut digest = Fnv1a::new();
    digest.feed(workload.summarize(seed, &run).as_bytes());
    digest.feed(metrics_snapshot_json(&run.metrics).as_bytes());

    let counters: BTreeMap<&str, u64> = run.metrics.counters_sorted().collect();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let counts: BTreeMap<String, u64> = [
        ("engine.events", run.events_processed),
        ("sim.joins", counter("churn.joins")),
        ("sim.leaves", counter("churn.leaves")),
        ("sim.rehomes", counter("churn.rehomes")),
        ("sim.selections", run.log.selections.len() as u64),
        (
            "sim.transfers_completed",
            counter("overlay.transfers_completed"),
        ),
        ("sim.gossip_received", counter("overlay.gossip_received")),
        (
            "sim.stale_views_dropped",
            counter("overlay.stale_views_dropped"),
        ),
        ("sim.messages_sent", counter("net.messages_sent")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    // An op is a scripted first join or a scripted `Selected` petition; it
    // failed if the horizon passed without it. Any other broken check
    // costs one op so that `failed` is never 0 on an incorrect run.
    let mut failures = Vec::new();
    let mut ops_failed = 0;
    if run.outcome != RunOutcome::HorizonReached {
        failures.push(format!(
            "outcome {:?}, expected HorizonReached",
            run.outcome
        ));
        ops_failed += 1;
    }
    let joins = counts["sim.joins"];
    if joins != expect.peers {
        failures.push(format!("sim.joins {joins}, expected {}", expect.peers));
        ops_failed += expect.peers.abs_diff(joins);
    }
    let selections = counts["sim.selections"];
    if let Some(wanted) = expect.selections {
        if selections != wanted {
            failures.push(format!("sim.selections {selections}, expected {wanted}"));
            ops_failed += wanted.abs_diff(selections);
        }
    }
    if expect.rehomes && counts["sim.rehomes"] == 0 {
        failures.push("sim.rehomes 0 after a scripted broker crash".to_string());
        ops_failed += 1;
    }

    let mut layers = BTreeMap::new();
    let mut spans = None;
    if mode == Mode::Traced {
        let collected = profile.take();
        let times = HarnessTimes {
            setup_s: setup.as_secs_f64(),
            run_s: run_time.as_secs_f64(),
            topology_s: collected.phase_s(TOPOLOGY_PHASE),
            actors_s: collected.phase_s(ACTORS_PHASE),
            drain_s: collected
                .last_handler_end
                .map_or(0.0, |last| (end - last).as_secs_f64()),
        };
        harness_layers(&mut layers, &run, &collected, &times, expect.peers);
        spans = Some(collected.spans_json(
            name,
            seed,
            setup.as_nanos() as u64,
            (end - entry).as_nanos() as u64,
        ));
    }

    Ok(Done {
        rep: Rep {
            setup_s: setup.as_secs_f64(),
            run_s: run_time.as_secs_f64(),
            ops_attempted: expect.peers + expect.selections.unwrap_or(0),
            ops_failed,
            digest: digest.finish(),
            counts,
            failures,
            layers,
            ..Rep::default()
        },
        spans,
    })
}
