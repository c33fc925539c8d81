//! Streaming-on-demand workload: playback buffers over piece exchange
//! at testbed scale (`psim stream`, `psim sweep streaming`).
//!
//! Every peer of a [`synthtopo`](crate::synthtopo) testbed is a
//! [`StreamingClient`] viewer: it joins its region broker, then pulls a
//! piece-divided stream from hash-assigned seed peers under a
//! [`PiecePolicy`] — sequential, windowed, or rarest-within-window (the
//! axis of arXiv:1402.2187's selection study). Because a piece's wire
//! size is the full piece payload, the seed's access uplink serializes
//! every delivery: the [`UploadProfile`] axis (the Pareto distribution
//! peer uplinks are drawn from) moves startup delay and rebuffering the
//! way measurement studies report.
//!
//! The driver is a [`Workload`] on the [`harness`](crate::harness):
//! topology plan, gossip-only federation, the viewer fleet, the
//! [`streaming_series`] schema, and a summary JSON whose startup-delay
//! quantiles and rebuffering totals are the figures `psim sweep
//! streaming` sweeps across the policy × window × upload grid. A run
//! comes back as the harness's [`HarnessRun`]; [`StreamingStats::from_log`]
//! and [`startup_delays`] read the playback figures out of its log.
//!
//! Determinism contract: arrivals, identities, and capacities derive
//! from the master seed and node id only; piece → owner assignment and
//! availability hash from a content seed. For a fixed `(config, seed,
//! num_shards)` the artifact bytes are identical at any worker count.

use std::sync::Arc;

use netsim::engine::Actor;
use netsim::node::NodeId;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use overlay::broker::{Broker, BrokerConfig};
use overlay::message::OverlayMsg;
use overlay::records::RunLog;
pub use overlay::streaming::PiecePolicy;
use overlay::streaming::{StreamConfig, StreamingClient};

use crate::harness::{
    defaults, BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload,
    WorkloadBuilder,
};
use crate::synthtopo::{build_synth_topo, peer_seed, salt, SynthTopoConfig};
use crate::telemetry::streaming_series;

/// The Pareto family peer uplinks are drawn from — the workload's
/// third sweep axis besides policy and window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UploadProfile {
    /// Residential uplinks: low floor, some fat tail.
    Home,
    /// Mixed residential/institutional population.
    Mixed,
    /// Campus/institutional uplinks: high floor, flatter tail.
    Campus,
}

impl UploadProfile {
    /// Every profile, in canonical (grid-expansion and CLI listing) order.
    pub const ALL: [UploadProfile; 3] = [
        UploadProfile::Home,
        UploadProfile::Mixed,
        UploadProfile::Campus,
    ];

    /// The canonical spelling used by CLIs, CSV columns, and grid specs.
    pub fn name(self) -> &'static str {
        match self {
            UploadProfile::Home => "home",
            UploadProfile::Mixed => "mixed",
            UploadProfile::Campus => "campus",
        }
    }

    /// Parses a canonical spelling back into the axis value.
    pub fn parse(name: &str) -> Option<UploadProfile> {
        UploadProfile::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The `(scale Mbit/s, shape)` of the access-bandwidth Pareto draw.
    pub fn pareto(self) -> (f64, f64) {
        match self {
            UploadProfile::Home => (2.0, 1.5),
            UploadProfile::Mixed => (6.0, 1.4),
            UploadProfile::Campus => (20.0, 1.2),
        }
    }
}

impl std::fmt::Display for UploadProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// The synthetic testbed; one broker per region, every peer a viewer.
    /// Its Pareto bandwidth knobs are overridden by [`Self::upload`].
    pub topo: SynthTopoConfig,
    /// Piece-selection policy the viewers run.
    pub policy: PiecePolicy,
    /// Request-window width for the windowed policies.
    pub window: u32,
    /// The uplink distribution peers are drawn from.
    pub upload: UploadProfile,
    /// Broker-to-broker roster gossip cadence
    /// ([`defaults::GOSSIP_INTERVAL`]).
    pub gossip_interval: SimDuration,
    /// Virtual-time horizon bounding the run.
    pub horizon: SimDuration,
    /// Shard count (fixed across worker counts; must be `<= regions`).
    pub num_shards: usize,
    /// Pieces the stream is divided into.
    pub total_pieces: u32,
    /// Payload bytes per piece.
    pub piece_bytes: u64,
    /// Playback duration of one piece.
    pub piece_secs: SimDuration,
    /// Contiguous pieces buffered before playback starts.
    pub startup_pieces: u32,
    /// Viewer arrivals are sampled uniformly over this window.
    pub arrival_spread: SimDuration,
    /// Typed-trace ring capacity; `None` keeps tracing disabled.
    pub trace_capacity: Option<usize>,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            topo: SynthTopoConfig::default(),
            policy: PiecePolicy::Sequential,
            window: 8,
            upload: UploadProfile::Home,
            gossip_interval: defaults::GOSSIP_INTERVAL,
            horizon: SimDuration::from_secs(900),
            num_shards: 4,
            total_pieces: 48,
            piece_bytes: 256 << 10,
            piece_secs: SimDuration::from_secs(2),
            startup_pieces: 4,
            arrival_spread: SimDuration::from_secs(30),
            trace_capacity: Some(defaults::TRACE_CAPACITY),
        }
    }
}

impl StreamingConfig {
    /// The harness parameters this config asks for; callers that want
    /// worker threads, a time series or the execution profiler set them
    /// on the returned builder.
    pub fn harness(&self) -> WorkloadBuilder {
        WorkloadBuilder::new()
            .horizon(self.horizon)
            .trace_capacity(self.trace_capacity)
    }

    /// The testbed with the upload profile's Pareto knobs applied.
    fn effective_topo(&self) -> SynthTopoConfig {
        let (xm, alpha) = self.upload.pareto();
        SynthTopoConfig {
            bw_xm_mbps: xm,
            bw_alpha: alpha,
            ..self.topo.clone()
        }
    }
}

/// Ordered startup-delay quantiles over the playbacks that started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupQuantiles {
    /// Playbacks that started (the sample count).
    pub count: usize,
    /// Median startup delay, seconds.
    pub p50_s: f64,
    /// 90th-percentile startup delay, seconds.
    pub p90_s: f64,
    /// Largest startup delay, seconds.
    pub max_s: f64,
}

impl StartupQuantiles {
    /// Summarises `samples` by sorted-index quantiles; `None` when
    /// empty. Always ordered: `p50_s <= p90_s <= max_s`.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("delays are finite"));
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Some(StartupQuantiles {
            count: sorted.len(),
            p50_s: at(0.5),
            p90_s: at(0.9),
            max_s: sorted[sorted.len() - 1],
        })
    }
}

/// Playback movement of one run, derived from the stream records (and
/// therefore worker-count invariant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    /// Streams that began requesting.
    pub streams: usize,
    /// Playbacks that started (startup buffer filled).
    pub playbacks_started: usize,
    /// Streams played back to the end.
    pub completions: usize,
    /// Rebuffer (stall) events across all viewers.
    pub rebuffer_events: u64,
    /// Total stalled virtual time across all viewers, seconds.
    pub rebuffer_secs: f64,
}

impl StreamingStats {
    /// Tallies the merged run log.
    pub fn from_log(log: &RunLog) -> Self {
        StreamingStats {
            streams: log.streams.len(),
            playbacks_started: log
                .streams
                .iter()
                .filter(|s| s.startup_delay_secs.is_some())
                .count(),
            completions: log
                .streams
                .iter()
                .filter(|s| s.completed_at.is_some())
                .count(),
            rebuffer_events: log.streams.iter().map(|s| s.rebuffers as u64).sum(),
            rebuffer_secs: log.streams.iter().map(|s| s.rebuffer_secs).sum(),
        }
    }
}

/// Startup delays of every playback that started, seconds, in
/// merged-log order.
pub fn startup_delays(log: &RunLog) -> Vec<f64> {
    log.streams
        .iter()
        .filter_map(|s| s.startup_delay_secs)
        .collect()
}

/// The streaming driver as a harness [`Workload`].
pub struct StreamingWorkload<'a> {
    /// The run parameters (shared with [`run_streaming`]).
    pub cfg: &'a StreamingConfig,
}

impl Workload for StreamingWorkload<'_> {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError> {
        let topo_cfg = self.cfg.effective_topo();
        let built = build_synth_topo(&topo_cfg, seed);
        let map = topo_cfg.shard_map(self.cfg.num_shards)?;
        Ok(TopologyPlan {
            topo: built.topo,
            map,
            brokers: built.brokers,
        })
    }

    fn federation(&self) -> FederationSpec {
        FederationSpec {
            gossip_interval: self.cfg.gossip_interval,
            ..FederationSpec::default()
        }
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let cfg = self.cfg;
        let mut actors: Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> = Vec::new();
        for (r, &broker) in cx.brokers.iter().enumerate() {
            let mut broker_cfg = BrokerConfig::new(cx.seed ^ (0x57E4_0000 + r as u64));
            broker_cfg.stop_when_idle = false;
            cx.federation.configure(r, &mut broker_cfg);
            actors.push((
                broker,
                Box::new(Broker::new(broker_cfg, cx.sink_of(broker))),
            ));
        }
        let owners: Arc<[NodeId]> = (0..cfg.topo.regions)
            .flat_map(|r| cfg.topo.peer_nodes(r))
            .collect::<Vec<_>>()
            .into();
        let content_seed = cx.seed ^ 0x57E4_C0DE;
        for r in 0..cfg.topo.regions {
            let broker = cx.brokers[r];
            for node in cfg.topo.peer_nodes(r) {
                let pseed = peer_seed(cx.seed, node);
                let mut rng = SimRng::new(pseed).split(salt::STREAMING_PEER);
                let arrival = SimDuration::from_secs_f64(
                    rng.uniform_range(0.0, cfg.arrival_spread.as_secs_f64().max(1.0)),
                );
                let stream_cfg = StreamConfig {
                    broker,
                    policy: cfg.policy,
                    window: cfg.window,
                    total_pieces: cfg.total_pieces,
                    piece_bytes: cfg.piece_bytes,
                    piece_secs: cfg.piece_secs,
                    startup_pieces: cfg.startup_pieces,
                    arrival,
                    owners: owners.clone(),
                    content_seed,
                    cpu_gops: rng.pareto(0.5, 1.8),
                };
                actors.push((
                    node,
                    Box::new(StreamingClient::new(stream_cfg, pseed, cx.sink_of(node))),
                ));
            }
        }
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        streaming_series(interval)
    }

    fn summarize(&self, seed: u64, run: &HarnessRun) -> String {
        let cfg = self.cfg;
        let stats = StreamingStats::from_log(&run.log);
        format!(
            "{{\"workload\":\"streaming\",\"regions\":{},\"peers\":{},\"num_shards\":{},\
             \"horizon_secs\":{},\"seed\":{},\"policy\":\"{}\",\"window\":{},\
             \"upload\":\"{}\",\"pieces\":{},\"piece_bytes\":{},\
             \"outcome\":\"{:?}\",\"elapsed_secs\":{},\"events\":{},\
             \"trace_digest\":\"{:016x}\",\"streams\":{},\
             \"playbacks\":{{\"started\":{},\"completed\":{}}},\
             \"startup_delay\":{},\
             \"rebuffering\":{{\"events\":{},\"total_secs\":{}}}}}\n",
            cfg.topo.regions,
            cfg.topo.peers,
            cfg.num_shards,
            cfg.horizon.as_secs_f64(),
            seed,
            cfg.policy,
            cfg.policy.effective_window(cfg.window),
            cfg.upload,
            cfg.total_pieces,
            cfg.piece_bytes,
            run.outcome,
            run.elapsed.as_secs_f64(),
            run.events_processed,
            run.trace.digest(),
            stats.streams,
            stats.playbacks_started,
            stats.completions,
            quantiles_fragment(StartupQuantiles::from_samples(&startup_delays(&run.log))),
            stats.rebuffer_events,
            stats.rebuffer_secs,
        )
    }
}

/// JSON fragment for optional startup quantiles (`null` when absent).
fn quantiles_fragment(q: Option<StartupQuantiles>) -> String {
    match q {
        Some(q) => format!(
            "{{\"count\":{},\"p50_s\":{},\"p90_s\":{},\"max_s\":{}}}",
            q.count, q.p50_s, q.p90_s, q.max_s
        ),
        None => "null".to_string(),
    }
}

/// Runs one streaming replication of `cfg` under `seed` on the harness
/// at one worker; any worker count set on [`StreamingConfig::harness`]
/// gives byte-identical output at fixed shards. Invalid
/// shard counts and degenerate parameters surface as [`HarnessError`]s
/// instead of panics.
pub fn run_streaming(cfg: &StreamingConfig, seed: u64) -> Result<HarnessRun, HarnessError> {
    cfg.harness().build()?.run(&StreamingWorkload { cfg }, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small streaming testbed: four regions, 16 viewers, CI horizon.
    fn small() -> StreamingConfig {
        StreamingConfig {
            topo: SynthTopoConfig {
                regions: 4,
                peers: 16,
                ..SynthTopoConfig::default()
            },
            num_shards: 4,
            total_pieces: 24,
            horizon: SimDuration::from_secs(600),
            ..StreamingConfig::default()
        }
    }

    #[test]
    fn upload_profile_names_round_trip() {
        for p in UploadProfile::ALL {
            assert_eq!(UploadProfile::parse(p.name()), Some(p));
        }
        assert_eq!(UploadProfile::parse("dsl"), None);
    }

    #[test]
    fn startup_quantiles_are_ordered() {
        let q = StartupQuantiles::from_samples(&[9.0, 1.0, 5.0, 3.0, 7.0]).expect("non-empty");
        assert_eq!(q.count, 5);
        assert!(q.p50_s <= q.p90_s && q.p90_s <= q.max_s);
        assert_eq!(q.max_s, 9.0);
        assert_eq!(StartupQuantiles::from_samples(&[]), None);
    }

    #[test]
    fn viewers_stream_and_playback_completes() {
        let result = run_streaming(&small(), 2026).expect("small config is valid");
        let stats = StreamingStats::from_log(&result.log);
        assert_eq!(stats.streams, 16, "every viewer starts a stream");
        assert_eq!(
            stats.playbacks_started, 16,
            "every playback starts inside the horizon"
        );
        assert!(
            stats.completions > 0,
            "some viewer finishes the stream: {stats:?}"
        );
        let q = StartupQuantiles::from_samples(&startup_delays(&result.log)).expect("playbacks");
        assert!(q.p50_s > 0.0 && q.p50_s <= q.p90_s && q.p90_s <= q.max_s);
        assert!(stats.rebuffer_secs >= 0.0);
    }

    #[test]
    fn streaming_is_worker_count_invariant() {
        let runs: Vec<HarnessRun> = [1, 2, 4]
            .iter()
            .map(|&w| {
                let cfg = StreamingConfig {
                    policy: PiecePolicy::Windowed,
                    window: 6,
                    ..small()
                };
                (cfg.harness().shard_workers(w).build())
                    .and_then(|h| h.run(&StreamingWorkload { cfg: &cfg }, 7))
                    .expect("small config is valid")
            })
            .collect();
        assert_ne!(runs[0].trace.len(), 0, "trace must not be empty");
        for r in &runs[1..] {
            assert_eq!(r.outcome, runs[0].outcome);
            assert_eq!(r.trace.digest(), runs[0].trace.digest());
            assert_eq!(r.elapsed, runs[0].elapsed);
            assert_eq!(r.events_processed, runs[0].events_processed);
            assert_eq!(r.metrics.render(), runs[0].metrics.render());
            assert_eq!(
                StreamingStats::from_log(&r.log),
                StreamingStats::from_log(&runs[0].log)
            );
            assert_eq!(startup_delays(&r.log), startup_delays(&runs[0].log));
        }
    }

    #[test]
    fn policy_and_window_move_the_figures() {
        let run = |policy, window| {
            run_streaming(
                &StreamingConfig {
                    policy,
                    window,
                    ..small()
                },
                11,
            )
            .expect("valid")
        };
        let seq = run(PiecePolicy::Sequential, 1);
        let win = run(PiecePolicy::Windowed, 8);
        let seq_q = StartupQuantiles::from_samples(&startup_delays(&seq.log)).expect("playbacks");
        let win_q = StartupQuantiles::from_samples(&startup_delays(&win.log)).expect("playbacks");
        assert_ne!(
            seq_q, win_q,
            "the policy axis must move the startup figures"
        );
        assert!(
            seq_q.p50_s < win_q.p50_s,
            "lookahead delays the in-order startup prefix \
             (sequential {:.2}s vs windowed {:.2}s)",
            seq_q.p50_s,
            win_q.p50_s
        );
    }

    #[test]
    fn invalid_shard_count_is_rejected() {
        let err = run_streaming(
            &StreamingConfig {
                num_shards: 9,
                ..small()
            },
            1,
        )
        .err()
        .expect("nine shards over four regions must be rejected");
        assert!(matches!(err, HarnessError::InvalidShardCount { .. }));
    }
}
