//! Federated-broker workload: homing, cross-broker petition forwarding,
//! and scripted broker failover at testbed scale.
//!
//! Drives a [`synthtopo`](crate::synthtopo) testbed with one broker per
//! region wired into an [`overlay::federation::Federation`]: brokers
//! gossip rosters on a cadence, forward `Selected` petitions they cannot
//! place locally to a live fellow broker (hop-budgeted), and — when an
//! outage is scripted — one broker crashes mid-run while its clients
//! detect the silence by probe timeout and re-home down their preference
//! list.
//!
//! The driver is a [`Workload`] on the [`harness`](crate::harness): it
//! contributes the testbed plan, the full federation spec (homing,
//! staleness, outage), the fleet, the [`federation_series`] schema, and
//! the summary JSON. A run comes back as the harness's [`HarnessRun`];
//! [`FederationDynamics::from_metrics`], [`petition_latencies`] and
//! [`recovery_summary`] read the federation's figures out of it.
//!
//! Determinism contract matches [`churn`](crate::churn): peer scripts and
//! arrival instants derive only from the master seed and node id, the
//! sharded engine's event order is worker-count independent, so for a
//! fixed `(config, seed, num_shards)` the result — trace digest, metrics,
//! federation dynamics — is byte-identical at any `shard_workers`. The CI
//! workload-determinism job diffs `psim federate` output at 1 vs 4
//! workers (including a `--kill-broker-at` run) to hold this line.

use netsim::engine::Actor;
use netsim::metrics::Metrics;
use netsim::node::NodeId;
use netsim::rng::{DelayDistribution, SimRng};
use netsim::time::{SimDuration, SimTime};
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use netsim::trace::{Trace, TraceEventKind};
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::federation::{FailoverPolicy, HomingPolicy};
use overlay::lifecycle::{LifecycleConfig, LifecyclePeer, LifecycleScript, SessionPlan};
use overlay::message::OverlayMsg;
use overlay::records::RunLog;
use overlay::selector::RoundRobinSelector;

pub use crate::harness::BrokerOutage;
use crate::harness::{
    defaults, BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload,
    WorkloadBuilder,
};
use crate::synthtopo::{build_synth_topo, peer_seed, salt, SynthTopoConfig};
use crate::telemetry::federation_series;

/// Parameters of one federation run.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// The synthetic testbed; one broker per region.
    pub topo: SynthTopoConfig,
    /// How clients map to their home-broker preference list.
    pub homing: HomingPolicy,
    /// Broker-to-broker roster gossip cadence
    /// ([`defaults::GOSSIP_INTERVAL`]).
    pub gossip_interval: SimDuration,
    /// Tolerated age of gossiped candidate views; `None` = the builder
    /// default of three gossip rounds.
    pub staleness_bound: Option<SimDuration>,
    /// Hop budget for cross-broker petition forwarding (0 = off).
    pub forward_hops: u32,
    /// Probe cadence / silence threshold the clients re-home with.
    pub failover: FailoverPolicy,
    /// Virtual-time horizon bounding the run.
    pub horizon: SimDuration,
    /// Shard count (fixed across worker counts; must be `<= regions`).
    pub num_shards: usize,
    /// Selected-peer distribution rounds per broker.
    pub rounds: usize,
    /// Gap between successive distribution rounds.
    pub round_interval: SimDuration,
    /// Size of each distributed file in bytes.
    pub file_bytes: u64,
    /// Parts per distributed file.
    pub file_parts: u32,
    /// Peer arrivals are sampled uniformly over this window.
    pub arrival_spread: SimDuration,
    /// When `Some((r, offset))`, region `r`'s peers arrive `offset` late —
    /// its broker faces scheduled rounds with an empty registry, which is
    /// exactly what forces cross-broker forwarding.
    pub late_region: Option<(usize, SimDuration)>,
    /// Scripted broker crash/restart, if any.
    pub kill: Option<BrokerOutage>,
    /// Typed-trace ring capacity; `None` keeps tracing disabled.
    pub trace_capacity: Option<usize>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            topo: SynthTopoConfig::default(),
            homing: HomingPolicy::RegionAffinity,
            gossip_interval: defaults::GOSSIP_INTERVAL,
            staleness_bound: None,
            forward_hops: 2,
            failover: FailoverPolicy::default(),
            horizon: SimDuration::from_secs(900),
            num_shards: 4,
            rounds: 3,
            round_interval: SimDuration::from_secs(240),
            file_bytes: crate::spec::MB,
            file_parts: 4,
            arrival_spread: SimDuration::from_secs(100),
            late_region: None,
            kill: None,
            trace_capacity: Some(defaults::TRACE_CAPACITY),
        }
    }
}

impl FederationConfig {
    /// The harness parameters this config asks for; callers that want
    /// worker threads, a time series or the execution profiler set them
    /// on the returned builder.
    pub fn harness(&self) -> WorkloadBuilder {
        WorkloadBuilder::new()
            .horizon(self.horizon)
            .trace_capacity(self.trace_capacity)
    }
}

/// Federation accounting: how petitions and clients moved between
/// brokers. Read back out of merged run metrics, so worker-count
/// invariant by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationDynamics {
    /// First-time client joins.
    pub joins: u64,
    /// Failover re-homes (client gave up on a silent broker).
    pub rehomes: u64,
    /// Petitions a broker handed to a fellow broker.
    pub petitions_forwarded: u64,
    /// Forwarded petitions received from fellow brokers.
    pub forwards_received: u64,
    /// Forwarded petitions placed on a local candidate.
    pub forwards_served: u64,
    /// Forwarded petitions dropped with an exhausted hop budget.
    pub forwards_exhausted: u64,
    /// Gossiped candidate views rejected (tombstoned or conflicting).
    pub stale_views_dropped: u64,
    /// Roster gossip messages received.
    pub gossip_received: u64,
    /// Transfers that completed.
    pub transfers_completed: u64,
}

impl FederationDynamics {
    /// Reads the counters back out of merged run metrics.
    pub fn from_metrics(m: &Metrics) -> Self {
        FederationDynamics {
            joins: m.counter("churn.joins"),
            rehomes: m.counter("churn.rehomes"),
            petitions_forwarded: m.counter("overlay.petitions_forwarded"),
            forwards_received: m.counter("overlay.forwards_received"),
            forwards_served: m.counter("overlay.forwards_served"),
            forwards_exhausted: m.counter("overlay.forwards_exhausted"),
            stale_views_dropped: m.counter("overlay.stale_views_dropped"),
            gossip_received: m.counter("overlay.gossip_received"),
            transfers_completed: m.counter("overlay.transfers_completed"),
        }
    }
}

/// Five-number-ish summary of a latency sample set, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Smallest sample.
    pub min_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Largest sample.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarises `samples`; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut min_s = f64::INFINITY;
        let mut max_s = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            min_s = min_s.min(s);
            max_s = max_s.max(s);
            sum += s;
        }
        Some(LatencySummary {
            count: samples.len(),
            min_s,
            mean_s: sum / samples.len() as f64,
            max_s,
        })
    }
}

/// Receiver-observed petition latencies of every handled petition,
/// seconds, in merged-log order.
pub fn petition_latencies(log: &RunLog) -> Vec<f64> {
    log.transfers
        .iter()
        .filter_map(|t| t.petition_latency_secs())
        .collect()
}

/// Re-home delays after a scripted crash: crash instant → each
/// `PeerRehomed` trace event at or after it. `None` without a scripted
/// outage, a trace, or a single re-home.
pub fn recovery_summary(trace: &Trace, kill: Option<BrokerOutage>) -> Option<LatencySummary> {
    kill.and_then(|kill| {
        let down_at = SimTime::ZERO + kill.down_at;
        let samples: Vec<f64> = trace
            .events()
            .filter_map(|e| match e.kind {
                TraceEventKind::PeerRehomed { .. } if e.time >= down_at => {
                    Some((e.time - down_at).as_secs_f64())
                }
                _ => None,
            })
            .collect();
        LatencySummary::from_samples(&samples)
    })
}

/// The federation driver as a harness [`Workload`].
pub struct FederationWorkload<'a> {
    /// The run parameters (shared with [`run_federation`]).
    pub cfg: &'a FederationConfig,
}

impl Workload for FederationWorkload<'_> {
    fn name(&self) -> &'static str {
        "federation"
    }

    fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError> {
        let built = build_synth_topo(&self.cfg.topo, seed);
        let map = self.cfg.topo.shard_map(self.cfg.num_shards)?;
        Ok(TopologyPlan {
            topo: built.topo,
            map,
            brokers: built.brokers,
        })
    }

    fn federation(&self) -> FederationSpec {
        FederationSpec {
            homing: self.cfg.homing,
            gossip_interval: self.cfg.gossip_interval,
            staleness_bound: self.cfg.staleness_bound,
            forward_hops: self.cfg.forward_hops,
            outage: self.cfg.kill,
        }
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let cfg = self.cfg;
        let mut actors: Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> = Vec::new();
        for (r, &broker) in cx.brokers.iter().enumerate() {
            let mut broker_cfg = BrokerConfig::new(cx.seed ^ (0xFEDE_0000 + r as u64));
            broker_cfg.stop_when_idle = false;
            broker_cfg.selector = Some(Box::new(RoundRobinSelector::new()));
            cx.federation.configure(r, &mut broker_cfg);
            for round in 0..cfg.rounds {
                broker_cfg = broker_cfg.at(
                    SimDuration::from_secs(120) + cfg.round_interval * round as u64,
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::Selected,
                        size_bytes: cfg.file_bytes,
                        num_parts: cfg.file_parts,
                        label: format!("fed-r{r}-round{round}"),
                    },
                );
            }
            actors.push((
                broker,
                Box::new(Broker::new(broker_cfg, cx.sink_of(broker))),
            ));
        }
        for r in 0..cfg.topo.regions {
            let late_offset = match cfg.late_region {
                Some((lr, offset)) if lr == r => offset,
                _ => SimDuration::ZERO,
            };
            for node in cfg.topo.peer_nodes(r) {
                let pseed = peer_seed(cx.seed, node);
                let mut rng = SimRng::new(pseed).split(salt::FEDERATION_PEER);
                let spread = DelayDistribution::Uniform {
                    lo: 0.0,
                    hi: cfg.arrival_spread.as_secs_f64().max(1.0),
                };
                let arrival =
                    late_offset + SimDuration::from_secs_f64(spread.sample_secs(&mut rng));
                // One session outliving the horizon: federation peers never
                // leave by script, so every departure-shaped transition the
                // run sees is a failover re-home.
                let script = LifecycleScript {
                    arrival,
                    sessions: vec![SessionPlan {
                        length: cfg.horizon * 2,
                        off_time: SimDuration::ZERO,
                        cpu_gops: rng.pareto(0.5, 1.8),
                    }],
                };
                let peer_cfg = LifecycleConfig {
                    brokers: cx.federation.homes_for(node, r),
                    script,
                    accepts_tasks: true,
                    failover: Some(cfg.failover),
                };
                actors.push((node, Box::new(LifecyclePeer::new(peer_cfg, pseed))));
            }
        }
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        federation_series(interval)
    }

    fn summarize(&self, seed: u64, run: &HarnessRun) -> String {
        let cfg = self.cfg;
        let d = FederationDynamics::from_metrics(&run.metrics);
        format!(
            "{{\"workload\":\"federation\",\"brokers\":{},\"peers\":{},\"num_shards\":{},\
             \"horizon_secs\":{},\"seed\":{},\"homing\":\"{:?}\",\"gossip_secs\":{},\
             \"outcome\":\"{:?}\",\"elapsed_secs\":{},\"events\":{},\
             \"trace_digest\":\"{:016x}\",\"transfers\":{},\
             \"dynamics\":{{\"joins\":{},\"rehomes\":{},\"petitions_forwarded\":{},\
             \"forwards_received\":{},\"forwards_served\":{},\"forwards_exhausted\":{},\
             \"stale_views_dropped\":{}}},\
             \"petition_latency\":{},\"recovery\":{}}}\n",
            cfg.topo.regions,
            cfg.topo.peers,
            cfg.num_shards,
            cfg.horizon.as_secs_f64(),
            seed,
            cfg.homing,
            cfg.gossip_interval.as_secs_f64(),
            run.outcome,
            run.elapsed.as_secs_f64(),
            run.events_processed,
            run.trace.digest(),
            run.log.transfers.len(),
            d.joins,
            d.rehomes,
            d.petitions_forwarded,
            d.forwards_received,
            d.forwards_served,
            d.forwards_exhausted,
            d.stale_views_dropped,
            summary_fragment(LatencySummary::from_samples(&petition_latencies(&run.log))),
            summary_fragment(recovery_summary(&run.trace, cfg.kill)),
        )
    }
}

/// JSON fragment for an optional latency summary (`null` when absent).
fn summary_fragment(summary: Option<LatencySummary>) -> String {
    match summary {
        Some(s) => format!(
            "{{\"count\":{},\"min_s\":{},\"mean_s\":{},\"max_s\":{}}}",
            s.count, s.min_s, s.mean_s, s.max_s
        ),
        None => "null".to_string(),
    }
}

/// Runs one federation replication of `cfg` under `seed` on the harness
/// at one worker; any worker count set on [`FederationConfig::harness`]
/// gives byte-identical output at fixed shards. Invalid
/// shard counts, degenerate topologies, and rejected federation
/// parameters surface as [`HarnessError`]s instead of panics.
pub fn run_federation(cfg: &FederationConfig, seed: u64) -> Result<HarnessRun, HarnessError> {
    cfg.harness()
        .build()?
        .run(&FederationWorkload { cfg }, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Small federation: three regions, one late region so its broker's
    /// scheduled rounds fire against an empty registry and forward. The
    /// slow gossip cadence matters: fast gossip would hand the late
    /// broker remote candidate views, and gossiped candidates satisfy
    /// `Selected` directly — forwarding is the *no viable candidate at
    /// all* path, local or gossiped.
    fn small() -> FederationConfig {
        FederationConfig {
            topo: SynthTopoConfig {
                regions: 3,
                peers: 18,
                ..SynthTopoConfig::default()
            },
            num_shards: 3,
            rounds: 2,
            round_interval: SimDuration::from_secs(180),
            horizon: SimDuration::from_secs(900),
            gossip_interval: SimDuration::from_secs(400),
            late_region: Some((1, SimDuration::from_secs(600))),
            ..FederationConfig::default()
        }
    }

    /// One replication of `cfg` at `workers` shard workers.
    fn run_at(
        cfg: &FederationConfig,
        workers: usize,
        seed: u64,
    ) -> Result<HarnessRun, HarnessError> {
        (cfg.harness().shard_workers(workers).build())?.run(&FederationWorkload { cfg }, seed)
    }

    #[test]
    fn forwarded_petitions_are_worker_count_invariant() {
        let runs: Vec<HarnessRun> = [1, 2, 4]
            .iter()
            .map(|&w| run_at(&small(), w, 2026).expect("small config is valid"))
            .collect();
        assert_ne!(runs[0].trace.len(), 0, "trace must not be empty");
        let dynamics = FederationDynamics::from_metrics(&runs[0].metrics);
        assert!(
            dynamics.petitions_forwarded > 0,
            "the late region's rounds must forward: {dynamics:?}"
        );
        assert!(
            dynamics.forwards_served > 0,
            "some forwarded petition must land on a live candidate"
        );
        for r in &runs[1..] {
            assert_eq!(r.outcome, runs[0].outcome);
            assert_eq!(r.trace.digest(), runs[0].trace.digest());
            assert_eq!(r.elapsed, runs[0].elapsed);
            assert_eq!(r.events_processed, runs[0].events_processed);
            assert_eq!(r.peak_queue_len, runs[0].peak_queue_len);
            assert_eq!(r.metrics.render(), runs[0].metrics.render());
            assert_eq!(FederationDynamics::from_metrics(&r.metrics), dynamics);
            assert_eq!(r.log.transfers.len(), runs[0].log.transfers.len());
            assert_eq!(petition_latencies(&r.log), petition_latencies(&runs[0].log));
        }
    }

    #[test]
    fn failover_rehomes_clients_without_double_confirms() {
        let peers_in_killed_region = 6; // 18 peers / 3 regions
        let cfg = FederationConfig {
            kill: Some(BrokerOutage {
                region: 0,
                down_at: SimDuration::from_secs(400),
                restart_at: None,
            }),
            horizon: SimDuration::from_secs(1200),
            late_region: None,
            ..small()
        };
        let result = run_federation(&cfg, 77).expect("failover config is valid");
        let rehomes = FederationDynamics::from_metrics(&result.metrics).rehomes;
        assert_eq!(
            rehomes, peers_in_killed_region,
            "every client of the dead broker re-homes exactly once"
        );
        let recovery =
            recovery_summary(&result.trace, cfg.kill).expect("rehomes leave trace events");
        assert_eq!(recovery.count as u64, rehomes);
        assert!(
            recovery.min_s > 0.0,
            "re-homing cannot precede the crash it reacts to"
        );
        // No transfer record is double-confirmed: each part index is
        // confirmed at most once, and never more parts than the file has.
        assert!(!result.log.transfers.is_empty());
        for t in &result.log.transfers {
            let mut confirmed = HashSet::new();
            for p in t.parts.iter().filter(|p| p.confirmed_at.is_some()) {
                assert!(
                    confirmed.insert(p.index),
                    "part {} of {} confirmed twice",
                    p.index,
                    t.label
                );
            }
            assert!(confirmed.len() <= t.num_parts as usize);
        }
    }

    #[test]
    fn failover_runs_are_worker_count_invariant() {
        let cfg = FederationConfig {
            kill: Some(BrokerOutage {
                region: 2,
                down_at: SimDuration::from_secs(300),
                restart_at: Some(SimDuration::from_secs(700)),
            }),
            horizon: SimDuration::from_secs(1100),
            ..small()
        };
        let one = run_at(&cfg, 1, 9).expect("valid");
        let four = run_at(&cfg, 4, 9).expect("valid");
        let dynamics = FederationDynamics::from_metrics(&one.metrics);
        assert!(dynamics.rehomes > 0, "the crash must strand clients");
        assert_eq!(one.trace.digest(), four.trace.digest());
        assert_eq!(one.metrics.render(), four.metrics.render());
        assert_eq!(FederationDynamics::from_metrics(&four.metrics), dynamics);
    }

    #[test]
    fn consistent_hash_homing_runs_and_spreads() {
        let result = run_federation(
            &FederationConfig {
                homing: HomingPolicy::ConsistentHash,
                late_region: None,
                ..small()
            },
            5,
        )
        .expect("hash homing is valid");
        let dynamics = FederationDynamics::from_metrics(&result.metrics);
        assert_eq!(dynamics.joins, 18, "every peer joins");
        assert!(dynamics.transfers_completed > 0);
    }
}
