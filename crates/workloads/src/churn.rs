//! Scripted churn workload: join/leave/rejoin at testbed scale.
//!
//! Drives a [`synthtopo`](crate::synthtopo) testbed with one
//! [`LifecyclePeer`] per peer node: every peer follows a pre-sampled
//! [`LifecycleScript`] (arrival → session → off-time → rejoin …), while
//! each region's broker keeps distributing files to *selected* peers —
//! so peer selection, the registry, and the transfer machinery all run
//! against a membership that is changing under them.
//!
//! The driver is a [`Workload`] on the [`harness`](crate::harness): this
//! module contributes the testbed plan, the broker/peer fleet, the
//! `churn_series` schema, and the summary JSON; engine assembly, the
//! result ([`HarnessRun`]) and artifact plumbing are the harness's.
//! [`SwapDynamics::from_metrics`] reads the population movement back out
//! of a run.
//!
//! Determinism contract: per-peer scripts are sampled **before** the run
//! from seeds derived only from the master seed and the peer's node id,
//! and the sharded engine's event order is worker-count independent, so
//! for a fixed `(config, seed, num_shards)` the result — trace digest,
//! metrics, swap-dynamics counts — is byte-identical at any
//! `shard_workers`. The CI workload-determinism job diffs `psim churn`
//! output at 1 vs 4 workers to hold this line.

use netsim::engine::Actor;
use netsim::metrics::Metrics;
use netsim::node::NodeId;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::lifecycle::{ChurnProfile, LifecycleConfig, LifecyclePeer, LifecycleScript};
use overlay::message::OverlayMsg;
use overlay::selector::RoundRobinSelector;

use crate::harness::{
    defaults, BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload,
    WorkloadBuilder,
};
use crate::synthtopo::{build_synth_topo, peer_seed, salt, SynthTopoConfig};
use crate::telemetry::churn_series;

/// Gap between successive distribution rounds.
const ROUND_INTERVAL: SimDuration = SimDuration::from_secs(300);
/// Size of each distributed file in bytes.
const FILE_BYTES: u64 = crate::spec::MB;
/// Parts per distributed file.
const FILE_PARTS: u32 = 4;

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// The synthetic testbed (regions, peers, geography, capacities).
    pub topo: SynthTopoConfig,
    /// Session/off-time/arrival distributions every peer's script is
    /// sampled from.
    pub profile: ChurnProfile,
    /// Virtual-time horizon bounding the run.
    pub horizon: SimDuration,
    /// Shard count (fixed across worker counts; must be `<= regions`).
    pub num_shards: usize,
    /// Selected-peer distribution rounds per broker.
    pub rounds: usize,
    /// Typed-trace ring capacity; `None` keeps tracing disabled.
    pub trace_capacity: Option<usize>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            topo: SynthTopoConfig::default(),
            profile: ChurnProfile::default(),
            horizon: SimDuration::from_secs(3600),
            num_shards: 4,
            rounds: 4,
            trace_capacity: Some(defaults::TRACE_CAPACITY),
        }
    }
}

impl ChurnConfig {
    /// The harness parameters this config asks for; callers that want
    /// worker threads or a time series set them
    /// on the returned builder.
    pub fn harness(&self) -> WorkloadBuilder {
        WorkloadBuilder::new()
            .horizon(self.horizon)
            .trace_capacity(self.trace_capacity)
    }
}

/// Swap-dynamics accounting: how the population actually moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapDynamics {
    /// First-time joins (should equal the peer count once everyone
    /// arrived).
    pub joins: u64,
    /// Re-entries after a departure.
    pub rejoins: u64,
    /// Graceful leaves sent to brokers.
    pub leaves: u64,
    /// File petitions refused because the peer was not connected.
    pub refused_petitions: u64,
    /// Task offers refused (not connected, or tasks disabled).
    pub refused_tasks: u64,
}

impl SwapDynamics {
    /// Reads the counters back out of merged run metrics.
    pub fn from_metrics(m: &Metrics) -> Self {
        SwapDynamics {
            joins: m.counter("churn.joins"),
            rejoins: m.counter("churn.rejoins"),
            leaves: m.counter("churn.leaves"),
            refused_petitions: m.counter("churn.refused_petitions"),
            refused_tasks: m.counter("churn.refused_tasks"),
        }
    }
}

/// The churn driver as a harness [`Workload`].
pub struct ChurnWorkload<'a> {
    /// The run parameters.
    pub cfg: &'a ChurnConfig,
}

impl Workload for ChurnWorkload<'_> {
    fn name(&self) -> &'static str {
        "churn"
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

    /// Gossip-only federation on the hour-scale soak cadence: every broker
    /// peers with every other, but petition forwarding stays off so the
    /// pre-federation churn artifacts (defer-until-peers behaviour, traces,
    /// benchmarks) are unchanged.
    fn federation(&self) -> FederationSpec {
        FederationSpec {
            gossip_interval: defaults::SOAK_GOSSIP_INTERVAL,
            ..FederationSpec::default()
        }
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let cfg = self.cfg;
        let mut actors: Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> = Vec::new();
        for (r, &broker) in cx.brokers.iter().enumerate() {
            let mut broker_cfg = BrokerConfig::new(cx.seed ^ (0xC4_0000 + r as u64));
            broker_cfg.stop_when_idle = false;
            // Selected-target rounds need a selection model; round-robin is
            // deterministic and touches every live candidate over time, which
            // is exactly what a churn soak wants.
            broker_cfg.selector = Some(Box::new(RoundRobinSelector::new()));
            cx.federation.configure(r, &mut broker_cfg);
            for round in 0..cfg.rounds {
                broker_cfg = broker_cfg.at(
                    SimDuration::from_secs(120) + ROUND_INTERVAL * round as u64,
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::Selected,
                        size_bytes: FILE_BYTES,
                        num_parts: FILE_PARTS,
                        label: format!("churn-r{r}-round{round}"),
                    },
                );
            }
            actors.push((
                broker,
                Box::new(Broker::new(broker_cfg, cx.sink_of(broker))),
            ));
        }
        for r in 0..cfg.topo.regions {
            let home = cx.brokers[r];
            for node in cfg.topo.peer_nodes(r) {
                let pseed = peer_seed(cx.seed, node);
                let mut rng = SimRng::new(pseed).split(salt::CHURN_PEER);
                let script = LifecycleScript::sample(&mut rng, &cfg.profile, cfg.horizon);
                let peer_cfg = LifecycleConfig {
                    brokers: vec![home],
                    script,
                    accepts_tasks: true,
                    failover: None,
                };
                actors.push((node, Box::new(LifecyclePeer::new(peer_cfg, pseed))));
            }
        }
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        churn_series(interval)
    }

    fn summarize(&self, seed: u64, run: &HarnessRun) -> String {
        let cfg = self.cfg;
        let SwapDynamics {
            joins,
            rejoins,
            leaves,
            refused_petitions,
            refused_tasks,
        } = SwapDynamics::from_metrics(&run.metrics);
        format!(
            "{{\"workload\":\"churn\",\"regions\":{},\"peers\":{},\"num_shards\":{},\
             \"horizon_secs\":{},\"seed\":{},\"outcome\":\"{:?}\",\"elapsed_secs\":{},\
             \"events\":{},\"trace_digest\":\"{:016x}\",\"transfers\":{},\
             \"swap\":{{\"joins\":{joins},\"rejoins\":{rejoins},\"leaves\":{leaves},\
             \"refused_petitions\":{refused_petitions},\"refused_tasks\":{refused_tasks}}}}}\n",
            cfg.topo.regions,
            cfg.topo.peers,
            cfg.num_shards,
            cfg.horizon.as_secs_f64(),
            seed,
            run.outcome,
            run.elapsed.as_secs_f64(),
            run.events_processed,
            run.trace.digest(),
            run.log.transfers.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::DelayDistribution;

    /// Small but churny: short sessions so rejoins happen inside the
    /// horizon, four regions on four shards.
    fn small() -> ChurnConfig {
        ChurnConfig {
            topo: SynthTopoConfig {
                regions: 4,
                peers: 24,
                ..SynthTopoConfig::default()
            },
            profile: ChurnProfile {
                arrival: DelayDistribution::Uniform { lo: 0.0, hi: 120.0 },
                session: DelayDistribution::Lognormal {
                    median: 180.0,
                    sigma: 0.6,
                },
                off_time: DelayDistribution::Lognormal {
                    median: 60.0,
                    sigma: 0.5,
                },
            },
            horizon: SimDuration::from_secs(1500),
            num_shards: 4,
            rounds: 3,
            ..ChurnConfig::default()
        }
    }

    /// One replication of `cfg` under `seed`, at one worker.
    fn run(cfg: &ChurnConfig, seed: u64) -> Result<HarnessRun, HarnessError> {
        cfg.harness().build()?.run(&ChurnWorkload { cfg }, seed)
    }

    #[test]
    fn churn_run_is_worker_count_invariant() {
        let runs: Vec<HarnessRun> = [1, 2, 4]
            .iter()
            .map(|&w| {
                let cfg = small();
                (cfg.harness().shard_workers(w).build())
                    .and_then(|h| h.run(&ChurnWorkload { cfg: &cfg }, 2026))
                    .expect("small config is valid")
            })
            .collect();
        assert_ne!(runs[0].trace.len(), 0, "trace must not be empty");
        for r in &runs[1..] {
            assert_eq!(r.outcome, runs[0].outcome);
            assert_eq!(r.trace.digest(), runs[0].trace.digest());
            assert_eq!(r.elapsed, runs[0].elapsed);
            assert_eq!(r.events_processed, runs[0].events_processed);
            assert_eq!(r.peak_queue_len, runs[0].peak_queue_len);
            assert_eq!(r.metrics.render(), runs[0].metrics.render());
            assert_eq!(
                SwapDynamics::from_metrics(&r.metrics),
                SwapDynamics::from_metrics(&runs[0].metrics)
            );
            assert_eq!(r.log.transfers.len(), runs[0].log.transfers.len());
        }
    }

    #[test]
    fn population_actually_churns() {
        let result = run(&small(), 99).expect("small config is valid");
        let swap = SwapDynamics::from_metrics(&result.metrics);
        let peers = small().topo.peers as u64;
        // Arrivals are capped at half the horizon, so every peer joined.
        assert_eq!(swap.joins, peers, "every peer joins once");
        assert!(swap.leaves > 0, "sessions end inside the horizon");
        assert!(swap.rejoins > 0, "short sessions force rejoins");
        assert!(result.events_processed > 0);
        // The Selected-target rounds actually chose someone and moved data.
        assert!(!result.log.selections.is_empty(), "no selections recorded");
        assert!(!result.log.transfers.is_empty(), "no transfers recorded");
        // The registry's gossip write path ran (a roster was learnt) and
        // refused nothing it should keep.
        assert!(result.metrics.counter("overlay.gossip_received") > 0);
        assert_eq!(result.metrics.counter("overlay.stale_views_dropped"), 0);
    }

    #[test]
    fn scripts_are_independent_of_sharding() {
        // The per-peer seed derives from the node id alone, so two runs
        // that shard differently sample identical lifecycles.
        let one = run(
            &ChurnConfig {
                num_shards: 1,
                ..small()
            },
            7,
        )
        .expect("single-shard config is valid");
        let four = run(&small(), 7).expect("small config is valid");
        let (one, four) = (
            SwapDynamics::from_metrics(&one.metrics),
            SwapDynamics::from_metrics(&four.metrics),
        );
        assert_eq!(one.joins, four.joins);
        assert_eq!(one.rejoins, four.rejoins);
        assert_eq!(one.leaves, four.leaves);
    }
}
