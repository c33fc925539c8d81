//! Multi-region overlay workload for the sharded engine.
//!
//! The paper's testbed is a single PlanetLab slice; this module scales the
//! same broker/client machinery out to `R` federated regions so the
//! conservative-lookahead parallel engine has something worth sharding:
//! each region is one shard (one broker plus `K` clients on a low-delay
//! campus mesh), regions are separated by a wide-area delay that becomes
//! the lookahead bound, and a deterministic fraction of clients joins a
//! *remote* region's broker so petitions and file parts actually cross
//! shard boundaries.
//!
//! The node order is region-major — region `r` owns indices
//! `r*(K+1) .. (r+1)*(K+1)`, broker first — so the shard map is a simple
//! region assignment and record sinks can be handed out per shard.
//!
//! The driver is a [`Workload`] on the [`harness`](crate::harness) and
//! a run comes back as its [`HarnessRun`]; the stdout-artifact tail is
//! the attribution phase CSV of the run log
//! (`MultiRegionConfig::phase_csv`) rather than a summary JSON line.
//!
//! Used by `psim multiregion`, the worker-count-invariance property test,
//! and the CI workload-determinism job.

use netsim::engine::Actor;
use netsim::link::{AccessLink, PathSpec};
use netsim::node::{NodeId, NodeSpec};
use netsim::shard::ShardMap;
use netsim::time::SimDuration;
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use netsim::topology::Topology;
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::client::{ClientConfig, SimpleClient};
use overlay::message::OverlayMsg;
use overlay::records::RunLog;

use crate::attribution::{attribute_log, breakdown_by_peer, phase_table_csv};
use crate::harness::{BuildCtx, HarnessError, HarnessRun, TopologyPlan, Workload, WorkloadBuilder};
use crate::telemetry::overlay_series;

/// One-way delay between hosts of the same region, in milliseconds.
const INTRA_OWD_MS: f64 = 3.0;
/// Path jitter as a fraction of the one-way delay.
const JITTER_FRAC: f64 = 0.1;
/// Parts per distributed file.
const FILE_PARTS: u32 = 4;
/// Gap between successive distribution rounds.
const ROUND_INTERVAL: SimDuration = SimDuration::from_secs(120);
/// Every `n`-th client of a region joins the *next* region's broker
/// instead of its own. This is what forces petitions and file parts
/// across shard boundaries.
const REMOTE_JOIN_EVERY: usize = 3;

/// Parameters of one multi-region run. All fields are public so callers
/// (CLI, property test, CI) can shape the workload; [`Default`] is a
/// 3-region × 4-client setup sized for CI.
#[derive(Debug, Clone)]
pub struct MultiRegionConfig {
    /// Number of regions; each region is one shard with its own broker.
    pub regions: usize,
    /// Clients per region (the broker is extra).
    pub clients_per_region: usize,
    /// One-way delay between hosts of different regions, in milliseconds.
    /// This is the conservative-lookahead bound, so it must be positive.
    pub inter_owd_ms: f64,
    /// Size of each distributed file in bytes.
    pub file_bytes: u64,
    /// Distribution rounds per broker.
    pub rounds: usize,
    /// Virtual-time horizon bounding the run.
    pub horizon: SimDuration,
    /// Typed-trace ring capacity; `None` keeps tracing disabled.
    pub trace_capacity: Option<usize>,
}

impl Default for MultiRegionConfig {
    fn default() -> Self {
        MultiRegionConfig {
            regions: 3,
            clients_per_region: 4,
            inter_owd_ms: 45.0,
            file_bytes: 4 * crate::spec::MB,
            rounds: 2,
            horizon: SimDuration::from_secs(900),
            trace_capacity: None,
        }
    }
}

impl MultiRegionConfig {
    /// The harness parameters this config asks for; callers that want
    /// worker threads or a time series set them
    /// on the returned builder.
    pub fn harness(&self) -> WorkloadBuilder {
        WorkloadBuilder::new()
            .horizon(self.horizon)
            .trace_capacity(self.trace_capacity)
    }

    /// Total node count: `(1 broker + K clients) × R` regions.
    pub(crate) fn num_nodes(&self) -> usize {
        self.regions * (self.clients_per_region + 1)
    }

    /// The broker node of region `r` under region-major ordering.
    pub(crate) fn broker_of(&self, r: usize) -> NodeId {
        NodeId((r * (self.clients_per_region + 1)) as u32)
    }

    /// Region-major shard assignment: node → its region. Fails only for
    /// a degenerate zero-region config (the assignment would be empty).
    pub(crate) fn shard_map(&self) -> Result<ShardMap, HarnessError> {
        let per = self.clients_per_region + 1;
        let assignment: Vec<usize> = (0..self.num_nodes()).map(|i| i / per).collect();
        Ok(ShardMap::from_assignment(assignment)?)
    }

    /// A node's name under region-major ordering: `broker-r<R>` for a
    /// region's broker, `client-r<R>-<C>` for its clients. Names the
    /// topology's hosts and labels the rows of `Self::phase_csv`.
    pub fn node_name(&self, node: NodeId) -> String {
        let per = self.clients_per_region + 1;
        match (node.index() / per, node.index() % per) {
            (r, 0) => format!("broker-r{r}"),
            (r, c) => format!("client-r{r}-{}", c - 1),
        }
    }

    /// Builds the full-mesh topology: flat access links, low intra-region
    /// one-way delay, high inter-region delay (the lookahead bound).
    pub(crate) fn topology(&self) -> Topology {
        let per = self.clients_per_region + 1;
        let mut topo = Topology::new();
        let ids: Vec<NodeId> = (0..self.num_nodes() as u32)
            .map(|i| {
                let spec = NodeSpec::responsive(self.node_name(NodeId(i)));
                topo.add_node(spec, AccessLink::default())
            })
            .collect();
        let intra = PathSpec::from_owd_ms(INTRA_OWD_MS, JITTER_FRAC);
        let inter = PathSpec::from_owd_ms(self.inter_owd_ms, JITTER_FRAC);
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate().skip(i + 1) {
                let path = if i / per == j / per { &intra } else { &inter };
                topo.set_path_symmetric(a, b, path.clone());
            }
        }
        topo
    }

    /// The per-peer attribution phase CSV of a run's log, rows labelled by
    /// [`Self::node_name`] — the worker-invariant tail of the
    /// `psim multiregion` stdout artifact.
    pub(crate) fn phase_csv(&self, log: &RunLog) -> String {
        let attrs = attribute_log(log);
        phase_table_csv(&breakdown_by_peer(&attrs, |node| self.node_name(node)))
    }
}

/// The multi-region driver as a harness [`Workload`].
pub struct MultiRegionWorkload<'a> {
    /// The run parameters.
    pub cfg: &'a MultiRegionConfig,
}

impl Workload for MultiRegionWorkload<'_> {
    fn name(&self) -> &'static str {
        "multiregion"
    }

    fn topology(&self, _seed: u64) -> Result<TopologyPlan, HarnessError> {
        let cfg = self.cfg;
        let brokers: Vec<NodeId> = (0..cfg.regions).map(|r| cfg.broker_of(r)).collect();
        Ok(TopologyPlan {
            topo: cfg.topology(),
            map: cfg.shard_map()?,
            brokers,
        })
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let cfg = self.cfg;
        let mut actors: Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> = Vec::new();
        for (r, &broker) in cx.brokers.iter().enumerate() {
            let mut broker_cfg = BrokerConfig::new(cx.seed ^ (0x5EED_0000 + r as u64));
            broker_cfg.stop_when_idle = false;
            cx.federation.configure(r, &mut broker_cfg);
            for round in 0..cfg.rounds {
                broker_cfg = broker_cfg.at(
                    SimDuration::from_secs(60) + ROUND_INTERVAL * round as u64,
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::AllClients,
                        size_bytes: cfg.file_bytes,
                        num_parts: FILE_PARTS,
                        label: format!("mr-r{r}-round{round}"),
                    },
                );
            }
            actors.push((
                broker,
                Box::new(Broker::new(broker_cfg, cx.sink_of(broker))),
            ));
        }
        let per = cfg.clients_per_region + 1;
        for r in 0..cfg.regions {
            for c in 0..cfg.clients_per_region {
                let node = NodeId((r * per + 1 + c) as u32);
                // A deterministic fraction of clients joins the next region's
                // broker, forcing petitions and parts across shard boundaries.
                let home = if (c + 1) % REMOTE_JOIN_EVERY == 0 {
                    cx.brokers[(r + 1) % cfg.regions]
                } else {
                    cx.brokers[r]
                };
                let client_cfg = ClientConfig::new(home);
                let client_seed = cx
                    .seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * per + c) as u64);
                actors.push((
                    node,
                    Box::new(
                        SimpleClient::new(client_cfg, client_seed).with_sink(cx.sink_of(node)),
                    ),
                ));
            }
        }
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        overlay_series(interval)
    }

    fn summarize(&self, _seed: u64, run: &HarnessRun) -> String {
        self.cfg.phase_csv(&run.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MultiRegionConfig {
        MultiRegionConfig {
            regions: 3,
            clients_per_region: 3,
            rounds: 1,
            horizon: SimDuration::from_secs(400),
            trace_capacity: Some(1 << 14),
            ..MultiRegionConfig::default()
        }
    }

    #[test]
    fn multiregion_run_is_worker_count_invariant() {
        let runs: Vec<HarnessRun> = [1, 2, 4]
            .iter()
            .map(|&w| {
                let cfg = small();
                (cfg.harness().shard_workers(w).build())
                    .and_then(|h| h.run(&MultiRegionWorkload { cfg: &cfg }, 77))
                    .expect("small config is valid")
            })
            .collect();
        let digest = runs[0].trace.digest();
        assert_ne!(runs[0].trace.len(), 0, "trace must not be empty");
        let shards = &runs[0].profile.shards;
        let events: u64 = shards.iter().map(|t| t.events).sum();
        assert_eq!(
            events, runs[0].events_processed,
            "per-shard totals cover the run"
        );
        for r in &runs[1..] {
            assert_eq!(r.outcome, runs[0].outcome);
            assert_eq!(r.trace.digest(), digest);
            assert_eq!(r.elapsed, runs[0].elapsed);
            assert_eq!(r.events_processed, runs[0].events_processed);
            assert_eq!(r.profile.rounds, runs[0].profile.rounds);
            assert_eq!(&r.profile.shards, shards, "per-shard totals differ");
            assert_eq!(r.metrics.render(), runs[0].metrics.render());
            assert_eq!(r.log.transfers.len(), runs[0].log.transfers.len());
        }
    }

    #[test]
    fn multiregion_produces_cross_shard_transfers() {
        let cfg = small();
        let result = (cfg.harness().build())
            .and_then(|h| h.run(&MultiRegionWorkload { cfg: &cfg }, 5))
            .expect("small config is valid");
        // Every region distributed one round to its clients; remote joiners
        // mean some of those transfers crossed a region (= shard) boundary.
        assert!(!result.log.transfers.is_empty(), "no transfers recorded");
        let map = small().shard_map().expect("small config shards");
        // The sending broker's region is encoded in the label (`mr-r<R>-…`),
        // so a cross-shard transfer is one whose destination lives in a
        // different region than the broker that initiated it.
        let cross = result
            .log
            .transfers
            .iter()
            .filter(|t| {
                let src_region: usize = t.label[4..5].parse().expect("mr-r<R> label");
                map.shard_of(t.to) != src_region
            })
            .count();
        assert!(cross > 0, "expected cross-shard transfers, got none");
        assert!(result.events_processed > 0);
        assert!(result.profile.rounds > 0);
    }

    #[test]
    fn node_names_follow_region_major_order() {
        let cfg = small();
        let topo = cfg.topology();
        let names: Vec<String> = (topo.node_ids()).map(|id| cfg.node_name(id)).collect();
        assert_eq!(names.len(), cfg.num_nodes());
        assert_eq!(names[0], "broker-r0");
        assert_eq!(names[1], "client-r0-0");
        assert_eq!(names[cfg.clients_per_region + 1], "broker-r1");
        for id in topo.node_ids() {
            assert_eq!(topo.node(id).name, names[id.index()], "the topology's name");
        }
    }
}
