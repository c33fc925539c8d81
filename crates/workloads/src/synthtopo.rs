//! Procedural synthetic testbeds: million-peer topologies from a seed.
//!
//! The paper's testbed is ~30 hand-placed PlanetLab hosts; churn
//! experiments need populations four orders of magnitude larger. This
//! module generates them procedurally: `R` regions (autonomous-system
//! stand-ins) are dropped on the globe from a seeded RNG, inter-region
//! one-way delays follow the same haversine-distance model
//! ([`planetlab::rtt`]) the PlanetLab reconstruction is calibrated with,
//! and per-node access bandwidth and CPU capacity are sampled from
//! power-law (Pareto) distributions — a few well-provisioned hosts, a
//! long tail of weak ones, as every P2P capacity study observes.
//!
//! The topology uses the **region-blocked path table**
//! ([`Topology::blocked`]), so path storage is `O(nodes + regions²)`
//! instead of `O(nodes²)` — the difference between 16 MB and 16 TB at a
//! million nodes.
//!
//! Layout is region-major and broker-first: region `r` owns a contiguous
//! block of node ids, its broker at the block head. The shard map
//! assigns `region % num_shards`, so any shard count that divides into
//! the region count yields a balanced, dense assignment whose
//! cross-shard lookahead is bounded below by the RTT floor.

use crate::harness::HarnessError;
use netsim::link::{AccessLink, PathSpec};
use netsim::node::{CpuModel, NodeId, NodeSpec};
use netsim::rng::{DelayDistribution, SimRng};
use netsim::shard::ShardMap;
use netsim::topology::Topology;
use planetlab::rtt::{haversine_km, RttModel};

/// Speed of light in fiber, km per millisecond (matches `planetlab::rtt`).
const FIBER_KM_PER_MS: f64 = 200.0;
/// One-way delay between hosts of the same region, ms.
const INTRA_OWD_MS: f64 = 3.0;
/// Pareto scale (minimum) of host CPU capacity, gops.
const CPU_XM_GOPS: f64 = 0.5;
/// Pareto shape of host CPU capacity.
const CPU_ALPHA: f64 = 1.8;

/// Parameters of a procedural testbed.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthTopoConfig {
    /// Number of regions (one broker each); also the blocked-topology
    /// group count.
    pub regions: usize,
    /// Total lifecycle peers across all regions (brokers are extra).
    pub peers: usize,
    /// Pareto scale (minimum) of access bandwidth, Mbit/s.
    pub bw_xm_mbps: f64,
    /// Pareto shape of access bandwidth.
    pub bw_alpha: f64,
}

impl Default for SynthTopoConfig {
    fn default() -> Self {
        SynthTopoConfig {
            regions: 8,
            peers: 64,
            // Median home uplink a few Mbit/s with a fat institutional tail.
            bw_xm_mbps: 2.0,
            bw_alpha: 1.5,
        }
    }
}

impl SynthTopoConfig {
    /// Peers hosted by region `r` (spread as evenly as division allows;
    /// the first `peers % regions` regions get one extra).
    pub(crate) fn peers_of(&self, r: usize) -> usize {
        self.peers / self.regions + usize::from(r < self.peers % self.regions)
    }

    /// First node id of region `r`'s block (the broker).
    pub(crate) fn block_start(&self, r: usize) -> usize {
        let base = self.peers / self.regions;
        let extra = (self.peers % self.regions).min(r);
        r * (base + 1) + extra
    }

    /// The broker node of region `r`.
    pub(crate) fn broker_of(&self, r: usize) -> NodeId {
        NodeId(self.block_start(r) as u32)
    }

    /// Total node count: peers plus one broker per region.
    pub(crate) fn num_nodes(&self) -> usize {
        self.peers + self.regions
    }

    /// Peer nodes of region `r` (broker excluded).
    pub fn peer_nodes(&self, r: usize) -> impl Iterator<Item = NodeId> {
        let start = self.block_start(r) + 1;
        (start..start + self.peers_of(r)).map(|i| NodeId(i as u32))
    }

    /// Region of a node, from the region-major layout.
    pub(crate) fn region_of(&self, node: NodeId) -> usize {
        // Blocks differ in size by at most one; binary-search the starts.
        let i = node.index();
        let mut lo = 0usize;
        let mut hi = self.regions;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.block_start(mid) <= i {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Shard assignment `region % num_shards`. Dense as long as
    /// `1 <= num_shards <= regions`; anything else is rejected.
    pub fn shard_map(&self, num_shards: usize) -> Result<ShardMap, HarnessError> {
        if num_shards < 1 || num_shards > self.regions {
            return Err(HarnessError::InvalidShardCount {
                num_shards,
                regions: self.regions,
            });
        }
        let assignment: Vec<usize> = (0..self.num_nodes())
            .map(|i| self.region_of(NodeId(i as u32)) % num_shards)
            .collect();
        Ok(ShardMap::from_assignment(assignment)?)
    }
}

/// The seed a peer's script, identity and capacity derive from: master
/// seed plus node id, nothing else — so they survive any re-sharding
/// unchanged.
pub(crate) fn peer_seed(seed: u64, node: NodeId) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(node.index() as u64)
}

/// The `SimRng::split` salts of the workloads' seeded streams. A salt names
/// a stream: two draws under one salt from one seed are the same numbers,
/// so every stream gets its own (pinned pairwise distinct by a test).
pub(crate) mod salt {
    /// A testbed's region centroids.
    pub(crate) const GEOGRAPHY: u64 = 0x047E_06E0;
    /// A testbed's per-peer bandwidth and CPU capacity.
    pub(crate) const CAPACITY: u64 = 0x047E_0CA9;
    /// A churn peer's session script.
    pub(crate) const CHURN_PEER: u64 = 0xC4_0B11;
    /// A federation peer's arrival and capacity.
    pub(crate) const FEDERATION_PEER: u64 = 0xFEDE_0001;
    /// A streaming viewer's arrival and capacity.
    pub(crate) const STREAMING_PEER: u64 = 0x57E4_0001;

    /// Every salt above.
    #[cfg(test)]
    pub(crate) const ALL: [u64; 5] = [
        GEOGRAPHY,
        CAPACITY,
        CHURN_PEER,
        FEDERATION_PEER,
        STREAMING_PEER,
    ];
}

/// A generated testbed: the blocked topology plus the sampled geography.
pub struct SynthTopo {
    /// The region-blocked topology, ready for `Engine` / `ShardedEngine`.
    pub topo: Topology,
    /// The broker node of each region (block heads).
    pub brokers: Vec<NodeId>,
}

/// Generates the testbed for `cfg` from `seed`. Fully deterministic: the
/// same `(cfg, seed)` produces byte-identical node specs and paths, and
/// generation happens entirely before the simulation starts, so shard
/// workers never observe the RNG.
pub fn build_synth_topo(cfg: &SynthTopoConfig, seed: u64) -> SynthTopo {
    assert!(cfg.regions >= 1, "need at least one region");
    assert!(
        cfg.peers >= cfg.regions,
        "need at least one peer per region"
    );
    let mut caps = SimRng::new(seed).split(salt::CAPACITY);
    let centroids = region_centroids(cfg.regions, seed);

    let rtt = RttModel::default();
    let mut topo = Topology::blocked(cfg.regions);
    let intra = PathSpec::from_owd_ms(INTRA_OWD_MS, rtt.jitter_frac);
    for ga in 0..cfg.regions {
        topo.set_group_path(ga as u32, ga as u32, intra.clone());
        for gb in (ga + 1)..cfg.regions {
            let (la, lo) = centroids[ga];
            let (lb, lob) = centroids[gb];
            let km = haversine_km(la, lo, lb, lob);
            let owd_ms = rtt.floor_ms + km * rtt.path_inflation / FIBER_KM_PER_MS;
            topo.set_group_path_symmetric(
                ga as u32,
                gb as u32,
                PathSpec::from_owd_ms(owd_ms, rtt.jitter_frac),
            );
        }
    }

    let mut brokers = Vec::with_capacity(cfg.regions);
    for r in 0..cfg.regions {
        // Brokers are well-provisioned: top-of-distribution capacity.
        let broker = topo.add_node_in_group(
            NodeSpec::responsive(format!("broker-r{r}")),
            AccessLink::symmetric_mbps(100.0, 0.0),
            r as u32,
        );
        brokers.push(broker);
        debug_assert_eq!(broker, cfg.broker_of(r));
        for p in 0..cfg.peers_of(r) {
            let bw = caps.pareto(cfg.bw_xm_mbps, cfg.bw_alpha);
            let gops = caps.pareto(CPU_XM_GOPS, CPU_ALPHA);
            let spec = NodeSpec::responsive(format!("peer-r{r}-{p}"))
                .with_cpu(CpuModel::idle(gops))
                .with_service_delay(DelayDistribution::Constant(0.002));
            topo.add_node_in_group(spec, AccessLink::symmetric_mbps(bw, 0.0), r as u32);
        }
    }
    debug_assert_eq!(topo.len(), cfg.num_nodes());

    SynthTopo { topo, brokers }
}

/// `(lat, lon)` centroid of each region in degrees, drawn from `seed`'s
/// geography stream. Latitudes are clamped to the inhabited band so
/// distances stay terrestrial-plausible.
fn region_centroids(regions: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut geo = SimRng::new(seed).split(salt::GEOGRAPHY);
    (0..regions)
        .map(|_| {
            (
                geo.uniform_range(-50.0, 65.0),
                geo.uniform_range(-180.0, 180.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_salts_are_pairwise_distinct() {
        for (i, a) in salt::ALL.iter().enumerate() {
            for b in &salt::ALL[i + 1..] {
                assert_ne!(a, b, "two seeded streams share salt {a:#x}");
            }
        }
    }

    #[test]
    fn layout_accessors_agree_with_generation() {
        let cfg = SynthTopoConfig {
            regions: 5,
            peers: 23, // 5,5,5,4,4 — uneven on purpose
            ..SynthTopoConfig::default()
        };
        assert_eq!((0..5).map(|r| cfg.peers_of(r)).sum::<usize>(), 23);
        assert_eq!(cfg.num_nodes(), 28);
        let built = build_synth_topo(&cfg, 42);
        assert_eq!(built.topo.len(), cfg.num_nodes());
        for r in 0..5 {
            assert_eq!(built.brokers[r], cfg.broker_of(r));
            assert_eq!(built.topo.group_of(cfg.broker_of(r)), r as u32);
            for node in cfg.peer_nodes(r) {
                assert_eq!(cfg.region_of(node), r);
                assert_eq!(built.topo.group_of(node), r as u32);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let cfg = SynthTopoConfig::default();
        let a = build_synth_topo(&cfg, 7);
        let b = build_synth_topo(&cfg, 7);
        let c = build_synth_topo(&cfg, 8);
        let (b0, b1) = (cfg.broker_of(0), cfg.broker_of(1));
        assert_ne!(a.topo.path(b0, b1), c.topo.path(b0, b1));
        for i in 0..cfg.num_nodes() as u32 {
            assert_eq!(a.topo.node(NodeId(i)), b.topo.node(NodeId(i)));
            for j in 0..cfg.num_nodes() as u32 {
                assert_eq!(
                    a.topo.path(NodeId(i), NodeId(j)),
                    b.topo.path(NodeId(i), NodeId(j))
                );
            }
        }
    }

    #[test]
    fn inter_region_delay_tracks_haversine_distance() {
        let cfg = SynthTopoConfig::default();
        let built = build_synth_topo(&cfg, 3);
        let rtt = RttModel::default();
        let b0 = cfg.broker_of(0);
        let centroids = region_centroids(cfg.regions, 3);
        let intra = built.topo.path(b0, cfg.peer_nodes(0).next().unwrap());
        assert!((intra.one_way_delay.as_secs_f64() - 0.003).abs() < 1e-9);
        for r in 1..cfg.regions {
            let (la, lo) = centroids[0];
            let (lb, lob) = centroids[r];
            let km = haversine_km(la, lo, lb, lob);
            let expect_ms = rtt.floor_ms + km * rtt.path_inflation / FIBER_KM_PER_MS;
            let got = built.topo.path(b0, cfg.broker_of(r)).one_way_delay;
            assert!(
                (got.as_secs_f64() * 1e3 - expect_ms).abs() < 1e-6,
                "region 0→{r}: got {got:?}, expected {expect_ms} ms"
            );
            // And the floor keeps every cross-region OWD positive — the
            // property the sharded engine's lookahead depends on.
            assert!(got.as_secs_f64() >= rtt.floor_ms / 1e3);
        }
    }

    #[test]
    fn capacities_are_power_law_with_the_configured_floor() {
        let cfg = SynthTopoConfig {
            regions: 4,
            peers: 400,
            ..SynthTopoConfig::default()
        };
        let built = build_synth_topo(&cfg, 11);
        let mut gops: Vec<f64> = (0..cfg.regions)
            .flat_map(|r| cfg.peer_nodes(r))
            .map(|n| built.topo.node(n).cpu.base_gops)
            .collect();
        gops.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(gops[0] >= CPU_XM_GOPS, "Pareto respects its scale");
        // Heavy tail: the max should dwarf the median.
        assert!(gops[gops.len() - 1] > 4.0 * gops[gops.len() / 2]);
    }

    #[test]
    fn shard_map_is_dense_and_region_aligned() {
        let cfg = SynthTopoConfig {
            regions: 6,
            peers: 60,
            ..SynthTopoConfig::default()
        };
        for shards in [1, 2, 3, 6] {
            let map = cfg.shard_map(shards).expect("1..=regions shards are valid");
            assert_eq!(map.num_shards(), shards);
            for r in 0..cfg.regions {
                let want = r % shards;
                assert_eq!(map.shard_of(cfg.broker_of(r)), want);
                for node in cfg.peer_nodes(r) {
                    assert_eq!(map.shard_of(node), want);
                }
            }
        }
    }

    #[test]
    fn shard_map_rejects_invalid_shard_counts() {
        let cfg = SynthTopoConfig {
            regions: 4,
            peers: 8,
            ..SynthTopoConfig::default()
        };
        for bad in [0usize, 5, 64] {
            match cfg.shard_map(bad) {
                Err(HarnessError::InvalidShardCount {
                    num_shards,
                    regions,
                }) => {
                    assert_eq!(num_shards, bad);
                    assert_eq!(regions, 4);
                }
                Ok(_) => panic!("shard count {bad} should have been rejected"),
                Err(other) => panic!("expected InvalidShardCount, got {other:?}"),
            }
        }
    }

    #[test]
    fn ten_thousand_nodes_build_quickly_in_blocked_form() {
        let cfg = SynthTopoConfig {
            regions: 32,
            peers: 10_000,
            ..SynthTopoConfig::default()
        };
        let built = build_synth_topo(&cfg, 1);
        assert_eq!(built.topo.len(), 10_032);
        // Spot-check a random far pair resolves through the group table.
        let p = built.topo.path(NodeId(17), NodeId(10_001));
        assert!(p.one_way_delay.as_secs_f64() > 0.0);
    }
}
