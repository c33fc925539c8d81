//! Broker federation: typed construction of a multi-broker overlay.
//!
//! The paper's architecture has a single broker — a scalability ceiling
//! and a single point of failure. This module turns a set of broker
//! hosts into a *federation*: every client is assigned a home broker by
//! a [`HomingPolicy`], brokers exchange rosters on a gossip cadence with
//! a bounded staleness window, petitions that find no local candidate
//! are forwarded to a fellow broker under a hop budget, and a scripted
//! [`BrokerOutage`] exercises heartbeat-based liveness plus client
//! re-homing.
//!
//! A federation is described once, by a [`FederationSpec`], and
//! [`Federation::new`] is the only way to wire it into a
//! [`BrokerConfig`]: the raw fields (`peer_brokers`, `gossip_interval`,
//! the staleness bound, the forward budget, the outage script) are
//! `pub(crate)`, so invalid combinations — zero brokers, a staleness
//! bound shorter than the gossip interval that feeds it — are
//! unrepresentable outside this crate. Every rejection is a typed
//! [`FederationError`].

use netsim::node::NodeId;
use netsim::rng::splitmix64;
use netsim::time::SimDuration;

use crate::broker::BrokerConfig;

/// How many virtual points each broker contributes to the consistent
/// hash ring: enough to smooth assignment without bloating lookups.
const RING_POINTS_PER_BROKER: usize = 16;

/// How clients are assigned a home broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomingPolicy {
    /// Region `r` homes on broker `r mod brokers`: co-located control
    /// traffic, matching the paper's per-testbed broker placement.
    RegionAffinity,
    /// Consistent hashing of the client's node id onto a ring of
    /// broker points: load spreads independently of geography and
    /// only `1/n` of clients re-home when a broker set changes.
    ConsistentHash,
}

/// Broker-to-broker roster gossip cadence of [`FederationSpec::default`].
pub const GOSSIP_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Failover detection for a re-homing client: it probes its home every
/// `crate::lifecycle::PROBE_INTERVAL` and re-homes after
/// `crate::lifecycle::PROBE_TIMEOUT` of silence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverPolicy;

/// Why a [`Federation::new`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// The broker list was empty; a federation needs at least one.
    NoBrokers,
    /// The gossip interval was zero virtual time: the roster exchange
    /// would never run (or spin at t=0).
    NonPositiveGossip,
    /// The staleness bound was shorter than the gossip interval, so
    /// every remote view would expire before the next gossip round
    /// could refresh it.
    StalenessBelowGossip {
        /// The rejected staleness bound.
        staleness: SimDuration,
        /// The gossip interval it must cover.
        gossip: SimDuration,
    },
    /// The scripted outage named a broker index outside the roster.
    OutageBrokerOutOfRange {
        /// The offending broker index.
        index: usize,
        /// How many brokers the federation has.
        brokers: usize,
    },
    /// The scripted restart was at or before the crash instant.
    RestartBeforeOutage,
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::NoBrokers => {
                write!(f, "a federation needs at least one broker")
            }
            FederationError::NonPositiveGossip => {
                write!(f, "gossip interval must be positive virtual time")
            }
            FederationError::StalenessBelowGossip { staleness, gossip } => write!(
                f,
                "staleness bound {:.1}s below gossip interval {:.1}s: remote views \
                 would expire before the next gossip round refreshes them",
                staleness.as_secs_f64(),
                gossip.as_secs_f64()
            ),
            FederationError::OutageBrokerOutOfRange { index, brokers } => write!(
                f,
                "outage names broker index {index} but the federation has {brokers}"
            ),
            FederationError::RestartBeforeOutage => {
                write!(f, "the scripted restart must come strictly after the crash")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// A scripted broker crash (and optional restart), by region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerOutage {
    /// Region whose broker goes down (also its federation roster index).
    pub region: usize,
    /// When the crash fires.
    pub down_at: SimDuration,
    /// When the broker comes back empty-handed; `None` = stays down.
    pub restart_at: Option<SimDuration>,
}

/// How a set of brokers federates.
///
/// The default is the inert gossip-only wiring: every broker peers with
/// every other on a [`GOSSIP_INTERVAL`] cadence, but petition forwarding stays off
/// (`forward_hops: 0`) and nothing is scripted to fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationSpec {
    /// How clients map to their home-broker preference list.
    pub homing: HomingPolicy,
    /// Broker-to-broker roster gossip cadence.
    pub gossip_interval: SimDuration,
    /// Tolerated age of gossiped candidate views; `None` = three gossip
    /// rounds.
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
            gossip_interval: GOSSIP_INTERVAL,
            staleness_bound: None,
            forward_hops: 0,
            outage: None,
        }
    }
}

/// A validated broker federation: the homing oracle plus the only
/// sanctioned way to wire federation knobs into a [`BrokerConfig`].
#[derive(Debug, Clone)]
pub struct Federation {
    brokers: Vec<NodeId>,
    homing: HomingPolicy,
    gossip_interval: SimDuration,
    staleness_bound: SimDuration,
    forward_hops: u32,
    outage: Option<BrokerOutage>,
}

impl Federation {
    /// Validates `spec` against the broker roster `brokers`.
    pub fn new(brokers: Vec<NodeId>, spec: &FederationSpec) -> Result<Self, FederationError> {
        if brokers.is_empty() {
            return Err(FederationError::NoBrokers);
        }
        let gossip = spec.gossip_interval;
        if gossip == SimDuration::ZERO {
            return Err(FederationError::NonPositiveGossip);
        }
        let staleness = spec.staleness_bound.unwrap_or(gossip * 3);
        if staleness < gossip {
            return Err(FederationError::StalenessBelowGossip { staleness, gossip });
        }
        if let Some(outage) = spec.outage {
            if outage.region >= brokers.len() {
                return Err(FederationError::OutageBrokerOutOfRange {
                    index: outage.region,
                    brokers: brokers.len(),
                });
            }
            if outage.restart_at.is_some_and(|at| at <= outage.down_at) {
                return Err(FederationError::RestartBeforeOutage);
            }
        }
        Ok(Federation {
            brokers,
            homing: spec.homing,
            gossip_interval: gossip,
            staleness_bound: staleness,
            forward_hops: spec.forward_hops,
            outage: spec.outage,
        })
    }

    /// Wires broker `index`'s share of the federation into `cfg`:
    /// peer roster (everyone else), gossip cadence, staleness bound,
    /// forward budget, and — only on the scripted victim — the outage.
    pub fn configure(&self, index: usize, cfg: &mut BrokerConfig) {
        cfg.peer_brokers = self
            .brokers
            .iter()
            .copied()
            .filter(|&b| b != self.brokers[index % self.brokers.len()])
            .collect();
        cfg.gossip_interval = self.gossip_interval;
        cfg.staleness_bound = Some(self.staleness_bound);
        cfg.forward_hops = self.forward_hops;
        cfg.outage = self
            .outage
            .filter(|o| o.region == index % self.brokers.len())
            .map(|o| (o.down_at, o.restart_at));
    }

    /// Every broker in failover-preference order for a client: the
    /// home first, then the successors a re-homing client walks. The
    /// list is a permutation of the roster, deterministic in
    /// `(client, region)` alone.
    pub fn homes_for(&self, client: NodeId, region: usize) -> Vec<NodeId> {
        let n = self.brokers.len();
        match self.homing {
            HomingPolicy::RegionAffinity => {
                (0..n).map(|k| self.brokers[(region + k) % n]).collect()
            }
            HomingPolicy::ConsistentHash => {
                // Ring points: (hash, broker index), sorted by hash.
                // Rebuilt per call — rosters are small and homing runs
                // once per client at wiring time, not per event.
                let mut ring: Vec<(u64, usize)> = Vec::with_capacity(n * RING_POINTS_PER_BROKER);
                for (i, b) in self.brokers.iter().enumerate() {
                    for p in 0..RING_POINTS_PER_BROKER {
                        let h = splitmix64(
                            (b.index() as u64)
                                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                                .wrapping_add(p as u64),
                        );
                        ring.push((h, i));
                    }
                }
                ring.sort_unstable();
                let key = splitmix64(client.index() as u64 ^ 0xFEDE_0A11);
                let start = ring.partition_point(|&(h, _)| h < key) % ring.len();
                let mut order = Vec::with_capacity(n);
                let mut seen = vec![false; n];
                for k in 0..ring.len() {
                    let (_, i) = ring[(start + k) % ring.len()];
                    if !seen[i] {
                        seen[i] = true;
                        order.push(self.brokers[i]);
                        if order.len() == n {
                            break;
                        }
                    }
                }
                order
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn federate(n: u32, spec: FederationSpec) -> Result<Federation, FederationError> {
        Federation::new(roster(n), &spec)
    }

    fn outage(region: usize, down_at: u64, restart_at: Option<u64>) -> Option<BrokerOutage> {
        Some(BrokerOutage {
            region,
            down_at: SimDuration::from_secs(down_at),
            restart_at: restart_at.map(SimDuration::from_secs),
        })
    }

    /// Broker `index`'s wiring under `fed`.
    fn configured(fed: &Federation, index: usize) -> BrokerConfig {
        let mut cfg = BrokerConfig::new(7);
        fed.configure(index, &mut cfg);
        cfg
    }

    #[test]
    fn build_rejects_empty_roster() {
        let err = federate(0, FederationSpec::default()).unwrap_err();
        assert_eq!(err, FederationError::NoBrokers);
        assert_eq!(err.to_string(), "a federation needs at least one broker");
    }

    #[test]
    fn build_rejects_zero_gossip() {
        let spec = FederationSpec {
            gossip_interval: SimDuration::ZERO,
            ..FederationSpec::default()
        };
        let err = federate(2, spec).unwrap_err();
        assert_eq!(err, FederationError::NonPositiveGossip);
        assert_eq!(
            err.to_string(),
            "gossip interval must be positive virtual time"
        );
    }

    #[test]
    fn build_rejects_staleness_below_gossip() {
        let spec = FederationSpec {
            gossip_interval: SimDuration::from_secs(60),
            staleness_bound: Some(SimDuration::from_secs(30)),
            ..FederationSpec::default()
        };
        let err = federate(2, spec).unwrap_err();
        assert!(matches!(err, FederationError::StalenessBelowGossip { .. }));
        assert_eq!(
            err.to_string(),
            "staleness bound 30.0s below gossip interval 60.0s: remote views \
             would expire before the next gossip round refreshes them"
        );
    }

    #[test]
    fn build_rejects_outage_index_out_of_range() {
        let spec = FederationSpec {
            outage: outage(2, 100, None),
            ..FederationSpec::default()
        };
        let err = federate(2, spec).unwrap_err();
        assert!(matches!(
            err,
            FederationError::OutageBrokerOutOfRange {
                index: 2,
                brokers: 2
            }
        ));
        assert_eq!(
            err.to_string(),
            "outage names broker index 2 but the federation has 2"
        );
    }

    #[test]
    fn build_rejects_restart_before_crash() {
        let spec = FederationSpec {
            outage: outage(0, 100, Some(100)),
            ..FederationSpec::default()
        };
        let err = federate(2, spec).unwrap_err();
        assert_eq!(err, FederationError::RestartBeforeOutage);
        assert_eq!(
            err.to_string(),
            "the scripted restart must come strictly after the crash"
        );
    }

    #[test]
    fn staleness_defaults_to_three_gossip_rounds() {
        let spec = FederationSpec {
            gossip_interval: SimDuration::from_secs(40),
            forward_hops: 2,
            ..FederationSpec::default()
        };
        let cfg = configured(&federate(3, spec).expect("valid"), 0);
        assert_eq!(cfg.gossip_interval, SimDuration::from_secs(40));
        assert_eq!(cfg.staleness_bound, Some(SimDuration::from_secs(120)));
        assert_eq!(cfg.forward_hops, 2);
    }

    #[test]
    fn configure_wires_everyone_else_as_peers() {
        let spec = FederationSpec {
            outage: outage(1, 300, Some(500)),
            ..FederationSpec::default()
        };
        let fed = federate(3, spec).expect("valid");
        for i in 0..3usize {
            let cfg = configured(&fed, i);
            assert_eq!(cfg.peer_brokers.len(), 2);
            assert!(!cfg.peer_brokers.contains(&NodeId(i as u32)));
            assert_eq!(cfg.staleness_bound, Some(SimDuration::from_secs(90)));
            let expected = (i == 1).then(|| {
                (
                    SimDuration::from_secs(300),
                    Some(SimDuration::from_secs(500)),
                )
            });
            assert_eq!(cfg.outage, expected, "only the victim crashes");
        }
    }

    #[test]
    fn region_affinity_walks_the_roster_in_order() {
        let fed = federate(4, FederationSpec::default()).expect("valid");
        let homes = fed.homes_for(NodeId(99), 2);
        assert_eq!(homes, [NodeId(2), NodeId(3), NodeId(0), NodeId(1)]);
    }

    fn hashed(n: u32) -> Federation {
        let spec = FederationSpec {
            homing: HomingPolicy::ConsistentHash,
            ..FederationSpec::default()
        };
        federate(n, spec).expect("valid")
    }

    #[test]
    fn consistent_hash_is_a_stable_permutation() {
        let fed = hashed(4);
        let a = fed.homes_for(NodeId(12), 0);
        let b = fed.homes_for(NodeId(12), 3);
        assert_eq!(a, b, "hash homing ignores the region");
        assert_eq!(a.len(), 4);
        let mut sorted = a.clone();
        sorted.sort_by_key(|n| n.index());
        assert_eq!(sorted, roster(4), "preference list is a permutation");
    }

    #[test]
    fn consistent_hash_spreads_clients() {
        let fed = hashed(4);
        let mut hits = [0usize; 4];
        for c in 100..400 {
            let home = fed.homes_for(NodeId(c), 0)[0];
            hits[home.index()] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 0, "broker {i} got no clients out of 300");
        }
    }
}
