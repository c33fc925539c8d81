//! Broker federation: typed construction of a multi-broker overlay.
//!
//! The paper's architecture has a single broker — a scalability ceiling
//! and a single point of failure. This module turns a set of broker
//! hosts into a *federation*: every client is assigned a home broker by
//! a [`HomingPolicy`], brokers exchange rosters on a gossip cadence with
//! a bounded staleness window, petitions that find no local candidate
//! are forwarded to a fellow broker under a hop budget, and a scripted
//! broker outage exercises heartbeat-based liveness plus client
//! re-homing.
//!
//! [`FederationBuilder`] is the only way to wire these knobs into a
//! [`BrokerConfig`]: the raw fields (`peer_brokers`, `gossip_interval`,
//! the staleness bound, the forward budget, the outage script) are
//! `pub(crate)`, so invalid combinations — zero brokers, a staleness
//! bound shorter than the gossip interval that feeds it — are
//! unrepresentable outside this crate. The builder mirrors the
//! workloads crate's `WorkloadBuilder`: `#[must_use]` setters,
//! validation at [`FederationBuilder::build`], and a typed
//! [`FederationError`] for every rejection.

use netsim::node::NodeId;
use netsim::time::SimDuration;

use crate::broker::BrokerConfig;

/// How many virtual points each broker contributes to the consistent
/// hash ring: enough to smooth assignment without bloating lookups.
const RING_POINTS_PER_BROKER: usize = 16;

/// SplitMix64: the ring and client placement hash. Local on purpose —
/// the overlay crate must not depend on workloads' rng helpers.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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

/// Failover detection knobs a re-homing client runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverPolicy {
    /// How often a connected client pings its home broker.
    pub probe_interval: SimDuration,
    /// Silence longer than this (no ack, pong, or data from the home)
    /// makes the client declare the broker dead and re-home.
    pub probe_timeout: SimDuration,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            probe_interval: SimDuration::from_secs(30),
            probe_timeout: SimDuration::from_secs(90),
        }
    }
}

/// Why a [`FederationBuilder::build`] was rejected.
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

/// Builder for [`Federation`]: the only way to set the validated
/// federation knobs.
#[must_use]
#[derive(Debug, Clone)]
pub struct FederationBuilder {
    brokers: Vec<NodeId>,
    homing: HomingPolicy,
    gossip_interval: SimDuration,
    staleness_bound: Option<SimDuration>,
    forward_hops: u32,
    outage: Option<(usize, SimDuration, Option<SimDuration>)>,
}

impl FederationBuilder {
    /// Starts a federation over `brokers` with region-affinity homing,
    /// a 60 s gossip cadence, a 3× gossip staleness bound, and a
    /// 2-hop forward budget.
    pub fn new(brokers: Vec<NodeId>) -> Self {
        FederationBuilder {
            brokers,
            homing: HomingPolicy::RegionAffinity,
            gossip_interval: SimDuration::from_secs(60),
            staleness_bound: None,
            forward_hops: 2,
            outage: None,
        }
    }

    /// Sets the client→broker homing policy.
    pub fn homing(mut self, policy: HomingPolicy) -> Self {
        self.homing = policy;
        self
    }

    /// Sets the broker-to-broker roster gossip period.
    pub fn gossip_interval(mut self, interval: SimDuration) -> Self {
        self.gossip_interval = interval;
        self
    }

    /// Sets how old a gossiped remote view may be before selection
    /// ignores it. Defaults to 3× the gossip interval.
    pub fn staleness_bound(mut self, bound: SimDuration) -> Self {
        self.staleness_bound = Some(bound);
        self
    }

    /// Sets the cross-broker petition forward budget (0 disables
    /// forwarding; each hop is one broker-to-broker handoff).
    pub fn forward_hops(mut self, hops: u32) -> Self {
        self.forward_hops = hops;
        self
    }

    /// Scripts an outage: broker `index` crashes at `down_at` and, when
    /// `restart_at` is `Some`, comes back empty-handed at that instant.
    pub fn outage(
        mut self,
        index: usize,
        down_at: SimDuration,
        restart_at: Option<SimDuration>,
    ) -> Self {
        self.outage = Some((index, down_at, restart_at));
        self
    }

    /// Validates the configuration and produces the [`Federation`].
    pub fn build(self) -> Result<Federation, FederationError> {
        if self.brokers.is_empty() {
            return Err(FederationError::NoBrokers);
        }
        if self.gossip_interval == SimDuration::ZERO {
            return Err(FederationError::NonPositiveGossip);
        }
        let staleness = self.staleness_bound.unwrap_or(self.gossip_interval * 3);
        if staleness < self.gossip_interval {
            return Err(FederationError::StalenessBelowGossip {
                staleness,
                gossip: self.gossip_interval,
            });
        }
        if let Some((index, down_at, restart_at)) = self.outage {
            if index >= self.brokers.len() {
                return Err(FederationError::OutageBrokerOutOfRange {
                    index,
                    brokers: self.brokers.len(),
                });
            }
            if let Some(restart) = restart_at {
                if restart <= down_at {
                    return Err(FederationError::RestartBeforeOutage);
                }
            }
        }
        Ok(Federation {
            brokers: self.brokers,
            homing: self.homing,
            gossip_interval: self.gossip_interval,
            staleness_bound: staleness,
            forward_hops: self.forward_hops,
            outage: self.outage,
        })
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
    outage: Option<(usize, SimDuration, Option<SimDuration>)>,
}

impl Federation {
    /// The broker roster, in builder order.
    pub fn brokers(&self) -> &[NodeId] {
        &self.brokers
    }

    /// The validated gossip period.
    pub fn gossip_interval(&self) -> SimDuration {
        self.gossip_interval
    }

    /// The validated staleness bound (≥ gossip interval).
    pub fn staleness_bound(&self) -> SimDuration {
        self.staleness_bound
    }

    /// The petition forward budget.
    pub fn forward_hops(&self) -> u32 {
        self.forward_hops
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
        cfg.outage = match self.outage {
            Some((victim, down_at, restart_at)) if victim == index % self.brokers.len() => {
                Some((down_at, restart_at))
            }
            _ => None,
        };
    }

    /// The preferred home broker for a client.
    pub fn home_for(&self, client: NodeId, region: usize) -> NodeId {
        self.homes_for(client, region)[0]
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

    #[test]
    fn build_rejects_empty_roster() {
        assert_eq!(
            FederationBuilder::new(Vec::new()).build().unwrap_err(),
            FederationError::NoBrokers
        );
    }

    #[test]
    fn build_rejects_zero_gossip() {
        let err = FederationBuilder::new(roster(2))
            .gossip_interval(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, FederationError::NonPositiveGossip);
    }

    #[test]
    fn build_rejects_staleness_below_gossip() {
        let err = FederationBuilder::new(roster(2))
            .gossip_interval(SimDuration::from_secs(60))
            .staleness_bound(SimDuration::from_secs(30))
            .build()
            .unwrap_err();
        assert!(matches!(err, FederationError::StalenessBelowGossip { .. }));
    }

    #[test]
    fn build_rejects_outage_index_out_of_range() {
        let err = FederationBuilder::new(roster(2))
            .outage(2, SimDuration::from_secs(100), None)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            FederationError::OutageBrokerOutOfRange {
                index: 2,
                brokers: 2
            }
        ));
    }

    #[test]
    fn build_rejects_restart_before_crash() {
        let err = FederationBuilder::new(roster(2))
            .outage(
                0,
                SimDuration::from_secs(100),
                Some(SimDuration::from_secs(100)),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, FederationError::RestartBeforeOutage);
    }

    #[test]
    fn staleness_defaults_to_three_gossip_rounds() {
        let fed = FederationBuilder::new(roster(3))
            .gossip_interval(SimDuration::from_secs(40))
            .build()
            .expect("valid");
        assert_eq!(fed.staleness_bound(), SimDuration::from_secs(120));
    }

    #[test]
    fn configure_wires_everyone_else_as_peers() {
        let fed = FederationBuilder::new(roster(3))
            .outage(
                1,
                SimDuration::from_secs(300),
                Some(SimDuration::from_secs(500)),
            )
            .build()
            .expect("valid");
        for i in 0..3usize {
            let mut cfg = BrokerConfig::new(7);
            fed.configure(i, &mut cfg);
            assert_eq!(cfg.peer_brokers.len(), 2);
            assert!(!cfg.peer_brokers.contains(&NodeId(i as u32)));
            assert_eq!(cfg.staleness_bound, Some(fed.staleness_bound()));
            assert_eq!(cfg.outage.is_some(), i == 1, "only the victim crashes");
        }
    }

    #[test]
    fn region_affinity_walks_the_roster_in_order() {
        let fed = FederationBuilder::new(roster(4)).build().expect("valid");
        let homes = fed.homes_for(NodeId(99), 2);
        assert_eq!(homes, [NodeId(2), NodeId(3), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn consistent_hash_is_a_stable_permutation() {
        let fed = FederationBuilder::new(roster(4))
            .homing(HomingPolicy::ConsistentHash)
            .build()
            .expect("valid");
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
        let fed = FederationBuilder::new(roster(4))
            .homing(HomingPolicy::ConsistentHash)
            .build()
            .expect("valid");
        let mut hits = [0usize; 4];
        for c in 100..400 {
            let home = fed.home_for(NodeId(c), 0);
            hits[home.index()] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 0, "broker {i} got no clients out of 300");
        }
    }
}
