//! Shard domains for the parallel engine: the fixed node→shard map and the
//! conservative-lookahead horizon math.
//!
//! A shard is a subset of the topology's nodes that owns its own event
//! queue, clock, and RNG streams (see [`crate::parallel::ShardedEngine`]).
//! Two facts make bounded-window parallel execution safe:
//!
//! 1. The map is **fixed** for the whole run, so every message knows at
//!    send time whether it crosses a shard boundary.
//! 2. Every cross-shard message is delayed by at least the minimum one-way
//!    propagation delay between the two shards: the transport model never
//!    delivers before `send_time + one_way_delay` (jitter, serialization,
//!    receiver queueing and service delay only add time).
//!
//! Therefore a shard whose local clock is `T` can safely process every
//! event below `min over other shards s of (clock(s) + delay(s → me))`
//! without ever receiving a message "from the past".

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// SplitMix64 step shared with [`crate::rng`]; re-exposed here so the
/// shard-seed chain uses the exact same mixing discipline as the per-node
/// seed derivation (and the sweep layer's cell-seed chain).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the master seed of shard `shard` from the run's master seed.
///
/// Chained SplitMix64, mirroring the sweep layer's cell-seed discipline:
/// the label perturbs the state, then two mix steps decorrelate adjacent
/// shards. Deterministic and independent of worker count by construction.
pub fn shard_seed(master: u64, shard: u64) -> u64 {
    let mut state = master ^ shard.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut state);
    splitmix64(&mut state)
}

/// Why a [`ShardMap`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMapError {
    /// The assignment vector was empty.
    Empty,
    /// Shard ids must be dense: every id in `0..num_shards` must own at
    /// least one node. Carries the first unused shard id.
    UnusedShard(usize),
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::Empty => write!(f, "shard assignment is empty"),
            ShardMapError::UnusedShard(s) => {
                write!(f, "shard {s} owns no node (shard ids must be dense)")
            }
        }
    }
}

impl std::error::Error for ShardMapError {}

/// Fixed assignment of every node to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    assignment: Vec<usize>,
    num_shards: usize,
}

impl ShardMap {
    /// The degenerate single-shard map over `n` nodes (serial semantics).
    pub fn single(n: usize) -> Self {
        ShardMap {
            assignment: vec![0; n],
            num_shards: 1,
        }
    }

    /// Builds a map from an explicit node→shard assignment (index =
    /// [`NodeId`] index). Shard ids must be dense starting at 0.
    pub fn from_assignment(assignment: Vec<usize>) -> Result<Self, ShardMapError> {
        if assignment.is_empty() {
            return Err(ShardMapError::Empty);
        }
        let num_shards = assignment.iter().copied().max().unwrap_or(0) + 1;
        let mut used = vec![false; num_shards];
        for &s in &assignment {
            used[s] = true;
        }
        if let Some(unused) = used.iter().position(|&u| !u) {
            return Err(ShardMapError::UnusedShard(unused));
        }
        Ok(ShardMap {
            assignment,
            num_shards,
        })
    }

    /// A round-robin map: node `i` goes to shard `i % shards`. Useful for
    /// determinism checks on testbeds without a natural region structure.
    pub fn modulo(n: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(n.max(1));
        ShardMap {
            assignment: (0..n).map(|i| i % shards).collect(),
            num_shards: shards,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of mapped nodes.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The shard that owns `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()]
    }

    /// The raw node→shard assignment (index = node index).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The nodes owned by `shard`, in node-id order.
    pub fn nodes_of(&self, shard: usize) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Builds the pairwise lookahead table for this map over `topo`.
    pub fn lookahead(&self, topo: &Topology) -> LookaheadTable {
        LookaheadTable::new(self, topo)
    }
}

/// Minimum cross-shard one-way delays, the input to the conservative
/// horizon computation.
///
/// `delta[s][t]` (s ≠ t) is the smallest one-way propagation delay of any
/// directed path from a node of shard `s` to a node of shard `t` — the
/// soonest a message sent by `s` at time `x` can become visible to `t`.
#[derive(Debug, Clone)]
pub struct LookaheadTable {
    num_shards: usize,
    /// Row-major `num_shards × num_shards`; diagonal unused (MAX).
    delta: Vec<SimDuration>,
}

impl LookaheadTable {
    fn new(map: &ShardMap, topo: &Topology) -> Self {
        let k = map.num_shards();
        assert_eq!(
            map.len(),
            topo.len(),
            "shard map covers {} nodes but the topology has {}",
            map.len(),
            topo.len()
        );
        let mut delta = vec![SimDuration::MAX; k * k];
        // The a→b delay depends only on the group pair, so one sweep over
        // the group matrix, visiting each group's shards, replaces an
        // all-pairs walk over nodes. A group that spans two shards
        // contributes its *intra*-group path (the diagonal) to that pair.
        let (group_of, num_groups, inter) = topo.group_layout();
        let mut shards_of: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
        for (&g, &s) in group_of.iter().zip(map.assignment()) {
            let shards = &mut shards_of[g as usize];
            if !shards.contains(&s) {
                shards.push(s);
            }
        }
        for (ga, row) in inter.chunks_exact(num_groups).enumerate() {
            for (gb, path) in row.iter().enumerate() {
                for &sa in &shards_of[ga] {
                    for &sb in &shards_of[gb] {
                        let cell = &mut delta[sa * k + sb];
                        if sa != sb && path.one_way_delay < *cell {
                            *cell = path.one_way_delay;
                        }
                    }
                }
            }
        }
        LookaheadTable {
            num_shards: k,
            delta,
        }
    }

    /// Number of shards the table covers.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Minimum one-way delay from any node of `from` to any node of `to`
    /// (`from` ≠ `to`; the diagonal is meaningless and returns MAX).
    pub fn cross_delay(&self, from: usize, to: usize) -> SimDuration {
        self.delta[from * self.num_shards + to]
    }

    /// The global conservative lookahead: the smallest cross-shard delay
    /// over all ordered shard pairs. `None` for a single-shard table (no
    /// cross-shard constraint: the shard may run to the run horizon).
    pub fn min_cross_delay(&self) -> Option<SimDuration> {
        if self.num_shards <= 1 {
            return None;
        }
        let mut min = SimDuration::MAX;
        for s in 0..self.num_shards {
            for t in 0..self.num_shards {
                if s != t && self.delta[s * self.num_shards + t] < min {
                    min = self.delta[s * self.num_shards + t];
                }
            }
        }
        Some(min)
    }

    /// The horizon below which `shard` may safely run, given each shard's
    /// *promise* — the earliest instant it could still produce a
    /// cross-shard send: `min over s ≠ shard of (clocks[s] +
    /// delta[s][shard])`. Callers may pass bare clocks (always a valid,
    /// conservative promise) or sharpen the bound with next-event times, as
    /// the parallel engine does between barriers; addition saturates, so
    /// [`SimTime::FAR_FUTURE`] promises (idle shards) impose no constraint.
    ///
    /// [`SimTime::FAR_FUTURE`] for the single-shard degenerate case —
    /// nothing constrains a lone shard.
    pub fn horizon_for(&self, shard: usize, clocks: &[SimTime]) -> SimTime {
        assert_eq!(clocks.len(), self.num_shards, "one clock per shard");
        let mut horizon = SimTime::FAR_FUTURE;
        for (s, &clock) in clocks.iter().enumerate() {
            if s == shard {
                continue;
            }
            let d = self.delta[s * self.num_shards + shard];
            if d == SimDuration::MAX {
                continue; // no path from s to shard: no constraint
            }
            let bound = clock + d;
            if bound < horizon {
                horizon = bound;
            }
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{AccessLink, PathSpec};
    use crate::node::NodeSpec;

    fn topo4(owds_ms: &[(u32, u32, f64)]) -> Topology {
        let mut t = Topology::new();
        for i in 0..4 {
            t.add_node(NodeSpec::responsive(format!("n{i}")), AccessLink::default());
        }
        for &(a, b, ms) in owds_ms {
            t.set_path_symmetric(NodeId(a), NodeId(b), PathSpec::from_owd_ms(ms, 0.0));
        }
        t
    }

    #[test]
    fn from_assignment_validates_density() {
        assert_eq!(
            ShardMap::from_assignment(vec![]).unwrap_err(),
            ShardMapError::Empty
        );
        assert_eq!(
            ShardMap::from_assignment(vec![0, 2]).unwrap_err(),
            ShardMapError::UnusedShard(1)
        );
        let map = ShardMap::from_assignment(vec![0, 1, 1, 0]).unwrap();
        assert_eq!(map.num_shards(), 2);
        assert_eq!(map.nodes_of(1), vec![NodeId(1), NodeId(2)]);
        assert_eq!(map.shard_of(NodeId(3)), 0);
    }

    #[test]
    fn modulo_map_round_robins() {
        let map = ShardMap::modulo(5, 2);
        assert_eq!(map.assignment(), &[0, 1, 0, 1, 0]);
        // Never more shards than nodes, never zero shards.
        assert_eq!(ShardMap::modulo(2, 8).num_shards(), 2);
        assert_eq!(ShardMap::modulo(3, 0).num_shards(), 1);
    }

    #[test]
    fn single_shard_horizon_is_unbounded() {
        // Degenerate case: one shard has no neighbors, so the lookahead
        // horizon must never constrain it.
        let t = topo4(&[]);
        let table = ShardMap::single(4).lookahead(&t);
        assert_eq!(table.min_cross_delay(), None);
        assert_eq!(
            table.horizon_for(0, &[SimTime::from_secs_f64(5.0)]),
            SimTime::FAR_FUTURE
        );
    }

    #[test]
    fn cross_delay_takes_the_minimum_link() {
        // Shards {0,1} and {2,3}; cross links 40 ms, 60 ms, 80 ms → 40 ms.
        let t = topo4(&[
            (0, 2, 40.0),
            (0, 3, 60.0),
            (1, 2, 80.0),
            (1, 3, 80.0),
            (0, 1, 2.0),
            (2, 3, 2.0),
        ]);
        let map = ShardMap::from_assignment(vec![0, 0, 1, 1]).unwrap();
        let table = map.lookahead(&t);
        assert_eq!(
            table.cross_delay(0, 1),
            SimDuration::from_millis(40),
            "minimum over all cross links"
        );
        assert_eq!(table.min_cross_delay(), Some(SimDuration::from_millis(40)));
    }

    #[test]
    fn min_rtt_tie_is_stable() {
        // Two distinct cross links share the same minimum delay: the table
        // must pick that value (ties cannot make the bound ambiguous) and
        // both directions must agree for symmetric paths.
        let t = topo4(&[(0, 2, 25.0), (1, 3, 25.0), (0, 3, 90.0), (1, 2, 90.0)]);
        let map = ShardMap::from_assignment(vec![0, 0, 1, 1]).unwrap();
        let table = map.lookahead(&t);
        assert_eq!(table.cross_delay(0, 1), SimDuration::from_millis(25));
        assert_eq!(table.cross_delay(1, 0), SimDuration::from_millis(25));
        assert_eq!(table.min_cross_delay(), Some(SimDuration::from_millis(25)));
    }

    #[test]
    fn horizon_is_min_over_neighbor_clocks_plus_delay() {
        let t = topo4(&[
            (0, 1, 10.0),
            (0, 2, 20.0),
            (0, 3, 30.0),
            (1, 2, 50.0),
            (1, 3, 50.0),
            (2, 3, 50.0),
        ]);
        let map = ShardMap::from_assignment(vec![0, 1, 2, 3]).unwrap();
        let table = map.lookahead(&t);
        let clocks = [
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
            SimTime::from_secs_f64(3.0),
        ];
        // Shard 0's bound: min(1.0+0.010, 2.0+0.020, 3.0+0.030) = 1.010.
        assert_eq!(table.horizon_for(0, &clocks), SimTime::from_secs_f64(1.010));
        // Shard 3's bound: min(1.0+0.030, 1.0+0.050, 2.0+0.050) = 1.030.
        assert_eq!(table.horizon_for(3, &clocks), SimTime::from_secs_f64(1.030));
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        assert_eq!(shard_seed(42, 0), shard_seed(42, 0));
        assert_ne!(shard_seed(42, 0), shard_seed(42, 1));
        assert_ne!(shard_seed(42, 1), shard_seed(43, 1));
    }
}
