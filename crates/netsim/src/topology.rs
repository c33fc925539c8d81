//! Topology: the set of simulated hosts plus the path model between them.
//!
//! Nodes belong to *groups* (regions/ASes) and the path between two nodes
//! is a function of their groups only: a `G × G` inter-group matrix whose
//! diagonal holds the intra-group path, plus a zero-delay loopback. Path
//! memory is O(n + G²), which is what makes million-node synthetic
//! testbeds affordable.
//!
//! A node added with [`Topology::add_node`] is the only member of its own
//! group, so [`Topology::set_path`] can give each ordered pair of such
//! nodes its own [`PathSpec`] (the PlanetLab testbed's per-pair matrix).
//! [`Topology::add_node_in_group`] shares a group, and a node that shares
//! its group takes its paths from [`Topology::set_group_path`] only.

use crate::link::{AccessLink, PathSpec};
use crate::node::{NodeId, NodeSpec};
use crate::time::SimDuration;

/// The path from a node to itself.
const LOOPBACK: PathSpec = PathSpec {
    one_way_delay: SimDuration::ZERO,
    jitter: SimDuration::ZERO,
};

/// A complete simulated network: nodes, their access links, and wide-area
/// paths between every ordered pair.
///
/// Paths default to [`PathSpec::default`] until overridden; a loopback path
/// (node to itself) has zero delay.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    access: Vec<AccessLink>,
    /// The group of each node.
    group_of: Vec<u32>,
    /// Members of each group; its length is the group count `G`.
    group_size: Vec<u32>,
    /// Row-major `G × G` path matrix (entry `[ga][gb]` is the ga→gb path).
    inter: Vec<PathSpec>,
}

impl Topology {
    /// Creates an empty topology with no groups.
    pub fn new() -> Self {
        Self::blocked(0)
    }

    /// Creates an empty topology with `num_groups` groups.
    ///
    /// All inter- and intra-group paths start at [`PathSpec::default`];
    /// override them with [`Topology::set_group_path`]. Nodes are added
    /// with [`Topology::add_node_in_group`].
    pub fn blocked(num_groups: usize) -> Self {
        Topology {
            nodes: Vec::new(),
            access: Vec::new(),
            group_of: Vec::new(),
            group_size: vec![0; num_groups],
            inter: vec![PathSpec::default(); num_groups * num_groups],
        }
    }

    /// Adds a node with its access link, in a group of its own; returns
    /// its id. The path matrix grows by one row and one column of default
    /// paths; callers typically add all nodes first and then fill paths
    /// with [`Topology::set_path`].
    pub fn add_node(&mut self, spec: NodeSpec, access: AccessLink) -> NodeId {
        let g = self.num_groups();
        let mut inter = Vec::with_capacity((g + 1) * (g + 1));
        for ga in 0..g {
            inter.extend_from_slice(&self.inter[ga * g..(ga + 1) * g]);
            inter.push(PathSpec::default());
        }
        inter.resize((g + 1) * (g + 1), PathSpec::default());
        self.inter = inter;
        self.group_size.push(0);
        self.add_node_in_group(spec, access, g as u32)
    }

    /// Adds a node to `group`; returns its id. O(1): no path storage
    /// grows. Panics when `group` is out of range.
    pub fn add_node_in_group(&mut self, spec: NodeSpec, access: AccessLink, group: u32) -> NodeId {
        let g = self.num_groups();
        assert!(
            (group as usize) < g,
            "group {group} out of range (topology has {g} groups)"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.group_of.push(group);
        self.group_size[group as usize] += 1;
        self.nodes.push(spec);
        self.access.push(access);
        id
    }

    fn num_groups(&self) -> usize {
        self.group_size.len()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The spec of a node.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// The access link of a node.
    pub fn access(&self, id: NodeId) -> &AccessLink {
        &self.access[id.index()]
    }

    /// The a→b wide-area path.
    pub fn path(&self, a: NodeId, b: NodeId) -> &PathSpec {
        if a == b {
            return &LOOPBACK;
        }
        let ga = self.group_of[a.index()] as usize;
        let gb = self.group_of[b.index()] as usize;
        &self.inter[ga * self.num_groups() + gb]
    }

    /// Overrides the a→b path (one direction only). Panics when either
    /// node shares its group: its paths are its group's
    /// ([`Topology::set_group_path`]).
    pub fn set_path(&mut self, a: NodeId, b: NodeId, path: PathSpec) {
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        assert!(
            self.group_size[ga as usize] == 1 && self.group_size[gb as usize] == 1,
            "set_path on a node that shares its group: use set_group_path"
        );
        self.set_group_path(ga, gb, path);
    }

    /// Overrides both directions of the a↔b path with the same spec.
    pub fn set_path_symmetric(&mut self, a: NodeId, b: NodeId, path: PathSpec) {
        self.set_path(a, b, path.clone());
        self.set_path(b, a, path);
    }

    /// Overrides the `ga`→`gb` inter-group path (the `ga == gb` diagonal
    /// is the intra-group path). Panics on out-of-range groups.
    pub fn set_group_path(&mut self, ga: u32, gb: u32, path: PathSpec) {
        let g = self.num_groups();
        assert!(
            (ga as usize) < g && (gb as usize) < g,
            "group pair ({ga}, {gb}) out of range (topology has {g} groups)"
        );
        self.inter[ga as usize * g + gb as usize] = path;
    }

    /// Overrides both directions of the `ga`↔`gb` inter-group path.
    pub fn set_group_path_symmetric(&mut self, ga: u32, gb: u32, path: PathSpec) {
        self.set_group_path(ga, gb, path.clone());
        self.set_group_path(gb, ga, path);
    }

    /// The group of a node.
    pub fn group_of(&self, id: NodeId) -> u32 {
        self.group_of[id.index()]
    }

    /// The group layout: `(group_of, num_groups, inter)`. Lets the shard
    /// lookahead sweep the group matrix instead of every node pair.
    pub(crate) fn group_layout(&self) -> (&[u32], usize, &[PathSpec]) {
        (&self.group_of, self.num_groups(), &self.inter)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn add_nodes_assigns_dense_ids() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn loopback_paths_are_zero_delay() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        assert_eq!(t.path(a, a).one_way_delay, SimDuration::ZERO);
    }

    #[test]
    fn set_path_is_directional() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        t.set_path(a, b, PathSpec::from_owd_ms(50.0, 0.0));
        assert!((t.path(a, b).one_way_delay.as_secs_f64() - 0.05).abs() < 1e-9);
        // Reverse direction still default.
        assert!((t.path(b, a).one_way_delay.as_secs_f64() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn set_path_symmetric_sets_both() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        t.set_path_symmetric(a, b, PathSpec::from_owd_ms(33.0, 0.0));
        assert_eq!(t.path(a, b), t.path(b, a));
    }

    #[test]
    fn paths_survive_later_node_additions() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        t.set_path(a, b, PathSpec::from_owd_ms(70.0, 0.0));
        let c = t.add_node(NodeSpec::responsive("c"), AccessLink::default());
        assert!((t.path(a, b).one_way_delay.as_secs_f64() - 0.07).abs() < 1e-9);
        assert!((t.path(a, c).one_way_delay.as_secs_f64() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn node_ids_iterates_in_order() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        let ids: Vec<NodeId> = t.node_ids().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn blocked_paths_follow_group_membership() {
        let mut t = Topology::blocked(2);
        let a = t.add_node_in_group(NodeSpec::responsive("a"), AccessLink::default(), 0);
        let b = t.add_node_in_group(NodeSpec::responsive("b"), AccessLink::default(), 0);
        let c = t.add_node_in_group(NodeSpec::responsive("c"), AccessLink::default(), 1);
        t.set_group_path(0, 0, PathSpec::from_owd_ms(2.0, 0.0));
        t.set_group_path_symmetric(0, 1, PathSpec::from_owd_ms(40.0, 0.0));
        assert!((t.path(a, b).one_way_delay.as_secs_f64() - 0.002).abs() < 1e-9);
        assert!((t.path(a, c).one_way_delay.as_secs_f64() - 0.040).abs() < 1e-9);
        assert!((t.path(c, b).one_way_delay.as_secs_f64() - 0.040).abs() < 1e-9);
        // Loopback stays zero regardless of the intra-group path.
        assert_eq!(t.path(a, a).one_way_delay, SimDuration::ZERO);
        assert_eq!(t.group_of(a), 0);
        assert_eq!(t.group_of(c), 1);
    }

    #[test]
    fn blocked_group_paths_are_directional_until_symmetric() {
        let mut t = Topology::blocked(2);
        let a = t.add_node_in_group(NodeSpec::responsive("a"), AccessLink::default(), 0);
        let b = t.add_node_in_group(NodeSpec::responsive("b"), AccessLink::default(), 1);
        t.set_group_path(0, 1, PathSpec::from_owd_ms(70.0, 0.0));
        assert!((t.path(a, b).one_way_delay.as_secs_f64() - 0.07).abs() < 1e-9);
        // Reverse direction still default.
        assert!((t.path(b, a).one_way_delay.as_secs_f64() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn add_node_gives_each_node_its_own_group() {
        let mut t = Topology::blocked(1);
        let a = t.add_node_in_group(NodeSpec::responsive("a"), AccessLink::default(), 0);
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        let c = t.add_node(NodeSpec::responsive("c"), AccessLink::default());
        assert_eq!((t.group_of(a), t.group_of(b), t.group_of(c)), (0, 1, 2));
        t.set_group_path_symmetric(0, 1, PathSpec::from_owd_ms(20.0, 0.0));
        t.set_path(b, c, PathSpec::from_owd_ms(30.0, 0.0));
        assert!((t.path(a, b).one_way_delay.as_secs_f64() - 0.02).abs() < 1e-9);
        assert!((t.path(b, c).one_way_delay.as_secs_f64() - 0.03).abs() < 1e-9);
        assert!((t.path(a, c).one_way_delay.as_secs_f64() - 0.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "use set_group_path")]
    fn set_path_panics_on_blocked() {
        let mut t = Topology::blocked(1);
        let a = t.add_node_in_group(NodeSpec::responsive("a"), AccessLink::default(), 0);
        let b = t.add_node_in_group(NodeSpec::responsive("b"), AccessLink::default(), 0);
        t.set_path(a, b, PathSpec::default());
    }

    #[test]
    #[should_panic(expected = "shares its group")]
    fn set_path_panics_when_a_node_shares_its_group() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        t.add_node_in_group(
            NodeSpec::responsive("c"),
            AccessLink::default(),
            t.group_of(b),
        );
        t.set_path(a, b, PathSpec::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_node_in_group_validates_group() {
        let mut t = Topology::blocked(2);
        t.add_node_in_group(NodeSpec::responsive("a"), AccessLink::default(), 2);
    }
}
