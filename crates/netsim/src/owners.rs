//! Which engine owns each node, and where that engine keeps the node's
//! state.
//!
//! An engine holds per-node tables (RNG streams, actors) only for the nodes
//! it owns. One table, shared by every shard engine of a run, maps each
//! node to its owning shard and to its *slot*: its rank among that shard's
//! nodes in node-id order. A lone shard, or a plain [`crate::engine::Engine`],
//! owns every node, and there a node's slot is its index.

use std::sync::Arc;

use crate::node::NodeId;

/// Where one node's state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Owner {
    /// The shard that runs the node.
    pub(crate) shard: u32,
    /// The node's index into its shard's per-node tables.
    pub(crate) slot: u32,
}

/// The node → owner table of one run.
#[derive(Debug, Clone)]
pub(crate) struct Owners(Arc<[Owner]>);

impl Owners {
    /// Every node of an `n`-node topology owned by shard 0.
    pub(crate) fn single(n: usize) -> Self {
        Self::from_assignment(&vec![0; n])
    }

    /// Owners under a node → shard assignment (index = node index); slots
    /// count up from 0 in node order within each shard.
    pub(crate) fn from_assignment(assignment: &[usize]) -> Self {
        let mut next_slot: Vec<u32> = Vec::new();
        let table = assignment
            .iter()
            .map(|&shard| {
                if shard >= next_slot.len() {
                    next_slot.resize(shard + 1, 0);
                }
                let slot = next_slot[shard];
                next_slot[shard] += 1;
                Owner {
                    shard: u32::try_from(shard).expect("fewer than 2^32 shards"),
                    slot,
                }
            })
            .collect();
        Owners(table)
    }

    /// The owner of `node`.
    #[inline]
    pub(crate) fn of(&self, node: NodeId) -> Owner {
        self.0[node.index()]
    }

    /// The nodes `shard` owns, in slot order.
    pub(crate) fn nodes_of(&self, shard: u32) -> impl Iterator<Item = NodeId> + '_ {
        (self.0.iter().enumerate())
            .filter(move |(_, owner)| owner.shard == shard)
            .map(|(i, _)| NodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_count_up_in_node_order_within_each_shard() {
        let owners = Owners::from_assignment(&[1, 0, 1, 2, 0, 1]);
        let slots: Vec<(u32, u32)> = (0..6)
            .map(|i| owners.of(NodeId(i)))
            .map(|o| (o.shard, o.slot))
            .collect();
        assert_eq!(slots, [(1, 0), (0, 0), (1, 1), (2, 0), (0, 1), (1, 2)]);
        let nodes: Vec<NodeId> = owners.nodes_of(1).collect();
        assert_eq!(nodes, [NodeId(0), NodeId(2), NodeId(5)]);
        for (slot, node) in nodes.into_iter().enumerate() {
            assert_eq!(owners.of(node).slot as usize, slot);
        }
    }

    #[test]
    fn a_lone_shard_slots_every_node_at_its_index() {
        let owners = Owners::single(4);
        for i in 0..4 {
            assert_eq!(owners.of(NodeId(i)), Owner { shard: 0, slot: i });
        }
        assert_eq!(owners.nodes_of(0).count(), 4);
        assert_eq!(owners.nodes_of(1).count(), 0);
    }
}
