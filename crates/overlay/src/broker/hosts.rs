//! The registry's host table: who lives on each host, and who is said to.
//!
//! A host runs one locally registered peer at most, and is *claimed* by
//! every federation view whose peer is said to live there. Both facts sit
//! in one table, so the gossip write path asks "is this host occupied
//! here?" and records "this view claims it" by indexing one row, and a
//! departure finds its host's rumors without scanning every remote view.
//!
//! A row names the host's **holder**: its local occupant, or else the
//! first remote view claiming it — nearly every host has exactly one of
//! the two. Whoever else claims the host (a second-hand view of a peer on
//! a host another remote peer has since taken, or any rumor about a host a
//! peer then registered on) spills into a side table that is empty unless
//! hosts are contested. Each `(host, claimant)` pair is stored once.
//!
//! A row names its holder by a 4-byte index, not by peer id: a local
//! occupant by its entry-slab slot, a claimant by its handle in the
//! remote slab ([`super::remote`]), and so do the spill lists. A row is
//! 8 B, and a holder's peer id is read from its slab row.
//!
//! Node ids are dense and a federated broker hears of nearly every host,
//! so the rows are a vector indexed by node id rather than a hash table:
//! it grows to a node on the first write concerning it, and a read past
//! its end is "nobody holds it". The price is one row per node id up to
//! the highest one written, held or not, which a broker that knows a few
//! hosts of a large topology pays in full.

use netsim::idmap::IdMap;
use netsim::node::NodeId;

use crate::footprint::{map_estimate, slots_estimate};

/// One host's row: who holds it.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(super) enum Row {
    /// Nobody holds the host.
    #[default]
    Vacant,
    /// The peer registered here first-hand: its entry-slab slot.
    Local(u32),
    /// Nobody is registered here; the remote-slab handle of the first
    /// federation view claiming the host.
    Claimed(u32),
}

/// Claimants of a host beyond its holder, by remote-slab handle.
type Spill = IdMap<NodeId, Vec<u32>>;

/// Host → holder, plus the spilled claimants of contested hosts.
#[derive(Default)]
pub(super) struct HostTable {
    /// Indexed by [`NodeId::index`]; grown to a node on the first write
    /// that concerns it, so a node past the end has no row.
    rows: Vec<Row>,
    spill: Spill,
}

impl HostTable {
    /// The row of `node`, if the table has grown that far.
    fn row(&self, node: NodeId) -> Row {
        self.rows.get(node.index()).copied().unwrap_or_default()
    }

    /// The row of `node` for a write, grown to it if need be.
    fn row_mut(&mut self, node: NodeId) -> &mut Row {
        if self.rows.len() <= node.index() {
            self.rows.resize(node.index() + 1, Row::Vacant);
        }
        &mut self.rows[node.index()]
    }

    /// The holder of `node`'s row is gone: hands the row to a spilled
    /// claimant, or empties it when there is none.
    fn vacate(&mut self, node: NodeId) {
        let mut next = None;
        if let Some(rest) = self.spill.get_mut(&node) {
            next = rest.pop();
            if rest.is_empty() {
                self.spill.remove(&node);
            }
        }
        self.rows[node.index()] = next.map_or(Row::Vacant, Row::Claimed);
    }

    /// The slot of the peer registered first-hand on `node`, if any.
    pub(super) fn local(&self, node: NodeId) -> Option<u32> {
        match self.row(node) {
            Row::Local(slot) => Some(slot),
            _ => None,
        }
    }

    /// Records that the view under handle `h` claims `node`, which has no
    /// local occupant; the pair must not be present.
    pub(super) fn claim(&mut self, node: NodeId, h: u32) {
        let row = self.row_mut(node);
        debug_assert!(!matches!(row, Row::Local(_)), "{node} is occupied");
        if *row == Row::Vacant {
            *row = Row::Claimed(h);
        } else {
            self.spill.entry(node).or_default().push(h);
        }
    }

    /// Records slot `slot` as the local occupant of `node`, in place of
    /// any other; a view that held the row keeps its claim in the spill
    /// list. Returns whether the host's claimants were unshadowed until
    /// now (a view held the row): they are [`HostTable::spilled`] from
    /// here on.
    pub(super) fn set_local(&mut self, node: NodeId, slot: u32) -> bool {
        let row = self.row_mut(node);
        let Row::Claimed(first) = std::mem::replace(row, Row::Local(slot)) else {
            return false;
        };
        self.spill.entry(node).or_default().push(first);
        true
    }

    /// The claimants of `node` beyond its holder.
    pub(super) fn spilled(&self, node: NodeId) -> &[u32] {
        self.spill.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Clears the local occupant of `node` if it is slot `slot`, handing
    /// the row to a claimant when there is one.
    pub(super) fn clear_local(&mut self, node: NodeId, slot: u32) {
        if self.row(node) == Row::Local(slot) {
            self.vacate(node);
        }
    }

    /// Forgets that the view under handle `h` claims `node`, handing the
    /// row to a spilled claimant when it was the holder.
    pub(super) fn unclaim(&mut self, node: NodeId, h: u32) {
        if self.row(node) == Row::Claimed(h) {
            self.vacate(node);
        } else if let Some(rest) = self.spill.get_mut(&node) {
            rest.retain(|&c| c != h);
            if rest.is_empty() {
                self.spill.remove(&node);
            }
        }
    }

    /// Removes and returns the handle of every claimant of `node`.
    pub(super) fn take_claims(&mut self, node: NodeId) -> impl Iterator<Item = u32> {
        let mut first = None;
        if let Row::Claimed(h) = self.row(node) {
            self.rows[node.index()] = Row::Vacant;
            first = Some(h);
        }
        let rest = self.spill.remove(&node).unwrap_or_default();
        first.into_iter().chain(rest)
    }

    /// Length-based heap estimate of the rows (one per node id up to the
    /// highest written) and the spill table.
    pub(super) fn heap_bytes(&self) -> u64 {
        slots_estimate::<Row>(self.rows.len())
            + map_estimate::<NodeId, Vec<u32>>(self.spill.len())
            + self
                .spill
                .values()
                .map(|rest| slots_estimate::<u32>(rest.len()))
                .sum::<u64>()
    }
}

#[cfg(test)]
impl HostTable {
    /// Every `(host, occupant slot)` pair.
    pub(super) fn locals(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, row)| match *row {
                Row::Local(slot) => Some((NodeId(i as u32), slot)),
                _ => None,
            })
    }

    /// Number of `(host, claimant)` pairs.
    pub(super) fn claim_count(&self) -> usize {
        let holders = self.rows.iter().filter(|r| matches!(r, Row::Claimed(_)));
        holders.count() + self.spill.values().map(Vec::len).sum::<usize>()
    }

    /// Whether the view under handle `h` is recorded as claiming `node`.
    pub(super) fn claims(&self, node: NodeId, h: u32) -> bool {
        self.row(node) == Row::Claimed(h) || self.spill.get(&node).is_some_and(|r| r.contains(&h))
    }

    /// The table's own invariant: spill lists are non-empty and only
    /// follow a row.
    pub(super) fn check(&self) {
        assert!(
            self.spill
                .iter()
                .all(|(&node, rest)| !rest.is_empty() && self.row(node) != Row::Vacant),
            "spill lists are non-empty and only follow a holder"
        );
    }
}
