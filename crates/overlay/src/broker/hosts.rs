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
//! the two, and a row is one id wide. Whoever else claims the host (a
//! second-hand view of a peer on a host another remote peer has since
//! taken, or any rumor about a host a peer then registered on) spills into
//! a side table that is empty unless hosts are contested. Each `(host,
//! claimant)` pair is stored once.
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
use crate::id::PeerId;

/// Who holds a host.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Host {
    /// The peer registered here first-hand.
    Local(PeerId),
    /// Nobody is registered here; this is the first federation view
    /// claiming the host.
    Claimed(PeerId),
}

/// One host's row: its holder, or `None` when nobody holds it.
pub(super) type Row = Option<Host>;

/// Claimants of a host beyond its holder.
type Spill = IdMap<NodeId, Vec<PeerId>>;

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
        self.rows.get(node.index()).copied().flatten()
    }

    /// The row of `node` for a write, grown to it if need be.
    fn row_mut(&mut self, node: NodeId) -> &mut Row {
        if self.rows.len() <= node.index() {
            self.rows.resize(node.index() + 1, None);
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
        self.rows[node.index()] = next.map(Host::Claimed);
    }

    /// The peer registered first-hand on `node`, if any.
    pub(super) fn local(&self, node: NodeId) -> Option<PeerId> {
        match self.row(node) {
            Some(Host::Local(peer)) => Some(peer),
            _ => None,
        }
    }

    /// Records that `peer`'s view claims `node`, which has no local
    /// occupant; the pair must not be present.
    pub(super) fn claim(&mut self, node: NodeId, peer: PeerId) {
        let row = self.row_mut(node);
        debug_assert!(!matches!(row, Some(Host::Local(_))), "{node} is occupied");
        if row.is_none() {
            *row = Some(Host::Claimed(peer));
        } else {
            self.spill.entry(node).or_default().push(peer);
        }
    }

    /// Records `peer` as the local occupant of `node`, in place of any
    /// other; a view that held the row keeps its claim in the spill list.
    /// Returns whether the host's claimants were unshadowed until now (a
    /// view held the row): they are [`HostTable::spilled`] from here on.
    pub(super) fn set_local(&mut self, node: NodeId, peer: PeerId) -> bool {
        let Some(Host::Claimed(first)) = self.row_mut(node).replace(Host::Local(peer)) else {
            return false;
        };
        self.spill.entry(node).or_default().push(first);
        true
    }

    /// The claimants of `node` beyond its holder.
    pub(super) fn spilled(&self, node: NodeId) -> &[PeerId] {
        self.spill.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Clears the local occupant of `node` if it is `peer`, handing the
    /// row to a claimant when there is one.
    pub(super) fn clear_local(&mut self, node: NodeId, peer: PeerId) {
        if self.row(node) == Some(Host::Local(peer)) {
            self.vacate(node);
        }
    }

    /// Forgets that `peer` claims `node`, handing the row to a spilled
    /// claimant when it was the holder.
    pub(super) fn unclaim(&mut self, node: NodeId, peer: PeerId) {
        if self.row(node) == Some(Host::Claimed(peer)) {
            self.vacate(node);
        } else if let Some(rest) = self.spill.get_mut(&node) {
            rest.retain(|p| *p != peer);
            if rest.is_empty() {
                self.spill.remove(&node);
            }
        }
    }

    /// Removes and returns every claimant of `node`.
    pub(super) fn take_claims(&mut self, node: NodeId) -> impl Iterator<Item = PeerId> {
        let mut first = None;
        if let Some(Host::Claimed(peer)) = self.row(node) {
            self.rows[node.index()] = None;
            first = Some(peer);
        }
        let rest = self.spill.remove(&node).unwrap_or_default();
        first.into_iter().chain(rest)
    }

    /// Length-based heap estimate of the rows (one per node id up to the
    /// highest written) and the spill table.
    pub(super) fn heap_bytes(&self) -> u64 {
        slots_estimate::<Row>(self.rows.len())
            + map_estimate::<NodeId, Vec<PeerId>>(self.spill.len())
            + self
                .spill
                .values()
                .map(|rest| slots_estimate::<PeerId>(rest.len()))
                .sum::<u64>()
    }
}

#[cfg(test)]
impl HostTable {
    /// Every `(host, occupant)` pair.
    pub(super) fn locals(&self) -> impl Iterator<Item = (NodeId, PeerId)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, row)| match *row {
                Some(Host::Local(peer)) => Some((NodeId(i as u32), peer)),
                _ => None,
            })
    }

    /// Number of `(host, claimant)` pairs.
    pub(super) fn claim_count(&self) -> usize {
        let holders = self
            .rows
            .iter()
            .filter(|r| matches!(r, Some(Host::Claimed(_))));
        holders.count() + self.spill.values().map(Vec::len).sum::<usize>()
    }

    /// Whether `peer` is recorded as claiming `node`.
    pub(super) fn claims(&self, node: NodeId, peer: PeerId) -> bool {
        self.row(node) == Some(Host::Claimed(peer))
            || self.spill.get(&node).is_some_and(|r| r.contains(&peer))
    }

    /// The table's own invariant: spill lists are non-empty and only
    /// follow a row.
    pub(super) fn check(&self) {
        assert!(
            self.spill
                .iter()
                .all(|(&node, rest)| !rest.is_empty() && self.row(node).is_some()),
            "spill lists are non-empty and only follow a holder"
        );
    }
}
