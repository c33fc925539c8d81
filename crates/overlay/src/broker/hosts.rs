//! The registry's host table: who lives on each host, and who is said to.
//!
//! A host runs one locally registered peer at most, and is *claimed* by
//! every federation view whose peer is said to live there. Both facts sit
//! in one table, so the gossip write path asks "is this host occupied
//! here?" and records "this view claims it" with a single entry probe, and
//! a departure finds its host's rumors without scanning every remote view.
//!
//! A row names the host's **holder**: its local occupant, or else the
//! first remote view claiming it — nearly every host has exactly one of
//! the two, and a row is one id wide. Whoever else claims the host (a
//! second-hand view of a peer on a host another remote peer has since
//! taken, or any rumor about a host a peer then registered on) spills into
//! a side table that is empty unless hosts are contested. Each `(host,
//! claimant)` pair is stored once, and a host nobody holds has no row.

use std::collections::hash_map::{Entry, OccupiedEntry};

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

/// Claimants of a host beyond its holder.
type Spill = IdMap<NodeId, Vec<PeerId>>;

/// The holder of `row` is gone: hands the row to a spilled claimant, or
/// removes it when there is none.
fn vacate(row: OccupiedEntry<'_, NodeId, Host>, spill: &mut Spill) {
    let next = match spill.entry(*row.key()) {
        Entry::Occupied(mut rest) => {
            let next = rest.get_mut().pop();
            if rest.get().is_empty() {
                rest.remove();
            }
            next
        }
        Entry::Vacant(_) => None,
    };
    match next {
        Some(next) => *row.into_mut() = Host::Claimed(next),
        None => {
            row.remove();
        }
    }
}

/// Host → holder, plus the spilled claimants of contested hosts.
#[derive(Default)]
pub(super) struct HostTable {
    rows: IdMap<NodeId, Host>,
    spill: Spill,
}

impl HostTable {
    /// The peer registered first-hand on `node`, if any.
    pub(super) fn local(&self, node: NodeId) -> Option<PeerId> {
        match self.rows.get(&node) {
            Some(&Host::Local(peer)) => Some(peer),
            _ => None,
        }
    }

    /// Whether `node` has a local occupant *and* a view claiming it. Such
    /// a claim always sits in the spill table (the occupant holds the
    /// row), so while no host is contested the answer is no without a
    /// probe — which is what a broker re-learning a view it already holds
    /// asks, some millions of times a run.
    pub(super) fn shadows_a_claim(&self, node: NodeId) -> bool {
        !self.spill.is_empty() && self.local(node).is_some()
    }

    /// The one probe `learn_remote` makes: `None` when `node` has a local
    /// occupant (a relay never shadows first-hand knowledge), otherwise
    /// the row, through which a new view's claim is recorded.
    pub(super) fn unoccupied(&mut self, node: NodeId) -> Option<Unoccupied<'_>> {
        let row = self.rows.entry(node);
        if matches!(&row, Entry::Occupied(row) if matches!(row.get(), Host::Local(_))) {
            return None;
        }
        Some(Unoccupied {
            row,
            spill: &mut self.spill,
        })
    }

    /// Records `peer` as the local occupant of `node`, in place of any
    /// other; a view that held the row keeps its claim in the spill list.
    pub(super) fn set_local(&mut self, node: NodeId, peer: PeerId) {
        if let Some(Host::Claimed(first)) = self.rows.insert(node, Host::Local(peer)) {
            self.spill.entry(node).or_default().push(first);
        }
    }

    /// Clears the local occupant of `node` if it is `peer`, handing the
    /// row to a claimant when there is one.
    pub(super) fn clear_local(&mut self, node: NodeId, peer: PeerId) {
        if let Entry::Occupied(row) = self.rows.entry(node) {
            if *row.get() == Host::Local(peer) {
                vacate(row, &mut self.spill);
            }
        }
    }

    /// Forgets that `peer` claims `node`, handing the row to a spilled
    /// claimant when it was the holder.
    pub(super) fn unclaim(&mut self, node: NodeId, peer: PeerId) {
        let Entry::Occupied(row) = self.rows.entry(node) else {
            return;
        };
        if *row.get() == Host::Claimed(peer) {
            vacate(row, &mut self.spill);
        } else if let Entry::Occupied(mut rest) = self.spill.entry(node) {
            rest.get_mut().retain(|p| *p != peer);
            if rest.get().is_empty() {
                rest.remove();
            }
        }
    }

    /// Removes and returns every claimant of `node`.
    pub(super) fn take_claims(&mut self, node: NodeId) -> impl Iterator<Item = PeerId> {
        let mut first = None;
        if let Entry::Occupied(row) = self.rows.entry(node) {
            if let Host::Claimed(peer) = *row.get() {
                row.remove();
                first = Some(peer);
            }
        }
        let rest = self.spill.remove(&node).unwrap_or_default();
        first.into_iter().chain(rest)
    }

    /// Length-based heap estimate of the rows and the spill table.
    pub(super) fn heap_bytes(&self) -> u64 {
        map_estimate::<NodeId, Host>(self.rows.len())
            + map_estimate::<NodeId, Vec<PeerId>>(self.spill.len())
            + self
                .spill
                .values()
                .map(|rest| slots_estimate::<PeerId>(rest.len()))
                .sum::<u64>()
    }
}

/// The row of a host nobody is registered on, held from
/// [`HostTable::unoccupied`].
pub(super) struct Unoccupied<'a> {
    row: Entry<'a, NodeId, Host>,
    spill: &'a mut Spill,
}

impl Unoccupied<'_> {
    /// Records that `peer`'s view claims this host; the pair must not be
    /// present.
    pub(super) fn claim(self, peer: PeerId) {
        match self.row {
            Entry::Vacant(row) => {
                row.insert(Host::Claimed(peer));
            }
            Entry::Occupied(row) => self.spill.entry(*row.key()).or_default().push(peer),
        }
    }
}

#[cfg(test)]
impl HostTable {
    /// Every `(host, occupant)` pair.
    pub(super) fn locals(&self) -> impl Iterator<Item = (NodeId, PeerId)> + '_ {
        self.rows.iter().filter_map(|(&node, host)| match *host {
            Host::Local(peer) => Some((node, peer)),
            Host::Claimed(_) => None,
        })
    }

    /// Number of `(host, claimant)` pairs.
    pub(super) fn claim_count(&self) -> usize {
        let holders = self.rows.values().filter(|h| matches!(h, Host::Claimed(_)));
        holders.count() + self.spill.values().map(Vec::len).sum::<usize>()
    }

    /// Whether `peer` is recorded as claiming `node`.
    pub(super) fn claims(&self, node: NodeId, peer: PeerId) -> bool {
        self.rows.get(&node) == Some(&Host::Claimed(peer))
            || self.spill.get(&node).is_some_and(|r| r.contains(&peer))
    }

    /// The table's own invariant: spill lists are non-empty and only
    /// follow a row.
    pub(super) fn check(&self) {
        assert!(
            self.spill
                .iter()
                .all(|(node, rest)| !rest.is_empty() && self.rows.contains_key(node)),
            "spill lists are non-empty and only follow a holder"
        );
    }
}
