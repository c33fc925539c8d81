//! The registry's read side: the roster a petition borrows.
//!
//! Selection reads every known candidate — locally registered peers and
//! fresh federation views — in ascending node order. Nothing is copied
//! for that: each [`PeerEntry`] holds its [`CandidateView`] in place (the
//! live interaction history plus a cached [`StatsSnapshot`]), remote views
//! stay in the sender's shared allocation, and a [`RosterView`] addresses
//! both through a node-sorted **order index**. Two lazy steps run before
//! a read and do nothing when nothing changed:
//!
//! * [`PeerRegistry::refresh`] re-evaluates the cached snapshot of every
//!   slot `entry_mut` / `admit` touched since the last read, of every slot
//!   whose queue gauges are still integrating over time, and of all slots
//!   when the k-hour window moved to another hour;
//! * the order index is rebuilt when membership or the remote set changed
//!   or a held remote view passed the staleness bound. It is *not*
//!   maintained on the write path: a churn run takes millions of
//!   `learn_remote`s for a few dozen reads, and one sort per read that
//!   follows a write is cheaper than a sorted insert per write. The
//!   rebuild sweep is also where expired remote views are evicted.
//!
//! The roster a gossip round **publishes** ([`PeerRegistry::local_roster`])
//! runs the first step and then hands out, per local peer, the shared copy
//! of its view it handed out last round — unless that step rewrote the
//! snapshot, which is the one event that lets the copy go. A receiver
//! recognises an unchanged view by its address.
//!
//! [`StatsSnapshot`]: crate::stats::StatsSnapshot

use std::sync::Arc;

use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::footprint::slots_estimate;
use crate::selector::{CandidateView, Roster};
use crate::stats::WindowedRatio;

use super::registry::{Membership, PeerEntry, PeerRegistry};

/// One candidate's place in the node-sorted order: a local slab slot, or
/// a remote view's shared allocation.
struct OrderEntry {
    node: NodeId,
    /// Slab slot of a locally registered peer; unused for a remote view.
    slot: u32,
    remote: Option<Arc<CandidateView>>,
}

/// What the registry keeps between reads so that a read is a borrow.
#[derive(Default)]
pub(crate) struct ReadIndex {
    /// Slab slots whose cached snapshot is due for re-evaluation.
    dirty: Vec<u32>,
    /// Per slab slot: whether it is on `dirty` (so it is listed once, and
    /// a recycled slot inherits its predecessor's listing).
    queued: Vec<bool>,
    /// The hour index and `k` the cached k-hour ratios were evaluated for.
    window: Option<(u64, usize)>,
    /// Every candidate on offer, by ascending `(node, peer)`. Emptied as
    /// soon as it goes out of date, so it pins no replaced remote view.
    order: Vec<OrderEntry>,
    /// Whether `order` reflects the current membership and remote set.
    order_valid: bool,
    /// The staleness bound `order` was filtered with.
    bound: Option<SimDuration>,
    /// The earliest instant a held remote view outlives `bound`.
    expires: Option<SimTime>,
}

impl ReadIndex {
    /// Length-based heap estimate of the index itself.
    pub(crate) fn heap_bytes(&self) -> u64 {
        slots_estimate::<OrderEntry>(self.order.len())
            + slots_estimate::<u32>(self.dirty.len())
            + slots_estimate::<bool>(self.queued.len())
    }

    /// Lists `slot` for re-evaluation before the next read.
    pub(super) fn touch(&mut self, slot: u32) {
        if self.queued.len() <= slot as usize {
            self.queued.resize(slot as usize + 1, false);
        }
        if !std::mem::replace(&mut self.queued[slot as usize], true) {
            self.dirty.push(slot);
        }
    }

    /// Marks the order index out of date and lets go of what it holds.
    pub(super) fn invalidate_order(&mut self) {
        if self.order_valid {
            self.order_valid = false;
            self.order.clear();
        }
    }
}

#[cfg(test)]
impl ReadIndex {
    /// The index's own invariants: a slot is listed exactly when flagged,
    /// and a valid order offers every local peer once, in node order.
    pub(super) fn check(&self, entries: &[Option<PeerEntry>]) {
        let mut listed = self.dirty.clone();
        listed.sort_unstable();
        let flagged: Vec<u32> = (0..self.queued.len() as u32)
            .filter(|&s| self.queued[s as usize])
            .collect();
        assert_eq!(listed, flagged, "a slot is on the dirty list iff flagged");
        if !self.order_valid {
            assert!(self.order.is_empty(), "an outdated order holds nothing");
            return;
        }
        assert!(
            self.order.windows(2).all(|w| w[0].node <= w[1].node),
            "the order is sorted by node"
        );
        let local: Vec<u32> = self
            .order
            .iter()
            .filter(|e| e.remote.is_none())
            .map(|e| e.slot)
            .collect();
        let mut occupied: Vec<u32> = (0..entries.len() as u32)
            .filter(|&s| entries[s as usize].is_some())
            .collect();
        occupied.sort_by_key(|&s| entries[s as usize].as_ref().map(|e| e.adv.node));
        assert_eq!(local, occupied, "a valid order offers each local peer once");
    }
}

impl PeerEntry {
    /// Re-evaluates the cached snapshot at `now`: broker-side stats, with
    /// queue gauges overridden by the peer's own latest report when there
    /// is one. Returns whether the snapshot will read differently later in
    /// the same hour with no further write: the average of a queue gauge
    /// that holds, or ever held, a message moves with the clock.
    ///
    /// This is the one place a cached snapshot is rewritten, and every
    /// other write to the view (`entry_mut`, `admit`) lists the slot for
    /// it, so it is also the one place the published copy is let go.
    fn resnapshot(&mut self, now: SimTime, stats_k_hours: usize) -> bool {
        self.view.snapshot = self.snapshot_at(now, stats_k_hours);
        self.published = None;
        self.reported.is_none()
            && (self.stats.outbox.is_integrating() || self.stats.inbox.is_integrating())
    }
}

impl PeerRegistry {
    /// Brings every cached snapshot up to `now`.
    fn refresh(&mut self, now: SimTime, stats_k_hours: usize) {
        let read = &mut self.read;
        let window = Some((WindowedRatio::hour_of(now), stats_k_hours));
        if read.window != window {
            // Every cached k-hour ratio looks back from another hour.
            read.window = window;
            read.dirty.clear();
            read.dirty.extend(
                (0..self.entries.len() as u32).filter(|&s| self.entries[s as usize].is_some()),
            );
            read.queued.clear();
            read.queued.resize(self.entries.len(), false);
        }
        let entries = &mut self.entries;
        let queued = &mut read.queued;
        read.dirty.retain(|&slot| {
            let integrating = entries[slot as usize]
                .as_mut()
                .is_some_and(|entry| entry.resnapshot(now, stats_k_hours));
            queued[slot as usize] = integrating;
            integrating
        });
    }

    /// Rebuilds the order index if a write or the clock outdated it,
    /// evicting the remote views that outlived `staleness` on the way.
    fn reorder(&mut self, now: SimTime, staleness: Option<SimDuration>) {
        let read = &mut self.read;
        let expired = read.expires.is_some_and(|at| now > at);
        if read.order_valid && read.bound == staleness && !expired {
            return;
        }
        read.order.clear();
        for (slot, entry) in self.entries.iter().enumerate() {
            if let Some(entry) = entry {
                read.order.push(OrderEntry {
                    node: entry.adv.node,
                    slot: slot as u32,
                    remote: None,
                });
            }
        }
        read.expires = None;
        let (hosts, charge) = (&mut self.hosts, &mut self.remote_charge);
        self.members.retain(|&peer, known| {
            let Membership::Remote(remote) = known else {
                return true;
            };
            let node = remote.view.node;
            if let Some(bound) = staleness {
                // The stale-stat tolerance window: a view its sender
                // stopped refreshing is dropped for good.
                if now - remote.as_of > bound {
                    hosts.unclaim(node, peer);
                    *charge -= u64::from(remote.charge);
                    return false;
                }
                let at = remote.as_of + bound;
                read.expires = Some(read.expires.map_or(at, |e| e.min(at)));
            }
            // Never offer a relay over first-hand knowledge of the host.
            if hosts.local(node).is_none() {
                read.order.push(OrderEntry {
                    node,
                    slot: 0,
                    remote: Some(Arc::clone(&remote.view)),
                });
            }
            true
        });
        // Hosts are unique among local peers and never shared between a
        // local peer and an offered view; two views may claim one host.
        read.order.sort_unstable_by(|a, b| {
            a.node
                .cmp(&b.node)
                .then_with(|| match (&a.remote, &b.remote) {
                    (Some(a), Some(b)) => a.peer.cmp(&b.peer),
                    _ => std::cmp::Ordering::Equal,
                })
        });
        read.order_valid = true;
        read.bound = staleness;
    }

    /// Every known candidate (registered + federation-learnt) at `now`,
    /// in node order, borrowed from the registry. When `staleness` is set,
    /// gossiped views older than that bound are left out — and forgotten.
    pub(crate) fn roster(
        &mut self,
        now: SimTime,
        stats_k_hours: usize,
        staleness: Option<SimDuration>,
    ) -> RosterView<'_> {
        self.refresh(now, stats_k_hours);
        self.reorder(now, staleness);
        RosterView {
            entries: &self.entries,
            order: &self.read.order,
        }
    }

    /// The roster a gossip round publishes: one shared copy of the cached
    /// view per locally-registered peer, sorted by node. Federation-learnt
    /// views are never relayed, so this is [`PeerRegistry::roster`]
    /// restricted to occupied hosts, built without touching the remote
    /// roster or its order. A peer whose view reads as it did last round
    /// is published as the same allocation, which is how a receiver knows
    /// it has nothing to learn; a changed view gets a fresh one, so a
    /// receiver still holding the old copy keeps reading what it was sent.
    pub(crate) fn local_roster(
        &mut self,
        now: SimTime,
        stats_k_hours: usize,
    ) -> Arc<[Arc<CandidateView>]> {
        self.refresh(now, stats_k_hours);
        let mut entries: Vec<&mut PeerEntry> = self.entries.iter_mut().flatten().collect();
        entries.sort_by_key(|e| e.adv.node);
        entries
            .into_iter()
            .map(|e| Arc::clone(e.published.get_or_insert_with(|| Arc::new(e.view.clone()))))
            .collect()
    }
}

/// The candidate set of one petition: the registry's own views, read in
/// place through the order index.
pub(crate) struct RosterView<'a> {
    entries: &'a [Option<PeerEntry>],
    order: &'a [OrderEntry],
}

impl RosterView<'_> {
    /// The candidates living on one of `nodes`, still in node order.
    pub(crate) fn restricted_to(&self, nodes: &[NodeId]) -> RosterSubset<'_> {
        let mut picks: Vec<u32> = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let first = self.order.partition_point(|e| e.node < node);
            let claimants = self.order[first..]
                .iter()
                .take_while(|e| e.node == node)
                .count();
            picks.extend(first as u32..(first + claimants) as u32);
        }
        picks.sort_unstable();
        picks.dedup();
        RosterSubset {
            roster: self,
            picks,
        }
    }
}

impl Roster for RosterView<'_> {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn get(&self, i: usize) -> &CandidateView {
        let at = &self.order[i];
        match &at.remote {
            Some(view) => view,
            None => {
                &self.entries[at.slot as usize]
                    .as_ref()
                    .expect("ordered slot is occupied")
                    .view
            }
        }
    }
}

/// A few candidates picked out of a [`RosterView`] by position.
pub(crate) struct RosterSubset<'a> {
    roster: &'a RosterView<'a>,
    picks: Vec<u32>,
}

impl Roster for RosterSubset<'_> {
    fn len(&self) -> usize {
        self.picks.len()
    }

    fn get(&self, i: usize) -> &CandidateView {
        self.roster.get(self.picks[i] as usize)
    }
}
