//! The registry's read side: the roster a petition borrows.
//!
//! Selection reads every known candidate — locally registered peers and
//! fresh federation views — in ascending node order. Nothing is copied
//! for that: each [`PeerEntry`] points at its [`CandidateView`] (the live
//! interaction history plus a cached [`StatsSnapshot`]), remote views stay
//! in the sender's shared allocation, and a [`RosterView`] addresses both
//! through a node-sorted **order index**. An order entry is 8 B: a node
//! and a local slab slot or a remote-slab handle, never a pointer, so it
//! holds no view alive; it is valid only while the order is, and every
//! write that could change what a slot or handle names outdates the
//! order. An outdated order lets go of its buffer. Two lazy steps run
//! before a read and do nothing when nothing changed:
//!
//! * [`PeerRegistry::refresh`] re-evaluates the cached snapshot of every
//!   slot `occupant_mut` / `admit` touched since the last read, of every slot
//!   whose queue gauges are still integrating over time, and of all slots
//!   when the k-hour window moved to another hour;
//! * the order index is rebuilt when membership or the remote set changed
//!   or a held remote view passed the staleness bound. It is *not*
//!   maintained on the write path: a churn run absorbs millions of
//!   roster rows for a few dozen reads, and one sort per read that
//!   follows a write is cheaper than a sorted insert per write. The
//!   rebuild's pass over the remote slab is also where expired remote
//!   views are evicted.
//!
//! Three caches sit beside the order index. Each is built on the first
//! read that asks for it and dropped whenever the order is rebuilt or
//! outdated, so a round-robin broker never builds any:
//!
//! * the roster's **criterion columns** ([`Roster::criteria`]) and its
//!   **history column** ([`Roster::histories`]), with one map from each
//!   local slot to its row that both share; the first step above rewrites
//!   the row of every slot it re-snapshots (every history write goes
//!   through `occupant_mut`, which lists the slot), and a remote view never
//!   changes in place;
//! * the candidates' **advertised CPU** ([`Roster::tiebreak`]), which
//!   only an admission changes, and an admission outdates the order.
//!
//! The roster a gossip round **publishes** ([`PeerRegistry::local_roster`])
//! runs the first step and then hands out each local peer's view
//! allocation itself, so a broker holds one copy of each view. Every write
//! to a view — a history write through `occupant_mut`, `admit`'s refresh, the
//! first step's re-snapshot — goes through [`Arc::make_mut`]: a view a
//! published roster still shares forks on its first write after the
//! round, and a receiver keeps reading what it was sent. A view no one
//! else holds is written in place, where no receiver can see its address.
//! A receiver therefore recognises an unchanged view by its address: one
//! it holds comes back at a new address exactly when the first step
//! re-evaluated it since the round that sent it.
//!
//! [`StatsSnapshot`]: crate::stats::StatsSnapshot

use std::cell::OnceCell;
use std::sync::Arc;

use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::footprint::slots_estimate;
use crate::selector::{put_criteria, CandidateView, InteractionHistory, Roster};
use crate::stats::{Criterion, WindowedRatio};

use super::members::Membership;
use super::registry::{PeerEntry, PeerRegistry};
use super::remote::RemoteSlab;

/// One candidate's place in the node-sorted order: the slab slot of a
/// local peer, or the remote-slab handle of a view with [`REMOTE`] set.
#[derive(Clone, Copy)]
pub(super) struct OrderEntry {
    node: NodeId,
    at: u32,
}

/// The bit of [`OrderEntry::at`] that marks a remote-slab handle.
const REMOTE: u32 = 1 << 31;

impl OrderEntry {
    fn local(node: NodeId, slot: u32) -> Self {
        debug_assert!(slot < REMOTE);
        OrderEntry { node, at: slot }
    }

    fn remote(node: NodeId, h: u32) -> Self {
        debug_assert!(h < REMOTE);
        OrderEntry {
            node,
            at: h | REMOTE,
        }
    }

    /// The slab slot of a local peer, or `None` for a remote view.
    fn slot(self) -> Option<u32> {
        (self.at & REMOTE == 0).then_some(self.at)
    }

    /// The remote-slab handle of a remote view, or `None` for a local peer.
    fn handle(self) -> Option<u32> {
        (self.at & REMOTE != 0).then_some(self.at & !REMOTE)
    }
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
    /// Every candidate on offer, by ascending `(node, peer)`. Dropped as
    /// soon as it goes out of date, buffer and all.
    order: Vec<OrderEntry>,
    /// Whether `order` reflects the current membership and remote set.
    order_valid: bool,
    /// The staleness bound `order` was filtered with.
    bound: Option<SimDuration>,
    /// The earliest instant a held remote view outlives `bound`.
    expires: Option<SimTime>,
    /// Per slab slot: its row in `order`, or `u32::MAX` when unoccupied.
    /// Built with the first column over `order`, so `refresh` can patch a
    /// re-snapshotted slot's row; dropped with the order.
    rows: OnceCell<Vec<u32>>,
    /// `order`'s criterion columns (the layout of [`Roster::criteria`]):
    /// built on the first read that asks for them, patched by `refresh`,
    /// dropped with the order.
    columns: OnceCell<Vec<f64>>,
    /// `order`'s interaction histories, kept like `columns`.
    histories: OnceCell<Vec<InteractionHistory>>,
    /// `order`'s advertised CPU rates: built on the first read that asks
    /// for them, dropped with the order (a rate changes only on admit).
    cpu: OnceCell<Vec<f64>>,
}

impl ReadIndex {
    /// Length-based heap estimate of the index itself.
    pub(crate) fn heap_bytes(&self) -> u64 {
        fn built<T>(cache: &OnceCell<Vec<T>>) -> u64 {
            cache.get().map_or(0, |v| slots_estimate::<T>(v.len()))
        }
        slots_estimate::<OrderEntry>(self.order.len())
            + slots_estimate::<u32>(self.dirty.len())
            + slots_estimate::<bool>(self.queued.len())
            + built(&self.rows)
            + built(&self.columns)
            + built(&self.histories)
            + built(&self.cpu)
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

    /// Marks the order index out of date and lets go of what it holds,
    /// its buffer included.
    pub(super) fn invalidate_order(&mut self) {
        if self.order_valid {
            self.order_valid = false;
            self.order = Vec::new();
            self.drop_caches();
        }
    }

    /// Lets go of what was built over `order`.
    fn drop_caches(&mut self) {
        self.rows.take();
        self.columns.take();
        self.histories.take();
        self.cpu.take();
    }
}

#[cfg(test)]
impl ReadIndex {
    /// The history column, when one is built.
    pub(super) fn built_histories(&self) -> Option<&[InteractionHistory]> {
        self.histories.get().map(Vec::as_slice)
    }

    /// The index's own invariants: a slot is listed exactly when flagged,
    /// a valid order offers every local peer once, in node order, and
    /// every column built over it reads as a fresh gather would — the
    /// history of a slot still listed excepted, which its next read
    /// patches.
    pub(super) fn check(&self, entries: &[Option<PeerEntry>], remote: &RemoteSlab) {
        let mut listed = self.dirty.clone();
        listed.sort_unstable();
        let flagged: Vec<u32> = (0..self.queued.len() as u32)
            .filter(|&s| self.queued[s as usize])
            .collect();
        assert_eq!(listed, flagged, "a slot is on the dirty list iff flagged");
        if !self.order_valid {
            assert!(
                self.order.capacity() == 0,
                "an outdated order holds nothing"
            );
            assert!(self.rows.get().is_none() && self.cpu.get().is_none());
            assert!(self.columns.get().is_none() && self.histories.get().is_none());
            return;
        }
        let roster = RosterView {
            entries,
            remote,
            read: self,
        };
        let view = |i: usize| roster.get(i);
        assert_eq!(
            self.rows.get().is_some(),
            self.columns.get().is_some() || self.histories.get().is_some(),
            "the row map exists exactly when a column it patches does"
        );
        if let Some(rows) = self.rows.get() {
            for (i, at) in self.order.iter().enumerate() {
                if let Some(slot) = at.slot() {
                    assert_eq!(rows[slot as usize], i as u32, "a slot's row is its place");
                }
            }
        }
        if let Some(columns) = self.columns.get() {
            let mut fresh = vec![f64::NAN; self.order.len() * Criterion::ALL.len()];
            for i in 0..self.order.len() {
                put_criteria(&mut fresh, i, &view(i).snapshot);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(columns),
                bits(&fresh),
                "the criterion columns are current"
            );
        }
        if let Some(histories) = self.histories.get() {
            assert_eq!(histories.len(), self.order.len());
            for (i, (at, kept)) in self.order.iter().zip(histories).enumerate() {
                let listed = at.slot().is_some_and(|slot| self.queued[slot as usize]);
                assert!(
                    listed || *kept == view(i).history,
                    "row {i}'s history is current"
                );
            }
        }
        if let Some(cpu) = self.cpu.get() {
            for (i, &rate) in cpu.iter().enumerate() {
                assert_eq!(rate.to_bits(), view(i).cpu_gops.to_bits(), "row {i}'s CPU");
            }
        }
        assert!(
            self.order.windows(2).all(|w| w[0].node <= w[1].node),
            "the order is sorted by node"
        );
        let local: Vec<u32> = self.order.iter().filter_map(|e| e.slot()).collect();
        let mut occupied: Vec<u32> = (0..entries.len() as u32)
            .filter(|&s| entries[s as usize].is_some())
            .collect();
        occupied.sort_by_key(|&s| entries[s as usize].as_ref().map(|e| e.view.node));
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
    /// other write to the view (`occupant_mut`, `admit`) lists the slot for
    /// it. The write forks a view a published roster still shares, so a
    /// re-evaluated view is never republished at the address it was sent
    /// at, even when it reads the same.
    fn resnapshot(&mut self, now: SimTime, stats_k_hours: usize) -> bool {
        let snapshot = self.snapshot_at(now, stats_k_hours);
        Arc::make_mut(&mut self.view).snapshot = snapshot;
        self.reported.is_none()
            && (self.stats.outbox.is_integrating() || self.stats.inbox.is_integrating())
    }
}

impl PeerRegistry {
    /// Brings every cached snapshot up to `now`, and the criterion and
    /// history columns with them when they are built.
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
        let (queued, rows) = (&mut read.queued, read.rows.get());
        let (mut columns, mut histories) = (read.columns.get_mut(), read.histories.get_mut());
        read.dirty.retain(|&slot| {
            let integrating = entries[slot as usize].as_mut().is_some_and(|entry| {
                let integrating = entry.resnapshot(now, stats_k_hours);
                if let Some(rows) = rows {
                    // Every occupied slot has a row: admitting one
                    // drops the columns.
                    let row = rows[slot as usize] as usize;
                    if let Some(columns) = columns.as_deref_mut() {
                        put_criteria(columns, row, &entry.view.snapshot);
                    }
                    if let Some(histories) = histories.as_deref_mut() {
                        histories[row].clone_from(&entry.view.history);
                    }
                }
                integrating
            });
            queued[slot as usize] = integrating;
            integrating
        });
    }

    /// Rebuilds the order index if a write or the clock outdated it,
    /// evicting the remote views that outlived `staleness` on the way.
    fn reorder(&mut self, now: SimTime, staleness: Option<SimDuration>) {
        let offered = self.peer_count() + self.remote.len();
        let read = &mut self.read;
        let expired = read.expires.is_some_and(|at| now > at);
        if read.order_valid && read.bound == staleness && !expired {
            return;
        }
        read.drop_caches();
        let mut order = Vec::with_capacity(offered);
        for (slot, entry) in self.entries.iter().enumerate() {
            if let Some(entry) = entry {
                order.push(OrderEntry::local(entry.view.node, slot as u32));
            }
        }
        read.expires = None;
        let (hosts, books, members) = (&mut self.hosts, &mut self.books, &mut self.members);
        self.remote.retain(|h, remote| {
            let node = remote.view.node;
            if let Some(bound) = staleness {
                // The stale-stat tolerance window: a view its sender
                // stopped refreshing is dropped for good.
                let as_of = books.as_of(remote);
                if now - as_of > bound {
                    books.unmark(remote);
                    hosts.unclaim(node, h);
                    members.remove_known(remote.view.peer, Membership::Remote(h));
                    return false;
                }
                let at = as_of + bound;
                read.expires = Some(read.expires.map_or(at, |e| e.min(at)));
            }
            // Never offer a relay over first-hand knowledge of the host.
            if hosts.local(node).is_none() {
                order.push(OrderEntry::remote(node, h));
            }
            true
        });
        // Hosts are unique among local peers and never shared between a
        // local peer and an offered view; two views may claim one host.
        let remote = &self.remote;
        order.sort_unstable_by(|a, b| {
            a.node
                .cmp(&b.node)
                .then_with(|| match (a.handle(), b.handle()) {
                    (Some(a), Some(b)) => remote.get(a).view.peer.cmp(&remote.get(b).view.peer),
                    _ => std::cmp::Ordering::Equal,
                })
        });
        read.order = order;
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
            remote: &self.remote,
            read: &self.read,
        }
    }

    /// The roster a gossip round publishes to `recipients` fellow brokers:
    /// each locally-registered peer's view, the entry's own allocation,
    /// sorted by node. Federation-learnt views are never relayed, so this
    /// is [`PeerRegistry::roster`] restricted to occupied hosts, built
    /// without touching the remote roster or its order. A peer whose view
    /// was not written since last round is published as the same
    /// allocation, which is how a receiver knows it has nothing to learn;
    /// a written one was forked by the write, so a receiver still holding
    /// the old copy keeps reading what it was sent.
    pub(crate) fn local_roster(
        &mut self,
        now: SimTime,
        stats_k_hours: usize,
        recipients: u32,
    ) -> Arc<[Arc<CandidateView>]> {
        self.refresh(now, stats_k_hours);
        self.published_to = recipients;
        let mut views: Vec<&Arc<CandidateView>> =
            self.entries.iter().flatten().map(|e| &e.view).collect();
        views.sort_by_key(|v| v.node);
        views.into_iter().map(Arc::clone).collect()
    }
}

/// The candidate set of one petition: the registry's own views, read in
/// place through the order index.
pub(crate) struct RosterView<'a> {
    entries: &'a [Option<PeerEntry>],
    remote: &'a RemoteSlab,
    read: &'a ReadIndex,
}

impl RosterView<'_> {
    /// A column `refresh` patches, built by `gather` on first demand, with
    /// the slot → row map its patches go through.
    fn patchable<'s, T>(
        &'s self,
        column: &'s OnceCell<Vec<T>>,
        gather: impl FnOnce() -> Vec<T>,
    ) -> &'s [T] {
        self.read.rows.get_or_init(|| {
            let mut rows = vec![u32::MAX; self.entries.len()];
            for (i, at) in self.read.order.iter().enumerate() {
                if let Some(slot) = at.slot() {
                    rows[slot as usize] = i as u32;
                }
            }
            rows
        });
        column.get_or_init(gather)
    }

    /// The candidates living on one of `nodes`, still in node order.
    pub(crate) fn restricted_to(&self, nodes: &[NodeId]) -> RosterSubset<'_> {
        let mut picks: Vec<u32> = Vec::with_capacity(nodes.len());
        for &node in nodes {
            let order = &self.read.order;
            let first = order.partition_point(|e| e.node < node);
            let claimants = order[first..].iter().take_while(|e| e.node == node).count();
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
        self.read.order.len()
    }

    fn get(&self, i: usize) -> &CandidateView {
        let at = self.read.order[i];
        match at.handle() {
            Some(h) => &self.remote.get(h).view,
            None => {
                &self.entries[at.at as usize]
                    .as_ref()
                    .expect("ordered slot is occupied")
                    .view
            }
        }
    }

    fn criteria<'s>(&'s self, _scratch: &'s mut Vec<f64>) -> &'s [f64] {
        self.patchable(&self.read.columns, || {
            let mut values = vec![f64::NAN; self.len() * Criterion::ALL.len()];
            for i in 0..self.len() {
                put_criteria(&mut values, i, &self.get(i).snapshot);
            }
            values
        })
    }

    fn tiebreak(&self, i: usize) -> (f64, NodeId) {
        let cpu = self
            .read
            .cpu
            .get_or_init(|| (0..self.len()).map(|i| self.get(i).cpu_gops).collect());
        (cpu[i], self.read.order[i].node)
    }

    fn histories<'s>(
        &'s self,
        _scratch: &'s mut Vec<InteractionHistory>,
    ) -> &'s [InteractionHistory] {
        self.patchable(&self.read.histories, || {
            (0..self.len())
                .map(|i| self.get(i).history.clone())
                .collect()
        })
    }

    fn node(&self, i: usize) -> NodeId {
        self.read.order[i].node
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
