//! The peer registry: who is in the overlay and what the broker knows
//! about each member.
//!
//! [`PeerRegistry`] owns the peer entries (candidate view, broker-side
//! statistics, peer-reported snapshot, observed interaction history), the
//! published-content index, the federation roster learnt from fellow
//! brokers, and an interned host-name cache so hot paths never re-allocate
//! display names. The membership/content/statistics message handlers live
//! here as `impl Broker` blocks; the actor merely dispatches to them.
//!
//! Storage is a **slab**: entries live in one contiguous `Vec` and freed
//! slots are recycled LIFO, so under churn a million-peer roster occupies
//! memory proportional to the *concurrent* population, not the total
//! number of joins. Each entry holds the [`CandidateView`] selection and
//! gossip read **in place** — the live interaction history and a cached
//! statistics snapshot — so a petition borrows the roster instead of
//! copying it; [`PeerRegistry::entry_mut`] is the one way to change an
//! entry and is what marks its cached snapshot for re-evaluation. The read
//! side (cache refresh, node-sorted order index, the borrowed
//! [`super::roster::RosterView`], the roster a gossip round publishes)
//! lives in [`super::roster`].
//!
//! Two id-hashed tables index all of it. **Membership** maps a peer id to
//! the one thing this broker knows of it — [`Membership::Local`] (its slab
//! slot), [`Membership::Remote`] (a view learnt from a fellow broker) or
//! [`Membership::Departed`] (a tombstone) — so the three states exclude
//! each other by construction. The **host table** ([`super::hosts`]) maps
//! a host to its local occupant and the remote views claiming it. Learning
//! a gossiped view is one probe into each.
//!
//! The federation roster holds **shared** views: a sender publishes one
//! `Arc<CandidateView>` per local peer and hands out the same allocation
//! every round until the entry changes, every fellow broker's message
//! carries the same roster, and a receiver keeps the sender's pointer
//! rather than a copy. A receiver keeps each sender's last roster in a
//! [`super::books::Book`] and merge-walks the next one against it
//! ([`PeerRegistry::absorb`]), so a view that did not change costs it one
//! pointer compare, and only the changed rows reach
//! [`PeerRegistry::learn_remote`]. A view its sender stopped refreshing is
//! evicted once it outlives the staleness bound.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::engine::Context;
use netsim::idmap::IdMap;
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::advertisement::{ContentAdvertisement, PeerAdvertisement};
use crate::footprint::{
    map_estimate, slots_estimate, FootprintBreakdown, MemoryFootprint, ARC_HEADER_BYTES,
};
use crate::id::PeerId;
use crate::message::OverlayMsg;
use crate::selector::{CandidateView, InteractionHistory};
use crate::stats::{PeerStats, StatsSnapshot};

use super::books::Books;
use super::counters::FootprintGauges;
use super::hosts::{Host, HostTable};
use super::roster::ReadIndex;
use super::{Broker, STATS_K_HOURS};

/// Everything the broker tracks about one registered peer.
///
/// Per-peer history costs memory from the first write that needs it: the
/// message window allocates its ring on its first record, and the peer's
/// own report stays in the box its `StatsReport` arrived in, so a peer
/// that never reports sets nothing aside for one.
pub(crate) struct PeerEntry {
    pub(crate) stats: PeerStats,
    pub(crate) reported: Option<Box<StatsSnapshot>>,
    /// What selection and gossip see of this peer, held in place, and the
    /// one copy of what its advertisement said: `peer`, `node`, `name`
    /// (interned at admission, so recording a selection clones a
    /// refcount) and `cpu_gops` are refreshed by every (re-)join;
    /// `history` is the live record the transfer and task paths update;
    /// `snapshot` is a cache of [`PeerEntry::snapshot_at`], brought up to
    /// date before any read.
    pub(crate) view: CandidateView,
    /// The copy of `view` the last gossip round published, handed out
    /// again while it still reads the same; dropped whenever the cached
    /// snapshot is rewritten (see [`super::roster`]).
    pub(super) published: Option<Arc<CandidateView>>,
}

impl PeerEntry {
    /// The statistics snapshot selection and gossip see for this peer at
    /// `now`: broker-side stats, with queue gauges overridden by the
    /// peer's own latest report when available.
    pub(super) fn snapshot_at(&self, now: SimTime, stats_k_hours: usize) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot(now, stats_k_hours);
        if let Some(reported) = &self.reported {
            snapshot.inbox_now = reported.inbox_now;
            snapshot.inbox_avg = reported.inbox_avg;
            snapshot.outbox_now = reported.outbox_now;
            snapshot.outbox_avg = reported.outbox_avg;
        }
        snapshot
    }
}

/// One published copy of a piece of content.
#[derive(Debug, Clone)]
pub(crate) struct Holding {
    pub(crate) peer: PeerId,
    pub(crate) node: NodeId,
    pub(crate) content: crate::id::ContentId,
    pub(crate) size: u64,
}

/// A gossiped candidate plus the virtual time its sending broker took
/// the snapshot, so selection can apply a staleness window. The view is
/// the sender's allocation, shared with every other broker the roster
/// went to.
pub(crate) struct RemoteView {
    pub(crate) view: Arc<CandidateView>,
    /// When the view was last vouched for — unless it is booked, in which
    /// case its book's `sent_at` is (read through [`Books::as_of`]).
    pub(super) as_of: SimTime,
    /// This holder's share of the view allocation, in bytes (see the
    /// once-only rule in [`crate::footprint`]). Fixed when the view is
    /// learnt so the footprint pass never chases the pointer.
    pub(super) charge: u32,
    /// The book of the sender whose last roster carries this allocation
    /// as a marked row, or [`UNBOOKED`](super::books::UNBOOKED).
    pub(super) book: u32,
}

/// Estimated heap bytes of one shared view allocation: the refcounted
/// view plus the name bytes it pins.
fn view_alloc_bytes(view: &CandidateView) -> u64 {
    ARC_HEADER_BYTES + std::mem::size_of::<CandidateView>() as u64 + view.name.len() as u64
}

/// The one thing a broker knows of a peer id.
pub(super) enum Membership {
    /// Registered here; the slab slot of its entry.
    Local(u32),
    /// Known from a fellow broker's gossip.
    Remote(RemoteView),
    /// Seen to leave this broker, and when. A gossiped view older than the
    /// tombstone is a stale echo and must not resurrect the peer; a newer
    /// one proves it rejoined elsewhere and replaces the tombstone.
    Departed(SimTime),
}

/// The membership layer: registered peers, their statistics, published
/// content, and the federation roster.
#[derive(Default)]
pub(crate) struct PeerRegistry {
    /// Entry slab; `None` marks a recyclable slot left by an eviction.
    pub(super) entries: Vec<Option<PeerEntry>>,
    /// Free slot indices, reused LIFO so churn does not grow the slab.
    free: Vec<u32>,
    /// Peer → what is known of it: registered, rumoured, or departed.
    pub(super) members: IdMap<PeerId, Membership>,
    /// Host → its local occupant and the remote views claiming it.
    pub(super) hosts: HostTable,
    /// Sum of `charge` over the remote views held, kept where views are
    /// stored, replaced and dropped so the per-tick footprint pass does
    /// not walk them.
    pub(super) remote_charge: u64,
    /// Read-side state: which cached snapshots are due, and the
    /// node-sorted order a petition reads the roster through.
    pub(super) read: ReadIndex,
    /// The last roster each fellow broker sent, and which of its rows
    /// are held here unchanged.
    pub(super) books: Books,
    /// Last time each fellow broker was heard from (gossip or forwarded
    /// petitions): the heartbeat table failover liveness reads.
    broker_heartbeats: IdMap<NodeId, SimTime>,
    /// Published content by name → holders.
    content: HashMap<String, Vec<Holding>>,
    /// Interned display names by host, so record keeping on the transfer
    /// and task hot paths clones an `Arc` instead of allocating a String.
    names: IdMap<NodeId, Arc<str>>,
    /// Membership probes the gossip receive path has made.
    #[cfg(test)]
    pub(super) member_probes: u64,
}

impl PeerRegistry {
    pub(crate) fn new() -> Self {
        PeerRegistry::default()
    }

    /// Number of registered peers.
    pub(crate) fn peer_count(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Capacity of the entry slab (occupied + recyclable slots). Bounded
    /// by the high-water mark of concurrent peers, not by total joins.
    #[cfg(test)]
    pub(crate) fn slab_capacity(&self) -> usize {
        self.entries.len()
    }

    /// Counts a membership probe on the gossip receive path.
    #[inline]
    pub(super) fn count_probe(&mut self) {
        #[cfg(test)]
        {
            self.member_probes += 1;
        }
    }

    /// Whether any peer is registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.peer_count() == 0
    }

    /// The slab slot of `peer`, if it is registered here.
    fn slot_of(&self, peer: PeerId) -> Option<u32> {
        match self.members.get(&peer) {
            Some(&Membership::Local(slot)) => Some(slot),
            _ => None,
        }
    }

    /// Whether `peer` is a registered member.
    pub(crate) fn has_peer(&self, peer: PeerId) -> bool {
        self.slot_of(peer).is_some()
    }

    /// The registered peer living on `node`, if any.
    pub(crate) fn peer_of(&self, node: NodeId) -> Option<PeerId> {
        self.hosts.local(node)
    }

    /// Shared access to a registered peer's entry.
    pub(crate) fn entry(&self, peer: PeerId) -> Option<&PeerEntry> {
        self.slot_of(peer)
            .and_then(|slot| self.entries[slot as usize].as_ref())
    }

    /// Mutable access to a registered peer's entry — the only way to
    /// change one, so its cached snapshot is listed for re-evaluation.
    pub(crate) fn entry_mut(&mut self, peer: PeerId) -> Option<&mut PeerEntry> {
        let slot = self.slot_of(peer)?;
        self.read.touch(slot);
        self.entries[slot as usize].as_mut()
    }

    /// All occupied entries, in slab order (deterministic: slot assignment
    /// is a pure function of the join/leave event order).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &PeerEntry> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }

    /// The host of a registered peer.
    pub(crate) fn node_of(&self, peer: PeerId) -> Option<NodeId> {
        self.entry(peer).map(|e| e.view.node)
    }

    /// The interned display name of `node`, allocated at most once per host.
    pub(crate) fn display_name(&mut self, ctx: &Context<OverlayMsg>, node: NodeId) -> Arc<str> {
        self.names
            .entry(node)
            .or_insert_with(|| Arc::from(ctx.node_name(node)))
            .clone()
    }

    /// Admits (or refreshes) a peer from its advertisement.
    ///
    /// A re-join **refreshes** the view's node, interned name and
    /// `cpu_gops`, and the host table (unmapping the old host when the
    /// peer moved) while preserving accumulated statistics, the last
    /// reported snapshot, and interaction history — at the registry level
    /// a rejoin is indistinguishable from a duplicate-Join retransmission,
    /// so identity must survive. First-hand admission also replaces
    /// whatever else was known of the peer: a federation rumor, or a
    /// tombstone from an earlier departure.
    ///
    /// A host runs one peer: a Join from a node that already carries a
    /// *different* identity supersedes the old occupant (crash-rejoin
    /// without a Leave), keeping peers and occupied hosts a bijection. The
    /// superseded identity is expelled here, the only membership table,
    /// and returned. The views claiming the host are shadowed from now on,
    /// so each loses its book mark.
    pub(crate) fn admit(&mut self, adv: PeerAdvertisement, now: SimTime) -> Option<PeerId> {
        let peer = adv.peer;
        let cpu = adv.cpu_gops;
        self.read.invalidate_order();
        let known = self.slot_of(peer);
        if known.is_none() {
            if let Some(Membership::Remote(rumor)) = self.members.remove(&peer) {
                self.release(peer, &rumor);
            }
        }
        let superseded = self.hosts.local(adv.node).filter(|&p| p != peer);
        if let Some(prev) = superseded {
            self.expel(prev);
        }
        if self.hosts.set_local(adv.node, peer) {
            for claimant in self.hosts.spilled(adv.node) {
                if let Some(Membership::Remote(remote)) = self.members.get_mut(claimant) {
                    self.books.revoke(remote);
                }
            }
        }
        if let Some(slot) = known {
            self.read.touch(slot);
            let entry = self.entries[slot as usize]
                .as_mut()
                .expect("a local member's slot is occupied");
            if entry.view.node != adv.node {
                self.hosts.clear_local(entry.view.node, peer);
            }
            if &*entry.view.name != adv.name.as_str() {
                entry.view.name = Arc::from(adv.name);
            }
            entry.view.node = adv.node;
            entry.view.cpu_gops = cpu;
            entry.stats.cpu_gops = cpu;
            return superseded;
        }
        let entry = PeerEntry {
            view: CandidateView {
                peer,
                node: adv.node,
                name: Arc::from(adv.name),
                cpu_gops: cpu,
                snapshot: StatsSnapshot::empty(cpu),
                history: InteractionHistory::empty(),
            },
            published: None,
            stats: PeerStats::new(now, cpu),
            reported: None,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        self.members.insert(peer, Membership::Local(slot));
        self.read.touch(slot);
        superseded
    }

    /// Evicts a peer (voluntary leave), forgetting its entry and host
    /// mapping and recycling its slab slot. Content holdings are filtered
    /// lazily at discovery/serve time via [`PeerRegistry::has_peer`].
    pub(crate) fn expel(&mut self, peer: PeerId) -> bool {
        let Entry::Occupied(held) = self.members.entry(peer) else {
            return false;
        };
        let Membership::Local(slot) = *held.get() else {
            return false;
        };
        held.remove();
        self.read.invalidate_order();
        let entry = self.entries[slot as usize]
            .take()
            .expect("a local member's slot is occupied");
        self.hosts.clear_local(entry.view.node, peer);
        self.free.push(slot);
        true
    }

    /// Records a federation-learnt candidate view taken at `as_of`,
    /// unless it concerns a peer already registered here, would shadow a
    /// host that has a locally-registered peer (never trust a relay over
    /// first-hand knowledge), or is a stale echo of a peer this broker
    /// already saw depart. A view *newer* than the departure tombstone
    /// proves the peer rejoined elsewhere and replaces it. Returns whether
    /// the view was stored.
    ///
    /// A stored view shares the sender's allocation; `recipients` is how many
    /// brokers that roster went to, which fixes this holder's share of it
    /// in the footprint. When the view already held *is* that allocation,
    /// nothing it says has changed: only `as_of` moves. If it moves
    /// forward the order index stays valid — it holds the same allocation
    /// — and its expiry hint is at worst early, which costs a rebuild and
    /// changes no read.
    ///
    /// A stored view is booked to `book` (or to none,
    /// [`UNBOOKED`](super::books::UNBOOKED)); the caller marks its row
    /// there. Whatever book the held view was on loses it.
    pub(crate) fn learn_remote(
        &mut self,
        view: &Arc<CandidateView>,
        as_of: SimTime,
        recipients: u32,
        book: u32,
    ) -> bool {
        let (peer, node) = (view.peer, view.node);
        self.count_probe();
        let mut member = self.members.entry(peer);
        let mut held = None;
        if let Entry::Occupied(known) = &mut member {
            match known.get_mut() {
                Membership::Local(_) => return false,
                Membership::Departed(left_at) if as_of <= *left_at => return false,
                Membership::Departed(_) => {}
                Membership::Remote(remote) if Arc::ptr_eq(&remote.view, view) => {
                    if self.hosts.local(node).is_some() {
                        return false;
                    }
                    self.books.revoke(remote);
                    // A round overtaken on the way: the view now expires
                    // sooner than the order index was told.
                    if as_of < remote.as_of {
                        self.read.invalidate_order();
                    }
                    remote.as_of = as_of;
                    remote.book = book;
                    return true;
                }
                Membership::Remote(remote) => {
                    self.books.revoke(remote);
                    held = Some((remote.view.node, remote.charge));
                }
            }
        }
        let Some(host) = self.hosts.unoccupied(node) else {
            return false;
        };
        self.read.invalidate_order();
        let charge = view_alloc_bytes(view).div_ceil(u64::from(recipients.max(1))) as u32;
        self.remote_charge += u64::from(charge);
        let remote = Membership::Remote(RemoteView {
            view: Arc::clone(view),
            as_of,
            charge,
            book,
        });
        match member {
            Entry::Occupied(mut known) => *known.get_mut() = remote,
            Entry::Vacant(unknown) => {
                unknown.insert(remote);
            }
        }
        match held {
            Some((old_node, old_charge)) => {
                self.remote_charge -= u64::from(old_charge);
                // A view that stayed on its host keeps the claim it has.
                if old_node != node {
                    host.claim(peer);
                    self.hosts.unclaim(old_node, peer);
                }
            }
            None => host.claim(peer),
        }
        true
    }

    /// Settles the books for a remote view that is no longer held: its
    /// mark, its claim on its host, its share of the footprint, the order
    /// index.
    fn release(&mut self, peer: PeerId, gone: &RemoteView) {
        self.books.unmark(gone);
        self.hosts.unclaim(gone.view.node, peer);
        self.remote_charge -= u64::from(gone.charge);
        self.read.invalidate_order();
    }

    /// Drops the federation view of `peer`, if one is held.
    fn forget_remote(&mut self, peer: PeerId) {
        if matches!(self.members.get(&peer), Some(Membership::Remote(_))) {
            if let Some(Membership::Remote(rumor)) = self.members.remove(&peer) {
                self.release(peer, &rumor);
            }
        }
    }

    /// Records that `peer` left this broker at `now`, so later gossip
    /// snapshots taken before the departure cannot resurrect it. Called
    /// once the peer is neither registered nor rumoured here.
    pub(crate) fn note_departed(&mut self, peer: PeerId, now: SimTime) {
        let known = self.members.insert(peer, Membership::Departed(now));
        debug_assert!(
            matches!(known, None | Some(Membership::Departed(_))),
            "a tombstone replaces nothing but an older tombstone"
        );
    }

    /// Records that fellow broker `node` was heard from at `now`.
    pub(crate) fn note_broker_alive(&mut self, node: NodeId, now: SimTime) {
        self.broker_heartbeats.insert(node, now);
    }

    /// Heartbeat liveness: a fellow broker is presumed alive until it has
    /// been silent longer than `bound`. Never-heard brokers are presumed
    /// alive (the federation may simply not have gossiped yet).
    pub(crate) fn broker_alive(&self, node: NodeId, now: SimTime, bound: SimDuration) -> bool {
        match self.broker_heartbeats.get(&node) {
            Some(&heard) => now - heard <= bound,
            None => true,
        }
    }

    /// Forgets every federation view of `peer` and of anything claiming to
    /// live on `node` (a departed peer must not survive as a rumor).
    pub(crate) fn purge_remote(&mut self, peer: PeerId, node: NodeId) {
        self.forget_remote(peer);
        for claimant in self.hosts.take_claims(node) {
            if let Some(Membership::Remote(rumor)) = self.members.remove(&claimant) {
                self.books.unmark(&rumor);
                self.remote_charge -= u64::from(rumor.charge);
            }
            self.read.invalidate_order();
        }
    }

    /// Number of federation-learnt (non-local) candidate views.
    #[cfg(test)]
    pub(crate) fn remote_count(&self) -> usize {
        self.remote_views().count()
    }

    /// The federation views held, in no particular order.
    #[cfg(test)]
    pub(super) fn remote_views(&self) -> impl Iterator<Item = &RemoteView> {
        self.members.values().filter_map(|known| match known {
            Membership::Remote(remote) => Some(remote),
            _ => None,
        })
    }

    /// All registered hosts, in deterministic order.
    pub(crate) fn registered_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.entries().map(|e| e.view.node).collect();
        nodes.sort(); // deterministic order
        nodes
    }

    /// The published holdings of `name`, if any.
    pub(crate) fn holdings(&self, name: &str) -> Option<&Vec<Holding>> {
        self.content.get(name)
    }

    /// Mutable access to the holdings list for `name`, creating it empty.
    pub(crate) fn holdings_mut(&mut self, name: &str) -> &mut Vec<Holding> {
        self.content.entry(name.to_string()).or_default()
    }

    /// Structural invariants, checked by tests after every mutation:
    /// membership↔slab agreement, the peers↔occupied-hosts bijection, one
    /// claim per remote view, slot and charge accounting, booked views ↔
    /// marked book rows. (That a peer is
    /// at most one of registered, rumoured and departed is the membership
    /// table's shape, not a check.)
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let occupied = self.entries.iter().filter(|e| e.is_some()).count();
        assert_eq!(occupied, self.peer_count());
        assert_eq!(
            self.free.len() + occupied,
            self.entries.len(),
            "every slot is occupied or free"
        );
        let (mut local, mut remote, mut charge, mut booked) = (0, 0, 0, 0);
        for (&peer, known) in &self.members {
            match known {
                Membership::Local(slot) => {
                    local += 1;
                    let entry = self.entries[*slot as usize]
                        .as_ref()
                        .expect("a local member's slot is occupied");
                    assert_eq!(entry.view.peer, peer, "slab slot agrees with its key");
                    assert_eq!(entry.view.cpu_gops, entry.stats.cpu_gops);
                    assert_eq!(
                        self.hosts.local(entry.view.node),
                        Some(peer),
                        "registered peer's current node maps back to it"
                    );
                }
                Membership::Remote(held) => {
                    remote += 1;
                    charge += u64::from(held.charge);
                    assert_eq!(held.view.peer, peer, "remote view keyed by its peer");
                    assert!(
                        self.hosts.claims(held.view.node, peer),
                        "every remote view is indexed under the host it claims"
                    );
                    if held.book != super::books::UNBOOKED {
                        booked += 1;
                        assert!(
                            self.hosts.local(held.view.node).is_none(),
                            "a booked view's host has no local occupant"
                        );
                    }
                }
                Membership::Departed(_) => {}
            }
        }
        assert_eq!(local, occupied, "local members cover the slab");
        for (node, peer) in self.hosts.locals() {
            let entry = self.entry(peer).expect("a host's occupant is a member");
            assert_eq!(entry.view.node, node, "no stale host mapping");
        }
        assert_eq!(
            self.hosts.claim_count(),
            remote,
            "the host table holds no claim but the remote views'"
        );
        assert_eq!(self.remote_charge, charge, "the running charge is the sum");
        let mut marked = 0;
        for (b, view) in self.books.marked() {
            marked += 1;
            assert!(
                matches!(self.members.get(&view.peer),
                    Some(Membership::Remote(held)) if held.book == b && Arc::ptr_eq(&held.view, view)),
                "a marked row's view is held here, booked to its book"
            );
        }
        assert_eq!(marked, booked, "every booked view is a marked row");
        self.books.check();
        self.hosts.check();
        self.read.check(&self.entries);
    }
}

impl MemoryFootprint for PeerRegistry {
    /// Length-based heap estimate (see [`crate::footprint`]): entry slots
    /// (each with its in-place candidate view and the pointer to the copy
    /// it last published), the membership and host rows of registered
    /// peers, and the read index under `roster`; the windowed-ratio rings
    /// and boxed peer reports that exist under `stats`; the content
    /// directory under `content`; and federation state under `gossip`:
    /// every other membership row (a remote view's key, pointer, timestamp,
    /// share and book, or a tombstone — a row is as wide as its widest
    /// state), every other host row, the spill lists, this holder's share
    /// of each shared view allocation, and the books (the marks, and this
    /// holder's share of each retained roster slice).
    fn memory_footprint(&self) -> FootprintBreakdown {
        let local = self.peer_count();
        let local_rows =
            map_estimate::<PeerId, Membership>(local) + map_estimate::<NodeId, Host>(local);
        let mut fp = FootprintBreakdown {
            roster: slots_estimate::<Option<PeerEntry>>(self.entries.len())
                + slots_estimate::<u32>(self.free.len())
                + local_rows
                + map_estimate::<NodeId, Arc<str>>(self.names.len())
                + self.read.heap_bytes(),
            gossip: map_estimate::<PeerId, Membership>(self.members.len())
                + self.hosts.heap_bytes()
                - local_rows
                + self.remote_charge
                + self.books.heap_bytes()
                + map_estimate::<NodeId, SimTime>(self.broker_heartbeats.len()),
            ..FootprintBreakdown::default()
        };
        for name in self.names.values() {
            fp.roster += name.len() as u64;
        }
        for entry in self.entries() {
            fp.roster += entry.view.name.len() as u64;
            fp.stats += entry.stats.message_window.heap_bytes();
            if entry.reported.is_some() {
                fp.stats += std::mem::size_of::<StatsSnapshot>() as u64;
            }
        }
        for (key, holdings) in &self.content {
            fp.content += key.len() as u64 + slots_estimate::<Holding>(holdings.len());
        }
        fp
    }
}

impl Broker {
    pub(crate) fn on_join(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        adv: PeerAdvertisement,
    ) {
        self.registry.admit(adv, ctx.now());
        ctx.send(from, OverlayMsg::JoinAck);
        self.bump(ctx, |c| c.joins);
    }

    pub(crate) fn on_leave(&mut self, ctx: &mut Context<OverlayMsg>, peer: PeerId) {
        let node = self.registry.node_of(peer);
        self.registry.expel(peer);
        if let Some(node) = node {
            // A departed peer must vanish from every roster the broker can
            // still hand to selection: the federation cache and the queue
            // of deferred commands aimed at its host. The tombstone keeps
            // later-arriving gossip snapshots taken *before* the departure
            // from resurrecting it.
            self.registry.purge_remote(peer, node);
            self.registry.note_departed(peer, ctx.now());
            self.schedule.cancel_for_node(node);
        }
        self.maybe_stop(ctx);
    }

    pub(crate) fn on_stats_report(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        peer: PeerId,
        snapshot: Box<StatsSnapshot>,
    ) {
        let now = ctx.now();
        if let Some(entry) = self.registry.entry_mut(peer) {
            entry.reported = Some(snapshot);
            entry.stats.record_message(now, true);
        }
    }

    pub(crate) fn on_publish_content(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        adv: ContentAdvertisement,
    ) {
        let node = self.registry.node_of(adv.owner).unwrap_or(from);
        self.registry.holdings_mut(&adv.name).push(Holding {
            peer: adv.owner,
            node,
            content: adv.content,
            size: adv.size_bytes,
        });
        self.bump(ctx, |c| c.content_published);
    }

    pub(crate) fn on_broker_gossip(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from_broker: NodeId,
        sent_at: SimTime,
        recipients: u32,
        roster: Arc<[Arc<CandidateView>]>,
    ) {
        self.registry.note_broker_alive(from_broker, ctx.now());
        // Never shadow a locally-registered peer with a relay, and never
        // resurrect one this broker already saw depart.
        let dropped = self
            .registry
            .absorb(from_broker, roster, sent_at, recipients);
        self.bump_by(ctx, |c| c.stale_views_dropped, dropped);
        self.bump(ctx, |c| c.gossip_received);
    }

    pub(crate) fn on_gossip_timer(&mut self, ctx: &mut Context<OverlayMsg>) {
        let now = ctx.now();
        // Only locally-registered peers are gossiped (no relaying relays):
        // one roster, shared by every fellow broker's copy of the message.
        let roster = self.registry.local_roster(now, STATS_K_HOURS);
        let me = ctx.self_id();
        let recipients = self.cfg.peer_brokers.len() as u32;
        for &b in &self.cfg.peer_brokers {
            ctx.send(
                b,
                OverlayMsg::BrokerGossip {
                    from_broker: me,
                    sent_at: now,
                    recipients,
                    roster: Arc::clone(&roster),
                },
            );
        }
        // Publish the registry's estimated heap footprint on the gossip
        // cadence.
        let fp = self.registry.memory_footprint();
        let gauges = self
            .footprint_gauges
            .get_or_insert_with(|| FootprintGauges::resolve(ctx.metrics(), me));
        let metrics = ctx.metrics();
        metrics.set_gauge_id(gauges.bytes, fp.total() as f64);
        metrics.set_gauge_id(gauges.peers, self.registry.peer_count() as f64);
        for (id, (_, bytes)) in gauges.components.into_iter().zip(fp.components()) {
            metrics.set_gauge_id(id, bytes as f64);
        }
        ctx.schedule_timer(self.cfg.gossip_interval, super::GOSSIP_TAG);
    }
}

#[cfg(test)]
#[path = "registry_tests.rs"]
mod tests;
