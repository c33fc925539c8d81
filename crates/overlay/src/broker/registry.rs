//! The peer registry: who is in the overlay and what the broker knows
//! about each member.
//!
//! [`PeerRegistry`] owns the peer entries (candidate view, broker-side
//! statistics, peer-reported queue gauges, observed interaction history), the
//! published-content index, the federation roster learnt from fellow
//! brokers, and an interned host-name cache so hot paths never re-allocate
//! display names. The membership/content/statistics message handlers live
//! here as `impl Broker` blocks; the actor merely dispatches to them.
//!
//! Storage is a **slab**: entries live in one contiguous `Vec` and freed
//! slots are recycled LIFO, so under churn a million-peer roster occupies
//! memory proportional to the *concurrent* population, not the total
//! number of joins. Each entry points at the one [`CandidateView`]
//! selection and gossip read — the live interaction history and a cached
//! statistics snapshot — so a petition borrows the roster instead of
//! copying it, and a gossip round publishes the allocation itself;
//! [`PeerRegistry::occupant_mut`] is the one way to change an entry and is
//! what marks its cached snapshot for re-evaluation. The read side (cache
//! refresh, node-sorted order index, the borrowed
//! [`super::roster::RosterView`], the roster a gossip round publishes)
//! lives in [`super::roster`].
//!
//! Views learnt from fellow brokers, and tombstones, live in a second
//! slab ([`super::remote`]). Two tables index all of it, and name a peer
//! by its 4-byte slot or handle, never by a view or an id. **Membership**
//! ([`super::members`]), hashed by peer id, maps a peer to the one thing
//! this broker knows of it — [`Membership::Local`] (its entry slot),
//! [`Membership::Remote`] (the handle of a view learnt from a fellow
//! broker) or [`Membership::Departed`] (the handle of a tombstone) — so
//! the three states exclude each other by construction; a slot is 8 B, a
//! hash tag and the state, and the id is read from the row it names. The
//! **host table** ([`super::hosts`]), indexed by node id, maps a host to
//! its local occupant and the remote views claiming it. Learning a
//! gossiped view is one probe into each.
//!
//! The federation roster holds **shared** views: a sender publishes each
//! local peer's `Arc<CandidateView>` and hands out the same allocation
//! every round until the entry changes, every fellow broker's message
//! carries the same roster, and a receiver keeps the sender's pointer
//! rather than a copy. A receiver keeps each sender's last roster in a
//! [`super::books::Book`] and merge-walks the next one against it
//! ([`PeerRegistry::absorb`]), so a view that did not change costs it one
//! pointer compare, and only the changed rows reach
//! [`PeerRegistry::learn_remote`]. A view its sender stopped refreshing is
//! evicted once it outlives the staleness bound.

use std::sync::Arc;

use netsim::engine::Context;
use netsim::idmap::IdMap;
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::advertisement::{ContentAdvertisement, PeerAdvertisement};
use crate::footprint::{
    map_estimate, slots_estimate, view_share, FootprintBreakdown, MemoryFootprint,
};
use crate::id::PeerId;
use crate::message::OverlayMsg;
use crate::selector::{CandidateView, InteractionHistory};
use crate::stats::{PeerStats, QueueReport, StatsSnapshot};

use super::books::Books;
use super::counters::FootprintGauges;
use super::hosts::{HostTable, Row};
use super::members::{MemberSlot, Members, Membership};
use super::remote::{RemoteSlab, RemoteView};
use super::roster::ReadIndex;
use super::{Broker, STATS_K_HOURS};

/// Everything the broker tracks about one registered peer.
///
/// Per-peer history costs memory from the first write that needs it: the
/// message window allocates its ring on its first record, and the peer's
/// own queue gauges get a box on its first report, which later reports
/// overwrite, so a peer that never reports sets nothing aside for one.
pub(crate) struct PeerEntry {
    pub(crate) stats: PeerStats,
    pub(crate) reported: Option<Box<QueueReport>>,
    /// What selection and gossip see of this peer, and the one copy of
    /// what its advertisement said: `peer`, `node`, `name` (interned at
    /// admission, so recording a selection clones a refcount) and
    /// `cpu_gops` are refreshed by every (re-)join; `history` is the live
    /// record the transfer and task paths update; `snapshot` is a cache of
    /// [`PeerEntry::snapshot_at`], brought up to date before any read.
    /// Gossip publishes this allocation, so every write goes through
    /// [`Arc::make_mut`]: a view a fellow broker still holds forks, and
    /// the holder keeps reading what it was sent.
    pub(crate) view: Arc<CandidateView>,
}

impl PeerEntry {
    /// The statistics snapshot selection and gossip see for this peer at
    /// `now`: broker-side stats, with queue gauges overridden by the
    /// peer's own latest report when available.
    pub(super) fn snapshot_at(&self, now: SimTime, stats_k_hours: usize) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot(now, stats_k_hours);
        if let Some(reported) = &self.reported {
            reported.apply_to(&mut snapshot);
        }
        snapshot
    }

    /// The live interaction history, for a write (forks a shared view).
    pub(crate) fn history_mut(&mut self) -> &mut InteractionHistory {
        &mut Arc::make_mut(&mut self.view).history
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

/// The membership layer: registered peers, their statistics, published
/// content, and the federation roster.
#[derive(Default)]
pub(crate) struct PeerRegistry {
    /// Entry slab; `None` marks a recyclable slot left by an eviction.
    pub(super) entries: Vec<Option<PeerEntry>>,
    /// Free slot indices, reused LIFO so churn does not grow the slab.
    free: Vec<u32>,
    /// Peer → what is known of it: registered, rumoured, or departed.
    pub(super) members: Members,
    /// Host → its local occupant and the remote views claiming it.
    pub(super) hosts: HostTable,
    /// The views learnt from fellow brokers, and the tombstones.
    pub(super) remote: RemoteSlab,
    /// Fellow brokers the last gossip round went to: fixes [`view_share`].
    pub(super) published_to: u32,
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
    #[allow(clippy::disallowed_types, reason = "keyed by content names, text")]
    content: std::collections::HashMap<String, Vec<Holding>>,
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
        match self.member(peer) {
            Some((_, Membership::Local(slot))) => Some(slot),
            _ => None,
        }
    }

    /// Whether `peer` is a registered member.
    pub(crate) fn has_peer(&self, peer: PeerId) -> bool {
        self.slot_of(peer).is_some()
    }

    /// The peer registered in slab slot `slot`.
    fn peer_at(&self, slot: u32) -> PeerId {
        let entry = self.entries[slot as usize].as_ref();
        entry.expect("a local member's slot is occupied").view.peer
    }

    /// The registered peer living on `node`, if any.
    #[cfg(test)]
    pub(crate) fn peer_of(&self, node: NodeId) -> Option<PeerId> {
        self.hosts.local(node).map(|slot| self.peer_at(slot))
    }

    /// Shared access to a registered peer's entry.
    pub(crate) fn entry(&self, peer: PeerId) -> Option<&PeerEntry> {
        self.slot_of(peer)
            .and_then(|slot| self.entries[slot as usize].as_ref())
    }

    /// [`PeerRegistry::occupant_mut`] by peer id.
    #[cfg(test)]
    pub(crate) fn entry_mut(&mut self, peer: PeerId) -> Option<&mut PeerEntry> {
        let slot = self.slot_of(peer)?;
        self.read.touch(slot);
        self.entries[slot as usize].as_mut()
    }

    /// Mutable access to the entry of the peer registered on `node`, read
    /// through its host row — the only way to change an entry, so its
    /// cached snapshot is listed for re-evaluation.
    pub(crate) fn occupant_mut(&mut self, node: NodeId) -> Option<&mut PeerEntry> {
        let slot = self.hosts.local(node)?;
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
    /// reported queue gauges, and interaction history — at the registry level
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
        let (peer, node, cpu) = (adv.peer, adv.node, adv.cpu_gops);
        self.read.invalidate_order();
        let known = match self.member(peer) {
            Some((_, Membership::Local(slot))) => Some(slot),
            Some((i, Membership::Remote(h))) => {
                self.members.remove_at(i);
                self.release(h);
                None
            }
            Some((i, Membership::Departed(t))) => {
                self.members.remove_at(i);
                self.remote.exhume(t);
                None
            }
            None => None,
        };
        let superseded = self.hosts.local(node).filter(|&s| Some(s) != known);
        let superseded = superseded.map(|slot| self.peer_at(slot));
        if let Some(prev) = superseded {
            self.expel(prev);
        }
        let slot = match known {
            Some(slot) => {
                let entry = self.entries[slot as usize]
                    .as_mut()
                    .expect("a local member's slot is occupied");
                if entry.view.node != node {
                    self.hosts.clear_local(entry.view.node, slot);
                }
                let view = Arc::make_mut(&mut entry.view);
                if &*view.name != adv.name.as_str() {
                    view.name = Arc::from(adv.name);
                }
                view.node = node;
                view.cpu_gops = cpu;
                slot
            }
            None => self.hold(PeerEntry {
                view: Arc::new(CandidateView {
                    peer,
                    node,
                    name: Arc::from(adv.name),
                    cpu_gops: cpu,
                    snapshot: StatsSnapshot::empty(cpu),
                    history: InteractionHistory::empty(),
                }),
                stats: PeerStats::new(now),
                reported: None,
            }),
        };
        self.read.touch(slot);
        if self.hosts.set_local(node, slot) {
            for &h in self.hosts.spilled(node) {
                self.books.revoke(self.remote.get_mut(h));
            }
        }
        superseded
    }

    /// Stores a new peer's entry in a free slab slot and registers it.
    fn hold(&mut self, entry: PeerEntry) -> u32 {
        let peer = entry.view.peer;
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
        self.members.insert_new(peer, Membership::Local(slot));
        slot
    }

    /// Evicts a peer (voluntary leave), forgetting its entry and host
    /// mapping and recycling its slab slot. Content holdings are filtered
    /// lazily at discovery/serve time via [`PeerRegistry::has_peer`].
    pub(crate) fn expel(&mut self, peer: PeerId) -> bool {
        let Some((i, Membership::Local(slot))) = self.member(peer) else {
            return false;
        };
        self.members.remove_at(i);
        self.read.invalidate_order();
        let entry = self.entries[slot as usize]
            .take()
            .expect("a local member's slot is occupied");
        self.hosts.clear_local(entry.view.node, slot);
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
        let member = self.member(peer);
        let mut held = None;
        if let Some((_, known)) = member {
            match known {
                Membership::Local(_) => return false,
                Membership::Departed(t) if as_of <= self.remote.left_at(t) => return false,
                Membership::Departed(_) => {}
                Membership::Remote(h) => {
                    let remote = self.remote.get_mut(h);
                    let same = Arc::ptr_eq(&remote.view, view);
                    if same && self.hosts.local(node).is_some() {
                        return false;
                    }
                    self.books.revoke(remote);
                    if same {
                        // A round overtaken on the way: the view now
                        // expires sooner than the order index was told.
                        if as_of < remote.as_of {
                            self.read.invalidate_order();
                        }
                        remote.as_of = as_of;
                        remote.book = book;
                        return true;
                    }
                    held = Some(h);
                }
            }
        }
        if self.hosts.local(node).is_some() {
            return false;
        }
        self.read.invalidate_order();
        let remote = RemoteView {
            view: Arc::clone(view),
            as_of,
            charge: view_share(view, recipients) as u32,
            book,
        };
        match held {
            Some(h) => {
                let old_node = self.remote.replace(h, remote).view.node;
                // A view that stayed on its host keeps the claim it has.
                if old_node != node {
                    self.hosts.claim(node, h);
                    self.hosts.unclaim(old_node, h);
                }
            }
            None => {
                let h = self.remote.hold(remote);
                match member {
                    Some((i, Membership::Departed(t))) => {
                        self.members.set(i, Membership::Remote(h));
                        self.remote.exhume(t);
                    }
                    _ => self.members.insert_new(peer, Membership::Remote(h)),
                }
                self.hosts.claim(node, h);
            }
        }
        true
    }

    /// Settles the books for the remote view under handle `h`, which is no
    /// longer held: its mark, its claim on its host, its row, the order
    /// index.
    fn release(&mut self, h: u32) {
        let gone = self.remote.take(h);
        self.books.unmark(&gone);
        self.hosts.unclaim(gone.view.node, h);
        self.read.invalidate_order();
    }

    /// Drops the federation view of `peer`, if one is held.
    fn forget_remote(&mut self, peer: PeerId) {
        if let Some((i, Membership::Remote(h))) = self.member(peer) {
            self.members.remove_at(i);
            self.release(h);
        }
    }

    /// Records that `peer` left this broker at `now`, so later gossip
    /// snapshots taken before the departure cannot resurrect it. Called
    /// once the peer is neither registered nor rumoured here.
    pub(crate) fn note_departed(&mut self, peer: PeerId, now: SimTime) {
        let known = self.member(peer).map(|(_, known)| known);
        debug_assert!(
            matches!(known, None | Some(Membership::Departed(_))),
            "a tombstone replaces nothing but an older tombstone"
        );
        match known {
            Some(Membership::Departed(t)) => self.remote.rebury(t, now),
            _ => {
                let t = self.remote.bury(peer, now);
                self.members.insert_new(peer, Membership::Departed(t));
            }
        }
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
        for h in self.hosts.take_claims(node) {
            let rumor = self.remote.take(h);
            self.members
                .remove_known(rumor.view.peer, Membership::Remote(h));
            self.books.unmark(&rumor);
            self.read.invalidate_order();
        }
    }

    /// Number of federation-learnt (non-local) candidate views.
    #[cfg(test)]
    pub(crate) fn remote_count(&self) -> usize {
        self.remote.len()
    }

    /// The federation views held, in no particular order.
    #[cfg(test)]
    pub(super) fn remote_views(&self) -> impl Iterator<Item = &RemoteView> {
        self.remote.iter().map(|(_, remote)| remote)
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
    /// membership↔slab agreement (a slot's or a handle's row names the
    /// peer it is keyed by; every live row of either slab has exactly one
    /// member, and free lists are disjoint from live rows), the
    /// peers↔occupied-hosts bijection, one claim per remote view, charge
    /// accounting, booked views ↔ marked book rows. (That a peer is at
    /// most one of registered, rumoured and departed is the membership
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
        let (mut local, mut views, mut tombstones, mut booked) = (0, Vec::new(), Vec::new(), 0);
        for known in self.members.iter() {
            let peer = super::members::key_of(&self.entries, &self.remote, known);
            assert!(
                matches!(self.member(peer), Some((_, found)) if found == known),
                "every member is found under the key its row names"
            );
            match known {
                Membership::Local(slot) => {
                    local += 1;
                    let entry = self.entries[slot as usize]
                        .as_ref()
                        .expect("a local member's slot is occupied");
                    assert_eq!(
                        self.hosts.local(entry.view.node),
                        Some(slot),
                        "registered peer's current node maps back to it"
                    );
                }
                Membership::Remote(h) => {
                    views.push(h);
                    let held = self.remote.get(h);
                    assert!(
                        self.hosts.claims(held.view.node, h),
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
                Membership::Departed(t) => tombstones.push(t),
            }
        }
        assert_eq!(local, occupied, "local members cover the slab");
        for (node, slot) in self.hosts.locals() {
            let entry = self.entries[slot as usize].as_ref();
            let entry = entry.expect("a host's occupant is a member");
            assert_eq!(entry.view.node, node, "no stale host mapping");
        }
        assert_eq!(
            self.hosts.claim_count(),
            views.len(),
            "the host table holds no claim but the remote views'"
        );
        let mut marked = 0;
        for (b, view) in self.books.marked() {
            marked += 1;
            assert!(
                matches!(self.member(view.peer), Some((_, Membership::Remote(h)))
                    if self.remote.get(h).book == b && Arc::ptr_eq(&self.remote.get(h).view, view)),
                "a marked row's view is held here, booked to its book"
            );
        }
        assert_eq!(marked, booked, "every booked view is a marked row");
        self.remote.check(views, tombstones);
        self.books.check();
        self.hosts.check();
        self.read.check(&self.entries, &self.remote);
    }
}

impl MemoryFootprint for PeerRegistry {
    /// Length-based heap estimate (see [`crate::footprint`]): entry slots,
    /// this owner's share of each local view allocation, the membership
    /// and host rows of registered peers, and the read index under
    /// `roster`; the windowed-ratio rings and boxed queue reports that
    /// exist under `stats`; the content directory under `content`; and
    /// federation state under `gossip`: every other membership slot (a
    /// tag and a handle), every other host row (claimed, or unheld below
    /// the highest node id written), the spill lists, the remote slab (a
    /// row per view — pointer, timestamp, share and book — and a time and
    /// a peer id per tombstone) with this holder's share of each remote
    /// view allocation, and the books (the marks, and this holder's share
    /// of each retained roster slice).
    fn memory_footprint(&self) -> FootprintBreakdown {
        let local = self.peer_count();
        let local_rows = slots_estimate::<MemberSlot>(local) + slots_estimate::<Row>(local);
        let mut fp = FootprintBreakdown {
            roster: slots_estimate::<Option<PeerEntry>>(self.entries.len())
                + slots_estimate::<u32>(self.free.len())
                + local_rows
                + map_estimate::<NodeId, Arc<str>>(self.names.len())
                + self.read.heap_bytes(),
            gossip: slots_estimate::<MemberSlot>(self.members.len()) + self.hosts.heap_bytes()
                - local_rows
                + self.remote.heap_bytes()
                + self.books.heap_bytes()
                + map_estimate::<NodeId, SimTime>(self.broker_heartbeats.len()),
            ..FootprintBreakdown::default()
        };
        for name in self.names.values() {
            fp.roster += name.len() as u64;
        }
        for entry in self.entries() {
            fp.roster += view_share(&entry.view, self.published_to);
            fp.stats += entry.stats.message_window.heap_bytes();
            if entry.reported.is_some() {
                fp.stats += std::mem::size_of::<QueueReport>() as u64;
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

    /// Keeps the queue gauges reported from `from`, for the peer living
    /// there; a host with no registered peer (never joined, or left) is
    /// not heard.
    pub(crate) fn on_stats_report(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        report: QueueReport,
    ) {
        let now = ctx.now();
        if let Some(entry) = self.registry.occupant_mut(from) {
            match &mut entry.reported {
                Some(held) => **held = report,
                None => entry.reported = Some(Box::new(report)),
            }
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
        let recipients = self.cfg.peer_brokers.len() as u32;
        let roster = self.registry.local_roster(now, STATS_K_HOURS, recipients);
        let me = ctx.self_id();
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
