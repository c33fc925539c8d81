//! The peer registry: who is in the overlay and what the broker knows
//! about each member.
//!
//! [`PeerRegistry`] owns the peer entries (advertisement, broker-side
//! statistics, peer-reported snapshot, observed interaction history), the
//! published-content index, the federation roster learnt from fellow
//! brokers, and an interned host-name cache so hot paths never re-allocate
//! display names. The membership/discovery/statistics message handlers
//! live here as `impl Broker` blocks; the actor merely dispatches to them.
//!
//! Storage is a **slab**: entries live in one contiguous `Vec`, freed slots
//! are recycled LIFO, and a `PeerId → slot` index provides O(1) lookup.
//! Under churn a million-peer roster therefore occupies memory proportional
//! to the *concurrent* population, not the total number of joins. Each
//! entry holds the [`CandidateView`] selection and gossip read **in
//! place** — the live interaction history and a cached statistics
//! snapshot — so a petition borrows the roster instead of copying it;
//! [`PeerRegistry::entry_mut`] is the one way to change an entry and is
//! what marks its cached snapshot for re-evaluation. The read side (cache
//! refresh, node-sorted order index, the borrowed [`super::roster::RosterView`])
//! lives in [`super::roster`].
//!
//! The federation roster holds **shared** views: a gossip round builds one
//! `Arc<CandidateView>` per local peer, every fellow broker's message
//! carries the same roster allocation, and a receiver keeps the sender's
//! pointer rather than a copy. A host → claimant index over those views
//! makes a departure's purge a hash lookup instead of a scan, and a view
//! its sender stopped refreshing is evicted once it outlives the
//! staleness bound.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::engine::Context;
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

use super::counters::FootprintGauges;
use super::roster::ReadIndex;
use super::Broker;

/// Everything the broker tracks about one registered peer.
pub(crate) struct PeerEntry {
    pub(crate) adv: PeerAdvertisement,
    pub(crate) stats: PeerStats,
    pub(crate) reported: Option<StatsSnapshot>,
    /// What selection and gossip see of this peer, held in place. `peer`,
    /// `node`, `name` (interned at admission, so recording a selection
    /// clones a refcount) and `cpu_gops` follow the advertisement;
    /// `history` is the live record the transfer and task paths update;
    /// `snapshot` is a cache of [`PeerEntry::snapshot_at`], brought up to
    /// date before any read.
    pub(crate) view: CandidateView,
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
    pub(crate) adv: ContentAdvertisement,
}

/// A gossiped candidate plus the virtual time its sending broker took
/// the snapshot, so selection can apply a staleness window. The view is
/// the sender's allocation, shared with every other broker the roster
/// went to.
pub(crate) struct RemoteView {
    pub(crate) view: Arc<CandidateView>,
    pub(crate) as_of: SimTime,
    /// This holder's share of the view allocation, in bytes (see the
    /// once-only rule in [`crate::footprint`]). Fixed when the view is
    /// learnt so the footprint pass never chases the pointer.
    charge: u32,
}

/// Estimated heap bytes of one shared view allocation: the refcounted
/// view plus the name bytes it pins.
fn view_alloc_bytes(view: &CandidateView) -> u64 {
    ARC_HEADER_BYTES + std::mem::size_of::<CandidateView>() as u64 + view.name.len() as u64
}

/// Which remote views claim each host — the index that lets a departure
/// purge its host's rumors without scanning every remote view. A host
/// nearly always has one claimant, kept inline in `first`; extras (a
/// second-hand view of a peer on a host another remote peer has since
/// taken) spill into `rest`. Each `(node, peer)` pair is stored once.
#[derive(Default)]
pub(super) struct NodeClaims {
    first: HashMap<NodeId, PeerId>,
    rest: HashMap<NodeId, Vec<PeerId>>,
}

impl NodeClaims {
    /// Records that `peer` claims `node`; the pair must not be present.
    fn insert(&mut self, node: NodeId, peer: PeerId) {
        match self.first.entry(node) {
            Entry::Vacant(slot) => {
                slot.insert(peer);
            }
            Entry::Occupied(_) => self.rest.entry(node).or_default().push(peer),
        }
    }

    /// Forgets that `peer` claims `node`, promoting a spilled claimant
    /// into the inline slot when the inline one goes.
    pub(super) fn remove(&mut self, node: NodeId, peer: PeerId) {
        let spilled = self.rest.get_mut(&node);
        if self.first.get(&node) == Some(&peer) {
            match spilled.and_then(Vec::pop) {
                Some(next) => self.first.insert(node, next),
                None => self.first.remove(&node),
            };
        } else if let Some(rest) = spilled {
            rest.retain(|p| *p != peer);
        }
        if self.rest.get(&node).is_some_and(Vec::is_empty) {
            self.rest.remove(&node);
        }
    }

    /// Removes and returns every claimant of `node`.
    fn take(&mut self, node: NodeId) -> impl Iterator<Item = PeerId> {
        let first = self.first.remove(&node);
        let rest = self.rest.remove(&node).unwrap_or_default();
        first.into_iter().chain(rest)
    }

    /// Number of `(node, peer)` pairs.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.first.len() + self.rest.values().map(Vec::len).sum::<usize>()
    }

    /// Whether `peer` is recorded as claiming `node`.
    #[cfg(test)]
    fn contains(&self, node: NodeId, peer: PeerId) -> bool {
        self.first.get(&node) == Some(&peer)
            || self.rest.get(&node).is_some_and(|r| r.contains(&peer))
    }

    fn heap_bytes(&self) -> u64 {
        map_estimate::<NodeId, PeerId>(self.first.len())
            + map_estimate::<NodeId, Vec<PeerId>>(self.rest.len())
            + self
                .rest
                .values()
                .map(|r| slots_estimate::<PeerId>(r.len()))
                .sum::<u64>()
    }
}

/// The membership layer: registered peers, their statistics, published
/// content, and the federation roster.
#[derive(Default)]
pub(crate) struct PeerRegistry {
    /// Entry slab; `None` marks a recyclable slot left by an eviction.
    pub(super) entries: Vec<Option<PeerEntry>>,
    /// Free slot indices, reused LIFO so churn does not grow the slab.
    free: Vec<u32>,
    /// Registered peer → slab slot.
    index: HashMap<PeerId, u32>,
    pub(super) by_node: HashMap<NodeId, PeerId>,
    /// Candidate views learnt from fellow brokers, keyed by peer.
    pub(super) remote_peers: HashMap<PeerId, RemoteView>,
    /// Host → the `remote_peers` entries whose view claims it.
    pub(super) remote_claims: NodeClaims,
    /// Read-side state: which cached snapshots are due, and the
    /// node-sorted order a petition reads the roster through.
    pub(super) read: ReadIndex,
    /// Departure tombstones: peers this broker saw leave, and when. A
    /// gossiped view older than the tombstone is a stale echo and must
    /// not resurrect the peer; a newer one proves it rejoined elsewhere
    /// and clears the tombstone.
    departed: HashMap<PeerId, SimTime>,
    /// Last time each fellow broker was heard from (gossip or forwarded
    /// petitions): the heartbeat table failover liveness reads.
    broker_heartbeats: HashMap<NodeId, SimTime>,
    /// Published content by name → holders.
    content: HashMap<String, Vec<Holding>>,
    /// Interned display names by host, so record keeping on the transfer
    /// and task hot paths clones an `Arc` instead of allocating a String.
    names: HashMap<NodeId, Arc<str>>,
}

impl PeerRegistry {
    pub(crate) fn new() -> Self {
        PeerRegistry::default()
    }

    /// Number of registered peers.
    pub(crate) fn peer_count(&self) -> usize {
        self.index.len()
    }

    /// Capacity of the entry slab (occupied + recyclable slots). Bounded
    /// by the high-water mark of concurrent peers, not by total joins.
    #[cfg(test)]
    pub(crate) fn slab_capacity(&self) -> usize {
        self.entries.len()
    }

    /// Whether any peer is registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `peer` is a registered member.
    pub(crate) fn has_peer(&self, peer: PeerId) -> bool {
        self.index.contains_key(&peer)
    }

    /// The registered peer living on `node`, if any.
    pub(crate) fn peer_of(&self, node: NodeId) -> Option<PeerId> {
        self.by_node.get(&node).copied()
    }

    /// Shared access to a registered peer's entry.
    pub(crate) fn entry(&self, peer: PeerId) -> Option<&PeerEntry> {
        self.index
            .get(&peer)
            .and_then(|&slot| self.entries[slot as usize].as_ref())
    }

    /// Mutable access to a registered peer's entry — the only way to
    /// change one, so its cached snapshot is listed for re-evaluation.
    pub(crate) fn entry_mut(&mut self, peer: PeerId) -> Option<&mut PeerEntry> {
        let slot = *self.index.get(&peer)?;
        self.touch(slot);
        self.entries[slot as usize].as_mut()
    }

    /// All occupied entries, in slab order (deterministic: slot assignment
    /// is a pure function of the join/leave event order).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &PeerEntry> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }

    /// The host of a registered peer.
    pub(crate) fn node_of(&self, peer: PeerId) -> Option<NodeId> {
        self.entry(peer).map(|e| e.adv.node)
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
    /// A re-join **refreshes** the stored advertisement, interned name,
    /// `cpu_gops`, and the node index (unmapping the old host when the
    /// peer moved) while preserving accumulated statistics, the last
    /// reported snapshot, and interaction history — at the registry level
    /// a rejoin is indistinguishable from a duplicate-Join retransmission,
    /// so identity must survive. The peer also stops being a federation
    /// rumor: it is now first-hand knowledge.
    ///
    /// A host runs one peer: a Join from a node that already carries a
    /// *different* identity supersedes the old occupant (crash-rejoin
    /// without a Leave), keeping by_node a bijection. The superseded
    /// identity is returned so the caller can drop it from every other
    /// membership table too.
    pub(crate) fn admit(&mut self, adv: PeerAdvertisement, now: SimTime) -> Option<PeerId> {
        let peer = adv.peer;
        let cpu = adv.cpu_gops;
        self.invalidate_order();
        self.forget_remote(peer);
        // First-hand readmission beats any departure we recorded earlier.
        self.departed.remove(&peer);
        let superseded = self.by_node.get(&adv.node).copied().filter(|&p| p != peer);
        if let Some(prev) = superseded {
            self.expel(prev);
        }
        if let Some(&slot) = self.index.get(&peer) {
            let old_node = self.entries[slot as usize]
                .as_ref()
                .expect("indexed slot occupied")
                .adv
                .node;
            if old_node != adv.node && self.by_node.get(&old_node) == Some(&peer) {
                self.by_node.remove(&old_node);
            }
            self.by_node.insert(adv.node, peer);
            self.touch(slot);
            let entry = self.entries[slot as usize].as_mut().expect("occupied");
            if &*entry.view.name != adv.name.as_str() {
                entry.view.name = Arc::from(adv.name.as_str());
            }
            entry.view.node = adv.node;
            entry.view.cpu_gops = cpu;
            entry.adv = adv;
            entry.stats.cpu_gops = cpu;
            return superseded;
        }
        self.by_node.insert(adv.node, peer);
        let entry = PeerEntry {
            view: CandidateView {
                peer,
                node: adv.node,
                name: Arc::from(adv.name.as_str()),
                cpu_gops: cpu,
                snapshot: StatsSnapshot::empty(cpu),
                history: InteractionHistory::empty(),
            },
            adv,
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
        self.index.insert(peer, slot);
        self.touch(slot);
        superseded
    }

    /// Evicts a peer (voluntary leave), forgetting its entry and node
    /// mapping and recycling its slab slot. Content holdings are filtered
    /// lazily at discovery/serve time via [`PeerRegistry::has_peer`].
    pub(crate) fn expel(&mut self, peer: PeerId) -> bool {
        let Some(slot) = self.index.remove(&peer) else {
            return false;
        };
        self.invalidate_order();
        let entry = self.entries[slot as usize].take().expect("indexed slot");
        if self.by_node.get(&entry.adv.node) == Some(&peer) {
            self.by_node.remove(&entry.adv.node);
        }
        self.free.push(slot);
        true
    }

    /// Records a federation-learnt candidate view taken at `as_of`,
    /// unless it concerns a peer already registered here, would shadow a
    /// host that has a locally-registered peer (never trust a relay over
    /// first-hand knowledge), or is a stale echo of a peer this broker
    /// already saw depart. A view *newer* than the departure tombstone
    /// proves the peer rejoined elsewhere and clears it. Returns whether
    /// the view was stored.
    ///
    /// A stored view shares the sender's allocation; `recipients` is how many
    /// brokers that roster went to, which fixes this holder's share of it
    /// in the footprint.
    pub(crate) fn learn_remote(
        &mut self,
        view: &Arc<CandidateView>,
        as_of: SimTime,
        recipients: u32,
    ) -> bool {
        let (peer, node) = (view.peer, view.node);
        if self.index.contains_key(&peer) || self.by_node.contains_key(&node) {
            return false;
        }
        if let Some(&left_at) = self.departed.get(&peer) {
            if as_of <= left_at {
                return false;
            }
            self.departed.remove(&peer);
        }
        self.invalidate_order();
        let remote = RemoteView {
            view: Arc::clone(view),
            as_of,
            charge: view_alloc_bytes(view).div_ceil(u64::from(recipients.max(1))) as u32,
        };
        match self.remote_peers.entry(peer) {
            Entry::Occupied(mut slot) => {
                let old_node = slot.insert(remote).view.node;
                if old_node != node {
                    self.remote_claims.remove(old_node, peer);
                    self.remote_claims.insert(node, peer);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(remote);
                self.remote_claims.insert(node, peer);
            }
        }
        true
    }

    /// Drops the federation view of `peer`, if one is held.
    fn forget_remote(&mut self, peer: PeerId) {
        if let Some(old) = self.remote_peers.remove(&peer) {
            self.remote_claims.remove(old.view.node, peer);
            self.invalidate_order();
        }
    }

    /// Records that `peer` left this broker at `now`, so later gossip
    /// snapshots taken before the departure cannot resurrect it.
    pub(crate) fn note_departed(&mut self, peer: PeerId, now: SimTime) {
        self.departed.insert(peer, now);
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
        for claimant in self.remote_claims.take(node) {
            self.remote_peers.remove(&claimant);
            self.invalidate_order();
        }
    }

    /// Number of federation-learnt (non-local) candidate views.
    #[cfg(test)]
    pub(crate) fn remote_count(&self) -> usize {
        self.remote_peers.len()
    }

    /// All registered hosts, in deterministic order.
    pub(crate) fn registered_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.by_node.keys().copied().collect();
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

    /// Published content whose name contains `pattern`.
    pub(crate) fn matching_holdings<'a>(
        &'a self,
        pattern: &'a str,
    ) -> impl Iterator<Item = &'a Holding> + 'a {
        self.content
            .iter()
            .filter(move |(name, _)| name.contains(pattern))
            .flat_map(|(_, holdings)| holdings.iter())
    }

    /// Structural invariants, checked by tests after every mutation:
    /// index↔slab agreement, peers↔by_node bijection, slot accounting.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let occupied = self.entries.iter().filter(|e| e.is_some()).count();
        assert_eq!(occupied, self.index.len(), "index covers the slab");
        assert_eq!(
            self.free.len() + occupied,
            self.entries.len(),
            "every slot is occupied or free"
        );
        for (&peer, &slot) in &self.index {
            let entry = self.entries[slot as usize]
                .as_ref()
                .expect("indexed slot occupied");
            assert_eq!(entry.adv.peer, peer, "slab slot agrees with index key");
            assert_eq!(
                (entry.view.peer, entry.view.node, &*entry.view.name),
                (peer, entry.adv.node, entry.adv.name.as_str()),
                "the in-place view follows the advertisement"
            );
            assert_eq!(entry.view.cpu_gops, entry.adv.cpu_gops);
            assert_eq!(
                self.by_node.get(&entry.adv.node),
                Some(&peer),
                "registered peer's current node maps back to it"
            );
        }
        for (&node, &peer) in &self.by_node {
            let entry = self.entry(peer).expect("by_node points at a member");
            assert_eq!(entry.adv.node, node, "no stale node mapping");
        }
        for (&peer, remote) in &self.remote_peers {
            assert_eq!(remote.view.peer, peer, "remote view keyed by its peer");
            assert!(
                !self.index.contains_key(&peer),
                "a registered peer is never also a federation rumor"
            );
            assert!(
                self.remote_claims.contains(remote.view.node, peer),
                "every remote view is indexed under the host it claims"
            );
        }
        assert_eq!(
            self.remote_claims.len(),
            self.remote_peers.len(),
            "the claim index holds nothing but the remote views"
        );
        assert!(
            self.remote_claims
                .rest
                .iter()
                .all(|(node, r)| !r.is_empty() && self.remote_claims.first.contains_key(node)),
            "spill lists are non-empty and only follow an inline claimant"
        );
        self.read.check(&self.entries);
        for peer in self.departed.keys() {
            assert!(
                !self.index.contains_key(peer),
                "a registered peer is never also a departure tombstone"
            );
        }
    }
}

impl MemoryFootprint for PeerRegistry {
    /// Length-based heap estimate (see [`crate::footprint`]): entry slots
    /// (each with its in-place candidate view), id indexes and the read
    /// index under `roster`, windowed-ratio rings under `stats`,
    /// owned advertisement strings under `ads`, the content directory
    /// under `content`, and federation state under `gossip`: the remote
    /// map's slots (key, pointer, timestamp), the host-claim index, and
    /// this holder's share of each shared view allocation.
    fn memory_footprint(&self) -> FootprintBreakdown {
        let mut fp = FootprintBreakdown {
            roster: slots_estimate::<Option<PeerEntry>>(self.entries.len())
                + slots_estimate::<u32>(self.free.len())
                + map_estimate::<PeerId, u32>(self.index.len())
                + map_estimate::<NodeId, PeerId>(self.by_node.len())
                + map_estimate::<NodeId, Arc<str>>(self.names.len())
                + self.read.heap_bytes(),
            gossip: map_estimate::<PeerId, RemoteView>(self.remote_peers.len())
                + self.remote_claims.heap_bytes()
                + map_estimate::<PeerId, SimTime>(self.departed.len())
                + map_estimate::<NodeId, SimTime>(self.broker_heartbeats.len()),
            ..FootprintBreakdown::default()
        };
        for name in self.names.values() {
            fp.roster += name.len() as u64;
        }
        for entry in self.entries() {
            fp.roster += entry.view.name.len() as u64;
            fp.ads += entry.adv.name.len() as u64;
            fp.stats += entry.stats.message_window.heap_bytes();
        }
        for remote in self.remote_peers.values() {
            fp.gossip += u64::from(remote.charge);
        }
        for (key, holdings) in &self.content {
            fp.content += key.len() as u64 + slots_estimate::<Holding>(holdings.len());
            for h in holdings {
                fp.content += h.adv.name.len() as u64;
            }
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
        let now = ctx.now();
        let peer = adv.peer;
        if let Some(superseded) = self.registry.admit(adv, now) {
            self.groups.expel(superseded);
        }
        let group = self.groups.admit(peer);
        ctx.send(from, OverlayMsg::JoinAck { group });
        self.bump(ctx, |c| c.joins);
    }

    pub(crate) fn on_leave(&mut self, ctx: &mut Context<OverlayMsg>, peer: PeerId) {
        let node = self.registry.node_of(peer);
        self.registry.expel(peer);
        self.groups.expel(peer);
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

    pub(crate) fn on_discover_peers(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId) {
        let now = ctx.now();
        let adverts: Vec<PeerAdvertisement> = self
            .registry
            .entries()
            .map(|e| e.adv.clone())
            .filter(|a| !a.is_expired(now))
            .collect();
        ctx.send(from, OverlayMsg::DiscoverPeersResponse { adverts });
    }

    pub(crate) fn on_stats_report(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        peer: PeerId,
        snapshot: StatsSnapshot,
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
            adv,
        });
        self.bump(ctx, |c| c.content_published);
    }

    pub(crate) fn on_discover_content(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        pattern: String,
    ) {
        let now = ctx.now();
        let adverts: Vec<ContentAdvertisement> = self
            .registry
            .matching_holdings(&pattern)
            .filter(|h| !h.adv.is_expired(now) && self.registry.has_peer(h.peer))
            .map(|h| h.adv.clone())
            .collect();
        ctx.send(from, OverlayMsg::DiscoverContentResponse { adverts });
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
        let mut dropped = 0u64;
        for view in roster.iter() {
            // Never shadow a locally-registered peer with a relay, and
            // never resurrect one this broker already saw depart.
            if !self.registry.learn_remote(view, sent_at, recipients) {
                dropped += 1;
            }
        }
        self.bump_by(ctx, |c| c.stale_views_dropped, dropped);
        self.bump(ctx, |c| c.gossip_received);
    }

    pub(crate) fn on_gossip_timer(&mut self, ctx: &mut Context<OverlayMsg>) {
        let now = ctx.now();
        // Only locally-registered peers are gossiped (no relaying relays):
        // one roster, shared by every fellow broker's copy of the message.
        let roster = self.registry.local_roster(now, self.cfg.stats_k_hours);
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
