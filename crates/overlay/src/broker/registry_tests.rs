//! Unit and property tests for [`super::PeerRegistry`].

use super::*;
use crate::broker::books::UNBOOKED;
use crate::footprint::{view_alloc_bytes, ARC_HEADER_BYTES};
use crate::id::IdGenerator;
use crate::selector::Roster;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use proptest::prelude::*;

#[path = "registry_gossip_tests.rs"]
mod gossip;

impl PeerEntry {
    /// The candidate view of this peer at `now`, evaluated from scratch:
    /// the oracle the cached in-place view must equal after a refresh.
    fn view(&self, now: SimTime, stats_k_hours: usize) -> CandidateView {
        CandidateView {
            peer: self.view.peer,
            node: self.view.node,
            name: Arc::clone(&self.view.name),
            cpu_gops: self.view.cpu_gops,
            snapshot: self.snapshot_at(now, stats_k_hours),
            history: self.view.history.clone(),
        }
    }
}

impl PeerRegistry {
    /// What a petition read before it borrowed the roster: an owned
    /// snapshot of every known candidate (registered + federation-learnt)
    /// inside the staleness window, sorted by node. Kept as the oracle
    /// [`PeerRegistry::roster`] must match element for element.
    fn candidate_views(
        &self,
        now: SimTime,
        stats_k_hours: usize,
        staleness: Option<SimDuration>,
    ) -> Vec<CandidateView> {
        let mut views: Vec<CandidateView> = self
            .entries()
            .map(|entry| entry.view(now, stats_k_hours))
            .collect();
        for remote in self.remote_views() {
            if self.peer_of(remote.view.node).is_some() {
                continue;
            }
            if staleness.is_some_and(|bound| now - self.books.as_of(remote) > bound) {
                continue;
            }
            views.push(CandidateView::clone(&remote.view));
        }
        views.sort_by_key(|v| (v.node, v.peer));
        views
    }

    /// The borrowed roster, copied out so it can be compared.
    fn roster_copy(
        &mut self,
        now: SimTime,
        stats_k_hours: usize,
        staleness: Option<SimDuration>,
    ) -> Vec<CandidateView> {
        let roster = self.roster(now, stats_k_hours, staleness);
        let roster: &dyn Roster = &roster;
        roster.iter().cloned().collect()
    }
}

/// Learns `view` as if it arrived in a roster addressed to one broker.
fn learn(reg: &mut PeerRegistry, view: CandidateView, as_of: SimTime) -> bool {
    reg.learn_remote(&Arc::new(view), as_of, 1, UNBOOKED)
}

fn remote_view(peer: PeerId, node: u32, name: &str) -> CandidateView {
    CandidateView {
        peer,
        node: NodeId(node),
        name: name.into(),
        cpu_gops: 1.0,
        snapshot: StatsSnapshot::empty(1.0),
        history: InteractionHistory::empty(),
    }
}

fn adv(ids: &mut IdGenerator, node: u32, name: &str) -> PeerAdvertisement {
    PeerAdvertisement {
        peer: PeerId::generate(ids),
        node: NodeId(node),
        name: name.to_string(),
        cpu_gops: 1.0,
    }
}

#[test]
fn admit_then_expel_evicts_both_indices() {
    let mut ids = IdGenerator::new(1);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 1, "alpha");
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    assert_eq!(reg.peer_count(), 1);
    assert!(reg.has_peer(peer));
    assert_eq!(reg.peer_of(NodeId(1)), Some(peer));
    assert!(reg.expel(peer));
    assert_eq!(reg.peer_count(), 0);
    assert_eq!(reg.peer_of(NodeId(1)), None);
    assert!(!reg.expel(peer), "double eviction is a no-op");
}

#[test]
fn memory_footprint_tracks_population() {
    let mut ids = IdGenerator::new(11);
    let mut reg = PeerRegistry::new();
    let empty = reg.memory_footprint();
    assert_eq!(empty.total(), 0, "an empty registry costs nothing");

    let a = adv(&mut ids, 1, "alpha");
    let b = adv(&mut ids, 2, "beta");
    let peer_a = a.peer;
    reg.admit(a, SimTime::ZERO);
    reg.admit(b, SimTime::ZERO);
    let two = reg.memory_footprint();
    assert!(two.roster > 0, "entry slots and indexes are counted");
    assert_eq!(two.stats, 0, "quiet peers hold no ring and no report");
    assert_eq!(two.content, 0, "nothing published yet");
    assert!(two.total() > empty.total());

    // A recorded message allocates one ring; a peer's report is one box.
    let entry = reg.entry_mut(peer_a).unwrap();
    entry.stats.record_message(SimTime::ZERO, true);
    let ring = entry.stats.message_window.heap_bytes();
    assert_eq!(ring, 48 * 16, "one 48-hour ring of 16-byte buckets");
    assert_eq!(reg.memory_footprint().stats, ring);
    let report = QueueReport {
        inbox_now: 0.0,
        inbox_avg: 0.0,
        outbox_now: 0.0,
        outbox_avg: 0.0,
    };
    reg.entry_mut(peer_a).unwrap().reported = Some(Box::new(report));
    assert_eq!(
        reg.memory_footprint().stats,
        ring + 32,
        "a report costs exactly its box of four gauges"
    );
    let two = reg.memory_footprint();

    // Eviction returns the slot to the free list: roster shrinks but
    // keeps the slab (the slot stays allocated, plus the free entry).
    reg.expel(peer_a);
    let one = reg.memory_footprint();
    assert!(one.total() < two.total(), "footprint follows the roster");
    assert!(one.roster > 0);
}

#[test]
fn peer_entry_stays_small() {
    assert!(
        std::mem::size_of::<PeerEntry>() <= 208,
        "box per-peer history a quiet peer never writes: every registered peer holds a PeerEntry"
    );
}

#[test]
fn a_host_row_stays_small() {
    assert!(
        std::mem::size_of::<Row>() <= 8,
        "a broker holds a host row per node id up to the highest it heard of"
    );
}

#[test]
fn a_candidate_view_stays_small() {
    assert!(
        std::mem::size_of::<CandidateView>() <= 264,
        "every registered peer and every gossiped row is one CandidateView: \
         store each fact once (a session criterion reads its total, the CPU \
         rate lives in the view alone) and keep ids at 8-byte alignment"
    );
}

#[test]
fn readmission_keeps_the_original_entry() {
    // A duplicate Join (retransmission) must not reset accumulated
    // stats/history: `admit` refreshes identity fields only.
    let mut ids = IdGenerator::new(2);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 3, "beta");
    let peer = a.peer;
    reg.admit(a.clone(), SimTime::ZERO);
    reg.entry_mut(peer)
        .unwrap()
        .history_mut()
        .transfers_completed = 7;
    reg.admit(a, SimTime::ZERO + SimDuration::from_secs(9));
    assert_eq!(
        reg.entry_mut(peer)
            .unwrap()
            .view
            .history
            .transfers_completed,
        7,
        "re-join must not clear history"
    );
    assert_eq!(reg.peer_count(), 1);
}

#[test]
fn readmission_refreshes_advertisement_and_node_index() {
    // THE churn bug this PR fixes: a peer that left and rejoined from a
    // different host (new node, new capacity) must be re-indexed. The
    // old code's `or_insert_with` kept the stale entry, leaving a
    // dangling `by_node` key on the old host and stale `cpu_gops`.
    let mut ids = IdGenerator::new(7);
    let mut reg = PeerRegistry::new();
    let first = adv(&mut ids, 4, "gamma");
    let peer = first.peer;
    reg.admit(first, SimTime::ZERO);
    reg.entry_mut(peer)
        .unwrap()
        .history_mut()
        .transfers_completed = 3;

    let rejoin = PeerAdvertisement {
        peer,
        node: NodeId(9),
        name: "gamma-prime".to_string(),
        cpu_gops: 2.5,
    };
    reg.admit(rejoin, SimTime::ZERO + SimDuration::from_secs(60));
    reg.check_invariants();

    let entry = reg.entry(peer).unwrap();
    assert_eq!(entry.view.node, NodeId(9), "advertised host refreshed");
    assert_eq!(entry.view.cpu_gops, 2.5, "capacity refreshed");
    assert_eq!(&*entry.view.name, "gamma-prime", "interned name refreshed");
    assert_eq!(
        entry.view.history.transfers_completed, 3,
        "history survives the move"
    );
    assert_eq!(reg.peer_of(NodeId(9)), Some(peer), "new host indexed");
    assert_eq!(reg.peer_of(NodeId(4)), None, "old host unmapped");
    assert_eq!(reg.peer_count(), 1);
}

#[test]
fn admit_forgets_the_federation_rumor() {
    // Once a peer registers locally it must stop being served from the
    // remote roster, even if gossip advertised it first.
    let mut ids = IdGenerator::new(11);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 2, "delta");
    assert!(learn(
        &mut reg,
        remote_view(a.peer, 2, "delta"),
        SimTime::ZERO,
    ));
    assert_eq!(reg.remote_count(), 1);
    reg.admit(a, SimTime::ZERO);
    reg.check_invariants();
    assert_eq!(reg.remote_count(), 0);
    assert_eq!(reg.roster(SimTime::ZERO, 24, None).len(), 1);
}

#[test]
fn gossip_cannot_resurrect_a_departed_peer() {
    // The federation bug this PR fixes: a gossip snapshot taken before
    // a peer's departure used to re-enter the remote roster after the
    // local broker had already seen the Leave, so selection kept
    // offering a peer known to be gone.
    let mut ids = IdGenerator::new(21);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 6, "zeta");
    let peer = a.peer;
    let node = a.node;
    let view = remote_view(peer, 6, "zeta");
    reg.admit(a, SimTime::ZERO);
    let t5 = SimTime::ZERO + SimDuration::from_secs(5);
    reg.expel(peer);
    reg.purge_remote(peer, node);
    reg.note_departed(peer, t5);
    reg.check_invariants();

    // A stale echo (snapshot taken at t=3 < departure at t=5) must be
    // rejected and leave the tombstone in place.
    let t3 = SimTime::ZERO + SimDuration::from_secs(3);
    assert!(!learn(&mut reg, view.clone(), t3), "stale echo rejected");
    assert_eq!(reg.remote_count(), 0);
    assert!(reg.roster(t5, 24, None).is_empty());
    reg.check_invariants();

    // A snapshot taken *after* the departure proves the peer rejoined
    // elsewhere: accepted, tombstone cleared.
    let t6 = SimTime::ZERO + SimDuration::from_secs(6);
    assert!(learn(&mut reg, view, t6), "newer view clears tombstone");
    assert_eq!(reg.remote_count(), 1);
    reg.check_invariants();
}

#[test]
fn candidate_views_apply_the_staleness_window() {
    let mut ids = IdGenerator::new(23);
    let mut reg = PeerRegistry::new();
    let fresh = remote_view(PeerId::generate(&mut ids), 11, "fresh");
    let stale = remote_view(PeerId::generate(&mut ids), 12, "stale");
    let now = SimTime::ZERO + SimDuration::from_secs(300);
    assert!(learn(&mut reg, fresh, now - SimDuration::from_secs(60)));
    assert!(learn(&mut reg, stale, now - SimDuration::from_secs(250)));
    let unbounded = reg.roster_copy(now, 24, None);
    assert_eq!(unbounded.len(), 2, "no bound, no filtering");
    let bounded = reg.roster_copy(now, 24, Some(SimDuration::from_secs(120)));
    assert_eq!(bounded.len(), 1, "only the fresh view survives");
    assert_eq!(bounded[0].node, NodeId(11));
    reg.check_invariants();
}

#[test]
fn broker_heartbeats_drive_liveness() {
    let mut reg = PeerRegistry::new();
    let now = SimTime::ZERO + SimDuration::from_secs(500);
    let bound = SimDuration::from_secs(120);
    assert!(
        reg.broker_alive(NodeId(1), now, bound),
        "never-heard brokers are presumed alive"
    );
    reg.note_broker_alive(NodeId(1), now - SimDuration::from_secs(60));
    assert!(reg.broker_alive(NodeId(1), now, bound));
    reg.note_broker_alive(NodeId(2), now - SimDuration::from_secs(200));
    assert!(!reg.broker_alive(NodeId(2), now, bound), "silent too long");
}

#[test]
fn expelled_slots_are_recycled() {
    // Churn must not grow the slab: N sequential join/leave cycles
    // keep capacity at the concurrent-population high-water mark.
    let mut ids = IdGenerator::new(5);
    let mut reg = PeerRegistry::new();
    for round in 0..100 {
        let a = adv(&mut ids, round % 3, "cycled");
        let peer = a.peer;
        reg.admit(a, SimTime::ZERO);
        reg.check_invariants();
        reg.expel(peer);
        reg.check_invariants();
    }
    assert_eq!(reg.peer_count(), 0);
    assert_eq!(reg.slab_capacity(), 1, "slots recycled, slab stayed flat");
}

#[test]
fn candidate_views_sorted_and_federation_merged() {
    let mut ids = IdGenerator::new(3);
    let mut reg = PeerRegistry::new();
    reg.admit(adv(&mut ids, 5, "e"), SimTime::ZERO);
    reg.admit(adv(&mut ids, 2, "b"), SimTime::ZERO);
    // A remote peer on an unregistered node is merged…
    let remote = remote_view(PeerId::generate(&mut ids), 9, "remote");
    learn(&mut reg, remote, SimTime::ZERO);
    // …but one shadowing a registered node is not.
    let shadow = remote_view(PeerId::generate(&mut ids), 5, "remote");
    learn(&mut reg, shadow, SimTime::ZERO);
    let views = reg.roster_copy(SimTime::ZERO, 24, None);
    let nodes: Vec<u32> = views.iter().map(|v| v.node.0).collect();
    assert_eq!(nodes, vec![2, 5, 9], "sorted by node, shadow dropped");
    reg.check_invariants();
    let gossiped: Vec<u32> = reg
        .local_roster(SimTime::ZERO, 24, 1)
        .iter()
        .map(|v| v.node.0)
        .collect();
    assert_eq!(gossiped, vec![2, 5], "only first-hand peers are gossiped");
}

#[test]
fn reported_snapshot_overrides_queue_gauges() {
    let mut ids = IdGenerator::new(4);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 1, "g");
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    let reported = QueueReport {
        inbox_now: 11.0,
        inbox_avg: 0.75,
        outbox_now: 3.0,
        outbox_avg: 2.5,
    };
    reg.entry_mut(peer).unwrap().reported = Some(Box::new(reported));
    let views = reg.roster_copy(SimTime::ZERO, 24, None);
    let snapshot = &views[0].snapshot;
    assert_eq!(snapshot.inbox_now, 11.0);
    assert_eq!(snapshot.inbox_avg, 0.75);
    assert_eq!(snapshot.outbox_now, 3.0);
    assert_eq!(snapshot.outbox_avg, 2.5);
}

#[test]
fn random_churn_preserves_registry_invariants() {
    // Property test: a long random interleaving of join / leave /
    // rejoin-elsewhere must keep the slab index, the peers↔by_node
    // bijection, and every advertisement field coherent. Before the
    // admit-refresh fix this trips within a handful of steps.
    let mut rng = SimRng::new(0xC0FF_EE07);
    let mut ids = IdGenerator::new(6);
    let mut reg = PeerRegistry::new();
    // Pool of identities that join, leave, and rejoin from new hosts.
    let mut pool: Vec<PeerAdvertisement> = (0..24)
        .map(|i| adv(&mut ids, 1000 + i, &format!("p{i}")))
        .collect();
    let mut member = vec![false; pool.len()];
    for step in 0..2000u64 {
        let now = SimTime::from_secs_f64(step as f64);
        let i = rng.below(pool.len() as u64) as usize;
        match rng.below(4) {
            0 | 1 => {
                // (Re)join, usually from a brand-new host with fresh
                // capacity — the churn case that used to dangle.
                if rng.bernoulli(0.8) {
                    pool[i].node = NodeId(2000 + rng.below(4000) as u32);
                    pool[i].cpu_gops = 0.5 + rng.uniform() * 4.0;
                    pool[i].name = format!("p{i}@{}", pool[i].node.0);
                }
                reg.admit(pool[i].clone(), now);
                // Landing on an occupied host displaces its occupant.
                for j in 0..pool.len() {
                    if j != i && member[j] && pool[j].node == pool[i].node {
                        member[j] = false;
                    }
                }
                member[i] = true;
            }
            2 => {
                assert_eq!(reg.expel(pool[i].peer), member[i]);
                if member[i] {
                    // The broker's Leave path: purge + tombstone.
                    reg.purge_remote(pool[i].peer, pool[i].node);
                    reg.note_departed(pool[i].peer, now);
                }
                member[i] = false;
            }
            _ => {
                // Gossip about a random identity; the registry must
                // never let a rumor shadow or outlive membership. The
                // snapshot age varies so tombstones both hold and clear.
                let j = rng.below(pool.len() as u64) as usize;
                let as_of = now - SimDuration::from_secs(rng.below(20));
                learn(
                    &mut reg,
                    CandidateView {
                        peer: pool[j].peer,
                        node: pool[j].node,
                        name: Arc::from(pool[j].name.as_str()),
                        cpu_gops: pool[j].cpu_gops,
                        snapshot: StatsSnapshot::empty(pool[j].cpu_gops),
                        history: InteractionHistory::empty(),
                    },
                    as_of,
                );
                if member[j] {
                    reg.purge_remote(pool[j].peer, pool[j].node);
                }
            }
        }
        reg.check_invariants();
        // No stale advertisement fields: what the registry serves for a
        // member is exactly the latest thing that member advertised.
        if member[i] {
            let entry = reg.entry(pool[i].peer).unwrap();
            assert_eq!(entry.view.node, pool[i].node);
            assert_eq!(entry.view.cpu_gops, pool[i].cpu_gops);
            assert_eq!(&*entry.view.name, pool[i].name.as_str());
        }
    }
    assert!(
        reg.slab_capacity() <= pool.len(),
        "slab bounded by concurrent population ({} > {})",
        reg.slab_capacity(),
        pool.len()
    );
}

#[test]
fn admit_reports_the_superseded_occupant() {
    let mut ids = IdGenerator::new(31);
    let mut reg = PeerRegistry::new();
    let first = adv(&mut ids, 4, "first");
    let second = adv(&mut ids, 4, "second");
    let (a, b) = (first.peer, second.peer);
    assert_eq!(reg.admit(first.clone(), SimTime::ZERO), None);
    assert_eq!(
        reg.admit(first, SimTime::ZERO),
        None,
        "a re-join is no takeover"
    );
    assert_eq!(reg.admit(second, SimTime::ZERO), Some(a));
    reg.check_invariants();
    assert_eq!(reg.peer_count(), 1);
    assert_eq!(reg.peer_of(NodeId(4)), Some(b));
}

#[test]
fn purge_forgets_the_peer_and_every_claimant_of_its_host() {
    let mut ids = IdGenerator::new(37);
    let mut reg = PeerRegistry::new();
    let [p, q, r, s] = [(); 4].map(|_| PeerId::generate(&mut ids));
    // p is rumoured on host 1; q, r and s all claim host 2.
    for (peer, node) in [(p, 1), (q, 2), (r, 2), (s, 2)] {
        assert!(learn(&mut reg, remote_view(peer, node, "x"), SimTime::ZERO));
        reg.check_invariants();
    }
    // A view that moves host is re-indexed, not duplicated.
    assert!(learn(&mut reg, remote_view(s, 3, "x"), SimTime::ZERO));
    reg.check_invariants();
    // p departs from host 2: its own view (on another host) and both
    // remaining claimants of host 2 go; s, now on host 3, stays.
    reg.purge_remote(p, NodeId(2));
    reg.check_invariants();
    assert_eq!(reg.remote_count(), 1);
    assert!(reg.remote_views().any(|r| r.view.peer == s));
    // Promotion out of the spill list keeps the index usable.
    for (peer, node) in [(q, 3), (r, 3)] {
        assert!(learn(&mut reg, remote_view(peer, node, "x"), SimTime::ZERO));
    }
    reg.purge_remote(s, NodeId(9));
    reg.check_invariants();
    reg.purge_remote(p, NodeId(3));
    reg.check_invariants();
    assert_eq!(reg.remote_count(), 0);
}

#[test]
fn shared_views_are_charged_once_across_their_holders() {
    // The once-only rule of `crate::footprint`: an owner and the two
    // brokers it gossips to hold three sets of map and index slots but one
    // copy of the views between them.
    let mut ids = IdGenerator::new(41);
    let mut owner = PeerRegistry::new();
    for (node, name) in [(1, "ab"), (2, "abcd"), (3, "abcdef")] {
        owner.admit(adv(&mut ids, node, name), SimTime::ZERO);
    }
    let alone = owner.local_roster(SimTime::ZERO, 24, 0);
    let unshared = owner.memory_footprint().roster;
    let roster = owner.local_roster(SimTime::ZERO, 24, 2);
    assert!(
        roster
            .iter()
            .zip(alone.iter())
            .all(|(a, b)| Arc::ptr_eq(a, b)),
        "no write, no new allocation"
    );
    let mut holders = [PeerRegistry::new(), PeerRegistry::new()];
    for reg in &mut holders {
        for view in roster.iter() {
            assert!(reg.learn_remote(view, SimTime::ZERO, 2, UNBOOKED));
        }
        reg.check_invariants();
    }
    for reg in &holders {
        assert!(
            reg.remote_views()
                .all(|held| roster.iter().any(|sent| Arc::ptr_eq(sent, &held.view))),
            "holders share the sender's allocation"
        );
    }
    let one_copy: u64 = roster.iter().map(|v| view_alloc_bytes(v)).sum();
    assert_eq!(
        one_copy,
        3 * (16 + std::mem::size_of::<CandidateView>() as u64) + 12,
        "a view allocation is its Arc header, the view, and the name it pins"
    );
    let share: u64 = roster.iter().map(|v| view_alloc_bytes(v).div_ceil(3)).sum();
    assert!(3 * share >= one_copy && 3 * share < one_copy + 3 * 3);
    assert_eq!(
        unshared - owner.memory_footprint().roster,
        one_copy - share,
        "alone, the owner charges the whole allocation; gossiping, its share"
    );
    // Hosts 1–3 grow a holder's table to four rows; host 0's is unheld.
    let slots = slots_estimate::<MemberSlot>(3)
        + slots_estimate::<Row>(4)
        + slots_estimate::<Option<RemoteView>>(3);
    let gossip: u64 = holders.iter().map(|r| r.memory_footprint().gossip).sum();
    assert_eq!(gossip, 2 * (share + slots));

    // Shares round up: seven recipients never under-count an allocation.
    let mut seventh = PeerRegistry::new();
    assert!(seventh.learn_remote(&roster[0], SimTime::ZERO, 7, UNBOOKED));
    let rows = slots_estimate::<MemberSlot>(1)
        + slots_estimate::<Row>(2)
        + slots_estimate::<Option<RemoteView>>(1);
    let share = seventh.memory_footprint().gossip - rows;
    assert_eq!(share, view_alloc_bytes(&roster[0]).div_ceil(8));
    assert!(8 * share >= view_alloc_bytes(&roster[0]));
}

#[test]
fn a_published_view_is_the_entry_itself_until_a_write_forks_it() {
    let mut ids = IdGenerator::new(67);
    let mut owner = PeerRegistry::new();
    let [a, b] = [(1, "a"), (2, "b")].map(|(node, name)| {
        let adv = adv(&mut ids, node, name);
        let peer = adv.peer;
        owner.admit(adv, SimTime::ZERO);
        peer
    });
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let sent = owner.local_roster(t(60), 24, 1);
    for (row, peer) in sent.iter().zip([a, b]) {
        assert!(
            Arc::ptr_eq(row, &owner.entry(peer).unwrap().view),
            "the published row is the entry's own allocation"
        );
    }
    let mut holder = PeerRegistry::new();
    assert_eq!(holder.absorb(NodeId(900), Arc::clone(&sent), t(60), 1), 0);

    // A history write at the owner forks the shared view; the receiver
    // keeps reading what it was sent.
    owner
        .entry_mut(a)
        .unwrap()
        .history_mut()
        .transfers_completed = 4;
    let forked = &owner.entry(a).unwrap().view;
    assert!(
        !Arc::ptr_eq(forked, &sent[0]),
        "a write forks a shared view"
    );
    assert_eq!(forked.history.transfers_completed, 4);
    {
        let held = holder.roster(t(60), 24, None);
        assert!(std::ptr::eq(held.get(0), &*sent[0]));
        assert_eq!(held.get(0).history.transfers_completed, 0);
    }

    // The next round sends the written peer at its new address and the
    // untouched one at its old.
    let next = owner.local_roster(t(120), 24, 1);
    assert!(Arc::ptr_eq(&next[0], &owner.entry(a).unwrap().view));
    assert!(!Arc::ptr_eq(&next[0], &sent[0]));
    assert!(
        Arc::ptr_eq(&next[1], &sent[1]),
        "an untouched peer is republished at the same address"
    );
    assert_eq!(holder.absorb(NodeId(900), next, t(120), 1), 0);
    assert_eq!(
        holder
            .roster(t(120), 24, None)
            .get(0)
            .history
            .transfers_completed,
        4
    );
    owner.check_invariants();
    holder.check_invariants();
}

#[test]
fn a_silent_senders_views_are_evicted_after_the_staleness_bound() {
    // The boundedness bug: a gossiped view whose sender stopped
    // refreshing it (the peer left that broker, or the broker died) used
    // to stay in `remote_peers` and `remote_claims` for the rest of the
    // run, re-filtered on every read.
    let mut ids = IdGenerator::new(47);
    let mut reg = PeerRegistry::new();
    let bound = Some(SimDuration::from_secs(60));
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let [p, q] = [(); 2].map(|_| PeerId::generate(&mut ids));
    assert!(learn(&mut reg, remote_view(p, 1, "p"), t(0)));
    assert!(learn(&mut reg, remote_view(q, 2, "q"), t(0)));
    assert_eq!(reg.roster(t(30), 24, bound).len(), 2);
    // q's sender keeps refreshing it; p's falls silent.
    assert!(learn(&mut reg, remote_view(q, 2, "q"), t(50)));
    assert_eq!(
        reg.roster(t(60), 24, bound).len(),
        2,
        "on the bound is not past it"
    );
    assert_eq!(reg.remote_count(), 2);
    let roster = reg.roster_copy(t(61), 24, bound);
    assert_eq!(roster.len(), 1);
    assert_eq!(roster[0].peer, q);
    assert_eq!(
        reg.remote_count(),
        1,
        "the expired view is gone, not just hidden"
    );
    reg.check_invariants();
    // A read that nothing but the clock separates from the last one.
    assert!(reg.roster(t(111), 24, bound).is_empty());
    assert_eq!(reg.remote_count(), 0);
    reg.check_invariants();
    // Eviction is no tombstone: the sender speaks again, the view is back.
    assert!(learn(&mut reg, remote_view(p, 1, "p"), t(120)));
    assert_eq!(reg.roster(t(121), 24, bound).len(), 1);
    assert_eq!(reg.remote_count(), 1);
    reg.check_invariants();
    // No bound configured, no eviction.
    assert_eq!(reg.roster(t(10_000), 24, None).len(), 1);
    assert_eq!(reg.remote_count(), 1);
}

#[test]
fn the_roster_is_read_in_place_and_follows_every_mutation() {
    let mut ids = IdGenerator::new(53);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 3, "a");
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    reg.admit(adv(&mut ids, 1, "b"), SimTime::ZERO);
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    {
        let roster = reg.roster(t(1), 24, None);
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.get(1).peer, peer);
        assert_eq!(roster.get(1).snapshot, StatsSnapshot::empty(1.0));
    }
    let in_place: *const CandidateView = &*reg.entry(peer).unwrap().view;
    // Several writes, one read: the cache catches up with all of them.
    let entry = reg.entry_mut(peer).unwrap();
    entry.stats.outbox.incr(t(2));
    entry.stats.pending_transfers = 2;
    reg.entry_mut(peer).unwrap().history_mut().queued_bytes = 9;
    {
        let roster = reg.roster(t(4), 24, None);
        let seen = roster.get(1);
        assert!(std::ptr::eq(seen, in_place), "a read copies nothing");
        assert_eq!(seen.history.queued_bytes, 9);
        assert_eq!(seen.snapshot.pending_transfers, 2.0);
        assert_eq!(seen.snapshot.outbox_now, 1.0);
        assert_eq!(seen.snapshot.outbox_avg, 0.5, "one message for 2 s of 4");
    }
    // The gauge keeps integrating with no further write.
    assert_eq!(reg.roster(t(8), 24, None).get(1).snapshot.outbox_avg, 0.75);
    assert_eq!(
        reg.roster_copy(t(8), 24, None),
        reg.candidate_views(t(8), 24, None)
    );
    reg.check_invariants();
}

#[test]
fn a_subset_is_found_by_node_and_keeps_roster_order() {
    let mut ids = IdGenerator::new(59);
    let mut reg = PeerRegistry::new();
    for node in [8, 2, 6, 4] {
        reg.admit(adv(&mut ids, node, "x"), SimTime::ZERO);
    }
    // Two rumors claim host 5; they are both candidates there.
    for _ in 0..2 {
        let rumor = remote_view(PeerId::generate(&mut ids), 5, "r");
        assert!(learn(&mut reg, rumor, SimTime::ZERO));
    }
    let roster = reg.roster(SimTime::ZERO, 24, None);
    let subset = roster.restricted_to(&[NodeId(6), NodeId(5), NodeId(7), NodeId(2), NodeId(6)]);
    let subset: &dyn Roster = &subset;
    let nodes: Vec<u32> = subset.iter().map(|v| v.node.0).collect();
    assert_eq!(
        nodes,
        vec![2, 5, 5, 6],
        "absent and repeated hosts add nothing"
    );
    assert!(
        subset[1].peer < subset[2].peer,
        "same-host views order by peer"
    );
    assert!(roster.restricted_to(&[NodeId(7)]).is_empty());
}

#[test]
fn footprint_counts_the_read_index_and_the_in_place_views() {
    let mut ids = IdGenerator::new(61);
    let mut reg = PeerRegistry::new();
    for (node, name) in [(1, "ab"), (2, "abcd")] {
        reg.admit(adv(&mut ids, node, name), SimTime::ZERO);
    }
    assert!(learn(
        &mut reg,
        remote_view(PeerId::generate(&mut ids), 3, "r"),
        SimTime::ZERO
    ));
    // Unread: two slots wait on the dirty list, there is no order yet.
    let unread = reg.memory_footprint();
    assert_eq!(
        reg.read.heap_bytes(),
        2 * 4 + 2,
        "two listed slots and their flags"
    );
    assert!(
        std::mem::size_of::<PeerEntry>() < std::mem::size_of::<CandidateView>(),
        "an entry slot points at its view, the allocation gossip publishes"
    );
    // A read settles the dirty list and builds a three-entry order.
    reg.roster(SimTime::ZERO, 24, None);
    let read = reg.memory_footprint();
    assert_eq!(
        read.roster - unread.roster,
        3 * 8 - 2 * 4,
        "8 B per order entry"
    );
    assert_eq!(read.total() - read.roster, unread.total() - unread.roster);
    // Scoring builds the criterion columns with a row per slab slot, and
    // the argmax the CPU rates.
    let roster = reg.roster(SimTime::ZERO, 24, None);
    roster.criteria(&mut Vec::new());
    roster.tiebreak(0);
    let scored = reg.memory_footprint();
    assert_eq!(
        scored.roster - read.roster,
        3 * 16 * 8 + 2 * 4 + 3 * 8,
        "16 cells and a CPU rate per candidate, a row index per slot"
    );
    // The history column shares that slot map, so it adds its rows alone.
    assert_eq!(std::mem::size_of::<InteractionHistory>(), 80);
    let roster = reg.roster(SimTime::ZERO, 24, None);
    roster.histories(&mut Vec::new());
    let histories = reg.memory_footprint();
    assert_eq!(
        histories.roster - scored.roster,
        3 * 80,
        "a history per candidate"
    );
    // Alone, the history column builds the slot map too.
    reg.read.invalidate_order();
    reg.roster(SimTime::ZERO, 24, None)
        .histories(&mut Vec::new());
    assert_eq!(reg.memory_footprint().roster - read.roster, 3 * 80 + 2 * 4);
    // A write empties the order (it pins no view it may no longer offer),
    // drops what was built over it, and lists the slot again.
    reg.expel(reg.peer_of(NodeId(1)).unwrap());
    assert_eq!(reg.read.heap_bytes(), 2, "only the per-slot flags are left");
}

/// A roster that only addresses its candidates, so every other read goes
/// through the [`Roster`] trait's defaults.
struct Plain<'a>(&'a dyn Roster);

impl Roster for Plain<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, i: usize) -> &CandidateView {
        self.0.get(i)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_reread_serves_the_same_columns_and_a_write_patches_only_its_row() {
    let mut ids = IdGenerator::new(67);
    let mut reg = PeerRegistry::new();
    let peers: Vec<PeerId> = (1..=4)
        .map(|node| {
            let a = adv(&mut ids, node, "p");
            let peer = a.peer;
            reg.admit(a, SimTime::ZERO);
            peer
        })
        .collect();
    assert!(learn(
        &mut reg,
        remote_view(PeerId::generate(&mut ids), 9, "r"),
        SimTime::ZERO
    ));
    let now = SimTime::from_secs_f64(1.0);
    let mut scratch = Vec::new();
    let (at, first) = {
        let roster = reg.roster(now, 24, None);
        let columns = roster.criteria(&mut scratch);
        (columns.as_ptr(), columns.to_vec())
    };
    assert_eq!(first.len(), 5 * 16);
    // Nothing changed: the same allocation, and nothing gathered.
    let roster = reg.roster(now, 24, None);
    let columns = roster.criteria(&mut scratch);
    assert_eq!(
        columns.as_ptr(),
        at,
        "an unchanged roster is not re-gathered"
    );
    assert_eq!(bits(columns), bits(&first));
    assert!(scratch.is_empty());
    // One message to the third peer moves its message-success cells.
    reg.entry_mut(peers[2])
        .expect("registered")
        .stats
        .record_message(now, false);
    let roster = reg.roster(now, 24, None);
    let columns = roster.criteria(&mut scratch);
    assert_eq!(columns.as_ptr(), at, "a stats write patches in place");
    assert_eq!(
        bits(columns),
        bits(Plain(&roster).criteria(&mut Vec::new()))
    );
    let row = 2; // hosts 1..=4 are rows 0..=3, the remote view row 4
    assert_eq!(roster.get(row).peer, peers[2]);
    for (k, (was, is)) in first.chunks(5).zip(columns.chunks(5)).enumerate() {
        for i in (0..5).filter(|&i| i != row) {
            assert_eq!(was[i].to_bits(), is[i].to_bits(), "criterion {k}, row {i}");
        }
    }
    assert_ne!(bits(&first), bits(columns), "the written row moved");
}

#[test]
fn a_history_write_patches_only_its_row_and_rebuilds_nothing() {
    let mut ids = IdGenerator::new(69);
    let mut reg = PeerRegistry::new();
    let peers: Vec<PeerId> = (1..=4)
        .map(|node| {
            let a = adv(&mut ids, node, "p");
            let peer = a.peer;
            reg.admit(a, SimTime::ZERO);
            peer
        })
        .collect();
    assert!(learn(
        &mut reg,
        remote_view(PeerId::generate(&mut ids), 9, "r"),
        SimTime::ZERO
    ));
    let now = SimTime::from_secs_f64(1.0);
    let mut scratch = Vec::new();
    let (at, first) = {
        let roster = reg.roster(now, 24, None);
        let histories = roster.histories(&mut scratch);
        (histories.as_ptr(), histories.to_vec())
    };
    assert_eq!(first.len(), 5);
    assert!(scratch.is_empty(), "the registry gathered nothing");
    // A completed transfer to the third peer, as the transfer path
    // records it.
    let history = reg.entry_mut(peers[2]).expect("registered").history_mut();
    history.transfers_completed += 1;
    history.observe_throughput(7e5, 0.3);
    let written = history.clone();
    reg.roster(now, 24, None);
    let kept = reg
        .read
        .built_histories()
        .expect("a read after a history write keeps the column");
    assert_eq!(kept.as_ptr(), at, "patched in place");
    let row = 2; // hosts 1..=4 are rows 0..=3, the remote view row 4
    for (i, (was, is)) in first.iter().zip(kept).enumerate() {
        if i == row {
            assert_eq!(is, &written, "the written row reads the write");
            assert_ne!(was, is);
        } else {
            assert_eq!(was, is, "row {i} is untouched");
        }
    }
    let roster = reg.roster(now, 24, None);
    assert_eq!(roster.histories(&mut scratch).as_ptr(), at);
    assert!(scratch.is_empty());
    assert_eq!(
        roster.histories(&mut scratch).to_vec(),
        Plain(&roster).histories(&mut Vec::new()).to_vec()
    );
    reg.check_invariants();
}

/// What `purge_remote` did before the claim index: one scan over every
/// remote view. Kept here as the oracle the indexed purge must match.
fn purge_by_scan(remote: &mut IdMap<PeerId, (NodeId, SimTime)>, peer: PeerId, node: NodeId) {
    remote.remove(&peer);
    remote.retain(|_, (claimed, _)| *claimed != node);
}

proptest! {
    /// Random join / leave / rejoin-elsewhere / gossip / purge sequences
    /// over a few identities and fewer hosts (so hosts are contested),
    /// mixed with record mutations through `entry_mut`, peer stats
    /// reports, and clock steps across a gauge interval, a staleness
    /// expiry and an hour roll. After every step: the indexed purge and
    /// the expiry eviction leave exactly the remote views a scan would,
    /// the borrowed roster equals the owned from-scratch snapshot element
    /// for element, and the local-only roster is that snapshot restricted
    /// to occupied hosts.
    #[test]
    fn indexed_purge_and_local_roster_match_their_oracles(
        ops in prop::collection::vec((0u8..9, 0usize..8, 0u32..5, 0u64..30), 1..120),
    ) {
        let mut ids = IdGenerator::new(43);
        let pool: Vec<PeerId> = (0..8).map(|_| PeerId::generate(&mut ids)).collect();
        let mut reg = PeerRegistry::new();
        let mut oracle: IdMap<PeerId, (NodeId, SimTime)> = IdMap::default();
        let bound = SimDuration::from_secs(10);
        // A two-hour window, so an hour roll or two ages records out.
        const K_HOURS: usize = 2;
        // Starts 40 s short of an hour boundary, so plain steps cross it.
        let mut now = SimTime::from_secs_f64(3560.0);
        for (op, i, host, age) in ops {
            now += SimDuration::from_secs(1);
            let (peer, node) = (pool[i], NodeId(host));
            match op {
                0 | 1 => {
                    // Join, or rejoin from wherever `host` points now.
                    let joining = PeerAdvertisement {
                        peer,
                        node,
                        name: format!("p{i}@{host}"),
                        cpu_gops: 1.0 + host as f64,
                    };
                    reg.admit(joining, now);
                    oracle.remove(&peer);
                }
                2 => {
                    // The broker's Leave path.
                    if let Some(home) = reg.node_of(peer) {
                        reg.expel(peer);
                        reg.purge_remote(peer, home);
                        purge_by_scan(&mut oracle, peer, home);
                        reg.note_departed(peer, now);
                    }
                }
                3 => {
                    let as_of = now - SimDuration::from_secs(age);
                    if learn(&mut reg, remote_view(peer, host, "rumor"), as_of) {
                        oracle.insert(peer, (node, as_of));
                    }
                }
                4 => {
                    reg.purge_remote(peer, node);
                    purge_by_scan(&mut oracle, peer, node);
                }
                5 | 6 => {
                    // What the transfer and task paths do to a record: the
                    // gauges start (or stop) integrating, ratios and the
                    // live history move.
                    if let Some(entry) = reg.entry_mut(peer) {
                        match age % 5 {
                            0 => {
                                entry.stats.pending_transfers += 1;
                                entry.stats.outbox.incr(now);
                                entry.history_mut().queued_bytes += 1 << 20;
                            }
                            1 => {
                                entry.stats.outbox.decr(now);
                                entry.stats.record_file_send(host % 2 == 0);
                                entry.history_mut().transfers_completed += 1;
                                entry.history_mut().observe_throughput(1e5 * (1 + host) as f64, 0.3);
                            }
                            2 => entry.stats.record_message(now, host % 3 != 0),
                            3 => entry.stats.inbox.set(now, host),
                            _ => entry.history_mut().observe_petition(0.1 * age as f64, 0.5),
                        }
                    }
                }
                7 => {
                    // A peer's own report overrides the queue gauges.
                    if let Some(entry) = reg.entry_mut(peer) {
                        entry.reported = Some(Box::new(QueueReport {
                            inbox_now: host as f64,
                            inbox_avg: 0.0,
                            outbox_now: 0.0,
                            outbox_avg: age as f64 / 4.0,
                        }));
                        entry.stats.record_message(now, true);
                    }
                }
                _ => {
                    // The clock alone: past a gauge interval, past the
                    // staleness bound, or into another hour.
                    now += SimDuration::from_secs([3, 15, 3600][host as usize % 3]);
                }
            }
            reg.check_invariants();

            let roster = reg.roster_copy(now, K_HOURS, Some(bound));
            reg.check_invariants();
            oracle.retain(|_, (_, as_of)| now - *as_of <= bound);
            let held: IdMap<PeerId, (NodeId, SimTime)> = reg
                .remote_views()
                .map(|r| (r.view.peer, (r.view.node, reg.books.as_of(r))))
                .collect();
            prop_assert_eq!(&held, &oracle);
            let expected = reg.candidate_views(now, K_HOURS, Some(bound));
            // `SelectionRecord::candidates` is this length.
            prop_assert_eq!(roster.len(), expected.len());
            prop_assert_eq!(&roster, &expected);

            let local: Vec<CandidateView> = reg
                .local_roster(now, K_HOURS, 1)
                .iter()
                .map(|v| CandidateView::clone(v))
                .collect();
            let occupied: Vec<CandidateView> = expected
                .into_iter()
                .filter(|v| reg.peer_of(v.node).is_some())
                .collect();
            prop_assert_eq!(local, occupied);
        }
    }

    /// Random admits (re-admits on a new host with a new CPU among them),
    /// expels, `entry_mut` stats and history writes and gossip absorbs,
    /// with clock steps past the staleness bound and into another hour.
    /// After every read, the criterion columns, tie-break keys, histories
    /// and hosts the registry serves are `to_bits`-equal to the trait
    /// defaults over the same roster and to the defaults over an owned
    /// copy of it.
    #[test]
    fn cached_columns_and_tiebreaks_match_the_trait_defaults(
        ops in prop::collection::vec((0u8..8, 0usize..6, 0u32..6, 0u64..40), 1..100),
    ) {
        let mut ids = IdGenerator::new(71);
        let locals: Vec<PeerId> = (0..6).map(|_| PeerId::generate(&mut ids)).collect();
        // A fellow broker's current view of six peers, on hosts 3..9, so
        // some are shadowed by local peers.
        let mut rumors: Vec<Arc<CandidateView>> = (0..6)
            .map(|i| Arc::new(remote_view(PeerId::generate(&mut ids), 3 + i, "r")))
            .collect();
        let mut reg = PeerRegistry::new();
        let bound = SimDuration::from_secs(30);
        const K_HOURS: usize = 2;
        // Starts short of an hour boundary, so plain steps cross it.
        let mut now = SimTime::from_secs_f64(3590.0);
        for (op, i, host, x) in ops {
            now += SimDuration::from_secs(1);
            match op {
                0 | 1 => {
                    reg.admit(
                        PeerAdvertisement {
                            peer: locals[i],
                            node: NodeId(host),
                            name: format!("p{i}"),
                            cpu_gops: 1.0 + (x % 4) as f64,
                        },
                        now,
                    );
                }
                2 => {
                    reg.expel(locals[i]);
                }
                3 | 4 => {
                    if let Some(entry) = reg.entry_mut(locals[i]) {
                        match x % 4 {
                            0 => entry.stats.record_message(now, host % 2 == 0),
                            1 => entry.stats.record_file_send(host % 3 != 0),
                            2 => {
                                entry.stats.pending_transfers += 1;
                                entry.stats.outbox.incr(now);
                                entry.history_mut().queued_bytes += 1 << 20;
                            }
                            _ => {
                                entry.stats.inbox.set(now, host);
                                entry.history_mut().observe_petition(0.1 * x as f64, 0.5);
                            }
                        }
                    }
                }
                5 => {
                    // A gossip round, sent `x` seconds ago; every other one
                    // re-takes one view (a new allocation).
                    if x % 2 == 0 {
                        let mut view = CandidateView::clone(&rumors[i]);
                        view.cpu_gops = 1.0 + x as f64;
                        view.snapshot.msg_success_total = Some(x as f64);
                        view.snapshot.outbox_now = host as f64;
                        rumors[i] = Arc::new(view);
                    }
                    let roster: Arc<[Arc<CandidateView>]> = rumors
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| !(j as u32 + host).is_multiple_of(3))
                        .map(|(_, view)| Arc::clone(view))
                        .collect();
                    reg.absorb(NodeId(100), roster, now - SimDuration::from_secs(x), 1);
                }
                6 => now += SimDuration::from_secs([31, 3600][host as usize % 2]),
                _ => {}
            }
            let roster = reg.roster(now, K_HOURS, Some(bound));
            let copy: Vec<CandidateView> = (&roster as &dyn Roster).iter().cloned().collect();
            let plain = Plain(&roster);
            let want = bits(plain.criteria(&mut Vec::new()));
            prop_assert_eq!(&bits(roster.criteria(&mut Vec::new())), &want);
            prop_assert_eq!(&bits(copy.criteria(&mut Vec::new())), &want);
            let want = plain.histories(&mut Vec::new()).to_vec();
            prop_assert_eq!(roster.histories(&mut Vec::new()), &want[..]);
            prop_assert_eq!(copy.histories(&mut Vec::new()), &want[..]);
            for j in 0..roster.len() {
                let (cpu, node) = roster.tiebreak(j);
                let (want_cpu, want_node) = plain.tiebreak(j);
                prop_assert_eq!((cpu.to_bits(), node), (want_cpu.to_bits(), want_node));
                prop_assert_eq!(copy.tiebreak(j), (want_cpu, want_node));
                prop_assert_eq!((roster.node(j), copy.node(j)), (want_node, want_node));
            }
            reg.check_invariants();
        }
    }
}
