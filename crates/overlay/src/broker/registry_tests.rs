//! Unit and property tests for [`super::PeerRegistry`].

use super::*;
use crate::advertisement::DEFAULT_LIFETIME;
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
            peer: self.adv.peer,
            node: self.adv.node,
            name: Arc::from(self.adv.name.as_str()),
            cpu_gops: self.adv.cpu_gops,
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
            if staleness.is_some_and(|bound| now - remote.as_of > bound) {
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
    reg.learn_remote(&Arc::new(view), as_of, 1)
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

fn adv(ids: &mut IdGenerator, node: u32, name: &str, now: SimTime) -> PeerAdvertisement {
    PeerAdvertisement {
        peer: PeerId::generate(ids),
        node: NodeId(node),
        name: name.to_string(),
        cpu_gops: 1.0,
        accepts_tasks: true,
        published: now,
        lifetime: DEFAULT_LIFETIME,
    }
}

#[test]
fn admit_then_expel_evicts_both_indices() {
    let mut ids = IdGenerator::new(1);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 1, "alpha", SimTime::ZERO);
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

    let a = adv(&mut ids, 1, "alpha", SimTime::ZERO);
    let b = adv(&mut ids, 2, "beta", SimTime::ZERO);
    let peer_a = a.peer;
    reg.admit(a, SimTime::ZERO);
    reg.admit(b, SimTime::ZERO);
    let two = reg.memory_footprint();
    assert!(two.roster > 0, "entry slots and indexes are counted");
    assert!(two.stats > 0, "windowed-ratio rings are counted");
    assert!(two.ads > 0, "advertisement names are counted");
    assert_eq!(two.content, 0, "nothing published yet");
    assert!(two.total() > empty.total());

    // Eviction returns the slot to the free list: roster shrinks but
    // keeps the slab (the slot stays allocated, plus the free entry).
    reg.expel(peer_a);
    let one = reg.memory_footprint();
    assert!(one.total() < two.total(), "footprint follows the roster");
    assert!(one.roster > 0);
}

#[test]
fn readmission_keeps_the_original_entry() {
    // A duplicate Join (retransmission) must not reset accumulated
    // stats/history: `admit` refreshes identity fields only.
    let mut ids = IdGenerator::new(2);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 3, "beta", SimTime::ZERO);
    let peer = a.peer;
    reg.admit(a.clone(), SimTime::ZERO);
    reg.entry_mut(peer)
        .unwrap()
        .view
        .history
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
    let first = adv(&mut ids, 4, "gamma", SimTime::ZERO);
    let peer = first.peer;
    reg.admit(first, SimTime::ZERO);
    reg.entry_mut(peer)
        .unwrap()
        .view
        .history
        .transfers_completed = 3;

    let rejoin = PeerAdvertisement {
        peer,
        node: NodeId(9),
        name: "gamma-prime".to_string(),
        cpu_gops: 2.5,
        accepts_tasks: false,
        published: SimTime::ZERO + SimDuration::from_secs(60),
        lifetime: DEFAULT_LIFETIME,
    };
    reg.admit(rejoin, SimTime::ZERO + SimDuration::from_secs(60));
    reg.check_invariants();

    let entry = reg.entry(peer).unwrap();
    assert_eq!(entry.adv.node, NodeId(9), "advertisement refreshed");
    assert_eq!(entry.adv.cpu_gops, 2.5, "capacity refreshed");
    assert_eq!(entry.stats.cpu_gops, 2.5, "stats see the new capacity");
    assert_eq!(&*entry.view.name, "gamma-prime", "interned name refreshed");
    assert_eq!(entry.view.node, NodeId(9), "the in-place view moved too");
    assert_eq!(entry.view.cpu_gops, 2.5);
    assert!(!entry.adv.accepts_tasks);
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
    let a = adv(&mut ids, 2, "delta", SimTime::ZERO);
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
    let a = adv(&mut ids, 6, "zeta", SimTime::ZERO);
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
        let a = adv(&mut ids, round % 3, "cycled", SimTime::ZERO);
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
    reg.admit(adv(&mut ids, 5, "e", SimTime::ZERO), SimTime::ZERO);
    reg.admit(adv(&mut ids, 2, "b", SimTime::ZERO), SimTime::ZERO);
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
        .local_roster(SimTime::ZERO, 24)
        .iter()
        .map(|v| v.node.0)
        .collect();
    assert_eq!(gossiped, vec![2, 5], "only first-hand peers are gossiped");
}

#[test]
fn reported_snapshot_overrides_queue_gauges() {
    let mut ids = IdGenerator::new(4);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 1, "g", SimTime::ZERO);
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    let mut reported = StatsSnapshot::empty(1.0);
    reported.inbox_now = 11.0;
    reported.outbox_avg = 2.5;
    reg.entry_mut(peer).unwrap().reported = Some(reported);
    let views = reg.roster_copy(SimTime::ZERO, 24, None);
    assert_eq!(views[0].snapshot.inbox_now, 11.0);
    assert_eq!(views[0].snapshot.outbox_avg, 2.5);
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
        .map(|i| adv(&mut ids, 1000 + i, &format!("p{i}"), SimTime::ZERO))
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
                pool[i].published = now;
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
            assert_eq!(entry.adv.node, pool[i].node);
            assert_eq!(entry.adv.cpu_gops, pool[i].cpu_gops);
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
    let first = adv(&mut ids, 4, "first", SimTime::ZERO);
    let second = adv(&mut ids, 4, "second", SimTime::ZERO);
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
    // The once-only rule of `crate::footprint`: two brokers that keep the
    // same gossiped roster hold two sets of map and index slots but one
    // copy of the views between them.
    let mut ids = IdGenerator::new(41);
    let mut owner = PeerRegistry::new();
    for (node, name) in [(1, "ab"), (2, "abcd"), (3, "abcdef")] {
        owner.admit(adv(&mut ids, node, name, SimTime::ZERO), SimTime::ZERO);
    }
    let roster = owner.local_roster(SimTime::ZERO, 24);
    let mut holders = [PeerRegistry::new(), PeerRegistry::new()];
    for reg in &mut holders {
        for view in roster.iter() {
            assert!(reg.learn_remote(view, SimTime::ZERO, 2));
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
    let slots = map_estimate::<PeerId, Membership>(3) + map_estimate::<NodeId, Host>(3);
    let gossip: u64 = holders.iter().map(|r| r.memory_footprint().gossip).sum();
    assert_eq!(gossip, one_copy + 2 * slots);

    // Shares round up: seven holders never under-count an allocation.
    let mut seventh = PeerRegistry::new();
    assert!(seventh.learn_remote(&roster[0], SimTime::ZERO, 7));
    let share = seventh.memory_footprint().gossip - slots / 3;
    assert_eq!(share, view_alloc_bytes(&roster[0]).div_ceil(7));
    assert!(7 * share >= view_alloc_bytes(&roster[0]));
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
    let a = adv(&mut ids, 3, "a", SimTime::ZERO);
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    reg.admit(adv(&mut ids, 1, "b", SimTime::ZERO), SimTime::ZERO);
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    {
        let roster = reg.roster(t(1), 24, None);
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.get(1).peer, peer);
        assert_eq!(roster.get(1).snapshot, StatsSnapshot::empty(1.0));
    }
    let in_place: *const CandidateView = &reg.entry(peer).unwrap().view;
    // Several writes, one read: the cache catches up with all of them.
    let entry = reg.entry_mut(peer).unwrap();
    entry.stats.outbox.incr(t(2));
    entry.stats.pending_transfers = 2;
    reg.entry_mut(peer).unwrap().view.history.queued_bytes = 9;
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
        reg.admit(adv(&mut ids, node, "x", SimTime::ZERO), SimTime::ZERO);
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
        reg.admit(adv(&mut ids, node, name, SimTime::ZERO), SimTime::ZERO);
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
        std::mem::size_of::<PeerEntry>() >= std::mem::size_of::<CandidateView>(),
        "an entry slot holds the view itself"
    );
    // A read settles the dirty list and builds a three-entry order.
    reg.roster(SimTime::ZERO, 24, None);
    let read = reg.memory_footprint();
    assert_eq!(
        read.roster - unread.roster,
        3 * 16 - 2 * 4,
        "16 B per order entry"
    );
    assert_eq!(read.total() - read.roster, unread.total() - unread.roster);
    // A write empties the order (it pins no view it may no longer offer)
    // and lists the slot again.
    reg.expel(reg.peer_of(NodeId(1)).unwrap());
    assert_eq!(reg.read.heap_bytes(), 2, "only the per-slot flags are left");
}

/// What `purge_remote` did before the claim index: one scan over every
/// remote view. Kept here as the oracle the indexed purge must match.
fn purge_by_scan(remote: &mut HashMap<PeerId, (NodeId, SimTime)>, peer: PeerId, node: NodeId) {
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
        let mut oracle: HashMap<PeerId, (NodeId, SimTime)> = HashMap::new();
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
                        accepts_tasks: true,
                        published: now,
                        lifetime: DEFAULT_LIFETIME,
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
                                entry.view.history.queued_bytes += 1 << 20;
                            }
                            1 => {
                                entry.stats.outbox.decr(now);
                                entry.stats.record_file_send(host % 2 == 0);
                                entry.view.history.transfers_completed += 1;
                                entry.view.history.observe_throughput(1e5 * (1 + host) as f64, 0.3);
                            }
                            2 => entry.stats.record_message(now, host % 3 != 0),
                            3 => entry.stats.inbox.set(now, host),
                            _ => entry.view.history.observe_petition(0.1 * age as f64, 0.5),
                        }
                    }
                }
                7 => {
                    // A peer's own report overrides the queue gauges.
                    if let Some(entry) = reg.entry_mut(peer) {
                        let mut reported = StatsSnapshot::empty(1.0);
                        reported.inbox_now = host as f64;
                        reported.outbox_avg = age as f64 / 4.0;
                        entry.reported = Some(reported);
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
            let held: HashMap<PeerId, (NodeId, SimTime)> = reg
                .remote_views()
                .map(|r| (r.view.peer, (r.view.node, r.as_of)))
                .collect();
            prop_assert_eq!(&held, &oracle);
            let expected = reg.candidate_views(now, K_HOURS, Some(bound));
            // `SelectionRecord::candidates` is this length.
            prop_assert_eq!(roster.len(), expected.len());
            prop_assert_eq!(&roster, &expected);

            let local: Vec<CandidateView> = reg
                .local_roster(now, K_HOURS)
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
}
