//! The gossip write path of [`PeerRegistry`]: the membership state
//! machine against the three-map design it replaced, what a republished
//! roster shares with the last one, and independence from arrival order.

use std::collections::HashMap;

use super::*;

/// The membership rules of the design the single table replaced, kept
/// word for word but for the slab: which peers are registered (and on
/// which host), rumoured, or departed, in three peer-keyed maps and a host
/// map that `check_invariants` had to police. The indexed purge is the
/// scan it once was.
#[derive(Default)]
struct ThreeMaps {
    /// Registered peer → its host (the slab entry's `adv.node`).
    index: HashMap<PeerId, NodeId>,
    by_node: HashMap<NodeId, PeerId>,
    remote_peers: HashMap<PeerId, (Arc<CandidateView>, SimTime)>,
    departed: HashMap<PeerId, SimTime>,
}

impl ThreeMaps {
    fn admit(&mut self, peer: PeerId, node: NodeId) -> Option<PeerId> {
        self.remote_peers.remove(&peer);
        self.departed.remove(&peer);
        let superseded = self.by_node.get(&node).copied().filter(|&p| p != peer);
        if let Some(prev) = superseded {
            self.expel(prev);
        }
        if let Some(&old_node) = self.index.get(&peer) {
            if old_node != node && self.by_node.get(&old_node) == Some(&peer) {
                self.by_node.remove(&old_node);
            }
        }
        self.by_node.insert(node, peer);
        self.index.insert(peer, node);
        superseded
    }

    fn expel(&mut self, peer: PeerId) -> bool {
        let Some(node) = self.index.remove(&peer) else {
            return false;
        };
        if self.by_node.get(&node) == Some(&peer) {
            self.by_node.remove(&node);
        }
        true
    }

    fn learn_remote(&mut self, view: &Arc<CandidateView>, as_of: SimTime) -> bool {
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
        self.remote_peers.insert(peer, (Arc::clone(view), as_of));
        true
    }

    fn purge_remote(&mut self, peer: PeerId, node: NodeId) {
        self.remote_peers.remove(&peer);
        self.remote_peers.retain(|_, (view, _)| view.node != node);
    }

    fn note_departed(&mut self, peer: PeerId, now: SimTime) {
        self.departed.insert(peer, now);
    }

    /// A roster read: views past the bound are forgotten, and every
    /// registered peer plus every view no registered peer shadows is on
    /// offer, by `(node, peer)`. `None` stands for a local entry.
    fn read(
        &mut self,
        now: SimTime,
        staleness: Option<SimDuration>,
    ) -> Vec<(PeerId, Option<Arc<CandidateView>>)> {
        if let Some(bound) = staleness {
            self.remote_peers
                .retain(|_, (_, as_of)| now - *as_of <= bound);
        }
        let mut order: Vec<(NodeId, PeerId, Option<Arc<CandidateView>>)> =
            self.index.iter().map(|(&p, &n)| (n, p, None)).collect();
        for (&peer, (view, _)) in &self.remote_peers {
            if !self.by_node.contains_key(&view.node) {
                order.push((view.node, peer, Some(Arc::clone(view))));
            }
        }
        order.sort_by_key(|&(node, peer, _)| (node, peer));
        order.into_iter().map(|(_, p, view)| (p, view)).collect()
    }
}

impl PeerRegistry {
    /// The tombstones held.
    fn tombstones(&self) -> HashMap<PeerId, SimTime> {
        let departed = self
            .members
            .iter()
            .filter_map(|(&peer, known)| match known {
                Membership::Departed(at) => Some((peer, *at)),
                _ => None,
            });
        departed.collect()
    }

    /// Applies one gossip message the way `on_broker_gossip` does and
    /// returns how many of its views were dropped.
    fn receive(&mut self, roster: &[Arc<CandidateView>], sent_at: SimTime, recipients: u32) -> u64 {
        let dropped = roster
            .iter()
            .filter(|view| !self.learn_remote(view, sent_at, recipients));
        dropped.count() as u64
    }
}

fn joining(peer: PeerId, node: u32, name: String, now: SimTime) -> PeerAdvertisement {
    PeerAdvertisement {
        peer,
        node: NodeId(node),
        name,
        cpu_gops: 1.0 + f64::from(node),
        accepts_tasks: true,
        published: now,
        lifetime: DEFAULT_LIFETIME,
    }
}

proptest! {
    /// Joins, rejoins on another host, leaves, direct purges and gossip
    /// rosters — fresh, repeated with the same allocations, older than a
    /// tombstone, claiming a locally occupied host, two claimants of one
    /// host — over a few identities and fewer hosts, with a roster read
    /// (with or without a staleness bound) after every step. The registry
    /// and the three-map oracle must agree on every verdict, on the
    /// running dropped total, on who is registered, rumoured (down to the
    /// allocation and its timestamp) and departed, and on the read.
    #[test]
    fn the_membership_table_follows_the_three_map_rules(
        ops in prop::collection::vec((0u8..10, 0usize..8, 0u32..5, 0u64..30), 1..150),
    ) {
        let mut ids = IdGenerator::new(67);
        let pool: Vec<PeerId> = (0..8).map(|_| PeerId::generate(&mut ids)).collect();
        let mut reg = PeerRegistry::new();
        let mut oracle = ThreeMaps::default();
        let bound = SimDuration::from_secs(12);
        const K_HOURS: usize = 2;
        let mut now = SimTime::from_secs_f64(100.0);
        let mut last: Vec<Arc<CandidateView>> = Vec::new();
        let (mut dropped, mut expected_dropped) = (0u64, 0u64);
        for (op, i, host, age) in ops {
            now += SimDuration::from_secs(1);
            let (peer, node) = (pool[i], NodeId(host));
            // A gossip message, when this step delivers one.
            let mut message: Option<(Vec<Arc<CandidateView>>, SimTime)> = None;
            match op {
                0 | 1 => {
                    let adv = joining(peer, host, format!("p{i}@{host}"), now);
                    prop_assert_eq!(reg.admit(adv, now), oracle.admit(peer, node));
                }
                2 => {
                    // The broker's Leave path.
                    let home = reg.node_of(peer);
                    prop_assert_eq!(home, oracle.index.get(&peer).copied());
                    prop_assert_eq!(reg.expel(peer), oracle.expel(peer));
                    if let Some(home) = home {
                        reg.purge_remote(peer, home);
                        oracle.purge_remote(peer, home);
                        reg.note_departed(peer, now);
                        oracle.note_departed(peer, now);
                    }
                }
                3 | 4 => {
                    // A sender's round: three of its peers, freshly
                    // allocated, possibly delayed on the way.
                    let roster = (0..3)
                        .map(|k| {
                            let view = remote_view(pool[(i + k) % 8], (host + k as u32) % 5, "r");
                            Arc::new(view)
                        })
                        .collect();
                    message = Some((roster, now - SimDuration::from_secs(age % 8)));
                }
                5 | 6 => {
                    // Its next round: nothing changed, same allocations.
                    message = Some((last.clone(), now - SimDuration::from_secs(age % 3)));
                }
                7 => {
                    // An echo from before most tombstones.
                    message = Some((last.clone(), now - SimDuration::from_secs(20 + age)));
                }
                8 => {
                    reg.purge_remote(peer, node);
                    oracle.purge_remote(peer, node);
                }
                _ => now += SimDuration::from_secs([3, 15, 40][host as usize % 3]),
            }
            if let Some((roster, as_of)) = message {
                for view in &roster {
                    let stored = reg.learn_remote(view, as_of, 3);
                    let expected = oracle.learn_remote(view, as_of);
                    prop_assert_eq!(stored, expected);
                    dropped += u64::from(!stored);
                    expected_dropped += u64::from(!expected);
                }
                last = roster;
            }
            reg.check_invariants();

            let staleness = (age % 2 == 0).then_some(bound);
            let read = reg.roster_copy(now, K_HOURS, staleness);
            reg.check_invariants();
            let expected: Vec<CandidateView> = oracle
                .read(now, staleness)
                .into_iter()
                .map(|(peer, view)| match view {
                    Some(view) => CandidateView::clone(&view),
                    None => reg.entry(peer).expect("registered").view(now, K_HOURS),
                })
                .collect();
            prop_assert_eq!(read, expected);

            let local: HashMap<PeerId, NodeId> =
                reg.entries().map(|e| (e.adv.peer, e.adv.node)).collect();
            prop_assert_eq!(&local, &oracle.index);
            let occupied: HashMap<NodeId, PeerId> = reg.hosts.locals().collect();
            prop_assert_eq!(&occupied, &oracle.by_node);
            let held: HashMap<PeerId, (*const CandidateView, SimTime)> = reg
                .remote_views()
                .map(|r| (r.view.peer, (Arc::as_ptr(&r.view), r.as_of)))
                .collect();
            let rumoured: HashMap<PeerId, (*const CandidateView, SimTime)> = oracle
                .remote_peers
                .iter()
                .map(|(&p, (view, as_of))| (p, (Arc::as_ptr(view), *as_of)))
                .collect();
            prop_assert_eq!(held, rumoured);
            prop_assert_eq!(reg.tombstones(), oracle.departed.clone());
        }
        prop_assert_eq!(dropped, expected_dropped);
    }
}

#[test]
fn an_unchanged_peer_is_republished_as_the_same_allocation() {
    let mut ids = IdGenerator::new(71);
    let mut owner = PeerRegistry::new();
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let [a, b, c] = [1, 2, 3].map(|node| {
        let joining = adv(&mut ids, node, "sc", t(0));
        let peer = joining.peer;
        owner.admit(joining, t(0));
        peer
    });
    let first = owner.local_roster(t(60), 24);
    let again = owner.local_roster(t(120), 24);
    assert_eq!(first.len(), 3);
    for (old, new) in first.iter().zip(again.iter()) {
        assert!(Arc::ptr_eq(old, new), "no write, no new allocation");
    }

    // A fellow broker keeps the first round.
    let mut holder = PeerRegistry::new();
    assert_eq!(holder.receive(&first, t(60), 1), 0);
    // One entry is touched; exactly that one is republished afresh.
    let entry = owner.entry_mut(b).unwrap();
    entry.view.history.transfers_completed = 5;
    entry.stats.pending_transfers = 2;
    let third = owner.local_roster(t(180), 24);
    for (old, new) in first.iter().zip(third.iter()) {
        assert_eq!(old.peer, new.peer);
        assert_eq!(Arc::ptr_eq(old, new), old.peer != b, "{}", old.peer);
    }
    assert_eq!(third[1].history.transfers_completed, 5);
    assert_eq!(third[1].snapshot.pending_transfers, 2.0);
    // The holder's copy is the old allocation and reads as it was sent.
    let seen = holder.roster_copy(t(180), 24, None);
    assert_eq!(seen[1].peer, b);
    assert_eq!(seen[1].history.transfers_completed, 0);
    assert_eq!(seen[1].snapshot.pending_transfers, 0.0);
    assert_eq!(seen[1], *first[1]);

    // The next round moves every timestamp and replaces the one view.
    assert_eq!(holder.receive(&third, t(180), 1), 0);
    holder.check_invariants();
    assert!(holder.remote_views().all(|r| r.as_of == t(180)));
    for peer in [a, b, c] {
        let held = holder.remote_views().find(|r| r.view.peer == peer).unwrap();
        let sent = third.iter().find(|v| v.peer == peer).unwrap();
        assert!(Arc::ptr_eq(&held.view, sent));
    }
    assert_eq!(holder.roster_copy(t(180), 24, None)[1], *third[1]);
    // A re-join rewrites the entry too, even with nothing new to say.
    let rejoining = owner.entry(c).unwrap().adv.clone();
    owner.admit(rejoining, t(200));
    let fourth = owner.local_roster(t(240), 24);
    assert!(!Arc::ptr_eq(&third[2], &fourth[2]));
    assert!(Arc::ptr_eq(&third[0], &fourth[0]) && Arc::ptr_eq(&third[1], &fourth[1]));
    owner.check_invariants();
}

#[test]
fn arrival_order_across_senders_leaves_no_mark() {
    // Two senders with disjoint peers and hosts publish two rounds each.
    // The protocol orders a sender's own rounds and nothing else, so any
    // interleaving must leave the receiver reading, dropping and weighing
    // the same — the tables' layout (now a function of insertion history,
    // no longer of a per-process key) must not show.
    let mut ids = IdGenerator::new(73);
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let mut rounds: Vec<[Arc<[Arc<CandidateView>]>; 2]> = Vec::new();
    for sender in 0..2u32 {
        let mut owner = PeerRegistry::new();
        let mut peers = Vec::new();
        for k in 0..300u32 {
            let joining = adv(&mut ids, 1000 * (sender + 1) + k, "sc", t(0));
            peers.push(joining.peer);
            owner.admit(joining, t(0));
        }
        let first = owner.local_roster(t(60), 24);
        // A third of the peers change, a few leave, before the next round.
        for (k, &peer) in peers.iter().enumerate() {
            match k % 30 {
                0 => assert!(owner.expel(peer)),
                1..=10 => owner.entry_mut(peer).unwrap().stats.pending_transfers = k as u32,
                _ => {}
            }
        }
        rounds.push([first, owner.local_roster(t(120), 24)]);
    }
    // (sender, round) in arrival order; round `r` was sent at 60 (r + 1) s.
    let arrivals = [
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(1, 0), (0, 0), (1, 1), (0, 1)],
        [(1, 0), (1, 1), (0, 0), (0, 1)],
    ];
    let outcomes = arrivals.map(|arrival| {
        let mut reg = PeerRegistry::new();
        // The receiver's own population: a peer on a host sender 0 also
        // claims, and the tombstone of a peer sender 1 still advertises.
        let squatter = adv(&mut IdGenerator::new(79), 1007, "local", t(0));
        reg.admit(squatter, t(0));
        reg.note_departed(rounds[1][0][5].peer, t(90));
        let mut dropped = 0;
        for (sender, round) in arrival {
            dropped += reg.receive(&rounds[sender][round], t(60 * (round as u64 + 1)), 2);
            reg.check_invariants();
        }
        let unbounded = reg.roster_copy(t(170), 24, None);
        let bounded = reg.roster_copy(t(170), 24, Some(SimDuration::from_secs(100)));
        reg.check_invariants();
        (dropped, bounded, unbounded, reg.memory_footprint())
    });
    let (dropped, bounded, unbounded, _) = &outcomes[0];
    assert_eq!(*dropped, 2 + 1, "the squatted host twice, the echo once");
    assert_eq!(unbounded.len(), 1 + 2 * 300 - 1);
    assert_eq!(bounded.len(), unbounded.len() - 2 * 10, "leavers expired");
    assert!(outcomes[1..].iter().all(|other| *other == outcomes[0]));
}
