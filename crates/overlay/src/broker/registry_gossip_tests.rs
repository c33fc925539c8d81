//! The gossip write path of [`PeerRegistry`]: the membership state
//! machine against the three-map design it replaced, with and without the
//! per-sender books, what a republished roster shares with the last one
//! and what absorbing it costs, and independence from arrival order.

use super::*;

/// The membership rules of the design the single table replaced, kept
/// word for word but for the slab: which peers are registered (and on
/// which host), rumoured, or departed, in three peer-keyed maps and a host
/// map that `check_invariants` had to police. The indexed purge is the
/// scan it once was.
#[derive(Default)]
struct ThreeMaps {
    /// Registered peer → its host (the slab entry's `adv.node`).
    index: IdMap<PeerId, NodeId>,
    by_node: IdMap<NodeId, PeerId>,
    remote_peers: IdMap<PeerId, (Arc<CandidateView>, SimTime)>,
    departed: IdMap<PeerId, SimTime>,
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
    fn tombstones(&self) -> IdMap<PeerId, SimTime> {
        let departed = self.members.iter().filter_map(|known| match known {
            Membership::Departed(t) => Some((self.remote.departed(t), self.remote.left_at(t))),
            _ => None,
        });
        departed.collect()
    }
}

/// A round on the way: its sender, its roster, and when it was sent.
type Round = (usize, Arc<[Arc<CandidateView>]>, SimTime);

fn joining(peer: PeerId, node: u32, name: String) -> PeerAdvertisement {
    PeerAdvertisement {
        peer,
        node: NodeId(node),
        name,
        cpu_gops: 1.0 + f64::from(node),
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
                    let adv = joining(peer, host, format!("p{i}@{host}"));
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
                    let stored = reg.learn_remote(view, as_of, 3, UNBOOKED);
                    let expected = oracle.learn_remote(view, as_of);
                    prop_assert_eq!(stored, expected);
                    dropped += u64::from(!stored);
                    expected_dropped += u64::from(!expected);
                }
                last = roster;
            }
            reg.check_invariants();
            assert_agrees(&mut reg, &mut oracle, now, (age % 2 == 0).then_some(bound));
        }
        prop_assert_eq!(dropped, expected_dropped);
    }

    /// Two to four fellow brokers whose rounds republish most rows as the
    /// previous round's allocations — a row restated, a peer added or
    /// moved, a row dropped — delivered in any order, against local
    /// joins, leaves and purges of the peers they vouch for (a local peer
    /// taking a claimed host among them) and roster reads with or without
    /// a staleness bound. Every round goes through the books; the registry
    /// must agree with the three-map oracle, which learns every row, on
    /// each round's dropped count and, after every step, on membership,
    /// tombstones, every held allocation and its timestamp, and the read.
    #[test]
    fn the_books_follow_the_three_map_rules(
        senders in 2usize..5,
        ops in prop::collection::vec((0u8..10, 0usize..10, 0u32..6, 0u64..30), 1..200),
    ) {
        let mut ids = IdGenerator::new(83);
        let pool: Vec<PeerId> = (0..10).map(|_| PeerId::generate(&mut ids)).collect();
        let mut reg = PeerRegistry::new();
        let mut oracle = ThreeMaps::default();
        let bound = SimDuration::from_secs(12);
        let mut now = SimTime::from_secs_f64(100.0);
        let mut rows: Vec<Vec<Arc<CandidateView>>> = vec![Vec::new(); senders];
        let mut pending: Vec<Round> = Vec::new();
        let mut restated = 0u32;
        for (op, i, host, age) in ops {
            now += SimDuration::from_secs(1);
            let (peer, node) = (pool[i], NodeId(host));
            match op {
                0..=2 => {
                    let sender = &mut rows[i % senders];
                    let pick = (i + age as usize) % sender.len().max(1);
                    match age % 4 {
                        1 if !sender.is_empty() => {
                            restated += 1;
                            let was = &sender[pick];
                            let name = format!("r{restated}");
                            sender[pick] = Arc::new(remote_view(was.peer, was.node.0, &name));
                        }
                        2 => {
                            sender.retain(|v| v.peer != peer && v.node != node);
                            sender.push(Arc::new(remote_view(peer, host, "r")));
                            sender.sort_by_key(|v| v.node);
                        }
                        3 if !sender.is_empty() => {
                            sender.remove(pick);
                        }
                        _ => {}
                    }
                    let sent_at = now - SimDuration::from_secs(age % 8);
                    pending.push((i % senders, Arc::from(sender.clone()), sent_at));
                }
                3..=5 if !pending.is_empty() => {
                    let (sender, roster, sent_at) = pending.remove(age as usize % pending.len());
                    let expected = roster
                        .iter()
                        .filter(|view| !oracle.learn_remote(view, sent_at))
                        .count() as u64;
                    let from = NodeId(100 + sender as u32);
                    prop_assert_eq!(reg.absorb(from, roster, sent_at, 3), expected);
                }
                6 => {
                    let adv = joining(peer, host, format!("p{i}@{host}"));
                    prop_assert_eq!(reg.admit(adv, now), oracle.admit(peer, node));
                }
                7 => {
                    let home = reg.node_of(peer);
                    prop_assert_eq!(reg.expel(peer), oracle.expel(peer));
                    if let Some(home) = home {
                        reg.purge_remote(peer, home);
                        oracle.purge_remote(peer, home);
                        reg.note_departed(peer, now);
                        oracle.note_departed(peer, now);
                    }
                }
                8 => now += SimDuration::from_secs([3, 15, 40][host as usize % 3]),
                _ => {
                    reg.purge_remote(peer, node);
                    oracle.purge_remote(peer, node);
                }
            }
            reg.check_invariants();
            assert_agrees(&mut reg, &mut oracle, now, (age % 4 != 0).then_some(bound));
        }
    }
}

/// After a step: the registry and the oracle read the same roster at
/// `now` and agree on who is registered, on which host, rumoured (down to
/// the allocation and the time it was last vouched for) and departed.
fn assert_agrees(
    reg: &mut PeerRegistry,
    oracle: &mut ThreeMaps,
    now: SimTime,
    staleness: Option<SimDuration>,
) {
    const K_HOURS: usize = 2;
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
    assert_eq!(read, expected);

    let local: IdMap<PeerId, NodeId> = reg.entries().map(|e| (e.view.peer, e.view.node)).collect();
    assert_eq!(&local, &oracle.index);
    let occupied: IdMap<NodeId, PeerId> = (reg.hosts.locals())
        .map(|(node, slot)| (node, reg.peer_at(slot)))
        .collect();
    assert_eq!(&occupied, &oracle.by_node);
    let held: IdMap<PeerId, (*const CandidateView, SimTime)> = reg
        .remote_views()
        .map(|r| (r.view.peer, (Arc::as_ptr(&r.view), reg.books.as_of(r))))
        .collect();
    let rumoured: IdMap<PeerId, (*const CandidateView, SimTime)> = oracle
        .remote_peers
        .iter()
        .map(|(&p, (view, as_of))| (p, (Arc::as_ptr(view), *as_of)))
        .collect();
    assert_eq!(held, rumoured);
    assert_eq!(reg.tombstones(), oracle.departed);
}

#[test]
fn an_unchanged_peer_is_republished_as_the_same_allocation() {
    let mut ids = IdGenerator::new(71);
    let mut owner = PeerRegistry::new();
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let [a, b, c] = [1, 2, 3].map(|node| {
        let joining = adv(&mut ids, node, "sc");
        let peer = joining.peer;
        owner.admit(joining, t(0));
        peer
    });
    let first = owner.local_roster(t(60), 24, 1);
    let again = owner.local_roster(t(120), 24, 1);
    assert_eq!(first.len(), 3);
    for (old, new) in first.iter().zip(again.iter()) {
        assert!(Arc::ptr_eq(old, new), "no write, no new allocation");
    }

    // A fellow broker keeps the first round.
    let mut holder = PeerRegistry::new();
    assert_eq!(holder.absorb(NodeId(900), Arc::clone(&first), t(60), 1), 0);
    // One entry is touched; exactly that one is republished afresh.
    let entry = owner.entry_mut(b).unwrap();
    entry.history_mut().transfers_completed = 5;
    entry.stats.pending_transfers = 2;
    let third = owner.local_roster(t(180), 24, 1);
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
    assert_eq!(holder.absorb(NodeId(900), Arc::clone(&third), t(180), 1), 0);
    holder.check_invariants();
    assert!(holder
        .remote_views()
        .all(|r| holder.books.as_of(r) == t(180)));
    for peer in [a, b, c] {
        let held = holder.remote_views().find(|r| r.view.peer == peer).unwrap();
        let sent = third.iter().find(|v| v.peer == peer).unwrap();
        assert!(Arc::ptr_eq(&held.view, sent));
    }
    assert_eq!(holder.roster_copy(t(180), 24, None)[1], *third[1]);
    // A re-join rewrites the entry too, even with nothing new to say.
    let view = &owner.entry(c).unwrap().view;
    let rejoining = PeerAdvertisement {
        peer: c,
        node: view.node,
        name: view.name.to_string(),
        cpu_gops: view.cpu_gops,
    };
    owner.admit(rejoining, t(200));
    let fourth = owner.local_roster(t(240), 24, 1);
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
            let joining = adv(&mut ids, 1000 * (sender + 1) + k, "sc");
            peers.push(joining.peer);
            owner.admit(joining, t(0));
        }
        let first = owner.local_roster(t(60), 24, 2);
        // A third of the peers change, a few leave, before the next round.
        for (k, &peer) in peers.iter().enumerate() {
            match k % 30 {
                0 => assert!(owner.expel(peer)),
                1..=10 => owner.entry_mut(peer).unwrap().stats.pending_transfers = k as u32,
                _ => {}
            }
        }
        rounds.push([first, owner.local_roster(t(120), 24, 2)]);
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
        let squatter = adv(&mut IdGenerator::new(79), 1007, "local");
        reg.admit(squatter, t(0));
        reg.note_departed(rounds[1][0][5].peer, t(90));
        let mut dropped = 0;
        for (sender, round) in arrival {
            let roster = Arc::clone(&rounds[sender][round]);
            let sent_at = t(60 * (round as u64 + 1));
            dropped += reg.absorb(NodeId(900 + sender as u32), roster, sent_at, 2);
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

#[test]
fn a_roster_costs_only_its_changed_rows() {
    // The mechanism as a count the host cannot blur: the membership
    // probes absorbing a roster makes. An unchanged round makes none; one
    // that differs in k rows makes at most k plus one per row it revokes.
    let mut ids = IdGenerator::new(89);
    let t = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let mut owner = PeerRegistry::new();
    let peers: Vec<PeerId> = (0..200)
        .map(|node| {
            let joining = adv(&mut ids, node, "sc");
            let peer = joining.peer;
            owner.admit(joining, t(0));
            peer
        })
        .collect();
    let mut holder = PeerRegistry::new();
    let absorb = |holder: &mut PeerRegistry, roster, at| {
        let before = holder.member_probes;
        let dropped = holder.absorb(NodeId(900), roster, at, 2);
        holder.check_invariants();
        (holder.member_probes - before, dropped)
    };

    let first = owner.local_roster(t(60), 24, 2);
    assert_eq!(
        absorb(&mut holder, first, t(60)),
        (200, 0),
        "every row is new"
    );
    let again = owner.local_roster(t(120), 24, 2);
    assert_eq!(
        absorb(&mut holder, again, t(120)),
        (0, 0),
        "nothing changed"
    );
    assert!(holder
        .remote_views()
        .all(|r| holder.books.as_of(r) == t(120)));

    // Five peers restated, two gone, one new: eight rows differ, and the
    // seven the book held are revoked on the way.
    for &peer in &peers[10..15] {
        owner.entry_mut(peer).unwrap().stats.pending_transfers = 3;
    }
    assert!(owner.expel(peers[20]) && owner.expel(peers[21]));
    owner.admit(adv(&mut ids, 500, "sc"), t(150));
    let changed = owner.local_roster(t(180), 24, 2);
    let (probes, dropped) = absorb(&mut holder, changed, t(180));
    assert_eq!(dropped, 0);
    assert!(probes <= 8 + 7, "{probes} probes");
    assert_eq!(
        holder.remote_count(),
        201,
        "the dropped rows are held until stale"
    );
    // The dropped rows keep the time they were last vouched for.
    for gone in &peers[20..22] {
        let held = holder
            .remote_views()
            .find(|r| r.view.peer == *gone)
            .unwrap();
        assert_eq!(holder.books.as_of(held), t(120));
    }

    // Local changes revoke exactly their rows: a vouched-for peer
    // registers here, and another peer takes a vouched-for host.
    let local = joining(peers[30], 30, "sc@30".to_string());
    holder.admit(local, t(200));
    holder.admit(adv(&mut ids, 40, "squatter"), t(200));
    let unchanged = owner.local_roster(t(240), 24, 2);
    assert_eq!(absorb(&mut holder, unchanged, t(240)), (2, 2));

    // The book keeps one slice per sender: its share, and a mark per row.
    let rows = 199;
    assert_eq!(
        holder.books.heap_bytes(),
        map_estimate::<NodeId, u32>(1)
            + slots_estimate::<crate::broker::books::Book>(1)
            + (ARC_HEADER_BYTES + 8 * rows).div_ceil(2)
            + rows
    );
}

#[test]
fn the_books_do_not_widen_a_row() {
    assert_eq!(std::mem::size_of::<RemoteView>(), 24);
    assert_eq!(std::mem::size_of::<Membership>(), 8);
}

#[test]
fn a_member_slot_and_an_order_entry_hold_handles_not_views() {
    assert_eq!(
        std::mem::size_of::<MemberSlot>(),
        8,
        "a member slot is a hash tag and a slot or handle, no id"
    );
    assert!(
        std::mem::size_of::<crate::broker::roster::OrderEntry>() <= 8,
        "an order entry is a node and a slot or handle, no pointer"
    );
}
