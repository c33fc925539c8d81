use super::*;

use netsim::idmap::IdMap;
use proptest::prelude::*;

/// [`IdHasher`](netsim::idmap::IdHasher)'s multiplier and rotations, to
/// build an id with a chosen tag ([`with_tag`] checks the result).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The peer id whose low word is `salt` and whose hash is `tag` in its
/// low 32 bits and `salt` above: a `u128` key is hashed as two words,
/// `s = lo * K`, then `(s.rotl(5) ^ hi) * K`, rotated left by 26, and a
/// multiply by an odd constant inverts.
fn with_tag(tag: u32, salt: u32) -> PeerId {
    let mut inverse = K;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(inverse)));
    }
    let lo = (u64::from(salt) << 8) | 1;
    let state = ((u64::from(salt) << 32) | u64::from(tag)).rotate_right(26);
    let hi = state.wrapping_mul(inverse) ^ lo.wrapping_mul(K).rotate_left(5);
    let peer = PeerId((u128::from(hi) << 64) | u128::from(lo));
    assert_eq!(
        tag_of(peer),
        tag,
        "the id hashes to the tag it was built for"
    );
    peer
}

/// A membership of state `kind` (mod 3) naming row `row`.
fn state(kind: u8, row: u32) -> Membership {
    match kind % 3 {
        0 => Membership::Local(row),
        1 => Membership::Remote(row),
        _ => Membership::Departed(row),
    }
}

/// The row a membership names (rows are numbered across states here).
fn row(known: Membership) -> usize {
    match known {
        Membership::Local(r) | Membership::Remote(r) | Membership::Departed(r) => r as usize,
    }
}

/// Eight ids of random tags; eight sharing one tag (so each lookup among
/// them reads keys until it finds its own); eight whose tags' low bits
/// are all ones, whose home is the last slot at any size (so their runs
/// wrap to the front of the array).
fn pool() -> Vec<PeerId> {
    let mut ids = crate::id::IdGenerator::new(5);
    let mut pool: Vec<PeerId> = (0..8).map(|_| PeerId::generate(&mut ids)).collect();
    pool.extend((0..8).map(|salt| with_tag(0x0bad_cafe, salt)));
    pool.extend((0..8).map(|salt| with_tag(u32::MAX - (salt << 16), salt + 8)));
    pool
}

/// The table agrees with the oracle on every id of the pool, on its
/// length and on the memberships it holds.
fn agree(members: &Members, oracle: &IdMap<PeerId, Membership>, rows: &[PeerId], pool: &[PeerId]) {
    let key = |known| rows[row(known)];
    for &peer in pool {
        let found = members.find(peer, key).map(|(_, known)| known);
        assert_eq!(found, oracle.get(&peer).copied(), "{peer:?}");
    }
    assert_eq!(members.len(), oracle.len());
    let mut held: Vec<usize> = members.iter().map(row).collect();
    let mut want: Vec<usize> = oracle.values().map(|&known| row(known)).collect();
    held.sort_unstable();
    want.sort_unstable();
    assert_eq!(held, want, "the table holds what the oracle does");
}

proptest! {
    /// Inserts, replacements, removals by key and by code over ids that
    /// share tags and wrap around the array's end, through growth from
    /// empty to 32 slots: the table must agree with an `IdMap` after
    /// every step.
    #[test]
    fn the_table_agrees_with_a_hash_map(
        ops in prop::collection::vec((0u8..4, 0usize..24, 0u8..3), 1..300),
    ) {
        let pool = pool();
        let (mut members, mut oracle) = (Members::default(), IdMap::default());
        // Row r holds the id of the member that was given row r.
        let mut rows: Vec<PeerId> = Vec::new();
        for (op, i, kind) in ops {
            let peer = pool[i];
            let found = members.find(peer, |known| rows[row(known)]);
            match op {
                0 | 1 => {
                    let known = state(kind, rows.len() as u32);
                    rows.push(peer);
                    match found {
                        Some((at, _)) => members.set(at, known),
                        None => members.insert_new(peer, known),
                    }
                    oracle.insert(peer, known);
                }
                2 => {
                    let gone = found.map(|(at, _)| members.remove_at(at));
                    prop_assert_eq!(gone, oracle.remove(&peer));
                }
                _ => {
                    if let Some(known) = oracle.remove(&peer) {
                        // Removing by code reads no row: poison it.
                        rows[row(known)] = PeerId(0);
                        members.remove_known(peer, known);
                    }
                }
            }
            agree(&members, &oracle, &rows, &pool);
        }
    }
}

#[test]
fn a_run_wraps_around_the_end_and_closes_behind_a_removal() {
    // Three ids homed on the last slot of eight, one homed on the first.
    let last: Vec<PeerId> = (0..3).map(|salt| with_tag(7, salt)).collect();
    let first = with_tag(8, 3);
    let rows: Vec<PeerId> = last.iter().copied().chain([first]).collect();
    let key = |known| rows[row(known)];
    let mut members = Members::default();
    for (r, &peer) in rows.iter().enumerate() {
        members.insert_new(peer, Membership::Remote(r as u32));
    }
    assert_eq!(members.slots.len(), 8);
    // Slot 7, then 0 and 1 past the end; `first` is pushed to slot 2.
    let at = |peer| members.find(peer, key).map(|(at, _)| at);
    assert_eq!(
        last.iter().map(|&p| at(p)).collect::<Vec<_>>(),
        [Some(7), Some(0), Some(1)]
    );
    assert_eq!(at(first), Some(2));
    // Removing the run's head moves each later slot back, across the end.
    members.remove_known(last[0], Membership::Remote(0));
    let at = |peer| members.find(peer, key).map(|(at, _)| at);
    assert_eq!(
        [at(last[1]), at(last[2]), at(first)],
        [Some(7), Some(0), Some(1)]
    );
    assert_eq!(at(last[0]), None);
    assert_eq!(
        members.slots[2].code, EMPTY,
        "the gap closed at the run's end"
    );
}

#[test]
fn a_code_packs_a_state_and_a_30_bit_row() {
    for known in [
        Membership::Local(0),
        Membership::Remote(INDEX_MASK),
        Membership::Departed(12_345),
    ] {
        assert_ne!(known.code(), EMPTY);
        assert_eq!(Membership::of_code(known.code()), known);
    }
    assert!(std::panic::catch_unwind(|| Membership::Local(INDEX_MASK + 1).code()).is_err());
}
