//! The registry's membership table: peer id → the one thing this broker
//! knows of the peer ([`Membership`]), in 8 B a slot.
//!
//! The table is open addressing with linear probing over a power-of-two
//! array. A slot holds no key. It holds a **tag**, the low 32 bits of the
//! peer id's [`IdHasher`](netsim::idmap::IdHasher) hash, and a **code**,
//! the membership packed into 2 + 30 bits. The id itself lives once, in
//! the row the code names: the entry slab's view for `Local`, the remote
//! slab's view for `Remote`, the tombstone's peer column for `Departed`.
//! A lookup reads it ([`key_of`]) only from a slot whose tag matches. A
//! slot's home is `tag & mask`, so growing the array and closing the gap
//! a removal leaves (backward-shift deletion: the table keeps no deleted
//! markers) never read a key. A path that already knows a member's code
//! removes it by code and reads no row either, since the row may be gone
//! by then.

use std::hash::BuildHasher;

use netsim::idmap::IdBuildHasher;

use crate::id::PeerId;

use super::registry::{PeerEntry, PeerRegistry};
use super::remote::RemoteSlab;

/// The one thing a broker knows of a peer id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Membership {
    /// Registered here; the slab slot of its entry.
    Local(u32),
    /// Known from a fellow broker's gossip; the remote-slab handle of the
    /// view.
    Remote(u32),
    /// Seen to leave this broker; the remote-slab handle of the time it
    /// left. A gossiped view older than the tombstone is a stale echo and
    /// must not resurrect the peer; a newer one proves it rejoined
    /// elsewhere and replaces the tombstone.
    Departed(u32),
}

/// Bits of a code that hold the slot or handle; the two above name the
/// state, and a code of 0 is an empty slot.
const INDEX_BITS: u32 = 30;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
const EMPTY: u32 = 0;

impl Membership {
    /// The membership as a slot's code.
    fn code(self) -> u32 {
        let (state, index) = match self {
            Membership::Local(slot) => (1, slot),
            Membership::Remote(h) => (2, h),
            Membership::Departed(t) => (3, t),
        };
        assert!(
            index <= INDEX_MASK,
            "more than 2^30 rows in a registry slab"
        );
        (state << INDEX_BITS) | index
    }

    /// The membership a non-empty slot's code packs.
    fn of_code(code: u32) -> Self {
        let index = code & INDEX_MASK;
        match code >> INDEX_BITS {
            1 => Membership::Local(index),
            2 => Membership::Remote(index),
            _ => Membership::Departed(index),
        }
    }
}

/// One slot of the table.
#[derive(Clone, Copy, Default)]
pub(super) struct MemberSlot {
    tag: u32,
    code: u32,
}

/// The tag of `peer`: the low 32 bits of its id hash.
fn tag_of(peer: PeerId) -> u32 {
    IdBuildHasher::default().hash_one(peer) as u32
}

/// Peer id → [`Membership`], without the ids.
#[derive(Default)]
pub(super) struct Members {
    /// Empty, or a power of two long and never more than 7/8 full.
    slots: Vec<MemberSlot>,
    len: usize,
}

impl Members {
    /// How many peers the table knows.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Where `peer` sits, and what is known of it, if anything: `key`
    /// reads the id a code's row holds.
    pub(super) fn find(
        &self,
        peer: PeerId,
        key: impl Fn(Membership) -> PeerId,
    ) -> Option<(usize, Membership)> {
        if self.len == 0 {
            return None;
        }
        let (tag, mask) = (tag_of(peer), self.mask());
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.code == EMPTY {
                return None;
            }
            if slot.tag == tag {
                let known = Membership::of_code(slot.code);
                if key(known) == peer {
                    return Some((i, known));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Writes `known` over what slot `i` (from [`Members::find`]) holds.
    pub(super) fn set(&mut self, i: usize, known: Membership) {
        self.slots[i].code = known.code();
    }

    /// Adds `peer`, which must not be a member, as `known`.
    pub(super) fn insert_new(&mut self, peer: PeerId, known: Membership) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        self.place(MemberSlot {
            tag: tag_of(peer),
            code: known.code(),
        });
        self.len += 1;
    }

    /// Puts `slot` in the first empty slot from its home.
    fn place(&mut self, slot: MemberSlot) {
        let mask = self.mask();
        let mut i = slot.tag as usize & mask;
        while self.slots[i].code != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Doubles the array and re-places every slot by its tag.
    fn grow(&mut self) {
        let wider = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![MemberSlot::default(); wider]);
        for slot in old.into_iter().filter(|s| s.code != EMPTY) {
            self.place(slot);
        }
    }

    /// Removes the member in slot `i` (from [`Members::find`]) and closes
    /// the gap: each later slot of the run moves back into it when the
    /// gap lies between the slot's home and where it sits.
    pub(super) fn remove_at(&mut self, i: usize) -> Membership {
        let gone = Membership::of_code(self.slots[i].code);
        let mask = self.mask();
        let (mut hole, mut j) = (i, (i + 1) & mask);
        while self.slots[j].code != EMPTY {
            let home = self.slots[j].tag as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = MemberSlot::default();
        self.len -= 1;
        gone
    }

    /// Removes `peer`, known to be a member as `known`, reading no row.
    pub(super) fn remove_known(&mut self, peer: PeerId, known: Membership) {
        let (code, mask) = (known.code(), self.mask());
        let mut i = tag_of(peer) as usize & mask;
        while self.slots[i].code != code {
            assert!(self.slots[i].code != EMPTY, "{known:?} is a member");
            i = (i + 1) & mask;
        }
        self.remove_at(i);
    }

    /// Every membership held, in slot order.
    #[cfg(test)]
    pub(super) fn iter(&self) -> impl Iterator<Item = Membership> + '_ {
        let held = self.slots.iter().filter(|s| s.code != EMPTY);
        held.map(|s| Membership::of_code(s.code))
    }
}

/// The table's key reader: the peer id the row `known` names holds.
pub(super) fn key_of(
    entries: &[Option<PeerEntry>],
    remote: &RemoteSlab,
    known: Membership,
) -> PeerId {
    match known {
        Membership::Local(slot) => {
            let entry = entries[slot as usize].as_ref();
            entry.expect("a local member's slot is occupied").view.peer
        }
        Membership::Remote(h) => remote.get(h).view.peer,
        Membership::Departed(t) => remote.departed(t),
    }
}

impl PeerRegistry {
    /// Where `peer` sits in the membership table, and what is known of it.
    pub(super) fn member(&self, peer: PeerId) -> Option<(usize, Membership)> {
        let (entries, remote) = (&self.entries, &self.remote);
        self.members
            .find(peer, |known| key_of(entries, remote, known))
    }
}

#[cfg(test)]
#[path = "members_tests.rs"]
mod tests;
