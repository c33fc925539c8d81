//! The registry's remote slab: what a broker holds of peers it knows only
//! from a fellow broker's gossip, and when it saw peers depart.
//!
//! Each view held is one row of a slab, addressed by a 4-byte **handle**.
//! Only the slab holds the view pointer and what goes with it; every
//! per-peer index names the peer by its handle — the membership table's
//! `Remote(handle)`, a host row's claim and its spill lists, the read
//! side's order entries — so an index row is 8 B, whatever a view costs.
//! A handle stays with its peer while the peer is rumoured here: a newer
//! view of the same peer is written into the same row. Freed rows are
//! recycled LIFO, like the entry slab's, so the slab grows to the
//! high-water mark of views held at once, not the number ever learnt.
//!
//! A tombstone is a departure time and the peer that left, each in a
//! column of its own, addressed the same way by the membership table's
//! `Departed(handle)`: the table keeps no ids, so it reads a tombstone's
//! peer from here.

use std::sync::Arc;

use netsim::time::SimTime;

use crate::footprint::slots_estimate;
use crate::id::PeerId;
use crate::selector::CandidateView;

/// A gossiped candidate plus the virtual time its sending broker took
/// the snapshot, so selection can apply a staleness window. The view is
/// the sender's allocation, shared with every other broker the roster
/// went to.
pub(crate) struct RemoteView {
    pub(crate) view: Arc<CandidateView>,
    /// When the view was last vouched for — unless it is booked, in which
    /// case its book's `sent_at` is (read through
    /// [`Books::as_of`](super::books::Books::as_of)).
    pub(super) as_of: SimTime,
    /// This holder's share of the view allocation, in bytes (see the
    /// once-only rule in [`crate::footprint`]). Fixed when the view is
    /// learnt so the footprint pass never chases the pointer.
    pub(super) charge: u32,
    /// The book of the sender whose last roster carries this allocation
    /// as a marked row, or [`UNBOOKED`](super::books::UNBOOKED).
    pub(super) book: u32,
}

/// Remote views and tombstones, each addressed by a handle.
#[derive(Default)]
pub(super) struct RemoteSlab {
    /// Indexed by handle; `None` marks a recyclable row.
    views: Vec<Option<RemoteView>>,
    /// Free view handles, reused LIFO.
    free: Vec<u32>,
    /// Sum of `charge` over the views held, kept as rows are stored,
    /// replaced and dropped so the footprint pass does not walk them.
    charge: u64,
    /// Departure times, indexed by tombstone handle.
    left_at: Vec<SimTime>,
    /// Who left, indexed by tombstone handle.
    left_peer: Vec<PeerId>,
    /// Free tombstone handles, reused LIFO.
    left_free: Vec<u32>,
}

impl RemoteSlab {
    /// Stores `remote` in a free row and returns its handle.
    pub(super) fn hold(&mut self, remote: RemoteView) -> u32 {
        self.charge += u64::from(remote.charge);
        match self.free.pop() {
            Some(h) => {
                self.views[h as usize] = Some(remote);
                h
            }
            None => {
                self.views.push(Some(remote));
                (self.views.len() - 1) as u32
            }
        }
    }

    /// The view held under handle `h`.
    pub(super) fn get(&self, h: u32) -> &RemoteView {
        self.views[h as usize]
            .as_ref()
            .expect("a live handle names a held view")
    }

    /// The view held under handle `h`, for a write that leaves its charge.
    pub(super) fn get_mut(&mut self, h: u32) -> &mut RemoteView {
        self.views[h as usize]
            .as_mut()
            .expect("a live handle names a held view")
    }

    /// Writes `remote` into row `h` in place of the view it held, which
    /// is returned.
    pub(super) fn replace(&mut self, h: u32, remote: RemoteView) -> RemoteView {
        self.charge += u64::from(remote.charge);
        let old = self.views[h as usize].replace(remote);
        let old = old.expect("a live handle names a held view");
        self.charge -= u64::from(old.charge);
        old
    }

    /// Drops the view under handle `h` and frees the row.
    pub(super) fn take(&mut self, h: u32) -> RemoteView {
        let old = self.views[h as usize].take();
        let old = old.expect("a live handle names a held view");
        self.charge -= u64::from(old.charge);
        self.free.push(h);
        old
    }

    /// One pass over the views held, in handle order: a view `keep`
    /// refuses is dropped and its row freed.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(u32, &RemoteView) -> bool) {
        for (h, row) in self.views.iter_mut().enumerate() {
            let Some(remote) = row else {
                continue;
            };
            if !keep(h as u32, remote) {
                self.charge -= u64::from(remote.charge);
                *row = None;
                self.free.push(h as u32);
            }
        }
    }

    /// How many views are held.
    pub(super) fn len(&self) -> usize {
        self.views.len() - self.free.len()
    }

    /// Records that `peer` departed at `at` and returns the tombstone
    /// handle.
    pub(super) fn bury(&mut self, peer: PeerId, at: SimTime) -> u32 {
        match self.left_free.pop() {
            Some(t) => {
                self.left_at[t as usize] = at;
                self.left_peer[t as usize] = peer;
                t
            }
            None => {
                self.left_at.push(at);
                self.left_peer.push(peer);
                (self.left_at.len() - 1) as u32
            }
        }
    }

    /// The peer whose departure tombstone handle `t` records.
    pub(super) fn departed(&self, t: u32) -> PeerId {
        self.left_peer[t as usize]
    }

    /// When the departure under tombstone handle `t` was seen.
    pub(super) fn left_at(&self, t: u32) -> SimTime {
        self.left_at[t as usize]
    }

    /// Moves tombstone `t` to a later departure.
    pub(super) fn rebury(&mut self, t: u32, at: SimTime) {
        self.left_at[t as usize] = at;
    }

    /// Frees tombstone handle `t`.
    pub(super) fn exhume(&mut self, t: u32) {
        self.left_free.push(t);
    }

    /// Length-based heap estimate: the view rows and the tombstone
    /// columns with their free lists, and this holder's share of each
    /// view allocation.
    pub(super) fn heap_bytes(&self) -> u64 {
        slots_estimate::<Option<RemoteView>>(self.views.len())
            + slots_estimate::<u32>(self.free.len())
            + slots_estimate::<SimTime>(self.left_at.len())
            + slots_estimate::<PeerId>(self.left_peer.len())
            + slots_estimate::<u32>(self.left_free.len())
            + self.charge
    }
}

#[cfg(test)]
impl RemoteSlab {
    /// Every view held, as `(handle, view)`, in handle order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u32, &RemoteView)> {
        let rows = self.views.iter().enumerate();
        rows.filter_map(|(h, row)| row.as_ref().map(|remote| (h as u32, remote)))
    }

    /// The slab's own invariants, given the view and tombstone handles
    /// the membership table holds: each free list is duplicate-free and
    /// disjoint from the live rows, and every live row and tombstone is
    /// named by exactly one member.
    pub(super) fn check(&self, mut views: Vec<u32>, mut tombstones: Vec<u32>) {
        let mut free = self.free.clone();
        free.sort_unstable();
        let empty: Vec<u32> = (0..self.views.len() as u32)
            .filter(|&h| self.views[h as usize].is_none())
            .collect();
        assert_eq!(free, empty, "the free view handles are the empty rows");
        views.sort_unstable();
        let live: Vec<u32> = self.iter().map(|(h, _)| h).collect();
        assert_eq!(views, live, "each live row has exactly one member");
        let charge: u64 = self.iter().map(|(_, r)| u64::from(r.charge)).sum();
        assert_eq!(self.charge, charge, "the running charge is the sum");
        tombstones.extend_from_slice(&self.left_free);
        tombstones.sort_unstable();
        assert!(
            tombstones.iter().copied().eq(0..self.left_at.len() as u32),
            "each tombstone handle is free or named by exactly one member"
        );
    }
}
