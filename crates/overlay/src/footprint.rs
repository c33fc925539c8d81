//! Estimated heap accounting for overlay state.
//!
//! ROADMAP item 1 asks what a million-peer registry actually *costs*; the
//! `MemoryFootprint` trait answers in estimated heap bytes, broken down
//! by component ([`FootprintBreakdown`]): roster bookkeeping, per-peer
//! statistics windows, content holdings, gossip views, and lifecycle
//! scripts.
//!
//! Estimates are **length-based**, not capacity-based: they count live
//! elements times their inline size plus owned string bytes, so the
//! number tracks the data a layout change could shrink rather than
//! allocator slack (which `psim profile` reports separately as the
//! process RSS proxy). Interned `Arc<str>` host names are counted once
//! per holder — a deliberate, slightly conservative overestimate that
//! keeps the arithmetic local; a view's name is part of its allocation. Totals feed the `registry.bytes.*` gauges the
//! broker publishes on its gossip cadence, which the time-series layer
//! turns into `registry_bytes` / `bytes_per_peer` curves.
//!
//! # Shared views are charged once, fleet-wide
//!
//! A peer's candidate view is one `Arc` allocation: its home broker's
//! registry entry points at it, and a gossip round publishes that same
//! allocation to every fellow broker, each of which keeps the pointer.
//! Counting it once per holder would report memory that does not exist;
//! counting only pointers would hide memory that does. The rule: **every
//! holder, the owner included, charges `ceil(allocation / (recipients +
//! 1))` bytes**, where the allocation is the `Arc` header, the view and
//! the name bytes it pins, and `recipients` is how many brokers the owner
//! addressed in its last round (it travels with the roster). Summed over
//! the fleet the shares make one copy of each view — rounded up, so never
//! less — and a broker that gossips to nobody charges its views in full.
//!
//! The owner's share is charged to `roster`, beside the entry slot (which
//! holds only the pointer), the peer's membership and host rows, and the
//! read index. A receiver's share goes to `gossip`, with its own
//! membership row (the key and a slot or handle), host row and row in the
//! remote slab (pointer, timestamp, share, book), which are charged in
//! full; a tombstone is a membership row and a time. Every index row
//! names its peer by a 4-byte slot or handle, so it is as narrow as that
//! whatever the state. A receiver fixes its share when it stores the view
//! and keeps the shares it holds as a running sum, so the per-tick
//! footprint pass walks no remote view. The sum is exact while every recipient holds the copy
//! its owner holds. It drifts in both directions between rounds: a write
//! forks the owner's view, so the owner's share moves to the new copy
//! while the recipients still charge theirs on the old one, until the
//! next round replaces it; a recipient that drops its pointer early (the
//! peer registered there, a local departure purged the host, or it evicted
//! the view as stale) or never stored it (it was down, or rejected the
//! view) holds no share; and a receiver keeps charging a view of a peer
//! that has left its broker until it outlives the staleness bound.

use std::ops::{Add, AddAssign};

use crate::selector::CandidateView;

/// Estimated heap bytes of one overlay actor, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FootprintBreakdown {
    /// Roster bookkeeping: entry slots, id indexes, name interning.
    pub(crate) roster: u64,
    /// Per-peer statistics: windowed ratio rings, reported queue gauges.
    pub(crate) stats: u64,
    /// Content directory: published names and holdings, transfer state.
    pub(crate) content: u64,
    /// Gossip state: remote candidate views learned from peer brokers.
    pub(crate) gossip: u64,
    /// Lifecycle scripts: pre-sampled session plans.
    pub(crate) scripts: u64,
}

impl FootprintBreakdown {
    /// Sum over all components.
    pub(crate) fn total(&self) -> u64 {
        self.roster + self.stats + self.content + self.gossip + self.scripts
    }

    /// `(component name, bytes)` pairs in declaration order — the shape
    /// gauge publishers and report renderers iterate.
    pub fn components(&self) -> [(&'static str, u64); 5] {
        [
            ("roster", self.roster),
            ("stats", self.stats),
            ("content", self.content),
            ("gossip", self.gossip),
            ("scripts", self.scripts),
        ]
    }
}

impl Add for FootprintBreakdown {
    type Output = FootprintBreakdown;
    fn add(mut self, rhs: FootprintBreakdown) -> FootprintBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for FootprintBreakdown {
    fn add_assign(&mut self, rhs: FootprintBreakdown) {
        self.roster += rhs.roster;
        self.stats += rhs.stats;
        self.content += rhs.content;
        self.gossip += rhs.gossip;
        self.scripts += rhs.scripts;
    }
}

/// Reports an estimate of the heap bytes a value holds, by component.
pub(crate) trait MemoryFootprint {
    /// Estimated heap bytes, broken down per [`FootprintBreakdown`].
    fn memory_footprint(&self) -> FootprintBreakdown;
}

/// Heap bytes an `Arc` allocation carries besides its payload (the strong
/// and weak counts).
pub(crate) const ARC_HEADER_BYTES: u64 = 16;

/// Estimated heap bytes of one shared view allocation: the refcounted
/// view plus the name bytes it pins.
pub(crate) fn view_alloc_bytes(view: &CandidateView) -> u64 {
    ARC_HEADER_BYTES + std::mem::size_of::<CandidateView>() as u64 + view.name.len() as u64
}

/// What each holder charges for a view its owner published to
/// `recipients` fellow brokers (the once-only rule above).
pub(crate) fn view_share(view: &CandidateView, recipients: u32) -> u64 {
    view_alloc_bytes(view).div_ceil(u64::from(recipients) + 1)
}

/// Length-based estimate of a slice-backed container's element storage.
pub(crate) fn slots_estimate<T>(len: usize) -> u64 {
    (len * std::mem::size_of::<T>()) as u64
}

/// Length-based estimate of a map's entry storage (key + value inline
/// sizes per live entry; hash-table overhead and slack are ignored).
pub(crate) fn map_estimate<K, V>(len: usize) -> u64 {
    (len * (std::mem::size_of::<K>() + std::mem::size_of::<V>())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_components_agree() {
        let b = FootprintBreakdown {
            roster: 1,
            stats: 2,
            content: 4,
            gossip: 5,
            scripts: 6,
        };
        assert_eq!(b.total(), 18);
        let sum: u64 = b.components().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, b.total());
        assert_eq!(b.components()[0].0, "roster");
    }

    #[test]
    fn breakdowns_add_componentwise() {
        let a = FootprintBreakdown {
            roster: 1,
            scripts: 10,
            ..FootprintBreakdown::default()
        };
        let b = FootprintBreakdown {
            roster: 2,
            gossip: 5,
            ..FootprintBreakdown::default()
        };
        let c = a + b;
        assert_eq!(c.roster, 3);
        assert_eq!(c.gossip, 5);
        assert_eq!(c.scripts, 10);
        assert_eq!(c.total(), 18);
    }

    #[test]
    fn estimates_scale_with_length() {
        assert_eq!(slots_estimate::<u64>(4), 32);
        assert_eq!(map_estimate::<u32, u32>(3), 24);
        assert_eq!(slots_estimate::<u64>(0), 0);
    }
}
