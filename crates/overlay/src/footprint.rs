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
//! process RSS proxy). Shared `Arc<str>` names are counted once per
//! holder — a deliberate, slightly conservative overestimate that keeps
//! the arithmetic local. Totals feed the `registry.bytes.*` gauges the
//! broker publishes on its gossip cadence, which the time-series layer
//! turns into `registry_bytes` / `bytes_per_peer` curves.
//!
//! # Shared gossip views are charged once, fleet-wide
//!
//! A gossiped candidate view is one `Arc` allocation, made by the broker
//! the peer is registered at and kept by every broker its roster went
//! to. Counting it once per holder would report memory that does not
//! exist; counting only pointers would hide memory that does. The rule:
//! **each holder charges `ceil(allocation / recipients)` bytes**, where
//! the allocation is the `Arc` header, the view and the name bytes it
//! pins, and `recipients` is how many brokers the sender addressed that
//! round (it travels with the roster). A receiver's own membership row
//! (key, pointer, timestamp, share — or a tombstone; a row is as wide as
//! its widest state) and its host-table row are charged in full, to that
//! receiver, and the shares it holds are kept as a running sum, so the
//! per-tick footprint pass walks no remote view. Summed over the fleet
//! the shares make one copy of each view — rounded up, so never less —
//! for as long as every recipient keeps it, including views of peers that
//! have since left their broker, which a holder evicts at its first
//! roster read after they outlive the staleness bound. A recipient that
//! drops its pointer early (the peer registered there, a local departure
//! purged the host, or it read its roster sooner than the others) or
//! never stored it (it was down, or rejected the view) holds no share;
//! the sum then reads low by that share until a later round stores the
//! view there again. The sender charges nothing for the allocation: it keeps
//! only the pointer to the copy it last published, in the entry slot,
//! which — with each local peer's candidate view in place beside it, the
//! peer's membership and host rows, and the read index — is charged to
//! `roster`.

use std::ops::{Add, AddAssign};

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
