//! JXTA-style identifiers.
//!
//! JXTA identifies peers, pipes, content and the like with 128-bit UUID-like
//! IDs. We reproduce that scheme with a namespace byte folded into a 128-bit
//! value, generated deterministically from a seeded generator so simulation
//! runs are reproducible.
//!
//! An id is stored at 8-byte alignment, not a `u128`'s 16, so a record that
//! holds one beside 8-byte fields (a host row, a candidate view, a queued
//! message) carries no padding. It hashes, sorts and prints as its `u128`.

use std::fmt;

use netsim::rng::SimRng;

/// Namespace of an identifier (JXTA calls these ID *types*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum IdKind {
    /// A peer.
    Peer,
    /// A unicast pipe.
    Pipe,
    /// A file-transfer session.
    Transfer,
    /// An executable task.
    Task,
    /// A shared content item.
    Content,
}

impl IdKind {
    fn tag(self) -> u8 {
        match self {
            IdKind::Peer => 0x01,
            IdKind::Pipe => 0x02,
            IdKind::Transfer => 0x04,
            IdKind::Task => 0x05,
            IdKind::Content => 0x06,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            IdKind::Peer => "peer",
            IdKind::Pipe => "pipe",
            IdKind::Transfer => "xfer",
            IdKind::Task => "task",
            IdKind::Content => "cont",
        }
    }
}

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $kind:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(C, packed(8))]
        pub struct $name(pub u128);

        impl $name {
            /// Generates a fresh id from the generator.
            pub fn generate(gen: &mut IdGenerator) -> Self {
                $name(gen.next_raw($kind))
            }

            /// The raw 128-bit value.
            pub fn raw(self) -> u128 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "urn:jxta:{}-{:016x}", $kind.prefix(), (self.0 >> 8) as u64)
            }
        }
    };
}

define_id!(
    /// Identifies a peer.
    PeerId,
    IdKind::Peer
);
define_id!(
    /// Identifies a unicast pipe.
    PipeId,
    IdKind::Pipe
);
define_id!(
    /// Identifies one file-transfer session.
    TransferId,
    IdKind::Transfer
);
define_id!(
    /// Identifies an executable task.
    TaskId,
    IdKind::Task
);
define_id!(
    /// Identifies a shared content item.
    ContentId,
    IdKind::Content
);

/// Deterministic id factory: a seeded RNG plus a collision-free counter.
///
/// The counter guarantees uniqueness within a run even if the RNG were to
/// collide; the RNG spreads ids so hash maps behave.
#[derive(Debug, Clone)]
pub struct IdGenerator {
    rng: SimRng,
    counter: u64,
}

impl IdGenerator {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        IdGenerator {
            rng: SimRng::new(seed ^ 0x1D6E_5A17_0DD5_EED5),
            counter: 0,
        }
    }

    fn next_raw(&mut self, kind: IdKind) -> u128 {
        self.counter += 1;
        let hi = self.rng.next_u64_raw() as u128;
        let lo = self.counter as u128;
        (hi << 64) | (lo << 8) | kind.tag() as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut g = IdGenerator::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(PeerId::generate(&mut g)));
        }
    }

    /// The size of the fullest of `buckets` buckets.
    fn fullest(hashes: &[u64], buckets: usize, bucket_of: impl Fn(u64) -> usize) -> usize {
        let mut load = vec![0usize; buckets];
        for &hash in hashes {
            load[bucket_of(hash)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// The two fields the standard table takes from a hash: the low bits
    /// pick the bucket (4 096 of them at 20 000 keys would be a load of
    /// 4.9), the top seven tag the slot (128 values, 156 keys each). The
    /// keys are the ones the simulator makes: a `PeerId` / `TransferId`
    /// is a seeded random word over a counter over a *constant* namespace
    /// byte, a `NodeId` is a dense `u32`, a timer id is `shard << 48 |
    /// counter`. Bounds: no bucket above 20 (a perfect random function's
    /// fullest is about 16), no tag above 235 (1.5 x the mean).
    #[test]
    fn the_id_hasher_spreads_the_keys_the_simulator_makes() {
        use netsim::idmap::IdBuildHasher;
        use netsim::node::NodeId;
        use std::hash::BuildHasher;

        const N: u64 = 20_000;
        let spread = |hashes: &[u64]| {
            (
                fullest(hashes, 1 << 12, |h| (h & 0xfff) as usize),
                fullest(hashes, 1 << 7, |h| (h >> 57) as usize),
            )
        };
        let build = IdBuildHasher::default();
        let mut ids = IdGenerator::new(9);
        let peers: Vec<PeerId> = (0..N).map(|_| PeerId::generate(&mut ids)).collect();
        let kinds: [(&str, Vec<u64>); 4] = [
            ("PeerId", peers.iter().map(|p| build.hash_one(p)).collect()),
            (
                "TransferId",
                (0..N)
                    .map(|_| build.hash_one(TransferId::generate(&mut ids)))
                    .collect(),
            ),
            (
                "NodeId",
                (0..N).map(|n| build.hash_one(NodeId(n as u32))).collect(),
            ),
            (
                "timer id",
                (0..N).map(|c| build.hash_one(3u64 << 48 | c)).collect(),
            ),
        ];
        for (kind, hashes) in &kinds {
            let (bucket, tag) = spread(hashes);
            assert!(bucket <= 20, "{kind}: a bucket holds {bucket} of {N} keys");
            assert!(tag <= 235, "{kind}: a tag marks {tag} of {N} keys");
        }
        // The bounds tell a hash from none: the keys' own low word puts
        // every id behind its namespace byte and every dense id under one
        // tag.
        let own_bits: Vec<u64> = peers.iter().map(|p| p.raw() as u64).collect();
        assert!(spread(&own_bits).0 > 1000, "sixteen buckets take them all");
        let dense: Vec<u64> = (0..N).collect();
        assert_eq!(spread(&dense).1, N as usize, "one tag marks them all");
    }

    #[test]
    fn ids_are_deterministic_per_seed() {
        let mut g1 = IdGenerator::new(7);
        let mut g2 = IdGenerator::new(7);
        for _ in 0..100 {
            assert_eq!(TransferId::generate(&mut g1), TransferId::generate(&mut g2));
        }
        let mut g3 = IdGenerator::new(8);
        assert_ne!(PeerId::generate(&mut g1), PeerId::generate(&mut g3));
    }

    #[test]
    fn kinds_are_distinguishable() {
        let mut g = IdGenerator::new(2);
        let p = PeerId::generate(&mut g);
        let t = TaskId::generate(&mut g);
        // Tag byte differs even if upper bits were equal.
        assert_ne!(p.raw() & 0xFF, t.raw() & 0xFF);
    }

    /// Each id is 16 B at 8-byte alignment, and hashes and sorts exactly
    /// as its `u128` does, so an `IdMap`'s layout and every sorted output
    /// are those of a plain `u128` key.
    #[test]
    fn ids_are_u128s_at_eight_byte_alignment() {
        use netsim::idmap::IdBuildHasher;
        use std::hash::BuildHasher;
        use std::mem::{align_of, size_of};

        fn check<T: Copy + Ord + std::hash::Hash>(
            make: fn(&mut IdGenerator) -> T,
            raw: fn(T) -> u128,
        ) {
            assert_eq!((size_of::<T>(), align_of::<T>()), (16, 8));
            let build = IdBuildHasher::default();
            let mut g = IdGenerator::new(11);
            let mut ids: Vec<T> = (0..64).map(|_| make(&mut g)).collect();
            for &id in &ids {
                assert_eq!(build.hash_one(id), build.hash_one(raw(id)));
            }
            let mut raws: Vec<u128> = ids.iter().map(|&id| raw(id)).collect();
            ids.sort();
            raws.sort();
            assert_eq!(ids.into_iter().map(raw).collect::<Vec<_>>(), raws);
        }
        check(PeerId::generate, PeerId::raw);
        check(PipeId::generate, PipeId::raw);
        check(TransferId::generate, TransferId::raw);
        check(TaskId::generate, TaskId::raw);
        check(ContentId::generate, ContentId::raw);
        let p = PeerId(0x1234_5678_9abc_def0_0fed_cba9_8765_4321);
        assert_eq!(format!("{p:?}"), format!("PeerId({})", p.raw()));
    }

    #[test]
    fn display_is_urn_like() {
        let mut g = IdGenerator::new(3);
        let p = PeerId::generate(&mut g);
        let s = p.to_string();
        assert!(s.starts_with("urn:jxta:peer-"), "{s}");
        let x = TransferId::generate(&mut g);
        assert!(x.to_string().starts_with("urn:jxta:xfer-"));
    }
}
