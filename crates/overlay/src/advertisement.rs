//! JXTA-style advertisements.
//!
//! In JXTA a resource is announced through an *advertisement*: a small
//! self-describing document. Two are modelled here, the ones the paper's
//! protocols carry: a peer announces itself when it joins, and a client
//! announces each file it shares.

use netsim::node::NodeId;

use crate::id::{ContentId, PeerId};

/// Announces a peer and its capabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerAdvertisement {
    /// The advertised peer.
    pub(crate) peer: PeerId,
    /// The simulated host the peer runs on.
    pub(crate) node: NodeId,
    /// Human-readable peer name (hostname in our testbed).
    pub(crate) name: String,
    /// Advertised CPU rate in giga-ops/second.
    pub(crate) cpu_gops: f64,
}

impl PeerAdvertisement {
    /// Approximate serialized size in bytes.
    pub(crate) fn wire_size(&self) -> u64 {
        96 + self.name.len() as u64
    }
}

/// Announces shared content (a file available for transfer).
#[derive(Debug, Clone, PartialEq)]
pub struct ContentAdvertisement {
    /// The advertised content item.
    pub(crate) content: ContentId,
    /// The peer that holds it.
    pub(crate) owner: PeerId,
    /// File name.
    pub(crate) name: String,
    /// File size in bytes.
    pub(crate) size_bytes: u64,
}

impl ContentAdvertisement {
    /// Approximate serialized size in bytes.
    pub(crate) fn wire_size(&self) -> u64 {
        88 + self.name.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;

    #[test]
    fn wire_sizes_scale_with_name() {
        let mut g = IdGenerator::new(1);
        let short = PeerAdvertisement {
            peer: PeerId::generate(&mut g),
            node: NodeId(0),
            name: "host.example".into(),
            cpu_gops: 1.5,
        };
        let mut long = short.clone();
        long.name = "a-very-long-hostname.with.many.labels.example.org".into();
        assert!(long.wire_size() > short.wire_size());
    }
}
