//! Unicast pipe bookkeeping.
//!
//! JXTA applications communicate over *pipes*: named, advertised,
//! unidirectional channels resolved to a peer endpoint. Our transport is
//! connectionless (the engine routes by host), so pipes here are the
//! resolution layer: a registry mapping pipe ids to owning peers and hosts,
//! with open/resolve/close semantics and per-pipe traffic accounting.

use netsim::idmap::IdMap;

use netsim::node::NodeId;
use netsim::time::SimTime;

use crate::advertisement::PipeAdvertisement;
use crate::id::{IdGenerator, PeerId, PipeId};

/// One registered pipe endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeEndpoint {
    /// The pipe's advertisement.
    pub adv: PipeAdvertisement,
    /// Host the owner runs on.
    pub node: NodeId,
    /// Messages routed through this pipe.
    pub messages: u64,
    /// Bytes routed through this pipe.
    pub bytes: u64,
}

/// Registry of open pipes (kept by the broker).
#[derive(Debug, Default)]
pub struct PipeRegistry {
    pipes: IdMap<PipeId, PipeEndpoint>,
}

impl PipeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PipeRegistry::default()
    }

    /// Opens (registers) a pipe for `owner` on `node`; returns its id.
    pub fn open(
        &mut self,
        ids: &mut IdGenerator,
        owner: PeerId,
        node: NodeId,
        name: impl Into<String>,
        now: SimTime,
        lifetime: netsim::time::SimDuration,
    ) -> PipeId {
        let pipe = PipeId::generate(ids);
        self.pipes.insert(
            pipe,
            PipeEndpoint {
                adv: PipeAdvertisement {
                    pipe,
                    owner,
                    name: name.into(),
                    published: now,
                    lifetime,
                },
                node,
                messages: 0,
                bytes: 0,
            },
        );
        pipe
    }

    /// Resolves a pipe to its destination host, if open and unexpired.
    pub fn resolve(&self, pipe: PipeId, now: SimTime) -> Option<NodeId> {
        self.pipes
            .get(&pipe)
            .filter(|p| !p.adv.is_expired(now))
            .map(|p| p.node)
    }

    /// Accounts one message of `bytes` routed through `pipe`.
    pub fn account(&mut self, pipe: PipeId, bytes: u64) {
        if let Some(p) = self.pipes.get_mut(&pipe) {
            p.messages += 1;
            p.bytes += bytes;
        }
    }

    /// Closes a pipe; returns its final accounting if it existed.
    pub fn close(&mut self, pipe: PipeId) -> Option<PipeEndpoint> {
        self.pipes.remove(&pipe)
    }

    /// Drops expired pipes, returning how many were purged.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let before = self.pipes.len();
        self.pipes.retain(|_, p| !p.adv.is_expired(now));
        before - self.pipes.len()
    }

    /// Number of open pipes.
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    /// True when no pipes are open.
    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }

    /// All pipes owned by `peer`.
    pub fn owned_by(&self, peer: PeerId) -> impl Iterator<Item = &PipeEndpoint> {
        self.pipes.values().filter(move |p| p.adv.owner == peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn setup() -> (PipeRegistry, IdGenerator, PeerId) {
        let mut ids = IdGenerator::new(1);
        let owner = PeerId::generate(&mut ids);
        (PipeRegistry::new(), ids, owner)
    }

    #[test]
    fn open_resolve_close() {
        let (mut reg, mut ids, owner) = setup();
        let pipe = reg.open(
            &mut ids,
            owner,
            NodeId(3),
            "ctl",
            t(0),
            SimDuration::from_secs(100),
        );
        assert_eq!(reg.resolve(pipe, t(10)), Some(NodeId(3)));
        assert_eq!(reg.len(), 1);
        let closed = reg.close(pipe).unwrap();
        assert_eq!(closed.node, NodeId(3));
        assert_eq!(reg.resolve(pipe, t(10)), None);
        assert!(reg.is_empty());
    }

    #[test]
    fn expired_pipes_do_not_resolve() {
        let (mut reg, mut ids, owner) = setup();
        let pipe = reg.open(
            &mut ids,
            owner,
            NodeId(1),
            "x",
            t(0),
            SimDuration::from_secs(10),
        );
        assert_eq!(reg.resolve(pipe, t(5)), Some(NodeId(1)));
        assert_eq!(reg.resolve(pipe, t(11)), None);
        assert_eq!(reg.purge_expired(t(11)), 1);
        assert!(reg.is_empty());
    }

    #[test]
    fn accounting_accumulates() {
        let (mut reg, mut ids, owner) = setup();
        let pipe = reg.open(
            &mut ids,
            owner,
            NodeId(2),
            "data",
            t(0),
            SimDuration::from_secs(100),
        );
        reg.account(pipe, 500);
        reg.account(pipe, 1500);
        let ep = reg.close(pipe).unwrap();
        assert_eq!(ep.messages, 2);
        assert_eq!(ep.bytes, 2000);
    }

    #[test]
    fn owned_by_filters() {
        let (mut reg, mut ids, owner) = setup();
        let other = PeerId::generate(&mut ids);
        reg.open(
            &mut ids,
            owner,
            NodeId(1),
            "a",
            t(0),
            SimDuration::from_secs(100),
        );
        reg.open(
            &mut ids,
            owner,
            NodeId(1),
            "b",
            t(0),
            SimDuration::from_secs(100),
        );
        reg.open(
            &mut ids,
            other,
            NodeId(2),
            "c",
            t(0),
            SimDuration::from_secs(100),
        );
        assert_eq!(reg.owned_by(owner).count(), 2);
        assert_eq!(reg.owned_by(other).count(), 1);
    }
}
