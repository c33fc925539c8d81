//! # netsim — deterministic discrete-event wide-area network simulator
//!
//! The substrate underneath the P2P peer-selection reproduction. It provides:
//!
//! * a virtual clock and deterministic FIFO-tie-broken event queue
//!   ([`time`], [`event`]);
//! * a seeded, splittable random-number generator and delay distributions
//!   ([`rng`]);
//! * host models — CPU with sliver-style background load, per-node service
//!   delay ([`node`]) — and network models — access links, wide-area paths
//!   ([`link`], [`topology`]);
//! * an analytic transport model with uplink/downlink FIFO contention, the
//!   Mathis TCP throughput bound, slow-start and large-message penalties
//!   ([`transport`]);
//! * an actor engine dispatching typed messages between hosts ([`engine`]);
//! * hash tables for keys the simulator numbers itself ([`idmap`]);
//! * measurement plumbing ([`metrics`]), windowed time-series recording
//!   ([`timeseries`]), per-shard execution profiling ([`profile`]), and
//!   structured tracing ([`trace`]).
//!
//! A simulation is a pure function of `(topology, transport config, seed,
//! actors)` — identical inputs produce bit-identical traces, which the test
//! suite asserts.
//!
//! ```
//! use netsim::prelude::*;
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl Payload for Hello {
//!     fn wire_size(&self) -> u64 { 16 }
//! }
//!
//! struct Sender { peer: NodeId }
//! impl Actor<Hello> for Sender {
//!     fn on_start(&mut self, ctx: &mut Context<Hello>) {
//!         ctx.send(self.peer, Hello);
//!     }
//!     fn on_message(&mut self, _: &mut Context<Hello>, _: NodeId, _: Hello) {}
//! }
//! struct Receiver { got: bool }
//! impl Actor<Hello> for Receiver {
//!     fn on_message(&mut self, _: &mut Context<Hello>, _: NodeId, _: Hello) {
//!         self.got = true;
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node(NodeSpec::responsive("a"), AccessLink::default());
//! let b = topo.add_node(NodeSpec::responsive("b"), AccessLink::default());
//! let mut engine = Engine::new(topo, TransportConfig::default(), 42);
//! engine.register(a, Box::new(Sender { peer: b }));
//! engine.register(b, Box::new(Receiver { got: false }));
//! assert_eq!(engine.run(), RunOutcome::QueueEmpty);
//! assert!(engine.now().as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod idmap;
pub mod link;
pub mod metrics;
pub mod node;
mod owners;
pub mod parallel;
pub mod profile;
pub mod rng;
pub mod shard;
pub mod time;
pub mod timeseries;
pub mod topology;
pub mod trace;
pub mod transport;

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::engine::{Actor, Context, Engine, Payload, RunOutcome, ServiceClass, TimerId};
    pub use crate::link::{AccessLink, PathSpec};
    pub use crate::metrics::{Metrics, RunningStat};
    pub use crate::node::{CpuModel, LoadModel, NodeId, NodeSpec};
    pub use crate::parallel::{ParallelError, ParallelProfile, ShardedEngine};
    pub use crate::profile::{ExecutionProfile, ShardRound, ShardTotals};
    pub use crate::rng::{DelayDistribution, SimRng};
    pub use crate::shard::{shard_seed, LookaheadTable, ShardMap, ShardMapError};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeseries::{
        SeriesId, SeriesMode, SeriesRow, SeriesSource, TimeSeriesError, TimeSeriesRecorder,
    };
    pub use crate::topology::Topology;
    pub use crate::transport::{ReceiverDiscipline, TransferPlanner, TransportConfig};
}
