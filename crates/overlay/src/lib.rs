//! # overlay — a JXTA-Overlay reimplementation
//!
//! JXTA-Overlay (the platform the paper deployed on PlanetLab) is a brokered
//! P2P overlay built from three modules: **Broker**, **Primitives**, and
//! **Client**. This crate rebuilds all three on top of the `netsim` actor
//! engine:
//!
//! * [`id`], [`advertisement`], [`pipe`], [`group`] — JXTA plumbing:
//!   128-bit ids, discoverable advertisements, unicast pipes, peergroups.
//! * [`message`] — the wire protocol (membership, discovery, statistics,
//!   instant messaging, chunked file transfer, task management).
//! * [`stats`] — the resource-statistics interface of paper §2.2: every
//!   criterion the data-evaluator selection model weighs.
//! * [`filetransfer`] — the petition → ack → stop-and-wait-parts protocol
//!   the paper measures in §4.2; [`sendflow`] — the shared sender-side
//!   state machine (window + record invariants) both broker and client
//!   drive it with.
//! * [`task`] — executable-task lifecycle.
//! * [`client`] — the SimpleClient edge peer; [`gui`] — the GUI client
//!   (SimpleClient plus a simulated interactive user); [`lifecycle`] — the
//!   scripted churn peer that joins, leaves, and rejoins on a pre-sampled
//!   schedule.
//! * [`broker`] — the governor: registry, statistics aggregation, transfer
//!   and task coordination, scripted commands, and the selection hook.
//! * [`federation`] — multi-broker wiring: the validating
//!   [`federation::FederationBuilder`], client→broker homing policies,
//!   and the failover knobs re-homing clients run with.
//! * [`selector`] — the [`selector::PeerSelector`] trait the `peer-selection`
//!   crate implements, the [`selector::Roster`] a request lends it (the
//!   broker's own registry slots, read in place), plus blind baselines.
//! * [`streaming`] — streaming-on-demand viewers: playback buffers over
//!   piece exchange, with sequential / windowed / rarest-within-window
//!   [`streaming::PiecePolicy`] selection.
//! * [`records`] — shared run log experiments read after a simulation.
//! * [`footprint`] — estimated heap accounting ([`footprint::MemoryFootprint`])
//!   behind the `registry.bytes.*` gauges and `bytes_per_peer` curves.

#![warn(missing_docs)]

pub mod advertisement;
pub mod broker;
pub mod client;
pub mod federation;
pub mod filetransfer;
pub mod footprint;
pub mod group;
pub mod gui;
pub mod id;
pub mod lifecycle;
pub mod message;
pub mod pipe;
pub mod records;
pub mod selector;
pub mod sendflow;
pub mod stats;
pub mod streaming;
pub mod task;

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
    pub use crate::client::{ClientCommand, ClientConfig, SimpleClient};
    pub use crate::federation::{
        FailoverPolicy, Federation, FederationBuilder, FederationError, HomingPolicy,
    };
    pub use crate::filetransfer::{split_parts, FileMeta};
    pub use crate::footprint::{FootprintBreakdown, MemoryFootprint};
    pub use crate::gui::{GuiClient, UserBehavior};
    pub use crate::id::{GroupId, PeerId, TaskId, TransferId};
    pub use crate::lifecycle::{
        ChurnProfile, LifecycleConfig, LifecyclePeer, LifecycleScript, LifecycleState, SessionPlan,
    };
    pub use crate::message::OverlayMsg;
    pub use crate::records::{
        JobRecord, RecordSink, RunLog, StreamRecord, TaskRecord, TransferRecord,
    };
    pub use crate::selector::{
        CandidateView, InteractionHistory, PeerSelector, Purpose, RandomSelector,
        RoundRobinSelector, SelectionOutcome, SelectionRequest,
    };
    pub use crate::stats::{Criterion, PeerStats, StatsSnapshot};
    pub use crate::streaming::{PiecePolicy, StreamConfig, StreamingClient};
    pub use crate::task::TaskSpec;
}
