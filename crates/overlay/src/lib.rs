//! # overlay — a JXTA-Overlay reimplementation
//!
//! JXTA-Overlay (the platform the paper deployed on PlanetLab) is a brokered
//! P2P overlay built from three modules: **Broker**, **Primitives**, and
//! **Client**. This crate rebuilds all three on top of the `netsim` actor
//! engine:
//!
//! * [`id`], `advertisement` — JXTA plumbing: 128-bit ids, and the peer
//!   and content advertisements a join and a shared file publish.
//! * [`message`] — the wire protocol (membership, statistics, chunked file
//!   transfer, content requests, federation, streaming, task management).
//!   JXTA's discovery queries, peergroups and instant messaging are not
//!   modelled: no experiment of the paper uses them.
//! * [`stats`] — the resource-statistics interface of paper §2.2: every
//!   criterion the data-evaluator selection model weighs.
//! * [`filetransfer`] — the petition → ack → stop-and-wait-parts protocol
//!   the paper measures in §4.2. Each end of it is written once, in
//!   crate-private modules: `sendflow` sends for the broker and for a
//!   client serving an instructed request; `receive` answers for
//!   [`client::SimpleClient`] and [`lifecycle::LifecyclePeer`], and runs
//!   their offered tasks.
//! * [`task`] — executable-task lifecycle.
//! * [`client`] — the SimpleClient edge peer; [`lifecycle`] — the
//!   scripted churn peer that joins, leaves, and rejoins on a pre-sampled
//!   schedule.
//! * [`broker`] — the governor: registry, statistics aggregation, transfer
//!   and task coordination, scripted commands, and the selection hook.
//! * [`federation`] — multi-broker wiring: a [`federation::FederationSpec`]
//!   validated into a [`federation::Federation`], client→broker homing
//!   policies, and the failover knobs re-homing clients run with.
//! * [`selector`] — the [`selector::PeerSelector`] trait the `peer-selection`
//!   crate implements, the [`selector::Roster`] a request lends it (the
//!   broker's own registry slots, read in place), plus blind baselines.
//! * [`streaming`] — streaming-on-demand viewers: playback buffers over
//!   piece exchange, with sequential / windowed / rarest-within-window
//!   [`streaming::PiecePolicy`] selection.
//! * [`records`] — shared run log experiments read after a simulation.
//! * [`footprint`] — estimated heap accounting (`footprint::MemoryFootprint`)
//!   behind the `registry.bytes.*` gauges and `bytes_per_peer` curves.

#![warn(missing_docs)]

mod advertisement;
pub mod broker;
pub mod client;
pub mod federation;
pub mod filetransfer;
pub mod footprint;
pub mod id;
pub mod lifecycle;
pub mod message;
mod receive;
pub mod records;
pub mod selector;
mod sendflow;
pub mod stats;
pub mod streaming;
pub mod task;
