//! The SimpleClient edge peer (no GUI), as used in the paper's experiments.
//!
//! A client joins the overlay through its broker, answers file-transfer
//! petitions, confirms each received part ("correct reception … and its
//! availability to receive another part"), executes offered tasks on its
//! host's CPU model, and periodically reports its local statistics.
//!
//! Beyond the broker-driven flows, clients also participate actively:
//! they **publish content** (file sharing), **request files** by name, and
//! **serve instructed transfers** peer-to-peer when the broker redirects a
//! file request to them.
//!
//! Neither end of the transfer protocol is written here: a client
//! receives through the same receiving end as `LifecyclePeer`, and serves
//! through the same sending end as the broker, keeping only its report.

use std::sync::Arc;

use netsim::engine::{Actor, Context, TimerId};
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::advertisement::{ContentAdvertisement, PeerAdvertisement};
use crate::filetransfer::OutboundTransfer;
use crate::id::{ContentId, IdGenerator, PeerId, TransferId};
use crate::message::OverlayMsg;
use crate::receive::{Petition, Receiver};
use crate::records::RecordSink;
use crate::sendflow::{SenderFlow, Step};
use crate::stats::{QueueGauge, QueueReport};

/// Timer tag for the periodic stats report.
const STATS_TIMER_TAG: u64 = 0;
/// Client-command timer tags occupy `[CMD_TAG_BASE, TASK_TAG_BASE)`.
const CMD_TAG_BASE: u64 = 500;
/// Task-completion timer tags start here.
const TASK_TAG_BASE: u64 = 1000;

/// A scripted client action.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientCommand {
    /// Ask the broker for a file by name (the broker picks an owner peer).
    RequestFile {
        /// Published name of the wanted file.
        name: String,
    },
    /// Leave the overlay.
    Leave,
    /// Re-join the overlay after a [`ClientCommand::Leave`] (same peer
    /// identity; the broker refreshes what it holds of the peer).
    Rejoin,
}

/// CPU rate every client advertises (gops).
const CPU_GOPS: f64 = 1.0;
/// Interval between statistics reports.
const STATS_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Client behaviour knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The broker's host.
    pub(crate) broker: NodeId,
    /// Probability of accepting an individual task offer.
    pub task_accept_probability: f64,
    /// Probability of refusing an individual petition (flaky-peer model;
    /// 1.0 refuses every petition).
    pub transfer_refuse_probability: f64,
    /// Files this peer shares, published after joining: `(name, bytes)`.
    pub shared_files: Vec<(String, u64)>,
    /// Scripted actions: `(delay from start, command)`.
    pub commands: Vec<(SimDuration, ClientCommand)>,
}

impl ClientConfig {
    /// A cooperative client of the given broker.
    pub fn new(broker: NodeId) -> Self {
        ClientConfig {
            broker,
            task_accept_probability: 1.0,
            transfer_refuse_probability: 0.0,
            shared_files: Vec::new(),
            commands: Vec::new(),
        }
    }

    /// Schedules a command `delay` after start.
    #[cfg(test)]
    pub(crate) fn at(mut self, delay: SimDuration, cmd: ClientCommand) -> Self {
        self.commands.push((delay, cmd));
        self
    }
}

/// The SimpleClient actor.
pub struct SimpleClient {
    cfg: ClientConfig,
    ids: IdGenerator,
    pub(crate) peer_id: PeerId,
    joined: bool,
    /// Transfers and tasks this peer receives.
    receiver: Receiver,
    /// Transfers this peer is *sending* (instructed by the broker).
    outbound: SenderFlow,
    /// Inbox and outbox queue gauges: all the statistics report reads.
    /// Born at time zero, when every actor starts.
    inbox: QueueGauge,
    outbox: QueueGauge,
}

impl SimpleClient {
    /// Creates a client; `id_seed` must be unique per client for unique ids.
    pub fn new(cfg: ClientConfig, id_seed: u64) -> Self {
        let mut ids = IdGenerator::new(id_seed);
        SimpleClient {
            peer_id: PeerId::generate(&mut ids),
            ids,
            cfg,
            joined: false,
            receiver: Receiver::new(TASK_TAG_BASE, None),
            outbound: SenderFlow::new(None),
            inbox: QueueGauge::new(SimTime::ZERO),
            outbox: QueueGauge::new(SimTime::ZERO),
        }
    }

    /// Attaches a record sink so peer-to-peer transfers this client serves
    /// appear in the run log, and received ones carry its byte tally.
    pub fn with_sink(mut self, sink: RecordSink) -> Self {
        self.receiver = Receiver::new(TASK_TAG_BASE, Some(sink.clone()));
        self.outbound = SenderFlow::new(Some(sink));
        self
    }

    /// The advertisement a Join (first or re-) publishes for this peer.
    fn advertisement(&self, ctx: &Context<OverlayMsg>) -> PeerAdvertisement {
        PeerAdvertisement {
            peer: self.peer_id,
            node: ctx.self_id(),
            name: ctx.node_name(ctx.self_id()).to_string(),
            cpu_gops: CPU_GOPS,
        }
    }

    fn touch_gauges(&mut self, now: SimTime) {
        let running = self.receiver.running_len();
        let load = (self.receiver.inbound_len() + running) as u32;
        self.inbox.set(now, load);
        self.outbox.set(now, (running + self.outbound.len()) as u32);
    }

    /// Closes a served transfer the receiver refused or took whole, and
    /// reports it to the broker.
    fn close_serve(&mut self, ctx: &mut Context<OverlayMsg>, transfer: TransferId, step: Step) {
        let completed = match step {
            Step::Complete => true,
            Step::Refused => false,
            Step::Sent { .. } | Step::Stale => return,
        };
        let Some(done) = self.outbound.finish(ctx, transfer, completed) else {
            return;
        };
        ctx.send(
            self.cfg.broker,
            OverlayMsg::TransferReport {
                transfer,
                ok: completed,
                elapsed_secs: done.elapsed_secs,
                bytes: done.bytes,
            },
        );
        if completed {
            self.touch_gauges(ctx.now());
        }
    }

    fn run_command(&mut self, ctx: &mut Context<OverlayMsg>, cmd: ClientCommand) {
        match cmd {
            ClientCommand::RequestFile { name } => {
                ctx.send(
                    self.cfg.broker,
                    OverlayMsg::FileRequest {
                        requester: self.peer_id,
                        name: name.into(),
                    },
                );
            }
            ClientCommand::Leave => {
                ctx.send(self.cfg.broker, OverlayMsg::Leave { peer: self.peer_id });
                self.joined = false;
            }
            ClientCommand::Rejoin => {
                if !self.joined {
                    let adv = self.advertisement(ctx);
                    ctx.send(self.cfg.broker, OverlayMsg::Join(Box::new(adv)));
                }
            }
        }
    }
}

impl Actor<OverlayMsg> for SimpleClient {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        let adv = self.advertisement(ctx);
        ctx.send(self.cfg.broker, OverlayMsg::Join(Box::new(adv)));
        ctx.schedule_timer(STATS_INTERVAL, STATS_TIMER_TAG);
        let commands = std::mem::take(&mut self.cfg.commands);
        for (i, (delay, _)) in commands.iter().enumerate() {
            ctx.schedule_timer(*delay, CMD_TAG_BASE + i as u64);
        }
        self.cfg.commands = commands;
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        let now = ctx.now();
        match msg {
            OverlayMsg::JoinAck => {
                self.joined = true;
                // Publish shared content once membership is confirmed.
                let shared = self.cfg.shared_files.clone();
                for (name, bytes) in shared {
                    let adv = ContentAdvertisement {
                        content: ContentId::generate(&mut self.ids),
                        owner: self.peer_id,
                        name,
                        size_bytes: bytes,
                    };
                    ctx.send(self.cfg.broker, OverlayMsg::PublishContent(Box::new(adv)));
                }
            }
            OverlayMsg::FilePetition {
                transfer,
                num_parts,
                sent_at,
                ..
            } => {
                let refuse = self.cfg.transfer_refuse_probability;
                let answer =
                    self.receiver
                        .on_petition(ctx, from, transfer, num_parts, sent_at, |ctx| {
                            !ctx.rng().bernoulli(refuse)
                        });
                if answer == Petition::Fresh {
                    self.touch_gauges(now);
                }
            }
            OverlayMsg::FilePart {
                transfer,
                index,
                size,
            } => self.receiver.on_part(ctx, from, transfer, index, size),
            OverlayMsg::TransferComplete { transfer } | OverlayMsg::TransferCancel { transfer } => {
                self.receiver.close(transfer);
                self.touch_gauges(now);
            }
            // ---- sender side: the broker told us to serve a file --------
            OverlayMsg::TransferInstruction {
                to_node,
                file,
                num_parts,
            } => {
                let id = TransferId::generate(&mut self.ids);
                let outbound = OutboundTransfer::new(id, *file, to_node, num_parts, now);
                let to_name = Arc::from(ctx.node_name(to_node));
                self.outbound.petition(ctx, outbound, to_name, now);
                self.touch_gauges(now);
            }
            OverlayMsg::PetitionAck {
                transfer,
                accepted,
                handled_at,
                ..
            } => {
                let (_, step) = self.outbound.on_ack(ctx, transfer, accepted, handled_at);
                self.close_serve(ctx, transfer, step);
            }
            OverlayMsg::PartConfirm { transfer, index } => {
                let step = self.outbound.on_confirm(ctx, transfer, index);
                self.close_serve(ctx, transfer, step);
            }
            OverlayMsg::TaskOffer { task, .. } => {
                let accept = ctx.rng().bernoulli(self.cfg.task_accept_probability);
                self.receiver
                    .on_task_offer(ctx, from, task.id, task.work_gops, accept);
                if accept {
                    self.touch_gauges(now);
                }
            }
            OverlayMsg::Ping { nonce, sent_at } => Receiver::pong(ctx, from, nonce, sent_at),
            _ => {
                // Remaining messages are not addressed to clients.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, _timer: TimerId, tag: u64) {
        let now = ctx.now();
        if tag == STATS_TIMER_TAG {
            let load = self.receiver.inbound_len() + self.receiver.running_len();
            self.inbox.set(now, load as u32);
            let report = QueueReport::of(&self.inbox, &self.outbox, now);
            ctx.send(self.cfg.broker, OverlayMsg::StatsReport(report));
            ctx.schedule_timer(STATS_INTERVAL, STATS_TIMER_TAG);
            return;
        }
        if (CMD_TAG_BASE..TASK_TAG_BASE).contains(&tag) {
            let idx = (tag - CMD_TAG_BASE) as usize;
            if let Some((_, cmd)) = self.cfg.commands.get(idx).cloned() {
                self.run_command(ctx, cmd);
            }
            return;
        }
        if self.receiver.finish_task(ctx, tag, self.cfg.broker) {
            self.touch_gauges(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Client behaviour is exercised end-to-end in the broker tests and the
    // crate-level integration tests; here we check the pure bits.

    #[test]
    fn unique_peer_ids_per_seed() {
        let a = SimpleClient::new(ClientConfig::new(NodeId(0)), 1);
        let b = SimpleClient::new(ClientConfig::new(NodeId(0)), 2);
        assert_ne!(a.peer_id, b.peer_id);
        let a2 = SimpleClient::new(ClientConfig::new(NodeId(0)), 1);
        assert_eq!(a.peer_id, a2.peer_id);
    }

    #[test]
    fn starts_unjoined_and_idle() {
        let c = SimpleClient::new(ClientConfig::new(NodeId(0)), 3);
        assert!(!c.joined);
        assert_eq!(c.receiver.inbound_len(), 0);
    }

    #[test]
    fn simple_client_stays_small() {
        assert!(
            std::mem::size_of::<SimpleClient>() <= 352,
            "a client keeps only the two queue gauges its statistics report reads"
        );
    }

    #[test]
    fn config_defaults_are_cooperative() {
        let cfg = ClientConfig::new(NodeId(7));
        assert_eq!(cfg.task_accept_probability, 1.0);
        assert_eq!(cfg.transfer_refuse_probability, 0.0);
        assert!(cfg.shared_files.is_empty());
        assert!(cfg.commands.is_empty());
    }

    #[test]
    fn config_builders() {
        let cfg = ClientConfig::new(NodeId(0)).at(
            SimDuration::from_secs(5),
            ClientCommand::RequestFile { name: "x".into() },
        );
        assert_eq!(cfg.commands.len(), 1);
    }
}
