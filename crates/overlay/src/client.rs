//! The SimpleClient edge peer (no GUI), as used in the paper's experiments.
//!
//! A client joins the overlay through its broker, answers file-transfer
//! petitions, confirms each received part ("correct reception … and its
//! availability to receive another part"), executes offered tasks on its
//! host's CPU model, and periodically reports its local statistics.
//!
//! Beyond the broker-driven flows, clients also participate actively:
//! they **publish content** (file sharing), **serve instructed transfers**
//! peer-to-peer when the broker redirects a file request to them, and
//! **submit jobs** of their own which the broker places via its selection
//! model.

use netsim::idmap::IdMap;

use netsim::engine::{Actor, Context, TimerId};
use netsim::node::NodeId;
use netsim::time::SimDuration;
use netsim::trace::{SpanKind, TraceEventKind};

use crate::advertisement::{ContentAdvertisement, PeerAdvertisement};
use crate::filetransfer::{InboundTransfer, OutboundTransfer, PartReceipt};
use crate::id::{ContentId, IdGenerator, PeerId, TaskId, TransferId};
use crate::message::{JobSubmission, OverlayMsg};
use crate::records::RecordSink;
use crate::sendflow::SenderFlow;
use crate::stats::PeerStats;

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
    /// Submit a job; the broker selects the executor.
    SubmitJob {
        /// Compute demand, giga-ops.
        work_gops: f64,
        /// Input to ship to the executor (0 = none).
        input_bytes: u64,
        /// Parts for the input shipment.
        input_parts: u32,
        /// Job label.
        label: String,
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
    pub broker: NodeId,
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

    /// Shares a file under `name`.
    pub fn sharing(mut self, name: impl Into<String>, bytes: u64) -> Self {
        self.shared_files.push((name.into(), bytes));
        self
    }

    /// Schedules a command `delay` after start.
    pub fn at(mut self, delay: SimDuration, cmd: ClientCommand) -> Self {
        self.commands.push((delay, cmd));
        self
    }
}

/// The SimpleClient actor.
pub struct SimpleClient {
    cfg: ClientConfig,
    ids: IdGenerator,
    peer_id: PeerId,
    joined: bool,
    inbound: IdMap<TransferId, InboundTransfer>,
    /// Transfers this peer is *sending* (instructed by the broker).
    outbound: SenderFlow,
    outbound_started: IdMap<TransferId, netsim::time::SimTime>,
    /// Running tasks keyed by their completion-timer tag.
    running: IdMap<u64, RunningTask>,
    next_task_tag: u64,
    stats: Option<PeerStats>,
    sink: Option<RecordSink>,
    /// Job completions this client has been notified of: (label, success).
    pub jobs_done: Vec<(String, bool)>,
}

struct RunningTask {
    id: TaskId,
    exec_secs: f64,
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
            inbound: IdMap::default(),
            outbound: SenderFlow::new(),
            outbound_started: IdMap::default(),
            running: IdMap::default(),
            next_task_tag: TASK_TAG_BASE,
            stats: None,
            sink: None,
            jobs_done: Vec::new(),
        }
    }

    /// Attaches a record sink so peer-to-peer transfers this client serves
    /// appear in the run log.
    pub fn with_sink(mut self, sink: RecordSink) -> Self {
        self.sink = Some(sink.clone());
        self.outbound.set_sink(sink);
        self
    }

    /// The client's overlay identity.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// Whether the broker has confirmed membership.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Number of in-flight inbound transfers.
    pub fn inbound_transfers(&self) -> usize {
        self.inbound.len()
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

    fn touch_gauges(&mut self, now: netsim::time::SimTime) {
        let load = (self.inbound.len() + self.running.len()) as u32;
        if let Some(stats) = &mut self.stats {
            stats.inbox.set(now, load);
            stats
                .outbox
                .set(now, (self.running.len() + self.outbound.len()) as u32);
        }
    }

    fn run_command(&mut self, ctx: &mut Context<OverlayMsg>, cmd: ClientCommand) {
        match cmd {
            ClientCommand::RequestFile { name } => {
                ctx.send(
                    self.cfg.broker,
                    OverlayMsg::FileRequest {
                        requester: self.peer_id,
                        name,
                    },
                );
            }
            ClientCommand::SubmitJob {
                work_gops,
                input_bytes,
                input_parts,
                label,
            } => {
                ctx.send(
                    self.cfg.broker,
                    OverlayMsg::JobSubmit(Box::new(JobSubmission {
                        submitter: self.peer_id,
                        work_gops,
                        input_bytes,
                        input_parts,
                        label,
                    })),
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
        self.stats = Some(PeerStats::new(ctx.now(), CPU_GOPS));
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
                // A duplicate petition (retransmitted after a lost ack) must
                // not reset in-progress receive state.
                let already_known = self.inbound.contains_key(&transfer);
                let accepted =
                    already_known || !ctx.rng().bernoulli(self.cfg.transfer_refuse_probability);
                if accepted && !already_known {
                    self.inbound
                        .insert(transfer, InboundTransfer::new(transfer, num_parts, now));
                    self.touch_gauges(now);
                }
                ctx.send(
                    from,
                    OverlayMsg::PetitionAck {
                        transfer,
                        accepted,
                        petition_sent_at: sent_at,
                        handled_at: now,
                    },
                );
            }
            OverlayMsg::FilePart {
                transfer,
                index,
                size,
            } => {
                if let Some(inb) = self.inbound.get_mut(&transfer) {
                    // Duplicates still get a confirm — the original confirm
                    // may have been lost — but are not counted twice. Gaps
                    // (an index ahead of the stop-and-wait window) are
                    // rejected and never confirmed: confirming one would
                    // advance the sender past a part we don't have.
                    let receipt = inb.on_part(index, size);
                    if receipt == PartReceipt::Gap {
                        let expected = inb.received;
                        if ctx.trace_enabled() {
                            ctx.trace_event(TraceEventKind::PartGap {
                                transfer: transfer.raw(),
                                index,
                                expected,
                            });
                        }
                    } else {
                        if receipt == PartReceipt::Last {
                            // The receiver-side tally is complete the moment
                            // the last part lands; don't wait for
                            // TransferComplete, which is unacked and can be
                            // lost on a lossy transport.
                            let bytes = inb.bytes;
                            if let Some(sink) = &self.sink {
                                sink.with(|log| {
                                    if let Some(rec) = log.transfer_mut(transfer) {
                                        rec.receiver_bytes = Some(bytes);
                                    }
                                });
                            }
                        }
                        ctx.send(from, OverlayMsg::PartConfirm { transfer, index });
                    }
                }
                // Parts for unknown transfers are silently dropped (stale).
            }
            OverlayMsg::TransferComplete { transfer } | OverlayMsg::TransferCancel { transfer } => {
                let inb = self.inbound.remove(&transfer);
                let completed = inb.as_ref().is_some_and(|i| i.received >= i.expected_parts);
                // Report the receiver-side byte tally back into the shared
                // record: experiments cross-check it against file_size.
                if let (Some(sink), Some(inb)) = (&self.sink, inb.as_ref()) {
                    let bytes = inb.bytes;
                    sink.with(|log| {
                        if let Some(rec) = log.transfer_mut(transfer) {
                            rec.receiver_bytes = Some(bytes);
                        }
                    });
                }
                if let Some(stats) = &mut self.stats {
                    stats.record_file_send(completed);
                }
                self.touch_gauges(now);
            }
            // ---- sender side: the broker told us to serve a file --------
            OverlayMsg::TransferInstruction {
                to_node,
                file,
                num_parts,
            } => {
                let id = TransferId::generate(&mut self.ids);
                let outbound = OutboundTransfer::new(id, (*file).clone(), to_node, num_parts, now);
                let actual_parts = outbound.num_parts();
                let to_name = std::sync::Arc::from(ctx.node_name(to_node));
                self.outbound.begin(outbound, to_name, now);
                if ctx.trace_enabled() {
                    ctx.trace_event(TraceEventKind::SpanBegin {
                        span: SpanKind::Transfer,
                        key: id.raw(),
                    });
                    ctx.trace_event(TraceEventKind::PetitionSent {
                        transfer: id.raw(),
                        to: to_node,
                        bytes: file.size_bytes,
                        parts: actual_parts,
                    });
                }
                ctx.send(
                    to_node,
                    OverlayMsg::FilePetition {
                        transfer: id,
                        file,
                        num_parts: actual_parts,
                        sent_at: now,
                    },
                );
                self.outbound_started.insert(id, now);
                self.touch_gauges(now);
            }
            OverlayMsg::PetitionAck {
                transfer,
                accepted,
                handled_at,
                ..
            } => {
                // Only the first ack carries timing information; a duplicate
                // (retransmitted petition) must not overwrite the milestones.
                let first_ack = self.outbound.is_awaiting_ack(transfer);
                if ctx.trace_enabled() {
                    ctx.trace_event(TraceEventKind::PetitionAcked {
                        transfer: transfer.raw(),
                        accepted,
                    });
                }
                if first_ack {
                    self.outbound.note_ack_times(transfer, handled_at, now);
                }
                let next = self.outbound.on_ack(transfer, accepted);
                if let Some((index, size)) = next {
                    self.outbound.note_part_sent(transfer, index, size, now);
                    if ctx.trace_enabled() {
                        ctx.trace_event(TraceEventKind::PartSent {
                            transfer: transfer.raw(),
                            index,
                            bytes: size,
                        });
                    }
                    ctx.send(
                        from,
                        OverlayMsg::FilePart {
                            transfer,
                            index,
                            size,
                        },
                    );
                } else if !accepted {
                    if let Some(t) = self.outbound.finish(transfer) {
                        let started = self.outbound_started.remove(&transfer);
                        ctx.send(
                            self.cfg.broker,
                            OverlayMsg::TransferReport {
                                transfer,
                                ok: false,
                                elapsed_secs: started
                                    .map(|s| now.duration_since(s).as_secs_f64())
                                    .unwrap_or(0.0),
                                bytes: t.file.size_bytes,
                            },
                        );
                        self.outbound.stamp_finished(transfer, now, false);
                        if ctx.trace_enabled() {
                            ctx.trace_event(TraceEventKind::TransferCompleted {
                                transfer: transfer.raw(),
                                ok: false,
                            });
                            ctx.trace_event(TraceEventKind::SpanEnd {
                                span: SpanKind::Transfer,
                                key: transfer.raw(),
                                ok: false,
                            });
                        }
                    }
                }
            }
            OverlayMsg::PartConfirm { transfer, index } => {
                // First-confirm-wins: validate against the stop-and-wait
                // window BEFORE touching the record, so a duplicate confirm
                // (the retransmitted original racing a resent part's ack)
                // cannot move `confirmed_at` forward.
                let accepted = self.outbound.accepts_confirm(transfer, index);
                if ctx.trace_enabled() {
                    ctx.trace_event(TraceEventKind::PartConfirmed {
                        transfer: transfer.raw(),
                        index,
                        accepted,
                    });
                }
                if accepted {
                    self.outbound.note_confirm(transfer, index, now);
                }
                let outcome = self.outbound.on_confirm(transfer, index);
                match outcome {
                    Some((Some((next_index, size)), _)) => {
                        self.outbound
                            .note_part_sent(transfer, next_index, size, now);
                        if ctx.trace_enabled() {
                            ctx.trace_event(TraceEventKind::PartSent {
                                transfer: transfer.raw(),
                                index: next_index,
                                bytes: size,
                            });
                        }
                        ctx.send(
                            from,
                            OverlayMsg::FilePart {
                                transfer,
                                index: next_index,
                                size,
                            },
                        );
                    }
                    Some((None, true)) => {
                        let t = self.outbound.finish(transfer).expect("present");
                        let started = self.outbound_started.remove(&transfer);
                        if ctx.trace_enabled() {
                            ctx.trace_event(TraceEventKind::TransferCompleted {
                                transfer: transfer.raw(),
                                ok: true,
                            });
                            ctx.trace_event(TraceEventKind::SpanEnd {
                                span: SpanKind::Transfer,
                                key: transfer.raw(),
                                ok: true,
                            });
                        }
                        ctx.send(from, OverlayMsg::TransferComplete { transfer });
                        let elapsed = started
                            .map(|s| now.duration_since(s).as_secs_f64())
                            .unwrap_or(0.0);
                        ctx.send(
                            self.cfg.broker,
                            OverlayMsg::TransferReport {
                                transfer,
                                ok: true,
                                elapsed_secs: elapsed,
                                bytes: t.file.size_bytes,
                            },
                        );
                        self.outbound.stamp_finished(transfer, now, true);
                        if let Some(stats) = &mut self.stats {
                            stats.record_file_send(true);
                        }
                        self.touch_gauges(now);
                    }
                    _ => {}
                }
            }
            OverlayMsg::TaskOffer { task, .. } => {
                if !ctx.rng().bernoulli(self.cfg.task_accept_probability) {
                    ctx.send(from, OverlayMsg::TaskReject { task: task.id });
                    return;
                }
                ctx.send(from, OverlayMsg::TaskAccept { task: task.id });
                let exec = ctx.execution_time(task.work_gops);
                let tag = self.next_task_tag;
                self.next_task_tag += 1;
                self.running.insert(
                    tag,
                    RunningTask {
                        id: task.id,
                        exec_secs: exec.as_secs_f64(),
                    },
                );
                self.touch_gauges(now);
                ctx.schedule_timer(exec, tag);
            }
            OverlayMsg::JobDone { label, success, .. } => {
                self.jobs_done.push((label, success));
            }
            OverlayMsg::Ping { nonce, sent_at } => {
                ctx.send(from, OverlayMsg::Pong { nonce, sent_at });
            }
            _ => {
                // Remaining messages are not addressed to clients.
            }
        }
        if let Some(stats) = &mut self.stats {
            stats.record_message(now, true);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, _timer: TimerId, tag: u64) {
        let now = ctx.now();
        if tag == STATS_TIMER_TAG {
            if let Some(stats) = &mut self.stats {
                stats
                    .inbox
                    .set(now, (self.inbound.len() + self.running.len()) as u32);
                let snapshot = Box::new(stats.snapshot(now, 24));
                ctx.send(
                    self.cfg.broker,
                    OverlayMsg::StatsReport {
                        peer: self.peer_id,
                        snapshot,
                    },
                );
            }
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
        if let Some(done) = self.running.remove(&tag) {
            if let Some(stats) = &mut self.stats {
                stats.record_task_execution(true);
            }
            self.touch_gauges(now);
            ctx.send(
                self.cfg.broker,
                OverlayMsg::TaskResult {
                    task: done.id,
                    success: true,
                    exec_secs: done.exec_secs,
                },
            );
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
        assert_ne!(a.peer_id(), b.peer_id());
        let a2 = SimpleClient::new(ClientConfig::new(NodeId(0)), 1);
        assert_eq!(a.peer_id(), a2.peer_id());
    }

    #[test]
    fn starts_unjoined_and_idle() {
        let c = SimpleClient::new(ClientConfig::new(NodeId(0)), 3);
        assert!(!c.is_joined());
        assert_eq!(c.inbound_transfers(), 0);
        assert!(c.jobs_done.is_empty());
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
        let cfg = ClientConfig::new(NodeId(0))
            .sharing("lecture.mp4", 100 << 20)
            .at(
                SimDuration::from_secs(5),
                ClientCommand::RequestFile { name: "x".into() },
            );
        assert_eq!(cfg.shared_files.len(), 1);
        assert_eq!(cfg.commands.len(), 1);
    }
}
