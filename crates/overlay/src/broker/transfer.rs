//! The transfer orchestration layer: outbound file transfers sent through
//! the shared [`SenderFlow`], the data pipe each one is traced through,
//! and the broker-instructed peer-to-peer serves it awaits reports for.
//!
//! The flow performs every protocol step's sends, trace rows and record
//! stamps; this layer adds the broker's policy around them — pipes,
//! retry and watchdog timers, peer statistics, selector feedback, task
//! hand-off.

use netsim::idmap::IdMap;

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::time::SimTime;
use netsim::trace::TraceEventKind;

use crate::filetransfer::{FileMeta, OutboundTransfer};
use crate::id::{ContentId, PeerId, PipeId, TransferId};
use crate::message::OverlayMsg;
use crate::records::RecordSink;
use crate::selector::{Purpose, SelectionOutcome};
use crate::sendflow::{SenderFlow, Step};

use super::counters::BrokerCounters;
use super::registry::Holding;
use super::retry::RetryKind;
use super::{Broker, EWMA_ALPHA};

/// Parts used when instructing peer-to-peer transfers for file requests.
const REQUEST_PARTS: u32 = 16;

/// The JXTA unicast channel a transfer's parts notionally flow through:
/// its id and the traffic it carried, for the `PipeOpened` / `PipeClosed`
/// trace rows.
pub(crate) struct DataPipe {
    id: PipeId,
    messages: u64,
    bytes: u64,
}

/// Outbound transfer state: the shared sender flow, the open data pipes,
/// and the count of instructed peer-to-peer serves still awaiting reports.
pub(crate) struct TransferOrchestrator {
    /// Live outbound transfers on the shared sender-side state machine.
    pub(crate) flows: SenderFlow,
    /// The data pipe of each live outbound transfer to a registered peer.
    pipes: IdMap<TransferId, DataPipe>,
    /// Peer-to-peer transfers we instructed and are awaiting reports for.
    pub(crate) instructed_pending: u32,
}

impl TransferOrchestrator {
    pub(crate) fn new(sink: RecordSink) -> Self {
        TransferOrchestrator {
            flows: SenderFlow::new(Some(sink)),
            pipes: IdMap::default(),
            instructed_pending: 0,
        }
    }
}

impl Broker {
    pub(crate) fn start_transfer(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        to: NodeId,
        size_bytes: u64,
        num_parts: u32,
        label: &str,
        enqueued_at: SimTime,
    ) -> TransferId {
        let now = ctx.now();
        let id = TransferId::generate(&mut self.ids);
        let file = FileMeta {
            content: ContentId::generate(&mut self.ids),
            name: label.to_string(),
            size_bytes,
        };
        let to_name = self.registry.display_name(ctx, to);
        if let Some(entry) = self.registry.occupant_mut(to) {
            entry.stats.pending_transfers += 1;
            entry.stats.outbox.incr(now);
            entry.history_mut().queued_bytes += size_bytes;
            // Open the transfer's data pipe; closed in finish_transfer.
            let pipe = PipeId::generate(&mut self.ids);
            self.transfers.pipes.insert(
                id,
                DataPipe {
                    id: pipe,
                    messages: 0,
                    bytes: 0,
                },
            );
            if ctx.trace_enabled() {
                ctx.trace_event(TraceEventKind::PipeOpened {
                    pipe: pipe.raw(),
                    node: to,
                });
            }
        }
        let outbound = OutboundTransfer::new(id, file, to, num_parts, now);
        (self.transfers.flows).petition(ctx, outbound, to_name, enqueued_at);
        self.arm_retry(ctx, id, RetryKind::Petition, 1);
        let tag = self.retries.arm_watchdog(id);
        ctx.schedule_timer(self.cfg.transfer_timeout, tag);
        self.bump(ctx, |c| c.transfers_started);
        id
    }

    /// The broker's side of a step its flow took: count a sent part on the
    /// pipe and arm its retry, or close a refused or complete transfer.
    fn after_step(&mut self, ctx: &mut Context<OverlayMsg>, transfer: TransferId, step: Step) {
        match step {
            Step::Sent { index, size } => {
                if let Some(pipe) = self.transfers.pipes.get_mut(&transfer) {
                    pipe.messages += 1;
                    pipe.bytes += size;
                }
                self.arm_retry(ctx, transfer, RetryKind::Part { index, size }, 1);
            }
            Step::Refused => self.finish_transfer(ctx, transfer, false),
            Step::Complete => self.finish_transfer(ctx, transfer, true),
            Step::Stale => {}
        }
    }

    pub(crate) fn finish_transfer(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        completed: bool,
    ) {
        let now = ctx.now();
        // A pipe exists only while its transfer is live.
        if let Some(pipe) = self.transfers.pipes.remove(&transfer) {
            if ctx.trace_enabled() {
                ctx.trace_event(TraceEventKind::PipeClosed {
                    pipe: pipe.id.raw(),
                    messages: pipe.messages,
                    bytes: pipe.bytes,
                });
            }
        }
        let Some(done) = self.transfers.flows.finish(ctx, transfer, completed) else {
            return;
        };
        if let Some(entry) = self.registry.occupant_mut(done.to) {
            entry.stats.pending_transfers = entry.stats.pending_transfers.saturating_sub(1);
            entry.stats.outbox.decr(now);
            entry.stats.record_file_send(completed);
            let history = entry.history_mut();
            history.queued_bytes = history.queued_bytes.saturating_sub(done.bytes);
            if completed {
                history.transfers_completed += 1;
                if let Some(bps) = done.throughput {
                    history.observe_throughput(bps, EWMA_ALPHA);
                }
            } else {
                history.transfers_cancelled += 1;
            }
        }
        self.selection.on_outcome(&SelectionOutcome {
            node: done.to,
            success: completed,
            elapsed_secs: done.elapsed_secs,
            bytes: done.bytes,
        });
        self.bump(
            ctx,
            if completed {
                |c: &BrokerCounters| c.transfers_completed
            } else {
                |c: &BrokerCounters| c.transfers_cancelled
            },
        );

        // If this transfer was a task's input shipment, advance the task.
        if let Some(task_id) = self.tasks.input_transfer_to_task.remove(&transfer) {
            if completed {
                self.offer_task(ctx, task_id);
            } else {
                self.fail_task(ctx, task_id);
            }
        }
        self.maybe_stop(ctx);
    }

    pub(crate) fn on_petition_ack(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        transfer: TransferId,
        accepted: bool,
        petition_sent_at: SimTime,
        handled_at: SimTime,
    ) {
        let (first_ack, step) = (self.transfers.flows).on_ack(ctx, transfer, accepted, handled_at);
        // A duplicate ack (retransmitted petition) must not skew the
        // latency history.
        if first_ack {
            let petition_latency = handled_at.duration_since(petition_sent_at).as_secs_f64();
            if let Some(entry) = self.registry.occupant_mut(from) {
                entry
                    .history_mut()
                    .observe_petition(petition_latency, EWMA_ALPHA);
                entry.stats.record_message(ctx.now(), true);
            }
        }
        self.after_step(ctx, transfer, step);
    }

    pub(crate) fn on_part_confirm(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        index: u32,
    ) {
        let step = self.transfers.flows.on_confirm(ctx, transfer, index);
        self.after_step(ctx, transfer, step);
    }

    pub(crate) fn on_file_request(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        requester: PeerId,
        name: Box<str>,
    ) {
        let Some(requester_node) = self.registry.node_of(requester) else {
            return;
        };
        let holders: Vec<Holding> = self
            .registry
            .holdings(&name)
            .map(|hs| {
                hs.iter()
                    .filter(|h| h.node != requester_node && self.registry.has_peer(h.peer))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        if holders.is_empty() {
            self.bump(ctx, |c| c.file_requests_unserved);
            return;
        }
        let nodes: Vec<NodeId> = holders.iter().map(|h| h.node).collect();
        let size = holders[0].size;
        let Some(owner_node) =
            self.select_among(ctx, &nodes, Purpose::FileTransfer { bytes: size })
        else {
            return;
        };
        let holding = holders
            .iter()
            .find(|h| h.node == owner_node)
            .expect("chosen among holders");
        ctx.send(
            owner_node,
            OverlayMsg::TransferInstruction {
                to_node: requester_node,
                file: Box::new(FileMeta {
                    content: holding.content,
                    name: name.into(),
                    size_bytes: holding.size,
                }),
                num_parts: REQUEST_PARTS,
            },
        );
        self.transfers.instructed_pending += 1;
        self.bump(ctx, |c| c.file_requests_served);
    }

    pub(crate) fn on_transfer_report(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        ok: bool,
        elapsed_secs: f64,
        bytes: u64,
    ) {
        self.transfers.instructed_pending = self.transfers.instructed_pending.saturating_sub(1);
        if let Some(entry) = self.registry.occupant_mut(from) {
            entry.stats.record_file_send(ok);
            let history = entry.history_mut();
            if ok && elapsed_secs > 0.0 {
                history.observe_throughput(bytes as f64 / elapsed_secs, EWMA_ALPHA);
                history.transfers_completed += 1;
            } else if !ok {
                history.transfers_cancelled += 1;
            }
        }
        self.selection.on_outcome(&SelectionOutcome {
            node: from,
            success: ok,
            elapsed_secs,
            bytes,
        });
        self.maybe_stop(ctx);
    }
}
