//! The transfer orchestration layer: outbound file transfers driven on the
//! shared [`SenderFlow`] state machine, the data pipes backing them, and
//! the broker-instructed peer-to-peer serves it awaits reports for.
//!
//! The petition → ack → stop-and-wait window/record invariants live in
//! [`crate::sendflow`]; this layer adds the broker-only concerns around
//! them — pipes, peer statistics, selector feedback, task hand-off.

use netsim::idmap::IdMap;

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::time::SimTime;
use netsim::trace::{SpanKind, TraceEventKind};

use crate::filetransfer::FileMeta;
use crate::id::{ContentId, PeerId, PipeId, TransferId};
use crate::message::OverlayMsg;
use crate::pipe::PipeRegistry;
use crate::records::RecordSink;
use crate::selector::{Purpose, SelectionOutcome};
use crate::sendflow::SenderFlow;

use super::counters::BrokerCounters;
use super::registry::Holding;
use super::retry::RetryKind;
use super::Broker;

/// Outbound transfer state: the shared sender flow, the open data pipes,
/// and the count of instructed peer-to-peer serves still awaiting reports.
pub(crate) struct TransferOrchestrator {
    /// Live outbound transfers on the shared sender-side state machine.
    pub(crate) flows: SenderFlow,
    /// Open unicast pipes: one data pipe per live outbound transfer.
    pub(crate) pipes: PipeRegistry,
    /// Data pipe backing each live outbound transfer.
    pub(crate) pipe_for: IdMap<TransferId, PipeId>,
    /// Peer-to-peer transfers we instructed and are awaiting reports for.
    pub(crate) instructed_pending: u32,
}

impl TransferOrchestrator {
    pub(crate) fn new(sink: RecordSink) -> Self {
        let mut flows = SenderFlow::new();
        flows.set_sink(sink);
        TransferOrchestrator {
            flows,
            pipes: PipeRegistry::new(),
            pipe_for: IdMap::default(),
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
        let outbound =
            crate::filetransfer::OutboundTransfer::new(id, file.clone(), to, num_parts, now);
        let actual_parts = outbound.num_parts();
        let to_name = self.registry.display_name(ctx, to);
        self.transfers.flows.begin(outbound, to_name, now);
        if let Some(peer) = self.registry.peer_of(to) {
            if let Some(entry) = self.registry.entry_mut(peer) {
                entry.stats.pending_transfers += 1;
                entry.stats.outbox.incr(now);
                entry.view.history.queued_bytes += size_bytes;
            }
            // Open the transfer's data pipe (the JXTA unicast channel the
            // parts notionally flow through); closed in finish_transfer.
            let pipe = self.transfers.pipes.open(
                &mut self.ids,
                peer,
                to,
                label,
                now,
                self.cfg.transfer_timeout,
            );
            self.transfers.pipe_for.insert(id, pipe);
            if ctx.trace_enabled() {
                ctx.trace_event(TraceEventKind::PipeOpened {
                    pipe: pipe.raw(),
                    node: to,
                });
            }
        }
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::SpanBegin {
                span: SpanKind::Transfer,
                key: id.raw(),
            });
            if enqueued_at < now {
                ctx.trace_event(TraceEventKind::TransferQueued {
                    transfer: id.raw(),
                    enqueued_at,
                });
            }
            ctx.trace_event(TraceEventKind::PetitionSent {
                transfer: id.raw(),
                to,
                bytes: size_bytes,
                parts: actual_parts,
            });
        }
        ctx.send(
            to,
            OverlayMsg::FilePetition {
                transfer: id,
                file,
                num_parts: actual_parts,
                sent_at: now,
            },
        );
        self.arm_retry(ctx, id, RetryKind::Petition, 1);
        let tag = self.retries.arm_watchdog(id);
        ctx.schedule_timer(self.cfg.transfer_timeout, tag);
        self.bump(ctx, |c| c.transfers_started);
        id
    }

    pub(crate) fn send_part(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        to: NodeId,
        index: u32,
        size: u64,
    ) {
        let now = ctx.now();
        self.transfers
            .flows
            .note_part_sent(transfer, index, size, now);
        if let Some(&pipe) = self.transfers.pipe_for.get(&transfer) {
            self.transfers.pipes.account(pipe, size);
        }
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::PartSent {
                transfer: transfer.raw(),
                index,
                bytes: size,
            });
        }
        ctx.send(
            to,
            OverlayMsg::FilePart {
                transfer,
                index,
                size,
            },
        );
        self.arm_retry(ctx, transfer, RetryKind::Part { index, size }, 1);
    }

    pub(crate) fn finish_transfer(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        completed: bool,
    ) {
        let now = ctx.now();
        let Some(outbound) = self.transfers.flows.finish(transfer) else {
            return;
        };
        let to = outbound.to;
        let size = outbound.file.size_bytes;
        if let Some(pipe) = self.transfers.pipe_for.remove(&transfer) {
            if let Some(ep) = self.transfers.pipes.close(pipe) {
                if ctx.trace_enabled() {
                    ctx.trace_event(TraceEventKind::PipeClosed {
                        pipe: pipe.raw(),
                        messages: ep.messages,
                        bytes: ep.bytes,
                    });
                }
            }
        }
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::TransferCompleted {
                transfer: transfer.raw(),
                ok: completed,
            });
            ctx.trace_event(TraceEventKind::SpanEnd {
                span: SpanKind::Transfer,
                key: transfer.raw(),
                ok: completed,
            });
        }
        ctx.send(
            to,
            if completed {
                OverlayMsg::TransferComplete { transfer }
            } else {
                OverlayMsg::TransferCancel { transfer }
            },
        );
        let (elapsed, throughput) = self
            .transfers
            .flows
            .stamp_finished(transfer, now, completed);
        if let Some(peer) = self.registry.peer_of(to) {
            if let Some(entry) = self.registry.entry_mut(peer) {
                entry.stats.pending_transfers = entry.stats.pending_transfers.saturating_sub(1);
                entry.stats.outbox.decr(now);
                entry.stats.record_file_send(completed);
                let history = &mut entry.view.history;
                history.queued_bytes = history.queued_bytes.saturating_sub(size);
                if completed {
                    history.transfers_completed += 1;
                    if let Some(bps) = throughput {
                        history.observe_throughput(bps, self.cfg.ewma_alpha);
                    }
                } else {
                    history.transfers_cancelled += 1;
                }
            }
        }
        self.selection.on_outcome(&SelectionOutcome {
            node: to,
            success: completed,
            elapsed_secs: elapsed,
            bytes: size,
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
        let now = ctx.now();
        // A duplicate ack (retransmitted petition) must not skew the
        // records or the latency history.
        let first_ack = self.transfers.flows.is_awaiting_ack(transfer);
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::PetitionAcked {
                transfer: transfer.raw(),
                accepted,
            });
        }
        if first_ack {
            self.transfers
                .flows
                .note_ack_times(transfer, handled_at, now);
            let petition_latency = handled_at.duration_since(petition_sent_at).as_secs_f64();
            if let Some(peer) = self.registry.peer_of(from) {
                if let Some(entry) = self.registry.entry_mut(peer) {
                    entry
                        .view
                        .history
                        .observe_petition(petition_latency, self.cfg.ewma_alpha);
                    entry.stats.record_message(now, true);
                }
            }
        }
        let next = self.transfers.flows.on_ack(transfer, accepted);
        match next {
            Some((index, size)) => self.send_part(ctx, transfer, from, index, size),
            None => {
                if !accepted {
                    self.finish_transfer(ctx, transfer, false);
                }
            }
        }
    }

    pub(crate) fn on_part_confirm(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        transfer: TransferId,
        index: u32,
    ) {
        let now = ctx.now();
        // First-confirm-wins: validate against the stop-and-wait window
        // BEFORE touching the record. A late duplicate confirm
        // (retransmitted part → receiver confirmed twice) must not
        // overwrite the original confirmed_at — that inflates Fig 4's
        // last_part_secs.
        let accepted = self.transfers.flows.accepts_confirm(transfer, index);
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::PartConfirmed {
                transfer: transfer.raw(),
                index,
                accepted,
            });
        }
        if accepted {
            self.transfers.flows.note_confirm(transfer, index, now);
        }
        let outcome = self.transfers.flows.on_confirm(transfer, index);
        match outcome {
            Some((Some((next_index, size)), _)) => {
                self.send_part(ctx, transfer, from, next_index, size);
            }
            Some((None, true)) => self.finish_transfer(ctx, transfer, true),
            _ => {}
        }
    }

    pub(crate) fn on_file_request(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        requester: PeerId,
        name: String,
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
                file: FileMeta {
                    content: holding.content,
                    name,
                    size_bytes: holding.size,
                },
                num_parts: self.cfg.request_parts,
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
        if let Some(peer) = self.registry.peer_of(from) {
            if let Some(entry) = self.registry.entry_mut(peer) {
                entry.stats.record_file_send(ok);
                let history = &mut entry.view.history;
                if ok && elapsed_secs > 0.0 {
                    history.observe_throughput(bytes as f64 / elapsed_secs, self.cfg.ewma_alpha);
                    history.transfers_completed += 1;
                } else if !ok {
                    history.transfers_cancelled += 1;
                }
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
