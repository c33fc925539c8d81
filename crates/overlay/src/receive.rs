//! The receiving end of the transfer protocol, and the task executor.
//!
//! [`Receiver`] is the only code that answers a petition
//! (`PetitionAck`), confirms a part (`PartConfirm`) or traces its gap,
//! closes an inbound transfer, accepts an offered task (`TaskAccept`),
//! runs it on a timer and reports its `TaskResult`. `SimpleClient` and
//! `LifecyclePeer` both drive it; each passes in its own accept decision
//! and the base of its task-timer tags, and keeps its own statistics,
//! gauges and counters around the calls.

use std::collections::hash_map::Entry;

use netsim::engine::Context;
use netsim::idmap::IdMap;
use netsim::node::NodeId;
use netsim::time::SimTime;
use netsim::trace::TraceEventKind;

use crate::filetransfer::{InboundTransfer, PartReceipt};
use crate::footprint::{map_estimate, FootprintBreakdown};
use crate::id::{TaskId, TransferId};
use crate::message::OverlayMsg;
use crate::records::RecordSink;

/// How a petition was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Petition {
    /// Accepted; receive state was created.
    Fresh,
    /// A retransmitted petition for a transfer already in progress:
    /// accepted again, its state untouched.
    Known,
    /// Refused by the caller's decision.
    Refused,
}

/// An accepted task, keyed by its completion-timer tag.
struct RunningTask {
    id: TaskId,
    exec_secs: f64,
}

/// Inbound transfers and running tasks of one peer.
pub(crate) struct Receiver {
    inbound: IdMap<TransferId, InboundTransfer>,
    running: IdMap<u64, RunningTask>,
    next_task_tag: u64,
    /// Where the receiver-side byte tally is stamped (none: not stamped).
    sink: Option<RecordSink>,
}

impl Receiver {
    /// An idle receiver whose task timers are tagged from
    /// `task_tag_base` upward.
    pub(crate) fn new(task_tag_base: u64, sink: Option<RecordSink>) -> Self {
        Receiver {
            inbound: IdMap::default(),
            running: IdMap::default(),
            next_task_tag: task_tag_base,
            sink,
        }
    }

    /// In-flight inbound transfers.
    pub(crate) fn inbound_len(&self) -> usize {
        self.inbound.len()
    }

    /// Tasks accepted and not yet finished.
    pub(crate) fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Estimated heap: inbound state under `content`, running tasks under
    /// `stats`.
    pub(crate) fn footprint(&self) -> FootprintBreakdown {
        FootprintBreakdown {
            content: map_estimate::<TransferId, InboundTransfer>(self.inbound.len()),
            stats: map_estimate::<u64, RunningTask>(self.running.len()),
            ..FootprintBreakdown::default()
        }
    }

    /// Answers a petition from `from`. `accept` decides a transfer this
    /// receiver does not know yet; a retransmitted petition for a known
    /// one is accepted again without consulting it (or resetting state).
    pub(crate) fn on_petition(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        transfer: TransferId,
        num_parts: u32,
        sent_at: SimTime,
        accept: impl FnOnce(&mut Context<OverlayMsg>) -> bool,
    ) -> Petition {
        let now = ctx.now();
        let answer = match self.inbound.entry(transfer) {
            Entry::Occupied(_) => Petition::Known,
            Entry::Vacant(slot) if accept(ctx) => {
                slot.insert(InboundTransfer::new(transfer, num_parts, now));
                Petition::Fresh
            }
            Entry::Vacant(_) => Petition::Refused,
        };
        ctx.send(
            from,
            OverlayMsg::PetitionAck {
                transfer,
                accepted: answer != Petition::Refused,
                petition_sent_at: sent_at,
                handled_at: now,
            },
        );
        answer
    }

    /// Takes part `index`. A new or duplicate part is confirmed — the
    /// original confirm may have been lost — but counted once. A gap (an
    /// index ahead of the stop-and-wait window) is traced and never
    /// confirmed: confirming it would advance the sender past a part this
    /// receiver does not have. Parts of unknown transfers (stale, or
    /// dropped with the receive state) are ignored: the sender's retry
    /// policy owns that failure.
    pub(crate) fn on_part(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        transfer: TransferId,
        index: u32,
        size: u64,
    ) {
        let Some(inb) = self.inbound.get_mut(&transfer) else {
            return;
        };
        match inb.on_part(index, size) {
            PartReceipt::Gap => {
                if ctx.trace_enabled() {
                    ctx.trace_event(TraceEventKind::PartGap {
                        transfer: transfer.raw(),
                        index,
                        expected: inb.received,
                    });
                }
            }
            receipt => {
                if receipt == PartReceipt::Last {
                    // The tally is complete the moment the last part
                    // lands; `TransferComplete` is unacked and can be lost.
                    stamp_receiver_bytes(&self.sink, transfer, inb.bytes);
                }
                ctx.send(from, OverlayMsg::PartConfirm { transfer, index });
            }
        }
    }

    /// Closes an inbound transfer (`TransferComplete` or
    /// `TransferCancel`), stamping its byte tally.
    pub(crate) fn close(&mut self, transfer: TransferId) {
        if let Some(inb) = self.inbound.remove(&transfer) {
            stamp_receiver_bytes(&self.sink, transfer, inb.bytes);
        }
    }

    /// Forgets every inbound transfer (the peer left, or its home broker
    /// died and will re-petition).
    pub(crate) fn drop_inbound(&mut self) {
        self.inbound.clear();
    }

    /// Answers a task offer from `from`: rejects it, or accepts it and
    /// arms its completion timer for the host's execution time.
    pub(crate) fn on_task_offer(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        task: TaskId,
        work_gops: f64,
        accept: bool,
    ) {
        if !accept {
            ctx.send(from, OverlayMsg::TaskReject { task });
            return;
        }
        ctx.send(from, OverlayMsg::TaskAccept { task });
        let exec = ctx.execution_time(work_gops);
        let tag = self.next_task_tag;
        self.next_task_tag += 1;
        self.running.insert(
            tag,
            RunningTask {
                id: task,
                exec_secs: exec.as_secs_f64(),
            },
        );
        ctx.schedule_timer(exec, tag);
    }

    /// A fired timer: when `tag` is a running task's, sends its result to
    /// `to` and returns true.
    pub(crate) fn finish_task(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        tag: u64,
        to: NodeId,
    ) -> bool {
        let Some(done) = self.running.remove(&tag) else {
            return false;
        };
        ctx.send(
            to,
            OverlayMsg::TaskResult {
                task: done.id,
                success: true,
                exec_secs: done.exec_secs,
            },
        );
        true
    }

    /// Answers a liveness ping.
    pub(crate) fn pong(ctx: &mut Context<OverlayMsg>, from: NodeId, nonce: u64, sent_at: SimTime) {
        ctx.send(from, OverlayMsg::Pong { nonce, sent_at });
    }
}

/// Writes the receiver-side byte tally into the shared record:
/// experiments cross-check it against the file size.
fn stamp_receiver_bytes(sink: &Option<RecordSink>, transfer: TransferId, bytes: u64) {
    if let Some(sink) = sink {
        sink.with(|log| {
            if let Some(rec) = log.transfer_mut(transfer) {
                rec.receiver_bytes = Some(bytes);
            }
        });
    }
}
