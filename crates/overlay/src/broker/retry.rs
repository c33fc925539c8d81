//! The retry engine: retransmission probes for lossy transports plus the
//! transfer and task watchdogs.
//!
//! [`RetryEngine`] is purely a tag allocator and probe/watchdog table — it
//! never touches the engine, so arming returns a tag for the caller to
//! schedule and firing is `take_*` + caller-side effects. That keeps the
//! tables unit-testable without a simulation.

use netsim::idmap::IdMap;

use netsim::engine::Context;
use netsim::trace::TraceEventKind;

use crate::filetransfer::{OutboundTransfer, TransferPhase};
use crate::id::{TaskId, TransferId};
use crate::message::OverlayMsg;
use crate::task::TaskPhase;

use super::{Broker, RETRY_TAG_BASE, TASK_WATCHDOG_TAG_BASE, WATCHDOG_TAG_BASE};

/// What a retransmission probe is waiting on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RetryKind {
    /// The petition ack.
    Petition,
    /// The confirm for the in-flight part.
    Part {
        /// Index of the part awaiting its confirm.
        index: u32,
        /// Size of that part in bytes (for the retransmission).
        size: u64,
    },
}

impl RetryKind {
    /// Whether the transfer is still stalled on the message this probe
    /// guards — i.e. the answer has not arrived and a retransmission is
    /// warranted. A transfer that has moved on makes the probe a no-op.
    pub(crate) fn stalls(&self, outbound: &OutboundTransfer) -> bool {
        match *self {
            RetryKind::Petition => outbound.phase == TransferPhase::AwaitingPetitionAck,
            RetryKind::Part { index, .. } => {
                outbound.phase == TransferPhase::Sending && outbound.next_part == index + 1
            }
        }
    }
}

/// One armed retransmission probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RetryProbe {
    pub(crate) transfer: TransferId,
    pub(crate) kind: RetryKind,
    /// Send attempts so far (1 = the original send).
    pub(crate) attempt: u32,
}

/// Tag allocation and lookup tables for probes and watchdogs.
pub(crate) struct RetryEngine {
    probes: IdMap<u64, RetryProbe>,
    next_retry_tag: u64,
    watchdog_for: IdMap<u64, TransferId>,
    next_watchdog_tag: u64,
    task_watchdog_for: IdMap<u64, TaskId>,
    next_task_watchdog_tag: u64,
}

impl RetryEngine {
    pub(crate) fn new() -> Self {
        RetryEngine {
            probes: IdMap::default(),
            next_retry_tag: RETRY_TAG_BASE,
            watchdog_for: IdMap::default(),
            next_watchdog_tag: WATCHDOG_TAG_BASE,
            task_watchdog_for: IdMap::default(),
            next_task_watchdog_tag: TASK_WATCHDOG_TAG_BASE,
        }
    }

    /// Drops every armed probe and watchdog while **keeping** the tag
    /// counters: the broker-crash path. Timers armed before the crash
    /// still fire with their old tags, so a reset of the counters would
    /// let a post-restart probe collide with a pre-crash timer; advancing
    /// counters make every stale tag a harmless `take_* → None`.
    pub(crate) fn clear(&mut self) {
        self.probes.clear();
        self.watchdog_for.clear();
        self.task_watchdog_for.clear();
    }

    /// Registers a retransmission probe and returns its timer tag.
    pub(crate) fn arm_probe(&mut self, transfer: TransferId, kind: RetryKind, attempt: u32) -> u64 {
        let tag = self.next_retry_tag;
        self.next_retry_tag += 1;
        self.probes.insert(
            tag,
            RetryProbe {
                transfer,
                kind,
                attempt,
            },
        );
        tag
    }

    /// Claims the probe behind a fired retry timer (`None` = stale tag).
    pub(crate) fn take_probe(&mut self, tag: u64) -> Option<RetryProbe> {
        self.probes.remove(&tag)
    }

    /// Registers a transfer watchdog and returns its timer tag.
    pub(crate) fn arm_watchdog(&mut self, transfer: TransferId) -> u64 {
        let tag = self.next_watchdog_tag;
        self.next_watchdog_tag += 1;
        self.watchdog_for.insert(tag, transfer);
        tag
    }

    /// Claims the transfer behind a fired watchdog (`None` = stale tag).
    pub(crate) fn take_watchdog(&mut self, tag: u64) -> Option<TransferId> {
        self.watchdog_for.remove(&tag)
    }

    /// Registers a task watchdog and returns its timer tag.
    pub(crate) fn arm_task_watchdog(&mut self, task: TaskId) -> u64 {
        let tag = self.next_task_watchdog_tag;
        self.next_task_watchdog_tag += 1;
        self.task_watchdog_for.insert(tag, task);
        tag
    }

    /// Claims the task behind a fired task watchdog (`None` = stale tag).
    pub(crate) fn take_task_watchdog(&mut self, tag: u64) -> Option<TaskId> {
        self.task_watchdog_for.remove(&tag)
    }
}

impl Broker {
    /// Arms a retransmission probe for the given message, when a retry
    /// policy is configured.
    pub(crate) fn arm_retry(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        kind: RetryKind,
        attempt: u32,
    ) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let tag = self.retries.arm_probe(transfer, kind, attempt);
        ctx.schedule_timer(policy.timeout, tag);
    }

    pub(crate) fn on_retry_timer(&mut self, ctx: &mut Context<OverlayMsg>, tag: u64) {
        let Some(probe) = self.retries.take_probe(tag) else {
            return;
        };
        let Some(outbound) = self.transfers.flows.get(probe.transfer) else {
            return; // transfer already finished
        };
        if !probe.kind.stalls(outbound) {
            return;
        }
        let max = self.cfg.retry.map(|p| p.max_attempts).unwrap_or(1);
        if probe.attempt >= max {
            self.transfers.flows.cancel(probe.transfer);
            self.bump(ctx, |c| c.retries_exhausted);
            self.finish_transfer(ctx, probe.transfer, false);
            return;
        }
        let to = outbound.to;
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::Retransmission {
                transfer: probe.transfer.raw(),
                part: match probe.kind {
                    RetryKind::Petition => None,
                    RetryKind::Part { index, .. } => Some(index),
                },
                attempt: probe.attempt + 1,
            });
        }
        match probe.kind {
            RetryKind::Petition => {
                let file = Box::new(outbound.file.clone());
                let num_parts = outbound.num_parts();
                let sent_at = outbound.petition_sent_at;
                ctx.send(
                    to,
                    OverlayMsg::FilePetition {
                        transfer: probe.transfer,
                        file,
                        num_parts,
                        sent_at,
                    },
                );
            }
            RetryKind::Part { index, size } => {
                ctx.send(
                    to,
                    OverlayMsg::FilePart {
                        transfer: probe.transfer,
                        index,
                        size,
                    },
                );
            }
        }
        self.bump(ctx, |c| c.retransmissions);
        self.arm_retry(ctx, probe.transfer, probe.kind, probe.attempt + 1);
    }

    pub(crate) fn on_task_watchdog(&mut self, ctx: &mut Context<OverlayMsg>, tag: u64) {
        if let Some(task_id) = self.retries.take_task_watchdog(tag) {
            let unfinished = self
                .tasks
                .tasks
                .get(&task_id)
                .map(|t| !matches!(t.phase, TaskPhase::Completed | TaskPhase::Failed))
                .unwrap_or(false);
            if unfinished {
                self.bump(ctx, |c| c.tasks_timed_out);
                self.fail_task(ctx, task_id);
            }
        }
    }

    pub(crate) fn on_transfer_watchdog(&mut self, ctx: &mut Context<OverlayMsg>, tag: u64) {
        if let Some(transfer) = self.retries.take_watchdog(tag) {
            let still_running = self
                .transfers
                .flows
                .get(transfer)
                .map(|t| !t.is_complete())
                .unwrap_or(false);
            if still_running {
                if ctx.trace_enabled() {
                    ctx.trace_event(TraceEventKind::WatchdogFired {
                        transfer: transfer.raw(),
                    });
                }
                self.transfers.flows.cancel(transfer);
                self.finish_transfer(ctx, transfer, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filetransfer::FileMeta;
    use crate::id::{ContentId, IdGenerator};
    use netsim::node::NodeId;
    use netsim::time::SimTime;

    fn outbound(parts: u32) -> OutboundTransfer {
        let mut ids = IdGenerator::new(7);
        let file = FileMeta {
            content: ContentId::generate(&mut ids),
            name: "f".to_string(),
            size_bytes: 8 << 20,
        };
        OutboundTransfer::new(
            TransferId::generate(&mut ids),
            file,
            NodeId(2),
            parts,
            SimTime::ZERO,
        )
    }

    #[test]
    fn tags_are_monotone_and_namespaced() {
        let mut ids = IdGenerator::new(9);
        let mut eng = RetryEngine::new();
        let t = TransferId::generate(&mut ids);
        let p0 = eng.arm_probe(t, RetryKind::Petition, 1);
        let p1 = eng.arm_probe(t, RetryKind::Petition, 2);
        assert_eq!(p0, RETRY_TAG_BASE);
        assert_eq!(p1, RETRY_TAG_BASE + 1);
        let w = eng.arm_watchdog(t);
        assert_eq!(w, WATCHDOG_TAG_BASE);
        let task = TaskId::generate(&mut ids);
        let tw = eng.arm_task_watchdog(task);
        assert_eq!(tw, TASK_WATCHDOG_TAG_BASE);
    }

    #[test]
    fn take_is_claim_once() {
        let mut ids = IdGenerator::new(10);
        let mut eng = RetryEngine::new();
        let t = TransferId::generate(&mut ids);
        let tag = eng.arm_probe(t, RetryKind::Part { index: 3, size: 64 }, 2);
        let probe = eng.take_probe(tag).expect("armed");
        assert_eq!(probe.attempt, 2);
        assert_eq!(probe.kind, RetryKind::Part { index: 3, size: 64 });
        assert_eq!(eng.take_probe(tag), None, "second fire is stale");

        let w = eng.arm_watchdog(t);
        assert_eq!(eng.take_watchdog(w), Some(t));
        assert_eq!(eng.take_watchdog(w), None);
    }

    #[test]
    fn petition_probe_stalls_only_before_the_ack() {
        let mut t = outbound(4);
        assert!(RetryKind::Petition.stalls(&t), "awaiting ack → stalled");
        t.on_petition_ack(true);
        assert!(!RetryKind::Petition.stalls(&t), "ack arrived → moved on");
    }

    #[test]
    fn part_probe_stalls_only_while_its_part_is_in_flight() {
        let mut t = outbound(4);
        t.on_petition_ack(true); // part 0 in flight
        let probe0 = RetryKind::Part { index: 0, size: 1 };
        let probe1 = RetryKind::Part { index: 1, size: 1 };
        assert!(probe0.stalls(&t), "part 0 unconfirmed");
        assert!(!probe1.stalls(&t), "part 1 not sent yet");
        t.on_part_confirm(0); // window advances: part 1 in flight
        assert!(!probe0.stalls(&t), "part 0 confirmed → stale probe");
        assert!(probe1.stalls(&t), "part 1 now the in-flight one");
    }

    #[test]
    fn cancelled_transfers_never_stall() {
        let mut t = outbound(2);
        t.on_petition_ack(true);
        t.cancel();
        assert!(!RetryKind::Petition.stalls(&t));
        assert!(!RetryKind::Part { index: 0, size: 1 }.stalls(&t));
    }
}
