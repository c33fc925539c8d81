//! The sending end of the transfer protocol: petition → ack →
//! stop-and-wait parts → close.
//!
//! [`SenderFlow`] is the only code that builds `FilePetition`, `FilePart`,
//! `TransferComplete` and `TransferCancel`, emits the protocol's trace
//! rows and stamps the sender's [`TransferRecord`] — the one account of a
//! transfer that attribution, `psim report` and Figs 2–4 read; the trace
//! rows are an export of the same steps. The broker (scripted
//! distributions, task-input shipments, retransmissions) and a client
//! serving a broker-instructed request both send through it. Each
//! protocol step is one call that performs the step's rows, sends and
//! record stamps in a fixed order and returns what happened ([`Step`]);
//! the caller keeps only its own policy around it — the broker its data
//! pipe, retry and watchdog timers, registry statistics and task
//! hand-off, the client its report.
//!
//! Two record invariants live here: only the *first* petition ack of a
//! live transfer stamps the ack milestones (a duplicate, answering a
//! retransmitted petition, must not skew them, and an ack arriving after
//! the close stamps nothing), and only a confirm that advances the window
//! stamps `confirmed_at` (first-confirm-wins: a late duplicate must not
//! move Fig 4's last-part time).

use std::sync::Arc;

use netsim::engine::Context;
use netsim::idmap::IdMap;
use netsim::node::NodeId;
use netsim::time::SimTime;
use netsim::trace::TraceEventKind;

use crate::filetransfer::{OutboundTransfer, TransferPhase};
use crate::id::TransferId;
use crate::message::OverlayMsg;
use crate::records::{PartRecord, RecordSink, RunLog, TransferRecord};

/// What a petition ack or a part confirm did to a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Part `index` of `size` bytes went out.
    Sent { index: u32, size: u64 },
    /// The receiver refused the transfer; the caller closes it
    /// (`finish(.., false)`) after any rows of its own.
    Refused,
    /// The last part was confirmed; the caller closes the transfer
    /// (`finish(.., true)`) after any rows of its own.
    Complete,
    /// A duplicate, late or unknown message: nothing moved.
    Stale,
}

/// A closed transfer, as its sender's policy needs it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Finished {
    /// The receiving host.
    pub(crate) to: NodeId,
    /// The file size in bytes.
    pub(crate) bytes: u64,
    /// Seconds from the petition to the close.
    pub(crate) elapsed_secs: f64,
    /// The record's data-phase throughput, when it has one.
    pub(crate) throughput: Option<f64>,
}

/// Every live outbound transfer of one actor, and its run-log sink.
#[derive(Debug)]
pub(crate) struct SenderFlow {
    live: IdMap<TransferId, OutboundTransfer>,
    sink: Option<RecordSink>,
}

impl SenderFlow {
    /// An idle flow writing its records into `sink` (none: no records).
    pub(crate) fn new(sink: Option<RecordSink>) -> Self {
        SenderFlow {
            live: IdMap::default(),
            sink,
        }
    }

    /// Number of live (unclosed) transfers.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no transfer is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// A live transfer's window state.
    pub(crate) fn get(&self, transfer: TransferId) -> Option<&OutboundTransfer> {
        self.live.get(&transfer)
    }

    /// Opens `outbound`, first runnable at `enqueued_at`: appends its
    /// record, traces the span, the queueing delay (when `enqueued_at` is
    /// before now) and the petition, and sends the petition.
    pub(crate) fn petition(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        outbound: OutboundTransfer,
        to_name: Arc<str>,
        enqueued_at: SimTime,
    ) {
        let now = ctx.now();
        let id = outbound.id;
        self.with_log(|log| {
            log.transfers.push(TransferRecord {
                id,
                from: ctx.self_id(),
                to: outbound.to,
                to_name,
                label: outbound.file.name.clone(),
                file_size: outbound.file.size_bytes,
                num_parts: outbound.num_parts(),
                enqueued_at,
                petition_sent_at: now,
                petition_handled_at: None,
                petition_acked_at: None,
                parts: Vec::with_capacity(outbound.num_parts() as usize),
                retransmissions: Vec::new(),
                completed_at: None,
                cancelled_at: None,
                receiver_bytes: None,
            })
        });
        if ctx.trace_enabled() {
            if enqueued_at < now {
                ctx.trace_event(TraceEventKind::TransferQueued {
                    transfer: id.raw(),
                    enqueued_at,
                });
            }
            ctx.trace_event(TraceEventKind::PetitionSent {
                transfer: id.raw(),
                to: outbound.to,
                bytes: outbound.file.size_bytes,
                parts: outbound.num_parts(),
            });
        }
        send_petition(ctx, &outbound);
        self.live.insert(id, outbound);
    }

    /// Handles a petition ack that the receiver `handled_at`: traces it,
    /// stamps the first ack's milestones and, when accepted, sends the
    /// first part. Also returns whether this was the first ack.
    pub(crate) fn on_ack(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        accepted: bool,
        handled_at: SimTime,
    ) -> (bool, Step) {
        let now = ctx.now();
        let first = self
            .live
            .get(&transfer)
            .is_some_and(|t| t.phase == TransferPhase::AwaitingPetitionAck);
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::PetitionAcked {
                transfer: transfer.raw(),
                accepted,
            });
        }
        if first {
            self.with_log(|log| {
                if let Some(rec) = log.transfer_mut(transfer) {
                    rec.petition_handled_at = Some(handled_at);
                    rec.petition_acked_at = Some(now);
                }
            });
        }
        let ack = (self.live.get_mut(&transfer)).map(|t| (t.on_petition_ack(accepted), t.to));
        let step = match ack {
            Some((Some((index, size)), to)) => self.send_part(ctx, transfer, to, index, size),
            // A refusal ends a live transfer even mid-window: the receiver
            // forgot it and refused its retransmitted petition.
            Some((None, _)) if !accepted => Step::Refused,
            _ => Step::Stale,
        };
        (first, step)
    }

    /// Handles the confirm of part `index`: traces it, stamps the part's
    /// `confirmed_at` when the confirm advances the window, and sends the
    /// next part.
    pub(crate) fn on_confirm(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        index: u32,
    ) -> Step {
        let now = ctx.now();
        let accepted = self
            .live
            .get(&transfer)
            .is_some_and(|t| t.accepts_confirm(index));
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::PartConfirmed {
                transfer: transfer.raw(),
                index,
                accepted,
            });
        }
        if !accepted {
            return Step::Stale;
        }
        self.with_log(|log| {
            let part = log
                .transfer_mut(transfer)
                .and_then(|rec| rec.parts.iter_mut().find(|p| p.index == index));
            if let Some(part) = part {
                part.confirmed_at.get_or_insert(now);
            }
        });
        let t = self.live.get_mut(&transfer).expect("an accepted confirm");
        let to = t.to;
        match t.on_part_confirm(index) {
            Some((next, size)) => self.send_part(ctx, transfer, to, next, size),
            None => Step::Complete,
        }
    }

    /// Sends a live transfer's petition again (`part: None`) or part
    /// `(index, size)`, traced as send `attempt` and stamped on the record.
    pub(crate) fn resend(
        &self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        part: Option<(u32, u64)>,
        attempt: u32,
    ) {
        let Some(t) = self.live.get(&transfer) else {
            return;
        };
        let now = ctx.now();
        let index = part.map(|(index, _)| index);
        self.with_log(|log| {
            if let Some(rec) = log.transfer_mut(transfer) {
                rec.retransmissions.push((now, index));
            }
        });
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::Retransmission {
                transfer: transfer.raw(),
                part: index,
                attempt,
            });
        }
        match part {
            None => send_petition(ctx, t),
            Some((index, size)) => send_part_msg(ctx, t.to, transfer, index, size),
        }
    }

    /// Closes a live transfer: traces its end, tells the receiver
    /// (`TransferComplete` or `TransferCancel`) and stamps the record.
    /// `None` when it was already closed.
    pub(crate) fn finish(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        completed: bool,
    ) -> Option<Finished> {
        let now = ctx.now();
        let t = self.live.remove(&transfer)?;
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::TransferCompleted {
                transfer: transfer.raw(),
                ok: completed,
            });
        }
        ctx.send(
            t.to,
            if completed {
                OverlayMsg::TransferComplete { transfer }
            } else {
                OverlayMsg::TransferCancel { transfer }
            },
        );
        let throughput = self
            .with_log(|log| {
                let rec = log.transfer_mut(transfer)?;
                if completed {
                    rec.completed_at = Some(now);
                } else {
                    rec.cancelled_at = Some(now);
                }
                rec.throughput_bytes_per_sec()
            })
            .flatten();
        Some(Finished {
            to: t.to,
            bytes: t.file.size_bytes,
            elapsed_secs: now.duration_since(t.petition_sent_at).as_secs_f64(),
            throughput,
        })
    }

    /// Records, traces and sends a part of a live transfer the first time.
    fn send_part(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        transfer: TransferId,
        to: NodeId,
        index: u32,
        size: u64,
    ) -> Step {
        let now = ctx.now();
        self.with_log(|log| {
            if let Some(rec) = log.transfer_mut(transfer) {
                rec.parts.push(PartRecord {
                    index,
                    size,
                    sent_at: now,
                    confirmed_at: None,
                });
            }
        });
        if ctx.trace_enabled() {
            ctx.trace_event(TraceEventKind::PartSent {
                transfer: transfer.raw(),
                index,
                bytes: size,
            });
        }
        send_part_msg(ctx, to, transfer, index, size);
        Step::Sent { index, size }
    }

    /// Runs `f` on the run log, when a sink is attached.
    fn with_log<R>(&self, f: impl FnOnce(&mut RunLog) -> R) -> Option<R> {
        self.sink.as_ref().map(|sink| sink.with(f))
    }
}

/// The only `FilePetition` construction: a retransmission repeats the
/// original's `sent_at`.
fn send_petition(ctx: &mut Context<OverlayMsg>, t: &OutboundTransfer) {
    ctx.send(
        t.to,
        OverlayMsg::FilePetition {
            transfer: t.id,
            file: Box::new(t.file.clone()),
            num_parts: t.num_parts(),
            sent_at: t.petition_sent_at,
        },
    );
}

/// The only `FilePart` construction.
fn send_part_msg(
    ctx: &mut Context<OverlayMsg>,
    to: NodeId,
    transfer: TransferId,
    index: u32,
    size: u64,
) {
    ctx.send(
        to,
        OverlayMsg::FilePart {
            transfer,
            index,
            size,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filetransfer::FileMeta;
    use crate::id::{ContentId, IdGenerator};
    use netsim::engine::{Actor, Engine, TimerId};
    use netsim::link::{AccessLink, PathSpec};
    use netsim::node::NodeSpec;
    use netsim::time::SimDuration;
    use netsim::topology::Topology;
    use netsim::transport::TransportConfig;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    type Call = Box<dyn FnMut(&mut SenderFlow, &mut Context<OverlayMsg>) + Send>;

    /// Makes the flow calls of a script, each at its instant, on node 0.
    struct Driver {
        flow: SenderFlow,
        script: Vec<(f64, Call)>,
    }

    impl Actor<OverlayMsg> for Driver {
        fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
            for (i, (at, _)) in self.script.iter().enumerate() {
                ctx.schedule_timer(SimDuration::from_secs_f64(*at), i as u64);
            }
        }
        fn on_message(&mut self, _: &mut Context<OverlayMsg>, _: NodeId, _: OverlayMsg) {}
        fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, _: TimerId, tag: u64) {
            (self.script[tag as usize].1)(&mut self.flow, ctx);
        }
    }

    /// Node 1: hears everything, answers nothing.
    struct Silent;

    impl Actor<OverlayMsg> for Silent {
        fn on_message(&mut self, _: &mut Context<OverlayMsg>, _: NodeId, _: OverlayMsg) {}
    }

    /// Runs `script` and returns the run log and node 0's protocol rows.
    fn run(script: Vec<(f64, Call)>) -> (RunLog, Vec<TraceEventKind>) {
        let mut topo = Topology::new();
        let a = topo.add_node(
            NodeSpec::responsive("a"),
            AccessLink::symmetric_mbps(8.0, 0.0),
        );
        let b = topo.add_node(
            NodeSpec::responsive("b"),
            AccessLink::symmetric_mbps(8.0, 0.0),
        );
        topo.set_path_symmetric(a, b, PathSpec::from_owd_ms(10.0, 0.0));
        let sink = RecordSink::new();
        let mut engine = Engine::new(topo, TransportConfig::default(), 1);
        engine.enable_trace(1 << 10);
        let flow = SenderFlow::new(Some(sink.clone()));
        engine.register(a, Box::new(Driver { flow, script }));
        engine.register(b, Box::new(Silent));
        engine.run_until(t(60.0));
        let rows = (engine.trace().events())
            .filter(|e| e.node == a)
            .map(|e| e.kind.clone())
            .filter(|k| {
                !matches!(
                    k,
                    TraceEventKind::MessageSent { .. }
                        | TraceEventKind::MessageDelivered { .. }
                        | TraceEventKind::TimerArmed { .. }
                        | TraceEventKind::TimerFired { .. }
                )
            })
            .collect();
        (sink.drain(), rows)
    }

    /// A 4 MiB transfer to node 1 in `parts` parts.
    fn outbound(parts: u32, now: SimTime) -> OutboundTransfer {
        let mut ids = IdGenerator::new(3);
        let id = TransferId::generate(&mut ids);
        let file = FileMeta {
            content: ContentId::generate(&mut ids),
            name: "f".to_string(),
            size_bytes: 4 << 20,
        };
        OutboundTransfer::new(id, file, NodeId(1), parts, now)
    }

    fn petition_at(at: f64, parts: u32, enqueued_at: SimTime) -> (f64, Call) {
        let call: Call = Box::new(move |flow, ctx| {
            flow.petition(ctx, outbound(parts, t(at)), Arc::from("peer2"), enqueued_at)
        });
        (at, call)
    }

    fn id() -> TransferId {
        outbound(1, SimTime::ZERO).id
    }

    #[test]
    fn begin_records_and_tracks_live_state() {
        let check: Call = Box::new(|flow, _| {
            assert_eq!(flow.len(), 1);
            assert_eq!(
                flow.get(id()).map(|t| t.phase),
                Some(TransferPhase::AwaitingPetitionAck)
            );
        });
        let (log, rows) = run(vec![petition_at(1.0, 4, t(0.5)), (1.0, check)]);
        let rec = log.transfer(id()).expect("record created");
        assert_eq!(rec.num_parts, 4);
        assert_eq!(&*rec.to_name, "peer2");
        assert_eq!(rec.petition_sent_at, t(1.0));
        assert_eq!((rec.from, rec.enqueued_at), (NodeId(0), t(0.5)));
        assert!(rec.parts.is_empty());
        assert_eq!(
            rows,
            [
                TraceEventKind::TransferQueued {
                    transfer: id().raw(),
                    enqueued_at: t(0.5)
                },
                TraceEventKind::PetitionSent {
                    transfer: id().raw(),
                    to: NodeId(1),
                    bytes: 4 << 20,
                    parts: 4
                },
            ]
        );
    }

    #[test]
    fn only_first_ack_is_flagged() {
        let ack = |first: bool, step: Step| -> Call {
            Box::new(move |flow, ctx| {
                assert_eq!(flow.on_ack(ctx, id(), true, t(1.5)), (first, step));
            })
        };
        let (log, _) = run(vec![
            petition_at(1.0, 2, t(1.0)),
            (
                2.0,
                ack(
                    true,
                    Step::Sent {
                        index: 0,
                        size: 2 << 20,
                    },
                ),
            ),
            // A duplicate ack is neither first nor a step.
            (3.0, ack(false, Step::Stale)),
        ]);
        let rec = log.transfer(id()).unwrap();
        assert_eq!(rec.petition_handled_at, Some(t(1.5)));
        assert_eq!(rec.petition_acked_at, Some(t(2.0)));
        assert_eq!(rec.parts.len(), 1, "the duplicate sent nothing");
    }

    #[test]
    fn an_ack_after_the_close_stamps_nothing() {
        let late: Call = Box::new(|flow, ctx| {
            assert!(flow.finish(ctx, id(), false).is_some());
            assert_eq!(flow.on_ack(ctx, id(), true, t(1.5)), (false, Step::Stale));
        });
        let (log, rows) = run(vec![petition_at(1.0, 2, t(1.0)), (2.0, late)]);
        let rec = log.transfer(id()).unwrap();
        assert_eq!(rec.cancelled_at, Some(t(2.0)));
        assert_eq!(
            (rec.petition_handled_at, rec.petition_acked_at),
            (None, None)
        );
        assert!(
            rows.contains(&TraceEventKind::PetitionAcked {
                transfer: id().raw(),
                accepted: true
            }),
            "the trace still exports the late ack"
        );
    }

    #[test]
    fn first_confirm_wins_on_the_record() {
        let confirm = |step: Step| -> Call {
            Box::new(move |flow, ctx| assert_eq!(flow.on_confirm(ctx, id(), 0), step))
        };
        let ack: Call = Box::new(|flow, ctx| {
            flow.on_ack(ctx, id(), true, t(1.0));
        });
        let (log, rows) = run(vec![
            petition_at(1.0, 2, t(1.0)),
            (1.1, ack),
            (
                2.0,
                confirm(Step::Sent {
                    index: 1,
                    size: 2 << 20,
                }),
            ),
            // The stale duplicate must neither advance nor move the stamp.
            (9.0, confirm(Step::Stale)),
        ]);
        let rec = log.transfer(id()).unwrap();
        assert_eq!(rec.parts[0].confirmed_at, Some(t(2.0)));
        assert_eq!(rec.parts[1].sent_at, t(2.0));
        let confirms: Vec<bool> = (rows.iter())
            .filter_map(|k| match k {
                TraceEventKind::PartConfirmed { accepted, .. } => Some(*accepted),
                _ => None,
            })
            .collect();
        assert_eq!(confirms, [true, false], "both confirms are traced");
    }

    #[test]
    fn finish_and_stamp_cover_both_outcomes() {
        let ack: Call = Box::new(|flow, ctx| {
            flow.on_ack(ctx, id(), true, t(1.0));
        });
        let complete: Call = Box::new(|flow, ctx| {
            assert_eq!(flow.on_confirm(ctx, id(), 0), Step::Complete);
            let done = flow.finish(ctx, id(), true).expect("live");
            assert_eq!((done.to, done.bytes), (NodeId(1), 4 << 20));
            assert!((done.elapsed_secs - 2.0).abs() < 1e-9);
            assert!(done.throughput.unwrap() > 0.0);
            assert_eq!(flow.finish(ctx, id(), true), None, "second finish is stale");
            assert!(flow.is_empty());
        });
        let (log, rows) = run(vec![
            petition_at(1.0, 1, t(1.0)),
            (2.0, ack),
            (3.0, complete),
        ]);
        assert_eq!(log.transfer(id()).unwrap().completed_at, Some(t(3.0)));
        assert_eq!(
            rows.last(),
            Some(&TraceEventKind::TransferCompleted {
                transfer: id().raw(),
                ok: true
            })
        );

        let refuse: Call = Box::new(|flow, ctx| {
            assert_eq!(flow.on_ack(ctx, id(), false, t(1.0)), (true, Step::Refused));
            let done = flow.finish(ctx, id(), false).expect("live");
            assert!((done.elapsed_secs - 4.0).abs() < 1e-9);
            assert_eq!(done.throughput, None);
        });
        let (log, _) = run(vec![petition_at(1.0, 1, t(1.0)), (5.0, refuse)]);
        let rec = log.transfer(id()).unwrap();
        assert_eq!((rec.cancelled_at, rec.completed_at), (Some(t(5.0)), None));
    }

    #[test]
    fn resends_are_traced_and_stamped_but_add_no_part() {
        let resend: Call = Box::new(|flow, ctx| {
            flow.resend(ctx, id(), None, 2);
            flow.on_ack(ctx, id(), true, t(2.0));
            flow.resend(ctx, id(), Some((0, 2 << 20)), 2);
        });
        let (log, rows) = run(vec![petition_at(1.0, 2, t(1.0)), (2.0, resend)]);
        let rec = log.transfer(id()).unwrap();
        assert_eq!(rec.parts.len(), 1);
        assert_eq!(rec.retransmissions, [(t(2.0), None), (t(2.0), Some(0))]);
        let resent: Vec<Option<u32>> = (rows.iter())
            .filter_map(|k| match k {
                TraceEventKind::Retransmission { part, attempt, .. } => {
                    assert_eq!(*attempt, 2);
                    Some(*part)
                }
                _ => None,
            })
            .collect();
        assert_eq!(resent, [None, Some(0)]);
    }
}
