//! The shared sender-side transfer state machine.
//!
//! Both the broker (scripted distributions, task-input shipments) and the
//! client (broker-instructed peer-to-peer serves) drive the same
//! petition → ack → stop-and-wait protocol from the sending end, and both
//! must keep an [`OutboundTransfer`] and its [`TransferRecord`] in lock
//! step: only the *first* petition ack carries timing milestones, and only
//! a confirm that advances the stop-and-wait window may stamp
//! `confirmed_at` (first-confirm-wins). [`SenderFlow`] owns that pairing
//! once, so the invariants live in one place instead of being duplicated
//! per actor.
//!
//! The flow is deliberately side-effect-free towards the engine: it never
//! sends messages, schedules timers, or emits trace events. Callers ask it
//! "what just happened?" and perform their own sends/traces around it, so
//! actor-specific behaviour (pipes, retries, reports) stays with the actor
//! while the record bookkeeping cannot drift between them.

use netsim::idmap::IdMap;
use std::sync::Arc;

use netsim::time::SimTime;

use crate::filetransfer::{OutboundTransfer, TransferPhase};
use crate::id::TransferId;
use crate::records::{PartRecord, RecordSink, TransferRecord};

/// Sender-side bookkeeping for all live outbound transfers of one actor:
/// the [`OutboundTransfer`] window state plus the shared [`TransferRecord`]
/// mutations that must stay consistent with it.
#[derive(Debug, Default)]
pub struct SenderFlow {
    live: IdMap<TransferId, OutboundTransfer>,
    sink: Option<RecordSink>,
}

impl SenderFlow {
    /// An empty flow with no record sink attached (record mutations become
    /// no-ops until [`SenderFlow::set_sink`] is called).
    pub fn new() -> Self {
        SenderFlow::default()
    }

    /// Attaches the shared run log the flow writes records into.
    pub fn set_sink(&mut self, sink: RecordSink) {
        self.sink = Some(sink);
    }

    /// Number of live (unfinished) outbound transfers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no outbound transfer is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Read access to a live transfer's window state.
    pub fn get(&self, transfer: TransferId) -> Option<&OutboundTransfer> {
        self.live.get(&transfer)
    }

    /// Registers a freshly petitioned transfer: inserts the window state
    /// and appends its [`TransferRecord`] (petition sent `now`).
    pub fn begin(&mut self, outbound: OutboundTransfer, to_name: Arc<str>, now: SimTime) {
        if let Some(sink) = &self.sink {
            let rec = TransferRecord {
                id: outbound.id,
                to: outbound.to,
                to_name,
                label: outbound.file.name.clone(),
                file_size: outbound.file.size_bytes,
                num_parts: outbound.num_parts(),
                petition_sent_at: now,
                petition_handled_at: None,
                petition_acked_at: None,
                parts: Vec::with_capacity(outbound.num_parts() as usize),
                completed_at: None,
                cancelled: false,
                receiver_bytes: None,
            };
            sink.with(|log| log.transfers.push(rec));
        }
        self.live.insert(outbound.id, outbound);
    }

    /// Whether the transfer is still awaiting its petition ack — i.e. the
    /// ack now being handled is the *first* one and may stamp milestones.
    /// A duplicate ack (retransmitted petition) must not skew the records
    /// or the latency history.
    pub fn is_awaiting_ack(&self, transfer: TransferId) -> bool {
        self.live
            .get(&transfer)
            .map(|t| t.phase == TransferPhase::AwaitingPetitionAck)
            .unwrap_or(false)
    }

    /// Stamps the first petition ack's timing milestones on the record.
    pub fn note_ack_times(&self, transfer: TransferId, handled_at: SimTime, acked_at: SimTime) {
        if let Some(sink) = &self.sink {
            sink.with(|log| {
                if let Some(rec) = log.transfer_mut(transfer) {
                    rec.petition_handled_at = Some(handled_at);
                    rec.petition_acked_at = Some(acked_at);
                }
            });
        }
    }

    /// Advances the window on a petition ack: returns the first part to
    /// send, or `None` (refused, stale, or unknown transfer).
    pub fn on_ack(&mut self, transfer: TransferId, accepted: bool) -> Option<(u32, u64)> {
        self.live
            .get_mut(&transfer)
            .and_then(|t| t.on_petition_ack(accepted))
    }

    /// Whether a confirm for `index` would advance the stop-and-wait window
    /// right now. Callers must check this *before* touching the record: a
    /// late duplicate confirm must not overwrite the original milestone.
    pub fn accepts_confirm(&self, transfer: TransferId, index: u32) -> bool {
        self.live
            .get(&transfer)
            .map(|t| t.accepts_confirm(index))
            .unwrap_or(false)
    }

    /// Stamps a validated confirm's arrival on the part record
    /// (first-confirm-wins: an already-stamped part is left untouched).
    pub fn note_confirm(&self, transfer: TransferId, index: u32, now: SimTime) {
        if let Some(sink) = &self.sink {
            sink.with(|log| {
                if let Some(rec) = log.transfer_mut(transfer) {
                    if let Some(part) = rec.parts.iter_mut().find(|p| p.index == index) {
                        if part.confirmed_at.is_none() {
                            part.confirmed_at = Some(now);
                        }
                    }
                }
            });
        }
    }

    /// Advances the window on a part confirm. `None` for unknown transfers;
    /// otherwise `(next part to send, window now complete)`.
    #[allow(clippy::type_complexity)]
    pub fn on_confirm(
        &mut self,
        transfer: TransferId,
        index: u32,
    ) -> Option<(Option<(u32, u64)>, bool)> {
        self.live
            .get_mut(&transfer)
            .map(|t| (t.on_part_confirm(index), t.is_complete()))
    }

    /// Appends the part-sent milestone to the record.
    pub fn note_part_sent(&self, transfer: TransferId, index: u32, size: u64, now: SimTime) {
        if let Some(sink) = &self.sink {
            sink.with(|log| {
                if let Some(rec) = log.transfer_mut(transfer) {
                    rec.parts.push(PartRecord {
                        index,
                        size,
                        sent_at: now,
                        confirmed_at: None,
                    });
                }
            });
        }
    }

    /// Marks a live transfer cancelled (watchdog / retries exhausted).
    pub fn cancel(&mut self, transfer: TransferId) {
        if let Some(t) = self.live.get_mut(&transfer) {
            t.cancel();
        }
    }

    /// Removes a transfer from the live set, returning its final window
    /// state (`None` when already finished — callers treat that as a stale
    /// signal and do nothing).
    pub fn finish(&mut self, transfer: TransferId) -> Option<OutboundTransfer> {
        self.live.remove(&transfer)
    }

    /// Stamps the record's terminal state (`completed_at` or `cancelled`)
    /// and returns `(elapsed seconds since the petition, throughput)` as
    /// derived from the record — `(0.0, None)` when no record exists.
    pub fn stamp_finished(
        &self,
        transfer: TransferId,
        now: SimTime,
        completed: bool,
    ) -> (f64, Option<f64>) {
        let mut elapsed = 0.0;
        let mut throughput = None;
        if let Some(sink) = &self.sink {
            sink.with(|log| {
                if let Some(rec) = log.transfer_mut(transfer) {
                    if completed {
                        rec.completed_at = Some(now);
                    } else {
                        rec.cancelled = true;
                    }
                    elapsed = now.duration_since(rec.petition_sent_at).as_secs_f64();
                    throughput = rec.throughput_bytes_per_sec();
                }
            });
        }
        (elapsed, throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filetransfer::FileMeta;
    use crate::id::{ContentId, IdGenerator};
    use netsim::node::NodeId;
    use netsim::time::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn flow_with_transfer(parts: u32) -> (SenderFlow, RecordSink, TransferId) {
        let mut ids = IdGenerator::new(3);
        let id = TransferId::generate(&mut ids);
        let file = FileMeta {
            content: ContentId::generate(&mut ids),
            name: "f".to_string(),
            size_bytes: 4 << 20,
        };
        let outbound = OutboundTransfer::new(id, file, NodeId(2), parts, t(0.0));
        let sink = RecordSink::new();
        let mut flow = SenderFlow::new();
        flow.set_sink(sink.clone());
        flow.begin(outbound, Arc::from("peer2"), t(0.0));
        (flow, sink, id)
    }

    #[test]
    fn begin_records_and_tracks_live_state() {
        let (flow, sink, id) = flow_with_transfer(4);
        assert_eq!(flow.len(), 1);
        assert!(flow.is_awaiting_ack(id));
        sink.with(|log| {
            let rec = log.transfer(id).expect("record created");
            assert_eq!(rec.num_parts, 4);
            assert_eq!(&*rec.to_name, "peer2");
            assert!(rec.parts.is_empty());
        });
    }

    #[test]
    fn only_first_ack_is_flagged() {
        let (mut flow, sink, id) = flow_with_transfer(2);
        assert!(flow.is_awaiting_ack(id));
        flow.note_ack_times(id, t(1.0), t(1.1));
        assert_eq!(flow.on_ack(id, true), Some((0, 2 << 20)));
        // A duplicate ack must no longer be "first".
        assert!(!flow.is_awaiting_ack(id));
        assert_eq!(flow.on_ack(id, true), None);
        sink.with(|log| {
            let rec = log.transfer(id).unwrap();
            assert_eq!(rec.petition_handled_at, Some(t(1.0)));
            assert_eq!(rec.petition_acked_at, Some(t(1.1)));
        });
    }

    #[test]
    fn first_confirm_wins_on_the_record() {
        let (mut flow, sink, id) = flow_with_transfer(2);
        flow.on_ack(id, true);
        flow.note_part_sent(id, 0, 2 << 20, t(1.1));
        assert!(flow.accepts_confirm(id, 0));
        flow.note_confirm(id, 0, t(2.0));
        // The stale duplicate must neither validate nor move the stamp.
        flow.note_confirm(id, 0, t(9.0));
        assert_eq!(flow.on_confirm(id, 0), Some((Some((1, 2 << 20)), false)));
        assert!(!flow.accepts_confirm(id, 0), "window advanced past part 0");
        sink.with(|log| {
            let rec = log.transfer(id).unwrap();
            assert_eq!(rec.parts[0].confirmed_at, Some(t(2.0)));
        });
    }

    #[test]
    fn finish_and_stamp_cover_both_outcomes() {
        let (mut flow, sink, id) = flow_with_transfer(1);
        flow.on_ack(id, true);
        flow.note_part_sent(id, 0, 4 << 20, t(1.0));
        flow.note_confirm(id, 0, t(3.0));
        assert_eq!(flow.on_confirm(id, 0), Some((None, true)));
        let (elapsed, throughput) = flow.stamp_finished(id, t(3.0), true);
        assert!((elapsed - 3.0).abs() < 1e-9);
        assert!(throughput.unwrap() > 0.0);
        assert!(flow.finish(id).is_some());
        assert!(flow.finish(id).is_none(), "second finish is stale");
        sink.with(|log| assert!(log.transfer(id).unwrap().completed_at.is_some()));

        let (mut flow, sink, id) = flow_with_transfer(1);
        flow.cancel(id);
        let (elapsed, throughput) = flow.stamp_finished(id, t(5.0), false);
        assert!((elapsed - 5.0).abs() < 1e-9);
        assert_eq!(throughput, None);
        sink.with(|log| assert!(log.transfer(id).unwrap().cancelled));
    }
}
