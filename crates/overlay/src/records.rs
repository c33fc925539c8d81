//! Experiment observability: a shared log of transfer and task records.
//!
//! Actors are owned by the engine, so experiments observe a run through a
//! [`RecordSink`] — a cheaply clonable handle to a shared [`RunLog`] that the
//! broker writes as protocol milestones happen. After the run, the
//! experiment drains the log and computes the figure series.

use std::sync::{Arc, Mutex};

use netsim::node::NodeId;
use netsim::time::SimTime;

use crate::id::{TaskId, TransferId};

/// Timing milestones of one file transfer to one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// Transfer session id.
    pub id: TransferId,
    /// The sending host: a broker, or a client serving a request.
    pub from: NodeId,
    /// Destination host.
    pub to: NodeId,
    /// Destination hostname (interned — hot paths clone a refcount, not a
    /// buffer).
    pub to_name: Arc<str>,
    /// Workload label (the broker command's label / file name).
    pub label: String,
    /// Total file size in bytes.
    pub file_size: u64,
    /// Number of parts.
    pub num_parts: u32,
    /// When the transfer's command was first runnable: earlier than
    /// `petition_sent_at` only when the sender deferred the petition
    /// (e.g. until the peer joined).
    pub enqueued_at: SimTime,
    /// When the petition was sent.
    pub petition_sent_at: SimTime,
    /// When the peer's application handled the petition (receiver clock).
    pub petition_handled_at: Option<SimTime>,
    /// When the first petition ack arrived back at the sender, if the
    /// transfer was still open then.
    pub petition_acked_at: Option<SimTime>,
    /// Per-part milestones: (sent, confirmed), in first-send order.
    pub parts: Vec<PartRecord>,
    /// Every retransmission, in send order: when it went out and the part
    /// it repeated (`None`: the petition).
    pub retransmissions: Vec<(SimTime, Option<u32>)>,
    /// When the final confirm arrived (transfer complete).
    pub completed_at: Option<SimTime>,
    /// When the sender closed the transfer without completing it
    /// (refused, or given up by its watchdog or retry budget).
    pub cancelled_at: Option<SimTime>,
    /// Bytes the receiver actually tallied (reported when the transfer
    /// closes); `None` while in flight or when the receiver kept no state.
    pub receiver_bytes: Option<u64>,
}

/// Milestones of one part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartRecord {
    /// Part index.
    pub index: u32,
    /// Part size in bytes.
    pub size: u64,
    /// When the sender transmitted it.
    pub sent_at: SimTime,
    /// When its confirm arrived back.
    pub confirmed_at: Option<SimTime>,
}

impl TransferRecord {
    /// When the transfer closed, complete or cancelled.
    pub fn closed_at(&self) -> Option<SimTime> {
        self.completed_at.or(self.cancelled_at)
    }

    /// Receiver-observed petition latency: petition sent → application
    /// handled it. This is the paper's Fig 2 metric.
    pub fn petition_latency_secs(&self) -> Option<f64> {
        self.petition_handled_at
            .map(|t| t.duration_since(self.petition_sent_at).as_secs_f64())
    }

    /// Total transmission time: petition sent → last confirm.
    pub fn total_secs(&self) -> Option<f64> {
        self.completed_at
            .map(|t| t.duration_since(self.petition_sent_at).as_secs_f64())
    }

    /// Data-phase time only: first part sent → last confirm (excludes the
    /// petition handshake).
    pub(crate) fn data_phase_secs(&self) -> Option<f64> {
        let first = self.parts.first()?.sent_at;
        self.completed_at
            .map(|t| t.duration_since(first).as_secs_f64())
    }

    /// Time to deliver the final part: last part sent → its confirm
    /// (the paper's Fig 4 "time of receiving the last Mb", scaled by size).
    pub fn last_part_secs(&self) -> Option<f64> {
        let last = self.parts.last()?;
        last.confirmed_at
            .map(|t| t.duration_since(last.sent_at).as_secs_f64())
    }

    /// Mean effective throughput over the data phase, bytes/second.
    pub fn throughput_bytes_per_sec(&self) -> Option<f64> {
        let secs = self.data_phase_secs()?;
        if secs <= 0.0 {
            return None;
        }
        Some(self.file_size as f64 / secs)
    }
}

/// Timing milestones of one task execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task id.
    pub(crate) id: TaskId,
    /// Executing host.
    pub on: NodeId,
    /// Executing hostname (interned — see [`TransferRecord::to_name`]).
    pub on_name: Arc<str>,
    /// Workload label (the command's label).
    pub label: String,
    /// Input bytes shipped before execution (0 = none).
    pub input_bytes: u64,
    /// Compute demand, giga-ops.
    pub(crate) work_gops: f64,
    /// Submission (selection) instant.
    pub submitted_at: SimTime,
    /// When the input transfer finished, if any.
    pub input_done_at: Option<SimTime>,
    /// When the peer accepted the offer.
    pub(crate) accepted_at: Option<SimTime>,
    /// When the result arrived at the broker.
    pub result_at: Option<SimTime>,
    /// Peer-reported pure execution time, seconds.
    pub exec_secs: Option<f64>,
    /// Whether execution succeeded.
    pub success: bool,
}

impl TaskRecord {
    /// End-to-end makespan in seconds, if finished.
    pub fn total_secs(&self) -> Option<f64> {
        self.result_at
            .map(|t| t.duration_since(self.submitted_at).as_secs_f64())
    }
}

/// A selection decision, for auditing which model picked which peer.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRecord {
    /// When the decision was made.
    pub at: SimTime,
    /// The selection model's name.
    pub model: String,
    /// The chosen host.
    pub chosen: NodeId,
    /// The chosen hostname (interned — cloned from the registry's
    /// per-peer `Arc<str>`, never reallocated per decision).
    pub chosen_name: Arc<str>,
    /// Number of candidates considered.
    pub candidates: usize,
}

/// Playback milestones of one streaming viewer (one stream per node).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecord {
    /// The viewing host.
    pub(crate) node: NodeId,
    /// Its hostname (interned — see [`TransferRecord::to_name`]).
    pub(crate) name: Arc<str>,
    /// Pieces the stream is divided into.
    pub(crate) total_pieces: u32,
    /// When the viewer began requesting pieces.
    pub(crate) began_at: SimTime,
    /// Request start → playback start (the startup buffer filled).
    pub startup_delay_secs: Option<f64>,
    /// Pieces received so far.
    pub(crate) pieces_received: u32,
    /// Playback stalls on a missing piece.
    pub rebuffers: u32,
    /// Total virtual time spent stalled, seconds.
    pub rebuffer_secs: f64,
    /// When the final piece finished playing.
    pub completed_at: Option<SimTime>,
}

/// The shared, append-mostly run log.
#[derive(Debug, Default)]
pub struct RunLog {
    /// All transfer records, in creation order.
    pub transfers: Vec<TransferRecord>,
    /// All task records, in creation order.
    pub tasks: Vec<TaskRecord>,
    /// All selection decisions, in order.
    pub selections: Vec<SelectionRecord>,
    /// All streaming-viewer records, in stream-start order.
    pub streams: Vec<StreamRecord>,
}

impl RunLog {
    /// Finds a transfer record by id.
    #[cfg(test)]
    pub(crate) fn transfer(&self, id: TransferId) -> Option<&TransferRecord> {
        self.transfers.iter().find(|t| t.id == id)
    }

    /// Finds a mutable transfer record by id.
    pub(crate) fn transfer_mut(&mut self, id: TransferId) -> Option<&mut TransferRecord> {
        self.transfers.iter_mut().find(|t| t.id == id)
    }

    /// Finds a mutable task record by id.
    pub(crate) fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskRecord> {
        self.tasks.iter_mut().find(|t| t.id == id)
    }

    /// Finds a mutable stream record by viewing host (streams are
    /// per-node singletons).
    pub(crate) fn stream_mut(&mut self, node: NodeId) -> Option<&mut StreamRecord> {
        self.streams.iter_mut().find(|s| s.node == node)
    }

    /// Every transfer record in petition order. The sort is stable over
    /// the shard-ordered merged log, so ties keep shard order and then
    /// each shard's creation order: the order of the sharded engine's
    /// merged trace, time first, then shard, then emission.
    pub fn transfers_by_petition(&self) -> Vec<&TransferRecord> {
        let mut records: Vec<&TransferRecord> = self.transfers.iter().collect();
        records.sort_by_key(|t| t.petition_sent_at);
        records
    }

    /// Appends every record of `other`, preserving each section's order.
    /// A sharded run keeps one log per shard and absorbs them in shard
    /// order afterwards, so the merged log is worker-count invariant.
    pub fn absorb(&mut self, other: RunLog) {
        self.transfers.extend(other.transfers);
        self.tasks.extend(other.tasks);
        self.selections.extend(other.selections);
        self.streams.extend(other.streams);
    }
}

/// Cheaply clonable handle to a [`RunLog`].
#[derive(Debug, Clone, Default)]
pub struct RecordSink(Arc<Mutex<RunLog>>);

impl RecordSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        RecordSink::default()
    }

    /// Runs `f` with mutable access to the log.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut RunLog) -> R) -> R {
        f(&mut self.0.lock().expect("record sink poisoned"))
    }

    /// Takes the entire log, leaving it empty (post-run drain).
    pub fn drain(&self) -> RunLog {
        std::mem::take(&mut *self.0.lock().expect("record sink poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;
    use netsim::time::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn sample_transfer() -> TransferRecord {
        let mut g = IdGenerator::new(1);
        TransferRecord {
            id: TransferId::generate(&mut g),
            from: NodeId(0),
            to: NodeId(2),
            to_name: "sc2".into(),
            label: "test".into(),
            file_size: 100,
            num_parts: 2,
            enqueued_at: t(0.0),
            petition_sent_at: t(0.0),
            petition_handled_at: Some(t(1.5)),
            petition_acked_at: Some(t(1.6)),
            parts: vec![
                PartRecord {
                    index: 0,
                    size: 50,
                    sent_at: t(1.6),
                    confirmed_at: Some(t(3.0)),
                },
                PartRecord {
                    index: 1,
                    size: 50,
                    sent_at: t(3.0),
                    confirmed_at: Some(t(4.6)),
                },
            ],
            retransmissions: Vec::new(),
            completed_at: Some(t(4.6)),
            cancelled_at: None,
            receiver_bytes: Some(100),
        }
    }

    #[test]
    fn transfer_record_derived_metrics() {
        let r = sample_transfer();
        assert_eq!(r.petition_latency_secs(), Some(1.5));
        assert!((r.total_secs().unwrap() - 4.6).abs() < 1e-9);
        assert!((r.data_phase_secs().unwrap() - 3.0).abs() < 1e-9);
        assert!((r.last_part_secs().unwrap() - 1.6).abs() < 1e-9);
        assert!((r.throughput_bytes_per_sec().unwrap() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_transfer_yields_none() {
        let mut r = sample_transfer();
        r.completed_at = None;
        r.petition_acked_at = None;
        r.petition_handled_at = None;
        assert_eq!(r.total_secs(), None);
        assert_eq!(r.petition_latency_secs(), None);
        assert_eq!(r.throughput_bytes_per_sec(), None);
    }

    #[test]
    fn sink_is_shared_between_clones() {
        let sink = RecordSink::new();
        let clone = sink.clone();
        clone.with(|log| log.transfers.push(sample_transfer()));
        assert_eq!(sink.with(|log| log.transfers.len()), 1);
        let drained = sink.drain();
        assert_eq!(drained.transfers.len(), 1);
        assert_eq!(sink.with(|log| log.transfers.len()), 0);
    }

    #[test]
    fn runlog_lookup_by_id() {
        let mut log = RunLog::default();
        let r = sample_transfer();
        let id = r.id;
        log.transfers.push(r);
        assert!(log.transfer(id).is_some());
        log.transfer_mut(id).unwrap().completed_at = None;
        assert_eq!(log.transfer(id).unwrap().closed_at(), None);
        let mut g = IdGenerator::new(9);
        assert!(log.transfer(TransferId::generate(&mut g)).is_none());
    }

    #[test]
    fn transfers_by_petition_sorts_stably() {
        let mut log = RunLog::default();
        let mut g = IdGenerator::new(5);
        for (to, sent) in [(1, 3.0), (2, 1.0), (3, 3.0), (4, 1.0)] {
            let mut r = sample_transfer();
            r.id = TransferId::generate(&mut g);
            r.to = NodeId(to);
            r.petition_sent_at = t(sent);
            log.transfers.push(r);
        }
        let order: Vec<u32> = (log.transfers_by_petition().iter())
            .map(|r| r.to.0)
            .collect();
        assert_eq!(order, [2, 4, 1, 3], "time first, then log order");
    }
}
