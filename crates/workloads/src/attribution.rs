//! Latency attribution: where each transfer's time actually went.
//!
//! The typed trace records every petition, part, confirm, retransmission
//! and completion; this module takes the per-transfer timelines that
//! [`transfer_timelines`] replays from those events and decomposes each
//! end-to-end latency into **non-overlapping phases**:
//!
//! * `broker_queue` — the transfer's command sat in the broker waiting
//!   (e.g. for a peer to join) before the petition could go out;
//! * `wakeup` — petition sent → first petition ack, minus any timeout/
//!   retransmission time in that window (the paper's Fig 2 story: SC7's
//!   wake-up service alone costs ~27 s);
//! * `transmission` — productive part transfer time (each part's window
//!   runs from the previous confirm to its own first accepted confirm);
//! * `retrans_stall` — time between the first and last retransmission
//!   probe of a stage: successive retries that still weren't answered;
//! * `timeout_idle` — silence before the first retransmission of a stage
//!   fired, and the dead tail of cancelled transfers.
//!
//! The phase windows partition `[enqueued, ended]` exactly, and all the
//! arithmetic is integer nanoseconds ([`SimDuration`]), so the phases sum
//! to the end-to-end latency **exactly** — not merely to float round-off.
//! That invariant is asserted by property tests over full traced runs and
//! is a strong end-to-end check on the protocol stack's event emission.

use std::collections::HashMap;
use std::fmt::Write as _;

use netsim::metrics::{Histogram, Metrics};
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::Trace;

use crate::report::{transfer_timelines, TransferTimeline};

/// Number of attribution phases.
pub const PHASE_COUNT: usize = 5;

/// Histogram layout shared by every phase histogram: 1 ms base, 32
/// doubling buckets (top bound ≈ 4.3 × 10⁶ s, far beyond any horizon).
pub const PHASE_HISTOGRAM_BASE: f64 = 0.001;
/// See [`PHASE_HISTOGRAM_BASE`].
pub const PHASE_HISTOGRAM_BUCKETS: usize = 32;

/// One attribution phase (see the module docs for definitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Command queued in the broker before the petition went out.
    BrokerQueue,
    /// Petition sent → first ack (productive share of that window).
    Wakeup,
    /// Productive part-transfer time.
    Transmission,
    /// Between first and last retransmission probe of a stage.
    RetransStall,
    /// Silence before a stage's first retransmission; dead tail of
    /// cancelled transfers.
    TimeoutIdle,
}

impl Phase {
    /// Every phase, in canonical (rendering) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::BrokerQueue,
        Phase::Wakeup,
        Phase::Transmission,
        Phase::RetransStall,
        Phase::TimeoutIdle,
    ];

    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::BrokerQueue => "broker_queue",
            Phase::Wakeup => "wakeup",
            Phase::Transmission => "transmission",
            Phase::RetransStall => "retrans_stall",
            Phase::TimeoutIdle => "timeout_idle",
        }
    }

    /// Index into a `[T; PHASE_COUNT]` phase array.
    pub fn index(self) -> usize {
        match self {
            Phase::BrokerQueue => 0,
            Phase::Wakeup => 1,
            Phase::Transmission => 2,
            Phase::RetransStall => 3,
            Phase::TimeoutIdle => 4,
        }
    }
}

/// One transfer's phase decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferAttribution {
    /// Raw transfer id (matches the `xfer` JSONL field).
    pub transfer: u128,
    /// The sending node (broker or instructed client).
    pub sender: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// Total file size in bytes.
    pub bytes: u64,
    /// When the transfer's command was first runnable (= `began_at`
    /// unless the broker deferred it).
    pub enqueued_at: SimTime,
    /// When the petition went out.
    pub began_at: SimTime,
    /// When the transfer closed (complete or cancelled).
    pub ended_at: SimTime,
    /// Whether it completed successfully.
    pub ok: bool,
    /// Retransmissions attributed to this transfer.
    pub retransmissions: u32,
    /// Per-phase durations, indexed by [`Phase::index`]. Sums exactly to
    /// [`TransferAttribution::end_to_end`].
    pub phases: [SimDuration; PHASE_COUNT],
}

impl TransferAttribution {
    /// Duration of one phase.
    pub fn phase(&self, p: Phase) -> SimDuration {
        self.phases[p.index()]
    }

    /// Duration of one phase in seconds.
    pub fn phase_secs(&self, p: Phase) -> f64 {
        self.phase(p).as_secs_f64()
    }

    /// Enqueue → close. Equals the sum of all phases exactly (integer
    /// nanoseconds throughout).
    pub fn end_to_end(&self) -> SimDuration {
        self.ended_at.duration_since(self.enqueued_at)
    }

    /// The phase that consumed the most time (ties go to the earlier
    /// phase in [`Phase::ALL`] order, deterministically).
    pub fn dominant_phase(&self) -> Phase {
        let mut best = Phase::ALL[0];
        for p in Phase::ALL {
            if self.phase(p) > self.phase(best) {
                best = p;
            }
        }
        best
    }
}

/// One milestone-bounded stage of a transfer.
struct Stage {
    end: SimTime,
    /// Where the productive remainder of the window goes.
    productive: Phase,
    /// Which retransmissions belong to this stage.
    part: Option<u32>,
}

/// Splits the window `[start, end]` among `timeout_idle` / `retrans_stall`
/// / `productive` according to the retransmissions that fired inside it.
fn split_stage(
    phases: &mut [SimDuration; PHASE_COUNT],
    start: SimTime,
    end: SimTime,
    productive: Phase,
    retrans: &[SimTime],
) {
    let window = end.duration_since(start);
    if retrans.is_empty() {
        phases[productive.index()] += window;
        return;
    }
    // Clamp probe times into the window so a late-fired probe can never
    // push a phase negative or double-count across stages.
    let first = retrans[0].max(start).min(end);
    let last = retrans[retrans.len() - 1].max(start).min(end);
    phases[Phase::TimeoutIdle.index()] += first.duration_since(start);
    phases[Phase::RetransStall.index()] += last.duration_since(first);
    phases[productive.index()] += end.duration_since(last);
}

/// Attributes every **closed** transfer in the trace, in the order
/// transfers first appear. Open transfers (no `transfer_completed` event)
/// are skipped: their phases cannot be finalized.
pub fn attribute_trace(trace: &Trace) -> Vec<TransferAttribution> {
    transfer_timelines(trace)
        .iter()
        .filter_map(attribute)
        .collect()
}

fn attribute(t: &TransferTimeline) -> Option<TransferAttribution> {
    let (ended_at, ok) = t.ended_at.zip(t.ok)?;
    let enqueued_at = t.enqueued_at.unwrap_or(t.began_at).min(t.began_at);
    let mut phases = [SimDuration::ZERO; PHASE_COUNT];
    phases[Phase::BrokerQueue.index()] = t.began_at.duration_since(enqueued_at);

    // Build the stage chain: petition (if acked), then the contiguous run
    // of confirmed parts — stop-and-wait sends part i+1 at the instant of
    // confirm i, so these milestones are the exact window boundaries.
    let mut stages: Vec<Stage> = Vec::new();
    let mut cursor = t.began_at;
    if let Some((acked_at, _)) = t.acked {
        let end = acked_at.max(cursor).min(ended_at);
        stages.push(Stage {
            end,
            productive: Phase::Wakeup,
            part: None,
        });
        cursor = end;
        let confirm_of = |index: u32| {
            t.parts
                .iter()
                .find(|p| p.index == index)
                .and_then(|p| p.confirmed_at)
        };
        let mut index = 0u32;
        while let Some(confirm) = confirm_of(index) {
            let end = confirm.max(cursor).min(ended_at);
            stages.push(Stage {
                end,
                productive: Phase::Transmission,
                part: Some(index),
            });
            cursor = end;
            index += 1;
        }
    }

    // Retransmissions that belong to a realized stage split that stage's
    // window; all others (never-acked petitions, never-confirmed parts)
    // fall into the cancelled tail.
    let staged: Vec<Option<u32>> = stages.iter().map(|s| s.part).collect();
    let in_tail = |part: &Option<u32>| match part {
        None => t.acked.is_none(),
        Some(_) => !staged.contains(part),
    };

    let mut start = t.began_at;
    for stage in &stages {
        let probes: Vec<SimTime> = t
            .retransmissions
            .iter()
            .filter(|(_, part)| *part == stage.part)
            .map(|&(at, _)| at)
            .collect();
        split_stage(&mut phases, start, stage.end, stage.productive, &probes);
        start = stage.end;
    }
    // The tail: milestone chain end → close. Zero-width for clean
    // completions (the last confirm *is* the completion); for cancelled
    // transfers this is the watchdog's dead wait.
    let tail_probes: Vec<SimTime> = t
        .retransmissions
        .iter()
        .filter(|(_, part)| in_tail(part))
        .map(|&(at, _)| at)
        .collect();
    split_stage(
        &mut phases,
        start,
        ended_at,
        Phase::TimeoutIdle,
        &tail_probes,
    );

    Some(TransferAttribution {
        transfer: t.transfer,
        sender: t.sender,
        to: t.to,
        bytes: t.bytes,
        enqueued_at,
        began_at: t.began_at,
        ended_at,
        ok,
        retransmissions: t.retransmissions.len() as u32,
        phases,
    })
}

/// Per-peer phase aggregate over many attributed transfers.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Peer label (e.g. `"SC7"`).
    pub peer: String,
    /// Transfers attributed to this peer.
    pub transfers: u64,
    /// Summed seconds per phase, indexed by [`Phase::index`].
    pub total_secs: [f64; PHASE_COUNT],
    /// One histogram per phase (one sample per transfer).
    pub histograms: [Histogram; PHASE_COUNT],
}

impl PhaseBreakdown {
    fn new(peer: String) -> Self {
        PhaseBreakdown {
            peer,
            transfers: 0,
            total_secs: [0.0; PHASE_COUNT],
            histograms: std::array::from_fn(|_| {
                Histogram::new(PHASE_HISTOGRAM_BASE, PHASE_HISTOGRAM_BUCKETS)
            }),
        }
    }

    /// Summed seconds across all phases (= summed end-to-end latency).
    pub fn end_to_end_secs(&self) -> f64 {
        self.total_secs.iter().sum()
    }

    /// The phase with the largest summed share (ties go to the earlier
    /// phase, deterministically).
    pub fn dominant_phase(&self) -> Phase {
        let mut best = Phase::ALL[0];
        for p in Phase::ALL {
            if self.total_secs[p.index()] > self.total_secs[best.index()] {
                best = p;
            }
        }
        best
    }
}

/// Groups attributions by peer label, sorted by label. `label_of` maps a
/// receiving node to its display name (for the paper's testbed:
/// `SC1`…`SC8`).
pub fn breakdown_by_peer(
    attrs: &[TransferAttribution],
    mut label_of: impl FnMut(NodeId) -> String,
) -> Vec<PhaseBreakdown> {
    let mut by_label: std::collections::BTreeMap<String, PhaseBreakdown> =
        std::collections::BTreeMap::new();
    for a in attrs {
        let label = label_of(a.to);
        let b = by_label
            .entry(label.clone())
            .or_insert_with(|| PhaseBreakdown::new(label));
        b.transfers += 1;
        for p in Phase::ALL {
            let secs = a.phase_secs(p);
            b.total_secs[p.index()] += secs;
            b.histograms[p.index()].record(secs);
        }
    }
    by_label.into_values().collect()
}

/// Folds attributions into a [`Metrics`] registry: one registered
/// histogram per `(peer, phase)` named `attr.<peer>.<phase>_seconds`,
/// plus overall `attr.all.<phase>_seconds` histograms and
/// `attr.transfers_attributed` / `attr.transfers_failed` counters.
/// Handles are resolved once per name, so folding stays allocation-free
/// per observation.
pub fn aggregate_metrics(
    attrs: &[TransferAttribution],
    mut label_of: impl FnMut(NodeId) -> String,
) -> Metrics {
    let mut m = Metrics::new();
    let attributed = m.counter_id("attr.transfers_attributed");
    let failed = m.counter_id("attr.transfers_failed");
    let mut ids: HashMap<(String, usize), netsim::metrics::HistogramId> = HashMap::new();
    for a in attrs {
        m.incr_id(attributed, 1);
        if !a.ok {
            m.incr_id(failed, 1);
        }
        let label = label_of(a.to);
        for p in Phase::ALL {
            for scope in [label.as_str(), "all"] {
                let id = *ids
                    .entry((scope.to_string(), p.index()))
                    .or_insert_with(|| {
                        m.histogram_id(
                            &format!("attr.{scope}.{}_seconds", p.label()),
                            PHASE_HISTOGRAM_BASE,
                            PHASE_HISTOGRAM_BUCKETS,
                        )
                    });
                m.record_id(id, a.phase_secs(p));
            }
        }
    }
    m
}

/// Renders the per-peer phase table as CSV: one row per `(peer, phase)`,
/// sorted by peer label then phase order. Deterministic for a given input.
pub fn phase_table_csv(breakdowns: &[PhaseBreakdown]) -> String {
    let mut out = String::from("peer,phase,transfers,total_s,mean_s,p50_s,p95_s,p99_s,share\n");
    for b in breakdowns {
        let e2e = b.end_to_end_secs();
        for p in Phase::ALL {
            let h = &b.histograms[p.index()];
            let total = b.total_secs[p.index()];
            let share = if e2e > 0.0 { total / e2e } else { 0.0 };
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.6},{},{},{},{:.4}",
                b.peer,
                p.label(),
                b.transfers,
                total,
                h.stat().mean(),
                h.quantile_upper_bound(0.50),
                h.quantile_upper_bound(0.95),
                h.quantile_upper_bound(0.99),
                share,
            );
        }
    }
    out
}

/// Renders the per-peer phase table as an aligned text report, one line
/// per peer with its dominant phase called out.
pub fn render_phase_table(breakdowns: &[PhaseBreakdown]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>5}  {:>12} {:>12} {:>12} {:>13} {:>12}  dominant",
        "peer", "n", "queue_s", "wakeup_s", "xmit_s", "stall_s", "idle_s"
    );
    for b in breakdowns {
        let _ = writeln!(
            out,
            "{:<6} {:>5}  {:>12.3} {:>12.3} {:>12.3} {:>13.3} {:>12.3}  {}",
            b.peer,
            b.transfers,
            b.total_secs[Phase::BrokerQueue.index()],
            b.total_secs[Phase::Wakeup.index()],
            b.total_secs[Phase::Transmission.index()],
            b.total_secs[Phase::RetransStall.index()],
            b.total_secs[Phase::TimeoutIdle.index()],
            b.dominant_phase().label(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::trace::TraceEventKind;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn rec(tr: &mut Trace, secs: f64, kind: TraceEventKind) {
        tr.record(t(secs), NodeId(0), kind);
    }

    /// One clean two-part transfer with a queued start and one part-1
    /// retransmission.
    fn sample_trace() -> Trace {
        let mut tr = Trace::with_capacity(64);
        rec(
            &mut tr,
            2.0,
            TraceEventKind::TransferQueued {
                transfer: 42,
                enqueued_at: t(1.0),
            },
        );
        rec(
            &mut tr,
            2.0,
            TraceEventKind::PetitionSent {
                transfer: 42,
                to: NodeId(3),
                bytes: 200,
                parts: 2,
            },
        );
        rec(
            &mut tr,
            5.0,
            TraceEventKind::PetitionAcked {
                transfer: 42,
                accepted: true,
            },
        );
        rec(
            &mut tr,
            5.0,
            TraceEventKind::PartSent {
                transfer: 42,
                index: 0,
                bytes: 100,
            },
        );
        rec(
            &mut tr,
            6.0,
            TraceEventKind::PartConfirmed {
                transfer: 42,
                index: 0,
                accepted: true,
            },
        );
        rec(
            &mut tr,
            6.0,
            TraceEventKind::PartSent {
                transfer: 42,
                index: 1,
                bytes: 100,
            },
        );
        // Part 1 goes silent: probe fires at 8 s, second probe at 9 s,
        // confirm lands at 9.5 s.
        rec(
            &mut tr,
            8.0,
            TraceEventKind::Retransmission {
                transfer: 42,
                part: Some(1),
                attempt: 2,
            },
        );
        rec(
            &mut tr,
            9.0,
            TraceEventKind::Retransmission {
                transfer: 42,
                part: Some(1),
                attempt: 3,
            },
        );
        rec(
            &mut tr,
            9.5,
            TraceEventKind::PartConfirmed {
                transfer: 42,
                index: 1,
                accepted: true,
            },
        );
        rec(
            &mut tr,
            9.5,
            TraceEventKind::TransferCompleted {
                transfer: 42,
                ok: true,
            },
        );
        tr
    }

    #[test]
    fn phases_partition_the_timeline() {
        let attrs = attribute_trace(&sample_trace());
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert_eq!(a.transfer, 42);
        assert_eq!(a.to, NodeId(3));
        assert!(a.ok);
        assert_eq!(a.retransmissions, 2);
        // broker_queue: 1→2 s. wakeup: 2→5. transmission: 5→6 (part 0)
        // plus 9→9.5 (part 1 after last probe). timeout_idle: 6→8.
        // retrans_stall: 8→9.
        assert_eq!(a.phase(Phase::BrokerQueue), SimDuration::from_secs(1));
        assert_eq!(a.phase(Phase::Wakeup), SimDuration::from_secs(3));
        assert_eq!(a.phase(Phase::Transmission), SimDuration::from_millis(1500));
        assert_eq!(a.phase(Phase::TimeoutIdle), SimDuration::from_secs(2));
        assert_eq!(a.phase(Phase::RetransStall), SimDuration::from_secs(1));
        // Exact sum, in integer nanoseconds.
        let sum: SimDuration = Phase::ALL.iter().map(|&p| a.phase(p)).sum();
        assert_eq!(sum, a.end_to_end());
        assert_eq!(a.end_to_end(), SimDuration::from_millis(8500));
        assert_eq!(a.dominant_phase(), Phase::Wakeup);
    }

    #[test]
    fn open_transfers_are_skipped() {
        let mut tr = Trace::with_capacity(8);
        rec(
            &mut tr,
            1.0,
            TraceEventKind::PetitionSent {
                transfer: 7,
                to: NodeId(2),
                bytes: 10,
                parts: 1,
            },
        );
        assert!(attribute_trace(&tr).is_empty());
    }

    #[test]
    fn cancelled_transfer_tail_is_timeout_idle() {
        let mut tr = Trace::with_capacity(16);
        rec(
            &mut tr,
            1.0,
            TraceEventKind::PetitionSent {
                transfer: 9,
                to: NodeId(2),
                bytes: 10,
                parts: 1,
            },
        );
        // Never acked; one petition retransmission at 4 s; watchdog kills
        // it at 10 s.
        rec(
            &mut tr,
            4.0,
            TraceEventKind::Retransmission {
                transfer: 9,
                part: None,
                attempt: 2,
            },
        );
        rec(
            &mut tr,
            10.0,
            TraceEventKind::TransferCompleted {
                transfer: 9,
                ok: false,
            },
        );
        let attrs = attribute_trace(&tr);
        assert_eq!(attrs.len(), 1);
        let a = &attrs[0];
        assert!(!a.ok);
        // 1→4 idle (before first probe), 4→4 stall (single probe),
        // 4→10 idle again (tail productive phase is timeout_idle).
        assert_eq!(a.phase(Phase::TimeoutIdle), SimDuration::from_secs(9));
        assert_eq!(a.phase(Phase::RetransStall), SimDuration::ZERO);
        assert_eq!(a.phase(Phase::Wakeup), SimDuration::ZERO);
        let sum: SimDuration = Phase::ALL.iter().map(|&p| a.phase(p)).sum();
        assert_eq!(sum, a.end_to_end());
        assert_eq!(a.dominant_phase(), Phase::TimeoutIdle);
    }

    #[test]
    fn breakdown_and_exports_are_deterministic() {
        let attrs = attribute_trace(&sample_trace());
        let breakdowns = breakdown_by_peer(&attrs, |n| format!("n{}", n.0));
        assert_eq!(breakdowns.len(), 1);
        let b = &breakdowns[0];
        assert_eq!(b.peer, "n3");
        assert_eq!(b.transfers, 1);
        assert!((b.end_to_end_secs() - 8.5).abs() < 1e-9);
        assert_eq!(b.dominant_phase(), Phase::Wakeup);

        let csv = phase_table_csv(&breakdowns);
        assert_eq!(csv, phase_table_csv(&breakdowns), "deterministic");
        assert!(csv.starts_with("peer,phase,transfers,"));
        assert_eq!(csv.lines().count(), 1 + PHASE_COUNT);
        assert!(csv.contains("n3,wakeup,1,3.000000"), "{csv}");

        let table = render_phase_table(&breakdowns);
        assert!(table.contains("wakeup"), "{table}");

        let m = aggregate_metrics(&attrs, |n| format!("n{}", n.0));
        assert_eq!(m.counter("attr.transfers_attributed"), 1);
        assert_eq!(m.counter("attr.transfers_failed"), 0);
        let h = m.histogram("attr.n3.wakeup_seconds").expect("registered");
        assert_eq!(h.count(), 1);
        assert_eq!(h.rejected(), 0);
        assert!(m.histogram("attr.all.wakeup_seconds").is_some());
        let prom = m.render_prometheus("psim");
        assert_eq!(prom, m.render_prometheus("psim"), "deterministic");
        assert!(
            prom.contains("psim_attr_n3_wakeup_seconds_bucket"),
            "{prom}"
        );
    }
}
