//! Report rendering: aligned text tables comparing measured series against
//! the paper's published values, plus trace post-processing (per-transfer
//! timelines reconstructed from typed events) and a deterministic metrics
//! snapshot for `psim report`.

use std::fmt::Write as _;

use netsim::metrics::Metrics;
use netsim::node::NodeId;
use netsim::time::SimTime;
use netsim::trace::{Trace, TraceEventKind};

/// One named series of values aligned with a report's labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Series name ("measured", "paper", "economic", …).
    pub name: String,
    /// One value per label.
    pub values: Vec<f64>,
    /// Optional per-label standard deviations (printed as ±).
    pub std_devs: Option<Vec<f64>>,
}

impl SeriesRow {
    /// A plain series.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        SeriesRow {
            name: name.into(),
            values,
            std_devs: None,
        }
    }

    /// A series with dispersion.
    pub fn with_sd(name: impl Into<String>, values: Vec<f64>, sds: Vec<f64>) -> Self {
        SeriesRow {
            name: name.into(),
            values,
            std_devs: Some(sds),
        }
    }
}

/// A rendered experiment artifact (one per paper table/figure).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Artifact id, e.g. `"Figure 2"`.
    pub id: String,
    /// Descriptive title.
    pub title: String,
    /// Unit of every value.
    pub unit: String,
    /// Column labels (SC1…SC8, model names, …).
    pub labels: Vec<String>,
    /// The series (rows).
    pub rows: Vec<SeriesRow>,
    /// Free-form notes appended to the rendering.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        unit: impl Into<String>,
        labels: Vec<String>,
    ) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            unit: unit.into(),
            labels,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a series row (must match the label count).
    pub fn push(&mut self, row: SeriesRow) {
        assert_eq!(row.values.len(), self.labels.len(), "row/label mismatch");
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Looks a row up by name.
    pub fn row(&self, name: &str) -> Option<&SeriesRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ({}) ==", self.id, self.title, self.unit);
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match &r.std_devs {
                        Some(sds) => format!("{:.2}±{:.2}", v, sds[i]),
                        None => format_value(*v),
                    })
                    .collect()
            })
            .collect();
        let col_w: Vec<usize> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                cells
                    .iter()
                    .map(|row| row[i].len())
                    .chain(std::iter::once(l.len()))
                    .max()
                    .unwrap_or(l.len())
            })
            .collect();
        let _ = write!(out, "{:name_w$}", "");
        for (l, w) in self.labels.iter().zip(&col_w) {
            let _ = write!(out, "  {l:>w$}");
        }
        let _ = writeln!(out);
        for (r, row_cells) in self.rows.iter().zip(&cells) {
            let _ = write!(out, "{:name_w$}", r.name);
            for (c, w) in row_cells.iter().zip(&col_w) {
                let _ = write!(out, "  {c:>w$}");
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Renders comma-separated values (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "series,{}", self.labels.join(","));
        for r in &self.rows {
            let vals: Vec<String> = r.values.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(out, "{},{}", r.name, vals.join(","));
        }
        out
    }
}

/// One part's milestones, reconstructed from `part_sent`/`part_confirmed`
/// trace events.
#[derive(Debug, Clone, PartialEq)]
pub struct PartTimeline {
    /// Part index within the transfer.
    pub index: u32,
    /// Part size in bytes.
    pub bytes: u64,
    /// When the sender first transmitted this part.
    pub sent_at: SimTime,
    /// When the first *accepted* confirm arrived (first-confirm-wins: later
    /// duplicates never move this).
    pub confirmed_at: Option<SimTime>,
}

/// One transfer's life, reconstructed from the typed trace
/// (`transfer_queued` → `petition_sent` → parts → `transfer_completed`).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTimeline {
    /// Raw transfer id (matches the `xfer` JSONL field).
    pub transfer: u128,
    /// The sending node.
    pub sender: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Announced part count.
    pub num_parts: u32,
    /// When the transfer's command was first runnable, if the broker
    /// deferred the petition past it.
    pub enqueued_at: Option<SimTime>,
    /// When the petition was sent.
    pub began_at: SimTime,
    /// First petition ack: when it arrived, and its verdict.
    pub acked: Option<(SimTime, bool)>,
    /// When the transfer closed (complete or cancelled).
    pub ended_at: Option<SimTime>,
    /// Whether it completed successfully (`None` while open).
    pub ok: Option<bool>,
    /// Per-part milestones, in first-send order.
    pub parts: Vec<PartTimeline>,
    /// `(time, part)` of every retransmission attributed to this transfer,
    /// in trace order; part `None` is the petition.
    pub retransmissions: Vec<(SimTime, Option<u32>)>,
}

impl TransferTimeline {
    /// End-to-end duration in seconds, if the transfer closed.
    pub fn duration_secs(&self) -> Option<f64> {
        self.ended_at
            .map(|t| t.duration_since(self.began_at).as_secs_f64())
    }

    /// Final part's send → first accepted confirm, in seconds (the trace
    /// view of the paper's Fig 4 metric).
    pub fn last_part_secs(&self) -> Option<f64> {
        let last = self.parts.iter().max_by_key(|p| p.index)?;
        last.confirmed_at
            .map(|t| t.duration_since(last.sent_at).as_secs_f64())
    }
}

/// Reconstructs per-transfer timelines from a typed trace, in the order
/// transfers first appear. Duplicate `part_sent` rows (retransmissions)
/// keep the first send instant; only accepted confirms stamp
/// `confirmed_at`, and only the first of those wins.
pub fn transfer_timelines(trace: &Trace) -> Vec<TransferTimeline> {
    let mut order: Vec<u128> = Vec::new();
    let mut by_id: std::collections::HashMap<u128, TransferTimeline> =
        std::collections::HashMap::new();
    // A `transfer_queued` event immediately precedes its petition.
    let mut queued: Option<(u128, SimTime)> = None;
    for ev in trace.events() {
        match &ev.kind {
            TraceEventKind::TransferQueued {
                transfer,
                enqueued_at,
            } => queued = Some((*transfer, *enqueued_at)),
            TraceEventKind::PetitionSent {
                transfer,
                to,
                bytes,
                parts,
            } => {
                by_id.entry(*transfer).or_insert_with(|| {
                    order.push(*transfer);
                    TransferTimeline {
                        transfer: *transfer,
                        sender: ev.node,
                        to: *to,
                        bytes: *bytes,
                        num_parts: *parts,
                        enqueued_at: queued.filter(|&(id, _)| id == *transfer).map(|(_, at)| at),
                        began_at: ev.time,
                        acked: None,
                        ended_at: None,
                        ok: None,
                        parts: Vec::new(),
                        retransmissions: Vec::new(),
                    }
                });
            }
            TraceEventKind::PetitionAcked { transfer, accepted } => {
                if let Some(t) = by_id.get_mut(transfer) {
                    if t.acked.is_none() {
                        t.acked = Some((ev.time, *accepted));
                    }
                }
            }
            TraceEventKind::PartSent {
                transfer,
                index,
                bytes,
            } => {
                if let Some(t) = by_id.get_mut(transfer) {
                    if !t.parts.iter().any(|p| p.index == *index) {
                        t.parts.push(PartTimeline {
                            index: *index,
                            bytes: *bytes,
                            sent_at: ev.time,
                            confirmed_at: None,
                        });
                    }
                }
            }
            TraceEventKind::PartConfirmed {
                transfer,
                index,
                accepted: true,
            } => {
                if let Some(t) = by_id.get_mut(transfer) {
                    if let Some(p) = t.parts.iter_mut().find(|p| p.index == *index) {
                        if p.confirmed_at.is_none() {
                            p.confirmed_at = Some(ev.time);
                        }
                    }
                }
            }
            TraceEventKind::Retransmission { transfer, part, .. } => {
                if let Some(t) = by_id.get_mut(transfer) {
                    t.retransmissions.push((ev.time, *part));
                }
            }
            TraceEventKind::TransferCompleted { transfer, ok } => {
                if let Some(t) = by_id.get_mut(transfer) {
                    if t.ended_at.is_none() {
                        t.ended_at = Some(ev.time);
                        t.ok = Some(*ok);
                    }
                }
            }
            _ => {}
        }
    }
    order
        .into_iter()
        .filter_map(|id| by_id.remove(&id))
        .collect()
}

/// Renders transfer timelines as an aligned text table.
pub fn render_timelines(timelines: &[TransferTimeline]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:>6} -> {:>6}  {:>10}  {:>5}  {:>7}  {:>9}  {:>9}  {:>6}",
        "#", "from", "to", "bytes", "parts", "retx", "total_s", "last_p_s", "ok"
    );
    for (i, t) in timelines.iter().enumerate() {
        let fmt_opt = |v: Option<f64>| match v {
            Some(s) => format!("{s:.3}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>4}  {:>6} -> {:>6}  {:>10}  {:>5}  {:>7}  {:>9}  {:>9}  {:>6}",
            i,
            t.sender.0,
            t.to.0,
            t.bytes,
            t.parts.len(),
            t.retransmissions.len(),
            fmt_opt(t.duration_secs()),
            fmt_opt(t.last_part_secs()),
            t.ok.map(|ok| ok.to_string()).unwrap_or_else(|| "-".into()),
        );
    }
    out
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders a deterministic JSON snapshot of the engine metrics: counters
/// and stats in sorted name order, fixed field order, non-finite values as
/// `null`. Two same-seed runs produce byte-identical snapshots.
pub fn metrics_snapshot_json(metrics: &Metrics) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in metrics.counters_sorted().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"stats\":{");
    for (i, (name, s)) in metrics.stats_sorted().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"count\":{},\"mean\":", s.count());
        push_json_f64(&mut out, s.mean());
        out.push_str(",\"min\":");
        push_json_f64(&mut out, s.min());
        out.push_str(",\"max\":");
        push_json_f64(&mut out, s.max());
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Index of the maximum value (None when empty or all-NaN).
pub fn argmax(values: &[f64]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
        .map(|(i, _)| i)
}

/// Index of the minimum value (None when empty or all-NaN).
pub fn argmin(values: &[f64]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
        .map(|(i, _)| i)
}

/// Spearman rank correlation between two equal-length series —
/// the "does the measured ordering match the paper's?" statistic.
///
/// NaN/infinite pairs are excluded before ranking (the same finite-filter
/// discipline as [`argmax`]/[`argmin`]): a position where *either* series
/// is non-finite contributes nothing. Fewer than two finite pairs → 0.0
/// (no ordering evidence either way).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return 1.0;
    }
    let keep: Vec<usize> = (0..a.len())
        .filter(|&i| a[i].is_finite() && b[i].is_finite())
        .collect();
    let n = keep.len();
    if n < 2 {
        return 0.0;
    }
    let a: Vec<f64> = keep.iter().map(|&i| a[i]).collect();
    let b: Vec<f64> = keep.iter().map(|&i| b[i]).collect();
    let rank = |xs: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).expect("finite after filter"));
        let mut ranks = vec![0.0; xs.len()];
        // Ties receive the average of their rank positions.
        let mut pos = 0;
        while pos < idx.len() {
            let mut end = pos + 1;
            while end < idx.len() && xs[idx[end]] == xs[idx[pos]] {
                end += 1;
            }
            let avg = (pos + end - 1) as f64 / 2.0;
            for &i in &idx[pos..end] {
                ranks[i] = avg;
            }
            pos = end;
        }
        ranks
    };
    let (ra, rb) = (rank(&a), rank(&b));
    let mean = (n as f64 - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..n {
        let (x, y) = (ra[i] - mean, rb[i] - mean);
        num += x * y;
        da += x * x;
        db += y * y;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da * db).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureReport {
        let mut f = FigureReport::new(
            "Figure 2",
            "Petition time",
            "seconds",
            vec!["SC1".into(), "SC2".into()],
        );
        f.push(SeriesRow::new("paper", vec![12.86, 0.04]));
        f.push(SeriesRow::with_sd(
            "measured",
            vec![12.5, 0.05],
            vec![1.0, 0.01],
        ));
        f.note("means over 5 repetitions");
        f
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("Figure 2"));
        assert!(s.contains("SC1"));
        assert!(s.contains("12.86"));
        assert!(s.contains("12.50±1.00"));
        assert!(s.contains("note: means over 5 repetitions"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("series,SC1,SC2"));
        assert!(lines[1].starts_with("paper,"));
    }

    #[test]
    #[should_panic(expected = "row/label mismatch")]
    fn push_validates_length() {
        let mut f = sample();
        f.push(SeriesRow::new("bad", vec![1.0]));
    }

    #[test]
    fn row_lookup() {
        let f = sample();
        assert!(f.row("paper").is_some());
        assert!(f.row("nope").is_none());
    }

    #[test]
    fn argmax_argmin() {
        let v = [3.0, 1.0, 5.0, 2.0];
        assert_eq!(argmax(&v), Some(2));
        assert_eq!(argmin(&v), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_constant() {
        let a = [1.0, 1.0, 1.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(spearman(&a, &b), 0.0);
    }

    #[test]
    fn spearman_skips_nan_pairs_instead_of_panicking() {
        // A NaN in either series drops that pair; the remaining finite
        // pairs are ranked normally (here: a perfect ordering).
        let a = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        let b = [10.0, 20.0, 30.0, f64::NAN, 50.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        // Infinities are excluded under the same finite-filter.
        let c = [1.0, f64::INFINITY, 3.0, 4.0, 5.0];
        let d = [50.0, 20.0, 30.0, 20.0, 10.0];
        assert!((spearman(&c, &d) + 1.0).abs() < 1e-12);
        // Fewer than two finite pairs: no ordering evidence.
        assert_eq!(spearman(&[f64::NAN, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(spearman(&[f64::NAN, f64::NAN], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(0.123), "0.123");
        assert_eq!(format_value(5.5), "5.50");
        assert_eq!(format_value(123.456), "123.5");
    }

    use netsim::time::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::with_capacity(64);
        let sender = NodeId(0);
        tr.record(
            t(1.0),
            sender,
            TraceEventKind::PetitionSent {
                transfer: 42,
                to: NodeId(3),
                bytes: 200,
                parts: 2,
            },
        );
        tr.record(
            t(1.5),
            sender,
            TraceEventKind::PetitionAcked {
                transfer: 42,
                accepted: true,
            },
        );
        tr.record(
            t(1.5),
            sender,
            TraceEventKind::PartSent {
                transfer: 42,
                index: 0,
                bytes: 100,
            },
        );
        tr.record(
            t(2.0),
            sender,
            TraceEventKind::PartConfirmed {
                transfer: 42,
                index: 0,
                accepted: true,
            },
        );
        tr.record(
            t(2.0),
            sender,
            TraceEventKind::PartSent {
                transfer: 42,
                index: 1,
                bytes: 100,
            },
        );
        // A retransmission of part 1: duplicate send, then two confirms —
        // only the first accepted confirm may stamp the milestone.
        tr.record(
            t(4.0),
            sender,
            TraceEventKind::Retransmission {
                transfer: 42,
                part: Some(1),
                attempt: 2,
            },
        );
        tr.record(
            t(4.0),
            sender,
            TraceEventKind::PartSent {
                transfer: 42,
                index: 1,
                bytes: 100,
            },
        );
        tr.record(
            t(4.5),
            sender,
            TraceEventKind::PartConfirmed {
                transfer: 42,
                index: 1,
                accepted: true,
            },
        );
        tr.record(
            t(4.5),
            sender,
            TraceEventKind::TransferCompleted {
                transfer: 42,
                ok: true,
            },
        );
        tr.record(
            t(5.0),
            sender,
            TraceEventKind::PartConfirmed {
                transfer: 42,
                index: 1,
                accepted: false,
            },
        );
        tr
    }

    #[test]
    fn timelines_reconstruct_first_confirm_wins() {
        let tls = transfer_timelines(&sample_trace());
        assert_eq!(tls.len(), 1);
        let tl = &tls[0];
        assert_eq!(tl.transfer, 42);
        assert_eq!(tl.to, NodeId(3));
        assert_eq!(tl.acked, Some((t(1.5), true)));
        assert_eq!(tl.ok, Some(true));
        assert_eq!(tl.retransmissions, vec![(t(4.0), Some(1))]);
        assert_eq!(tl.parts.len(), 2);
        // Part 1 keeps its first send (t=2.0) and its first accepted
        // confirm (t=4.5); the rejected duplicate at t=5.0 is ignored.
        assert_eq!(tl.parts[1].sent_at, t(2.0));
        assert_eq!(tl.parts[1].confirmed_at, Some(t(4.5)));
        assert!((tl.last_part_secs().unwrap() - 2.5).abs() < 1e-9);
        assert!((tl.duration_secs().unwrap() - 3.5).abs() < 1e-9);
        let rendered = render_timelines(&tls);
        assert!(rendered.contains("3.500"), "total seconds rendered");
        assert!(rendered.contains("true"));
    }

    #[test]
    fn timelines_leave_open_transfers_unfinished() {
        let mut tr = Trace::with_capacity(8);
        tr.record(
            t(0.0),
            NodeId(1),
            TraceEventKind::PetitionSent {
                transfer: 7,
                to: NodeId(2),
                bytes: 10,
                parts: 1,
            },
        );
        let tls = transfer_timelines(&tr);
        assert_eq!(tls.len(), 1);
        assert_eq!(tls[0].ended_at, None);
        assert_eq!(tls[0].ok, None);
        assert_eq!(tls[0].duration_secs(), None);
        assert_eq!(tls[0].last_part_secs(), None);
    }

    #[test]
    fn metrics_snapshot_is_sorted_and_deterministic() {
        let mut m = Metrics::new();
        let zeta = m.counter_id("zeta");
        m.incr_id(zeta, 2);
        let alpha = m.counter_id("alpha");
        m.incr_id(alpha, 1);
        let lat = m.stat_id("lat");
        m.observe_id(lat, 1.5);
        m.observe_id(lat, 2.5);
        let a = metrics_snapshot_json(&m);
        let b = metrics_snapshot_json(&m);
        assert_eq!(a, b);
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters sorted by name");
        assert!(a.contains("\"lat\":{\"count\":2,\"mean\":2,\"min\":1.5,\"max\":2.5}"));
        assert!(a.starts_with("{\"counters\":{"));
        assert!(a.ends_with("}}"));
    }

    #[test]
    fn json_f64_renders_non_finite_as_null() {
        let mut s = String::new();
        push_json_f64(&mut s, f64::NAN);
        s.push(',');
        push_json_f64(&mut s, f64::INFINITY);
        s.push(',');
        push_json_f64(&mut s, 1.25);
        assert_eq!(s, "null,null,1.25");
    }
}
