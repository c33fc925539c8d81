//! Report rendering: aligned text tables comparing measured series against
//! the paper's published values, plus the run log's per-transfer table and
//! a deterministic metrics snapshot for `psim report`.

use std::fmt::Write as _;

use netsim::metrics::Metrics;
use overlay::records::RunLog;

/// One named series of values aligned with a report's labels.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Series name ("measured", "paper", "economic", …).
    pub(crate) name: String,
    /// One value per label.
    pub values: Vec<f64>,
    /// Optional per-label standard deviations (printed as ±).
    pub(crate) std_devs: Option<Vec<f64>>,
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
    pub(crate) id: String,
    /// Descriptive title.
    pub(crate) title: String,
    /// Unit of every value.
    pub(crate) unit: String,
    /// Column labels (SC1…SC8, model names, …).
    pub(crate) labels: Vec<String>,
    /// The series (rows).
    pub(crate) rows: Vec<SeriesRow>,
    /// Free-form notes appended to the rendering.
    pub(crate) notes: Vec<String>,
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
    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
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

/// Renders the run log's transfers as an aligned text table, in petition
/// order ([`RunLog::transfers_by_petition`]).
pub fn render_transfers(log: &RunLog) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:>6} -> {:>6}  {:>10}  {:>5}  {:>7}  {:>9}  {:>9}  {:>6}",
        "#", "from", "to", "bytes", "parts", "retx", "total_s", "last_p_s", "ok"
    );
    for (i, t) in log.transfers_by_petition().into_iter().enumerate() {
        let fmt_opt = |v: Option<f64>| match v {
            Some(s) => format!("{s:.3}"),
            None => "-".to_string(),
        };
        let total = (t.closed_at()).map(|at| at.duration_since(t.petition_sent_at).as_secs_f64());
        let ok = match (t.completed_at, t.cancelled_at) {
            (Some(_), _) => "true",
            (None, Some(_)) => "false",
            (None, None) => "-",
        };
        let _ = writeln!(
            out,
            "{:>4}  {:>6} -> {:>6}  {:>10}  {:>5}  {:>7}  {:>9}  {:>9}  {:>6}",
            i,
            t.from.0,
            t.to.0,
            t.file_size,
            t.parts.len(),
            t.retransmissions.len(),
            fmt_opt(total),
            fmt_opt(t.last_part_secs()),
            ok,
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
        assert!(f.rows.iter().any(|r| r.name == "paper"));
        assert!(!f.rows.iter().any(|r| r.name == "nope"));
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

    use netsim::node::NodeId;
    use netsim::time::{SimDuration, SimTime};
    use overlay::id::{IdGenerator, TransferId};
    use overlay::records::{PartRecord, TransferRecord};

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    /// A two-part transfer 0 → 3 petitioned at `sent` secs, its part 1
    /// resent once; closed at 4.5 s unless `open`.
    fn transfer(seed: u64, sent: f64, open: bool) -> TransferRecord {
        let part = |index, sent_at, confirmed_at| PartRecord {
            index,
            size: 100,
            sent_at: t(sent_at),
            confirmed_at: Some(t(confirmed_at)),
        };
        TransferRecord {
            id: TransferId::generate(&mut IdGenerator::new(seed)),
            from: NodeId(0),
            to: NodeId(3),
            to_name: "n3".into(),
            label: "test".into(),
            file_size: 200,
            num_parts: 2,
            enqueued_at: t(sent),
            petition_sent_at: t(sent),
            petition_handled_at: Some(t(1.4)),
            petition_acked_at: Some(t(1.5)),
            parts: vec![part(0, 1.5, 2.0), part(1, 2.0, 4.5)],
            retransmissions: vec![(t(4.0), Some(1))],
            completed_at: (!open).then(|| t(4.5)),
            cancelled_at: None,
            receiver_bytes: None,
        }
    }

    #[test]
    fn transfer_table_renders_records_in_petition_order() {
        let log = RunLog {
            transfers: vec![transfer(1, 1.0, false), transfer(2, 0.5, true)],
            ..RunLog::default()
        };
        let table = render_transfers(&log);
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        // The open transfer was petitioned first: no total, no verdict.
        assert!(
            rows[0].starts_with("   0") && rows[0].ends_with("     -"),
            "{table}"
        );
        assert!(rows[0].contains("        -  "), "{table}");
        // Petition 1.0 s → close 4.5 s; part 1 sent 2.0 s, confirmed 4.5 s.
        assert!(
            rows[1].contains("3.500") && rows[1].contains("2.500"),
            "{table}"
        );
        assert!(rows[1].ends_with("  true"), "{table}");
        assert!(rows[1].contains("      1  "), "one retransmission: {table}");
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
