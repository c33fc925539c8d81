//! Windowed time-series recording over the metrics registry.
//!
//! A [`TimeSeriesRecorder`] snapshots a fixed set of derived series at
//! fixed sim-time intervals, producing rows keyed **only by virtual time**.
//! Because sampling instants are sim-time boundaries — never wall-clock
//! moments — the exported CSV/JSONL is byte-identical for any shard-worker
//! count: the engines decide *when* a boundary has definitively passed
//! (every event at or before it has run), and the metrics merged at that
//! point are themselves worker-count invariant.
//!
//! Two sampling disciplines share this recorder:
//!
//! * The serial [`Engine`](crate::engine::Engine) samples a boundary the
//!   moment the next queued event lies strictly beyond it, so a row is
//!   exactly "the metrics after all events at `t <= boundary`".
//! * The [`ShardedEngine`](crate::parallel::ShardedEngine) samples at
//!   barrier rounds: a boundary is emitted at the first barrier whose
//!   minimum shard clock has passed it, with the per-shard metrics merged
//!   in shard order. Shards run ahead of the boundary inside their
//!   conservative windows, so a row reads "metrics at the first barrier
//!   after the boundary" — a coarser but equally deterministic discipline,
//!   since the barrier schedule is a pure function of shard states.
//!
//! Series are *derived*: each column evaluates a [`SeriesSource`]
//! expression (counters, gauges, prefix sums, differences, ratios) against
//! the current registry, in [`SeriesMode::Cumulative`] or
//! [`SeriesMode::Delta`] form.

use std::fmt;

use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// How a series reports its underlying value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesMode {
    /// The value as evaluated at the boundary.
    Cumulative,
    /// The change since the previous boundary (first row: change since
    /// zero). A window in which nothing moved yields an explicit `0` row.
    Delta,
}

/// A derived observable: how one series column is computed from the
/// metrics registry at each sampling boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesSource {
    /// A named counter (0 when absent).
    Counter(String),
    /// Sum of every counter whose name starts with the prefix.
    CounterPrefix(String),
    /// A named gauge (0 when absent).
    Gauge(String),
    /// Sum of every gauge whose name starts with the prefix.
    GaugePrefix(String),
    /// Sum of sub-expressions.
    Sum(Vec<SeriesSource>),
    /// First minus second (may go negative).
    Diff(Box<SeriesSource>, Box<SeriesSource>),
    /// First over second; `0` when the denominator is zero, so a ratio
    /// series is total before its denominator first moves.
    Ratio(Box<SeriesSource>, Box<SeriesSource>),
}

impl SeriesSource {
    /// Evaluates the expression against `metrics`.
    pub fn eval(&self, metrics: &Metrics) -> f64 {
        match self {
            SeriesSource::Counter(name) => metrics.counter(name) as f64,
            SeriesSource::CounterPrefix(prefix) => metrics
                .counters_sorted()
                .filter(|(name, _)| name.starts_with(prefix.as_str()))
                .map(|(_, v)| v as f64)
                .sum(),
            SeriesSource::Gauge(name) => metrics.gauge(name),
            SeriesSource::GaugePrefix(prefix) => metrics
                .gauges_sorted()
                .filter(|(name, _)| name.starts_with(prefix.as_str()))
                .map(|(_, v)| v)
                .sum(),
            SeriesSource::Sum(terms) => terms.iter().map(|t| t.eval(metrics)).sum(),
            SeriesSource::Diff(a, b) => a.eval(metrics) - b.eval(metrics),
            SeriesSource::Ratio(num, den) => {
                let d = den.eval(metrics);
                if d == 0.0 {
                    0.0
                } else {
                    num.eval(metrics) / d
                }
            }
        }
    }
}

/// Interned handle to a registered series column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// Why a [`TimeSeriesRecorder`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSeriesError {
    /// The sampling interval was zero: every boundary would coincide and
    /// the recorder would emit unbounded rows at a single instant.
    ZeroInterval,
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSeriesError::ZeroInterval => {
                write!(f, "time-series sampling interval must be positive")
            }
        }
    }
}

impl std::error::Error for TimeSeriesError {}

/// One emitted sample row: the boundary instant plus one value per
/// registered series, in registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// The sim-time boundary this row belongs to.
    pub t: SimTime,
    /// Column values, indexed like the registration order.
    pub values: Vec<f64>,
}

/// Records registered series at fixed sim-time boundaries.
///
/// Boundaries sit at `k * interval` for `k = 0, 1, 2, …`; the `t = 0` row
/// captures post-`on_start` state. Engines drive the recorder through
/// [`TimeSeriesRecorder::sample_before`] (while running) and
/// [`TimeSeriesRecorder::sample_up_to`] (at the end of a run, so the row
/// exactly at the horizon is emitted). Rows are monotone in `t` and each
/// boundary is emitted at most once, so repeated calls are idempotent.
#[derive(Debug, Clone)]
pub struct TimeSeriesRecorder {
    interval: SimDuration,
    names: Vec<String>,
    sources: Vec<(SeriesSource, SeriesMode)>,
    prev: Vec<f64>,
    rows: Vec<SeriesRow>,
    next_boundary: SimTime,
}

impl TimeSeriesRecorder {
    /// Creates a recorder sampling every `interval` of virtual time.
    /// Rejects a zero interval.
    pub fn new(interval: SimDuration) -> Result<Self, TimeSeriesError> {
        if interval == SimDuration::ZERO {
            return Err(TimeSeriesError::ZeroInterval);
        }
        Ok(TimeSeriesRecorder {
            interval,
            names: Vec::new(),
            sources: Vec::new(),
            prev: Vec::new(),
            rows: Vec::new(),
            next_boundary: SimTime::ZERO,
        })
    }

    /// Registers a series column named `name`, computed by `source` and
    /// reported per `mode`. Columns appear in exports in registration
    /// order. Must be called before the first sample lands.
    pub fn register(&mut self, name: &str, source: SeriesSource, mode: SeriesMode) -> SeriesId {
        assert!(
            self.rows.is_empty(),
            "register series before sampling starts"
        );
        let id = u32::try_from(self.names.len()).expect("too many series");
        self.names.push(name.to_string());
        self.sources.push((source, mode));
        self.prev.push(0.0);
        SeriesId(id)
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Registered column names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| s.as_str())
    }

    /// Whether any boundary at or before `now` is still unemitted — the
    /// cheap guard callers check before paying for a metrics merge.
    pub fn due(&self, now: SimTime) -> bool {
        self.next_boundary <= now
    }

    /// Emits every pending boundary **strictly before** `frontier`.
    ///
    /// `frontier` is the earliest instant that may still receive events
    /// (the next queued event time, or the minimum shard clock at a
    /// barrier): a boundary exactly at the frontier stays pending until
    /// the frontier passes it.
    pub fn sample_before(&mut self, frontier: SimTime, metrics: &Metrics) {
        while self.next_boundary < frontier {
            self.emit_row(metrics);
        }
    }

    /// Emits every pending boundary **up to and including** `end` — the
    /// end-of-run flush, where `end` is the final virtual time and every
    /// event at or before it has run. Guarantees the snapshot exactly at
    /// the horizon when the horizon is a boundary.
    pub fn sample_up_to(&mut self, end: SimTime, metrics: &Metrics) {
        while self.next_boundary <= end {
            self.emit_row(metrics);
        }
    }

    fn emit_row(&mut self, metrics: &Metrics) {
        let t = self.next_boundary;
        self.next_boundary = t + self.interval;
        let mut values = Vec::with_capacity(self.sources.len());
        for (i, (source, mode)) in self.sources.iter().enumerate() {
            let current = source.eval(metrics);
            let value = match mode {
                SeriesMode::Cumulative => current,
                SeriesMode::Delta => current - self.prev[i],
            };
            self.prev[i] = current;
            // An empty prefix sum evaluates to -0.0 (the float Sum
            // identity); +0.0 normalizes it so exports never print "-0".
            values.push(value + 0.0);
        }
        self.rows.push(SeriesRow { t, values });
    }

    /// The emitted rows, in boundary order.
    pub fn rows(&self) -> &[SeriesRow] {
        &self.rows
    }

    /// Number of emitted rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Deterministic CSV export: header `t_secs,<names…>`, one row per
    /// boundary, values via Rust's shortest-roundtrip `Display`.
    pub fn to_csv(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("t_secs");
        for name in &self.names {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for row in &self.rows {
            write!(out, "{}", row.t.as_secs_f64()).expect("string write");
            for v in &row.values {
                write!(out, ",{v}").expect("string write");
            }
            out.push('\n');
        }
        out
    }

    /// Deterministic JSONL export: one object per row, `t_secs` first,
    /// then each series under its registered name in registration order.
    /// Non-finite values render as `null`.
    pub fn to_jsonl(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for row in &self.rows {
            write!(out, "{{\"t_secs\":{}", row.t.as_secs_f64()).expect("string write");
            for (name, v) in self.names.iter().zip(&row.values) {
                if v.is_finite() {
                    write!(out, ",\"{name}\":{v}").expect("string write");
                } else {
                    write!(out, ",\"{name}\":null").expect("string write");
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn recorder() -> TimeSeriesRecorder {
        let mut rec = TimeSeriesRecorder::new(SimDuration::from_secs(10)).expect("interval");
        rec.register(
            "sent",
            SeriesSource::Counter("net.messages_sent".into()),
            SeriesMode::Cumulative,
        );
        rec.register(
            "sent_rate",
            SeriesSource::Counter("net.messages_sent".into()),
            SeriesMode::Delta,
        );
        rec
    }

    #[test]
    fn zero_interval_is_rejected() {
        assert_eq!(
            TimeSeriesRecorder::new(SimDuration::ZERO).unwrap_err(),
            TimeSeriesError::ZeroInterval
        );
        assert!(!TimeSeriesError::ZeroInterval.to_string().is_empty());
    }

    #[test]
    fn boundaries_emit_before_frontier_and_at_horizon() {
        let mut rec = recorder();
        let mut m = Metrics::new();
        let sent = m.counter_id("net.messages_sent");
        m.incr_id(sent, 5);
        // Frontier at 25 s: boundaries 0, 10, 20 are complete; 30 is not.
        rec.sample_before(secs(25), &m);
        assert_eq!(rec.len(), 3);
        m.incr_id(sent, 7);
        // A frontier exactly on a boundary leaves that boundary pending.
        rec.sample_before(secs(30), &m);
        assert_eq!(rec.len(), 3, "boundary at the frontier must wait");
        // End-of-run flush at the horizon emits the row exactly at it.
        rec.sample_up_to(secs(30), &m);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.rows()[3].t, secs(30));
        assert_eq!(rec.rows()[3].values, vec![12.0, 7.0]);
        // Idempotent: nothing more to emit at the same horizon.
        rec.sample_up_to(secs(30), &m);
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn empty_windows_produce_zero_delta_rows() {
        let mut rec = recorder();
        let mut m = Metrics::new();
        let sent = m.counter_id("net.messages_sent");
        m.incr_id(sent, 4);
        rec.sample_up_to(secs(0), &m);
        // Nothing moves for five windows: the gap is explicit zeros, not
        // missing rows.
        rec.sample_up_to(secs(50), &m);
        assert_eq!(rec.len(), 6);
        assert_eq!(rec.rows()[0].values, vec![4.0, 4.0]);
        for row in &rec.rows()[1..] {
            assert_eq!(row.values[0], 4.0, "cumulative holds");
            assert_eq!(row.values[1], 0.0, "delta of an empty window is 0");
        }
    }

    #[test]
    fn derived_sources_evaluate() {
        let mut m = Metrics::new();
        for (name, value) in [
            ("churn.joins", 10),
            ("churn.rejoins", 4),
            ("churn.leaves", 6),
        ] {
            let id = m.counter_id(name);
            m.incr_id(id, value);
        }
        for (name, value) in [
            ("registry.bytes.1", 100.0),
            ("registry.bytes.2", 50.0),
            ("registry.peers.1", 5.0),
        ] {
            let id = m.gauge_id(name);
            m.set_gauge_id(id, value);
        }

        let connected = SeriesSource::Diff(
            Box::new(SeriesSource::Sum(vec![
                SeriesSource::Counter("churn.joins".into()),
                SeriesSource::Counter("churn.rejoins".into()),
            ])),
            Box::new(SeriesSource::Counter("churn.leaves".into())),
        );
        assert_eq!(connected.eval(&m), 8.0);
        assert_eq!(
            SeriesSource::GaugePrefix("registry.bytes.".into()).eval(&m),
            150.0
        );
        assert_eq!(SeriesSource::CounterPrefix("churn.".into()).eval(&m), 20.0);
        let per_peer = SeriesSource::Ratio(
            Box::new(SeriesSource::GaugePrefix("registry.bytes.".into())),
            Box::new(SeriesSource::GaugePrefix("registry.peers.".into())),
        );
        assert_eq!(per_peer.eval(&m), 30.0);
        let degenerate = SeriesSource::Ratio(
            Box::new(SeriesSource::Counter("churn.joins".into())),
            Box::new(SeriesSource::Counter("absent".into())),
        );
        assert_eq!(degenerate.eval(&m), 0.0, "zero denominator reads as 0");
    }

    #[test]
    fn csv_and_jsonl_are_stable() {
        let mut rec = recorder();
        let mut m = Metrics::new();
        rec.sample_up_to(secs(0), &m);
        let sent = m.counter_id("net.messages_sent");
        m.incr_id(sent, 3);
        rec.sample_up_to(secs(10), &m);
        assert_eq!(rec.to_csv(), "t_secs,sent,sent_rate\n0,0,0\n10,3,3\n");
        assert_eq!(
            rec.to_jsonl(),
            "{\"t_secs\":0,\"sent\":0,\"sent_rate\":0}\n\
             {\"t_secs\":10,\"sent\":3,\"sent_rate\":3}\n"
        );
    }
}
