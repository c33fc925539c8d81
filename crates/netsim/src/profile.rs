//! Per-shard, per-barrier-round execution profiling for the sharded
//! engine, with a Chrome `trace_event` exporter.
//!
//! [`ParallelProfile`](crate::parallel::ParallelProfile) folds a run into
//! two wall-clock sums; an [`ExecutionProfile`] keeps the full structure:
//! one [`ShardRound`] per shard per barrier round, carrying both the
//! **sim-time** shape of the window (start/end, width, events executed,
//! envelopes exchanged, idle-window collapses, lookahead stalls) and the
//! **wall-clock** cost of executing it (busy span, barrier wait).
//!
//! The two kinds of field deliberately live in two exporters:
//!
//! * [`ExecutionProfile::chrome_trace_json`] emits *only* sim-time and
//!   count fields — `ts`/`dur` are virtual-time microseconds — so the
//!   trace is byte-identical at any worker count and opens directly in
//!   Perfetto / `chrome://tracing` (one track per shard).
//! * [`ExecutionProfile::wall_clock_json`] carries the measured spans
//!   (busy, barrier wait) that vary run to run; it is a diagnostic
//!   artifact, never part of a determinism digest.
//!
//! A 100k-peer hour-long churn run takes ~90k barrier rounds; keeping a
//! record per shard-round would dominate the run's own memory. The
//! profile therefore caps stored records (default
//! [`ExecutionProfile::DEFAULT_ROUND_CAP`]) and counts what it dropped,
//! while per-shard totals always cover the whole run.

use std::fmt::Write as _;
use std::time::Duration;

use crate::time::{SimDuration, SimTime};

/// One shard's window within one barrier round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRound {
    /// Barrier round index (0-based).
    pub round: u64,
    /// Shard that executed the window.
    pub shard: u32,
    /// Shard clock when the window opened.
    pub start: SimTime,
    /// Window end bound (the clock parks here in an exclusive window).
    pub end: SimTime,
    /// Whether the window excluded events exactly at `end` (intermediate
    /// rounds) or included them (the final window up to the horizon).
    pub exclusive: bool,
    /// Events the shard processed inside the window.
    pub events: u64,
    /// Cross-shard envelopes this shard emitted during the window
    /// (counted at the barrier exchange that closes the round).
    pub envelopes_out: u64,
    /// Whether the shard had any queued event when the window opened.
    pub pending: bool,
    /// Wall-clock span the worker spent executing the window
    /// (non-deterministic; excluded from the Chrome trace).
    pub busy: Duration,
    /// Wall-clock gap to the round's slowest shard — time this shard's
    /// worker would have idled at the barrier with one core per shard
    /// (non-deterministic; excluded from the Chrome trace).
    pub barrier_wait: Duration,
}

impl ShardRound {
    /// Sim-time width of the window.
    pub fn width(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// An idle-window collapse: the shard had nothing queued and the
    /// round merely parked its clock forward.
    pub fn idle(&self) -> bool {
        self.events == 0 && !self.pending
    }

    /// A lookahead stall: the shard had work queued but the conservative
    /// bound was too narrow to reach it, so the round advanced the clock
    /// without executing anything.
    pub fn stalled(&self) -> bool {
        self.events == 0 && self.pending
    }
}

/// Whole-run totals for one shard; never truncated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTotals {
    /// Windows the shard executed (= barrier rounds).
    pub windows: u64,
    /// Events processed across all windows.
    pub events: u64,
    /// Cross-shard envelopes emitted across all exchanges.
    pub envelopes_out: u64,
    /// Idle-window collapses (see [`ShardRound::idle`]).
    pub idle_windows: u64,
    /// Lookahead stalls (see [`ShardRound::stalled`]).
    pub stalls: u64,
    /// Total wall-clock busy span.
    pub busy: Duration,
    /// Total wall-clock barrier wait.
    pub barrier_wait: Duration,
}

/// Per-shard, per-round accounting of a sharded run.
///
/// Built by [`ShardedEngine`](crate::parallel::ShardedEngine) when
/// profiling is enabled; see the module docs for the determinism split
/// between the two exporters.
#[derive(Debug, Clone)]
pub struct ExecutionProfile {
    totals: Vec<ShardTotals>,
    records: Vec<ShardRound>,
    rounds: u64,
    round_cap: usize,
    truncated: u64,
}

impl ExecutionProfile {
    /// Default cap on stored [`ShardRound`] records (per-shard totals are
    /// unaffected by the cap).
    pub const DEFAULT_ROUND_CAP: usize = 50_000;

    /// An empty profile over `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        ExecutionProfile {
            totals: vec![ShardTotals::default(); num_shards],
            records: Vec::new(),
            rounds: 0,
            round_cap: Self::DEFAULT_ROUND_CAP,
            truncated: 0,
        }
    }

    /// Overrides the stored-record cap (0 keeps totals only).
    pub fn set_round_cap(&mut self, cap: usize) {
        self.round_cap = cap;
    }

    /// Number of shards profiled.
    pub fn num_shards(&self) -> usize {
        self.totals.len()
    }

    /// Barrier rounds observed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Stored shard-round records, in (round, shard) order.
    pub fn records(&self) -> &[ShardRound] {
        &self.records
    }

    /// Shard-round records dropped after the cap filled.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Whole-run totals, indexed by shard.
    pub fn totals(&self) -> &[ShardTotals] {
        &self.totals
    }

    /// Envelopes emitted by the pre-round exchange (the `on_start` sends),
    /// which belong to no barrier round but do count toward totals.
    pub(crate) fn note_initial_exchange(&mut self, counts: &[u64]) {
        for (total, &n) in self.totals.iter_mut().zip(counts) {
            total.envelopes_out += n;
        }
    }

    /// Folds one completed barrier round (one record per shard, in shard
    /// order) into totals, storing records while the cap allows.
    pub(crate) fn push_round(&mut self, records: impl IntoIterator<Item = ShardRound>) {
        self.rounds += 1;
        for rec in records {
            let total = &mut self.totals[rec.shard as usize];
            total.windows += 1;
            total.events += rec.events;
            total.envelopes_out += rec.envelopes_out;
            total.idle_windows += u64::from(rec.idle());
            total.stalls += u64::from(rec.stalled());
            total.busy += rec.busy;
            total.barrier_wait += rec.barrier_wait;
            if self.records.len() < self.round_cap {
                self.records.push(rec);
            } else {
                self.truncated += 1;
            }
        }
    }

    /// Chrome `trace_event` JSON of the stored records: one complete
    /// (`"ph":"X"`) event per shard-round with **virtual-time**
    /// microsecond `ts`/`dur`, one track per shard (`pid` 0, `tid` =
    /// shard), `thread_name` metadata so Perfetto labels the tracks, and
    /// events stably sorted by `ts`. Deterministic: wall-clock spans are
    /// deliberately absent (see [`ExecutionProfile::wall_clock_json`]).
    pub fn chrome_trace_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| {
            let r = &self.records[i];
            (r.start.as_nanos(), r.shard, r.round)
        });
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for shard in 0..self.totals.len() {
            if !first {
                out.push(',');
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{shard},\
                 \"args\":{{\"name\":\"shard {shard}\"}}}}"
            )
            .expect("string write");
        }
        for &i in &order {
            let r = &self.records[i];
            let ts = r.start.as_nanos() / 1_000;
            let dur = r.width().as_nanos() / 1_000;
            if !first {
                out.push(',');
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"round {}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{ts},\"dur\":{dur},\"args\":{{\"round\":{},\"events\":{},\
                 \"envelopes_out\":{},\"exclusive\":{},\"idle\":{},\"stalled\":{}}}}}",
                r.round,
                r.shard,
                r.round,
                r.events,
                r.envelopes_out,
                r.exclusive,
                r.idle(),
                r.stalled()
            )
            .expect("string write");
        }
        out.push_str("]}");
        out
    }

    /// Wall-clock summary JSON: per-shard busy and barrier-wait spans plus
    /// record-cap accounting. Non-deterministic by nature — keep it out of
    /// determinism digests and byte-diffed artifacts.
    pub fn wall_clock_json(&self) -> String {
        let mut out = format!(
            "{{\"rounds\":{},\"stored_records\":{},\"truncated_records\":{},\
             \"shards\":[",
            self.rounds,
            self.records.len(),
            self.truncated
        );
        for (shard, t) in self.totals.iter().enumerate() {
            if shard > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"shard\":{shard},\"windows\":{},\"events\":{},\
                 \"envelopes_out\":{},\"idle_windows\":{},\"stalls\":{},\
                 \"busy_secs\":{},\"barrier_wait_secs\":{}}}",
                t.windows,
                t.events,
                t.envelopes_out,
                t.idle_windows,
                t.stalls,
                t.busy.as_secs_f64(),
                t.barrier_wait.as_secs_f64()
            )
            .expect("string write");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(round: u64, shard: u32, start_s: u64, end_s: u64, events: u64) -> ShardRound {
        ShardRound {
            round,
            shard,
            start: SimTime::ZERO + SimDuration::from_secs(start_s),
            end: SimTime::ZERO + SimDuration::from_secs(end_s),
            exclusive: true,
            events,
            envelopes_out: 1,
            pending: events > 0,
            busy: Duration::from_micros(5),
            barrier_wait: Duration::ZERO,
        }
    }

    #[test]
    fn totals_survive_truncation() {
        let mut p = ExecutionProfile::new(2);
        p.set_round_cap(2);
        p.push_round(vec![round(0, 0, 0, 1, 3), round(0, 1, 0, 1, 0)]);
        p.push_round(vec![round(1, 0, 1, 2, 2), round(1, 1, 1, 2, 4)]);
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.records().len(), 2, "cap holds");
        assert_eq!(p.truncated(), 2);
        assert_eq!(p.totals()[0].events, 5, "totals ignore the cap");
        assert_eq!(p.totals()[1].events, 4);
        assert_eq!(p.totals()[1].idle_windows, 1, "round 0 shard 1 was idle");
    }

    #[test]
    fn idle_and_stall_are_distinguished_by_pending() {
        let mut idle = round(0, 0, 0, 1, 0);
        idle.pending = false;
        assert!(idle.idle() && !idle.stalled());
        let mut stall = round(0, 0, 0, 1, 0);
        stall.pending = true;
        assert!(stall.stalled() && !stall.idle());
        assert_eq!(idle.width(), SimDuration::from_secs(1));
    }

    #[test]
    fn chrome_trace_is_sorted_and_wall_clock_free() {
        let mut p = ExecutionProfile::new(2);
        // Push rounds whose start times interleave across shards.
        p.push_round(vec![round(0, 0, 5, 6, 1), round(0, 1, 0, 2, 1)]);
        p.push_round(vec![round(1, 0, 6, 8, 1), round(1, 1, 2, 4, 1)]);
        let json = p.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(!json.contains("busy"), "wall-clock fields stay out");
        // Extract ts values in order and check monotonicity.
        let ts: Vec<u64> = json
            .match_indices("\"ts\":")
            .map(|(i, _)| {
                json[i + 5..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .expect("ts digits")
            })
            .collect();
        assert_eq!(ts.len(), 4);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "events sorted by ts");
        let wall = p.wall_clock_json();
        assert!(wall.contains("\"busy_secs\":"));
        assert!(wall.contains("\"rounds\":2"));
    }
}
