//! The sharded engine's execution profile, with a Chrome `trace_event`
//! exporter.
//!
//! A [`ParallelProfile`] is a run's one account of its barrier rounds.
//! Every field but one is sim-time structure, identical at any worker
//! count: the round count, per-shard [`ShardTotals`] (events, envelopes
//! out, idle windows, stalls), and — on a telemetry run, one with a
//! time-series recorder installed — the whole schedule, one [`ShardRound`]
//! per shard per round, never capped. The exception is `busy`, the run's
//! single wall-clock total.
//!
//! The two kinds of field deliberately live in two exporters:
//!
//! * [`ParallelProfile::chrome_trace_json`] renders the schedule with
//!   virtual-time microsecond `ts`/`dur`, so the trace is byte-identical
//!   at any worker count and opens directly in Perfetto /
//!   `chrome://tracing` (one track per shard).
//! * [`ParallelProfile::summary_json`] adds the `busy` total to the round
//!   and per-shard counts; it is a diagnostic artifact, never part of a
//!   determinism digest.

use std::fmt::Write as _;
use std::time::Duration;

use crate::time::{SimDuration, SimTime};

/// One shard's window within one barrier round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRound {
    /// Barrier round index (0-based).
    pub(crate) round: u64,
    /// Shard that executed the window.
    pub(crate) shard: u32,
    /// Shard clock when the window opened.
    pub(crate) start: SimTime,
    /// Window end bound (the clock parks here in an exclusive window).
    pub(crate) end: SimTime,
    /// Whether the window excluded events exactly at `end` (intermediate
    /// rounds) or included them (the final window up to the horizon).
    pub(crate) exclusive: bool,
    /// Events the shard processed inside the window.
    pub(crate) events: u64,
    /// Cross-shard envelopes this shard emitted during the window
    /// (counted at the barrier exchange that closes the round).
    pub(crate) envelopes_out: u64,
    /// Whether the shard had any queued event when the window opened.
    pub(crate) pending: bool,
}

impl ShardRound {
    /// Sim-time width of the window.
    pub(crate) fn width(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// An idle-window collapse: the shard had nothing queued and the
    /// round merely parked its clock forward.
    pub(crate) fn idle(&self) -> bool {
        self.events == 0 && !self.pending
    }

    /// A lookahead stall: the shard had work queued but the conservative
    /// bound was too narrow to reach it, so the round advanced the clock
    /// without executing anything.
    pub(crate) fn stalled(&self) -> bool {
        self.events == 0 && self.pending
    }
}

/// Whole-run totals for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTotals {
    /// Events processed across all windows.
    pub events: u64,
    /// Cross-shard envelopes emitted across all exchanges.
    pub envelopes_out: u64,
    /// Idle-window collapses (see [`ShardRound::idle`]).
    pub(crate) idle_windows: u64,
    /// Lookahead stalls (see [`ShardRound::stalled`]).
    pub(crate) stalls: u64,
}

/// How a sharded run went through its barrier rounds; see the module docs
/// for which fields are deterministic.
#[derive(Debug, Clone, Default)]
pub struct ParallelProfile {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Sum of window execution spans across all shards (what one worker
    /// would do alone; at one worker, a round's windows are one span).
    /// Wall-clock, outside the simulation's virtual clock.
    pub busy: Duration,
    /// Whole-run totals, indexed by shard.
    pub shards: Vec<ShardTotals>,
    /// Every shard-round in (round, shard) order, kept only on a telemetry
    /// run (see [`ShardedEngine::install_recorder`]).
    ///
    /// [`ShardedEngine::install_recorder`]: crate::parallel::ShardedEngine::install_recorder
    pub schedule: Vec<ShardRound>,
}

impl ParallelProfile {
    /// An empty profile over `num_shards` shards.
    pub(crate) fn new(num_shards: usize) -> Self {
        ParallelProfile {
            shards: vec![ShardTotals::default(); num_shards],
            ..ParallelProfile::default()
        }
    }

    /// Envelopes emitted by the pre-round exchange (the `on_start` sends),
    /// which belong to no barrier round but do count toward totals.
    pub(crate) fn note_initial_exchange(&mut self, counts: &[u64]) {
        for (total, &n) in self.shards.iter_mut().zip(counts) {
            total.envelopes_out += n;
        }
    }

    /// Folds one shard's window into its totals, and keeps it in the
    /// schedule when `keep` is set.
    pub(crate) fn record(&mut self, rec: ShardRound, keep: bool) {
        let total = &mut self.shards[rec.shard as usize];
        total.events += rec.events;
        total.envelopes_out += rec.envelopes_out;
        total.idle_windows += u64::from(rec.idle());
        total.stalls += u64::from(rec.stalled());
        if keep {
            self.schedule.push(rec);
        }
    }

    /// Chrome `trace_event` JSON of the schedule: one complete (`"ph":"X"`)
    /// event per shard-round with **virtual-time** microsecond `ts`/`dur`,
    /// one track per shard (`pid` 0, `tid` = shard), `thread_name`
    /// metadata so Perfetto labels the tracks, and events stably sorted
    /// by `ts`. Deterministic: `busy` is deliberately absent.
    pub fn chrome_trace_json(&self) -> String {
        let mut order: Vec<&ShardRound> = self.schedule.iter().collect();
        order.sort_by_key(|r| (r.start.as_nanos(), r.shard, r.round));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for shard in 0..self.shards.len() {
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
        for r in order {
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

    /// Summary JSON: the round count, the `busy` total and the per-shard
    /// counts. `busy` varies run to run — keep this out of determinism
    /// digests and byte-diffed artifacts.
    pub fn summary_json(&self) -> String {
        let mut out = format!(
            "{{\"rounds\":{},\"busy_secs\":{},\"shards\":[",
            self.rounds,
            self.busy.as_secs_f64()
        );
        for (shard, t) in self.shards.iter().enumerate() {
            if shard > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"shard\":{shard},\"events\":{},\"envelopes_out\":{},\
                 \"idle_windows\":{},\"stalls\":{}}}",
                t.events, t.envelopes_out, t.idle_windows, t.stalls
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
        }
    }

    #[test]
    fn totals_fold_every_round_kept_or_not() {
        let mut p = ParallelProfile::new(2);
        for (rec, keep) in [
            (round(0, 0, 0, 1, 3), false),
            (round(0, 1, 0, 1, 0), false),
            (round(1, 0, 1, 2, 2), true),
            (round(1, 1, 1, 2, 4), true),
        ] {
            p.record(rec, keep);
        }
        assert_eq!(p.schedule.len(), 2, "only kept rounds are stored");
        assert_eq!(p.shards[0].events, 5, "totals fold every round");
        assert_eq!(p.shards[1].events, 4);
        assert_eq!(p.shards[1].envelopes_out, 2);
        assert_eq!(p.shards[1].idle_windows, 1, "round 0 shard 1 was idle");
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
        let mut p = ParallelProfile::new(2);
        // Record rounds whose start times interleave across shards.
        for rec in [
            round(0, 0, 5, 6, 1),
            round(0, 1, 0, 2, 1),
            round(1, 0, 6, 8, 1),
            round(1, 1, 2, 4, 1),
        ] {
            p.record(rec, true);
        }
        p.rounds = 2;
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
        let summary = p.summary_json();
        assert!(summary.starts_with("{\"rounds\":2,\"busy_secs\":"));
    }
}
