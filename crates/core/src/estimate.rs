//! Shared estimation helpers: turning broker-observed history into
//! ready-time / transfer-time / execution-time predictions.
//!
//! These are the "estimated time is computed by the broker peers based on
//! historical data kept for the peergroup" primitives of the paper's
//! scheduling-based model (§2.1), factored out so the economic and
//! user-preference models predict consistently.

use netsim::time::SimTime;
use overlay::selector::{InteractionHistory, Purpose};

/// Fallback assumptions when a peer has no history yet.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Priors {
    /// Assumed transfer throughput, bytes/second.
    pub(crate) throughput_bps: f64,
    /// Assumed petition (wake-up) latency, seconds.
    pub(crate) petition_secs: f64,
    /// Assumed fraction of advertised CPU actually available.
    pub(crate) cpu_availability: f64,
}

impl Default for Priors {
    fn default() -> Self {
        Priors {
            throughput_bps: 1_000_000.0, // ~1 MB/s: the testbed's healthy mean
            petition_secs: 0.5,
            cpu_availability: 0.7,
        }
    }
}

/// Best throughput estimate for a peer, falling back to the prior.
pub(crate) fn throughput_bps(h: &InteractionHistory, priors: &Priors) -> f64 {
    h.ewma_throughput_bps
        .filter(|v| *v > 0.0)
        .unwrap_or(priors.throughput_bps)
}

/// Best petition-latency estimate for a peer, falling back to the prior.
pub(crate) fn petition_secs(h: &InteractionHistory, priors: &Priors) -> f64 {
    h.ewma_petition_secs
        .filter(|v| *v >= 0.0)
        .unwrap_or(priors.petition_secs)
}

/// Best execution-rate estimate (gops/sec), falling back to a fraction of
/// the advertised CPU.
pub(crate) fn exec_rate_gops(h: &InteractionHistory, advertised_cpu: f64, priors: &Priors) -> f64 {
    h.ewma_exec_gops_per_sec
        .filter(|v| *v > 0.0)
        .unwrap_or((advertised_cpu * priors.cpu_availability).max(1e-6))
}

/// Seconds until the peer has drained its current backlog and is *ready*
/// for new work (paper §2.1: "crucial to this model is the ready time of
/// peers in order to plan in advance").
pub(crate) fn ready_secs(now: SimTime, h: &InteractionHistory, priors: &Priors) -> f64 {
    let busy = h.busy_until.duration_since(now).as_secs_f64();
    let queue_drain = h.queued_bytes as f64 / throughput_bps(h, priors);
    busy + queue_drain
}

/// Predicted service time for the work described by `purpose` on a peer
/// with history `h` advertising `cpu_gops` (excludes queueing; see
/// [`ready_secs`]).
pub(crate) fn service_secs(
    h: &InteractionHistory,
    cpu_gops: f64,
    purpose: Purpose,
    priors: &Priors,
) -> f64 {
    match purpose {
        Purpose::FileTransfer { bytes } => bytes as f64 / throughput_bps(h, priors),
        Purpose::TaskExecution {
            work_gops,
            input_bytes,
        } => {
            input_bytes as f64 / throughput_bps(h, priors)
                + work_gops as f64 / exec_rate_gops(h, cpu_gops, priors)
        }
    }
}

/// Predicted completion time (seconds from `now`) of `purpose` on a peer
/// with history `h` advertising `cpu_gops`: ready + wake-up + service.
pub(crate) fn completion_secs(
    now: SimTime,
    h: &InteractionHistory,
    cpu_gops: f64,
    purpose: Purpose,
    priors: &Priors,
) -> f64 {
    ready_secs(now, h, priors)
        + petition_secs(h, priors)
        + service_secs(h, cpu_gops, purpose, priors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    #[test]
    fn priors_apply_when_no_history() {
        let h = InteractionHistory::empty();
        let p = Priors::default();
        assert_eq!(throughput_bps(&h, &p), p.throughput_bps);
        assert_eq!(petition_secs(&h, &p), p.petition_secs);
        assert!((exec_rate_gops(&h, 2.0, &p) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn history_overrides_priors() {
        let mut h = InteractionHistory::empty();
        h.observe_throughput(2e6, 1.0);
        h.observe_petition(0.1, 1.0);
        h.observe_exec_rate(0.9, 1.0);
        let p = Priors::default();
        assert_eq!(throughput_bps(&h, &p), 2e6);
        assert_eq!(petition_secs(&h, &p), 0.1);
        assert_eq!(exec_rate_gops(&h, 2.0, &p), 0.9);
    }

    #[test]
    fn ready_time_counts_backlog_and_busy() {
        let now = SimTime::ZERO + SimDuration::from_secs(100);
        let mut h = InteractionHistory::empty();
        h.busy_until = now + SimDuration::from_secs(10);
        h.queued_bytes = 2_000_000; // at 1 MB/s prior → 2 s drain
        let p = Priors::default();
        assert!((ready_secs(now, &h, &p) - 12.0).abs() < 1e-9);
        // A peer whose busy_until is in the past has only queue drain.
        h.busy_until = SimTime::ZERO;
        assert!((ready_secs(now, &h, &p) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn completion_combines_all_terms() {
        let now = SimTime::ZERO;
        let mut h = InteractionHistory::empty();
        h.observe_throughput(1e6, 1.0);
        h.observe_petition(1.0, 1.0);
        let p = Priors::default();
        let secs = completion_secs(now, &h, 2.0, Purpose::FileTransfer { bytes: 3_000_000 }, &p);
        // ready 0 + petition 1 + transfer 3 = 4.
        assert!((secs - 4.0).abs() < 1e-9);
    }

    #[test]
    fn task_completion_includes_input_and_compute() {
        let now = SimTime::ZERO;
        let mut h = InteractionHistory::empty();
        h.observe_throughput(1e6, 1.0);
        h.observe_petition(0.0, 1.0);
        h.observe_exec_rate(2.0, 1.0);
        let p = Priors::default();
        let secs = completion_secs(
            now,
            &h,
            2.0,
            Purpose::TaskExecution {
                work_gops: 10,
                input_bytes: 1_000_000,
            },
            &p,
        );
        // input 1 s + work 5 s.
        assert!((secs - 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_throughput_history_falls_back() {
        let mut h = InteractionHistory::empty();
        h.ewma_throughput_bps = Some(0.0);
        let p = Priors::default();
        assert_eq!(throughput_bps(&h, &p), p.throughput_bps);
    }
}
