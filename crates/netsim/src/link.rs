//! Access links and wide-area paths.
//!
//! The topology is a full overlay mesh: each node owns an **access link**
//! (its campus/ISP uplink and downlink), and any pair of nodes is connected
//! through the core with a propagation delay derived from geography. The
//! core is assumed overprovisioned — the bottleneck is always an access link
//! or TCP's loss/RTT bound, which matches wide-area measurement practice.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Per-node access-link characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessLink {
    /// Uplink capacity in bytes/second.
    pub up_bytes_per_sec: f64,
    /// Downlink capacity in bytes/second.
    pub down_bytes_per_sec: f64,
    /// Packet-loss probability on this access link (one-way, per packet).
    pub loss: f64,
}

impl AccessLink {
    /// A symmetric link of `mbit` megabits per second with the given loss.
    pub fn symmetric_mbps(mbit: f64, loss: f64) -> Self {
        let bps = mbit * 1_000_000.0 / 8.0;
        AccessLink {
            up_bytes_per_sec: bps,
            down_bytes_per_sec: bps,
            loss: loss.clamp(0.0, 1.0),
        }
    }

    /// An asymmetric link (`up`/`down` in Mbit/s).
    pub fn asymmetric_mbps(up_mbit: f64, down_mbit: f64, loss: f64) -> Self {
        AccessLink {
            up_bytes_per_sec: up_mbit * 1_000_000.0 / 8.0,
            down_bytes_per_sec: down_mbit * 1_000_000.0 / 8.0,
            loss: loss.clamp(0.0, 1.0),
        }
    }
}

impl Default for AccessLink {
    /// A typical 2007-era well-connected academic host: 100 Mbit/s symmetric,
    /// light loss.
    fn default() -> Self {
        AccessLink::symmetric_mbps(100.0, 0.0005)
    }
}

/// Characteristics of the wide-area path between a specific node pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// One-way propagation delay through the core.
    pub one_way_delay: SimDuration,
    /// Jitter magnitude: each traversal adds `Uniform[0, jitter)`.
    pub jitter: SimDuration,
}

impl PathSpec {
    /// A path with the given one-way delay in milliseconds and jitter as a
    /// fraction of the delay.
    pub fn from_owd_ms(owd_ms: f64, jitter_frac: f64) -> Self {
        let owd = SimDuration::from_secs_f64(owd_ms / 1000.0);
        PathSpec {
            one_way_delay: owd,
            jitter: owd.mul_f64(jitter_frac.max(0.0)),
        }
    }

    /// Round-trip time (twice the one-way delay, jitter excluded).
    pub(crate) fn rtt(&self) -> SimDuration {
        self.one_way_delay * 2
    }

    /// Samples the actual one-way latency for one traversal.
    pub(crate) fn sample_latency(&self, rng: &mut SimRng) -> SimDuration {
        if self.jitter.is_zero() {
            return self.one_way_delay;
        }
        let extra = rng.uniform_range(0.0, self.jitter.as_secs_f64());
        self.one_way_delay + SimDuration::from_secs_f64(extra)
    }
}

impl Default for PathSpec {
    fn default() -> Self {
        PathSpec::from_owd_ms(10.0, 0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_link_converts_units() {
        let l = AccessLink::symmetric_mbps(8.0, 0.01);
        assert!((l.up_bytes_per_sec - 1_000_000.0).abs() < 1e-6);
        assert_eq!(l.up_bytes_per_sec, l.down_bytes_per_sec);
        assert_eq!(l.loss, 0.01);
    }

    #[test]
    fn asymmetric_link_units() {
        let l = AccessLink::asymmetric_mbps(1.0, 16.0, 0.0);
        assert!((l.down_bytes_per_sec / l.up_bytes_per_sec - 16.0).abs() < 1e-9);
    }

    #[test]
    fn loss_is_clamped() {
        assert_eq!(AccessLink::symmetric_mbps(1.0, 2.0).loss, 1.0);
        assert_eq!(AccessLink::symmetric_mbps(1.0, -0.5).loss, 0.0);
    }

    #[test]
    fn path_rtt_is_twice_owd() {
        let p = PathSpec::from_owd_ms(25.0, 0.0);
        assert!((p.rtt().as_secs_f64() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn latency_sample_within_jitter_band() {
        let p = PathSpec::from_owd_ms(20.0, 0.5);
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let s = p.sample_latency(&mut rng).as_secs_f64();
            assert!((0.020 - 1e-12..0.030 + 1e-12).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let p = PathSpec::from_owd_ms(20.0, 0.0);
        let mut rng = SimRng::new(6);
        assert_eq!(p.sample_latency(&mut rng), p.one_way_delay);
    }
}
