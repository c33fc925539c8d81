//! Per-node performance profiles.
//!
//! A [`NodeProfile`] bundles everything that makes one PlanetLab host behave
//! like itself: the per-sliver bandwidth cap on its access link, its packet
//! loss, its *responsiveness* (how long the JXTA application waits before
//! being scheduled on a contended sliver), and its effective CPU. Profiles
//! convert directly into `netsim` node specs and access links.

use netsim::link::AccessLink;
use netsim::node::{CpuModel, LoadModel, NodeSpec};
use netsim::rng::DelayDistribution;

/// Complete performance characterisation of one host.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Uplink cap in Mbit/s (PlanetLab slivers are bandwidth-capped).
    pub up_mbps: f64,
    /// Downlink cap in Mbit/s.
    pub(crate) down_mbps: f64,
    /// Per-packet loss probability on the access link.
    pub loss: f64,
    /// Application-level service delay (sliver scheduling + JXTA overhead).
    pub(crate) responsiveness: DelayDistribution,
    /// Effective idle compute rate in giga-ops/second.
    pub cpu_gops: f64,
    /// Background load stolen by co-resident slivers.
    pub(crate) load: LoadModel,
}

impl NodeProfile {
    /// A healthy, lightly loaded host — the baseline for slice members.
    pub fn healthy() -> Self {
        NodeProfile {
            up_mbps: 10.0,
            down_mbps: 10.0,
            loss: 0.0002,
            responsiveness: DelayDistribution::Lognormal {
                median: 0.04,
                sigma: 0.5,
            },
            cpu_gops: 1.5,
            load: LoadModel::Uniform { lo: 0.05, hi: 0.25 },
        }
    }

    /// Builder-style bandwidth override (symmetric, Mbit/s).
    pub fn with_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.up_mbps = mbps;
        self.down_mbps = mbps;
        self
    }

    /// Builder-style responsiveness override.
    pub(crate) fn with_responsiveness(mut self, d: DelayDistribution) -> Self {
        self.responsiveness = d;
        self
    }

    /// Builder-style loss override.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style CPU override.
    pub(crate) fn with_cpu(mut self, gops: f64, load: LoadModel) -> Self {
        self.cpu_gops = gops;
        self.load = load;
        self
    }

    /// Converts to a `netsim` node spec named `hostname`.
    pub fn to_node_spec(&self, hostname: impl Into<String>) -> NodeSpec {
        NodeSpec {
            name: hostname.into(),
            cpu: CpuModel {
                base_gops: self.cpu_gops,
                load: self.load.clone(),
            },
            service_delay: self.responsiveness.clone(),
        }
    }

    /// Converts to a `netsim` access link.
    pub fn to_access_link(&self) -> AccessLink {
        AccessLink::asymmetric_mbps(self.up_mbps, self.down_mbps, self.loss)
    }

    /// Mean effective download throughput in bytes/second implied by the
    /// bandwidth cap alone (ignoring the TCP bound).
    pub fn down_bytes_per_sec(&self) -> f64 {
        self.down_mbps * 1_000_000.0 / 8.0
    }

    /// Mean responsiveness in seconds — what the paper's Fig 2 measures.
    pub fn mean_responsiveness_secs(&self) -> f64 {
        self.responsiveness.mean_secs()
    }

    /// Mean effective CPU rate (gops) after background load.
    pub fn effective_gops(&self) -> f64 {
        self.cpu_gops * (1.0 - self.load.mean())
    }
}

impl Default for NodeProfile {
    fn default() -> Self {
        NodeProfile::healthy()
    }
}

/// A deterministic pseudo-profile for slice members we have no measurements
/// for: parameters are derived from a hash of the hostname so the testbed is
/// reproducible without carrying 17 hand-written profiles.
pub fn synthetic_profile(hostname: &str) -> NodeProfile {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in hostname.as_bytes() {
        h ^= *b as u64;
        // Not FNV-1a's prime: this hash derives the testbed, so changing it moves every figure.
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let unit = |h: u64, shift: u32| ((h >> shift) & 0xFFFF) as f64 / 65535.0;
    let bw = 4.0 + unit(h, 0) * 12.0; // 4–16 Mbit/s
    let resp_median = 0.02 + unit(h, 16) * 0.15; // 20–170 ms median
    let loss = 0.0001 + unit(h, 32) * 0.001;
    let cpu = 0.8 + unit(h, 48) * 2.2; // 0.8–3.0 gops
    let load_mean = 0.1 + unit(h, 24) * 0.4;
    NodeProfile::healthy()
        .with_bandwidth_mbps(bw)
        .with_responsiveness(DelayDistribution::Lognormal {
            median: resp_median,
            sigma: 0.6,
        })
        .with_loss(loss)
        .with_cpu(
            cpu,
            LoadModel::Uniform {
                lo: load_mean - 0.1,
                hi: load_mean + 0.1,
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_profile_is_sane() {
        let p = NodeProfile::healthy();
        assert!(p.down_bytes_per_sec() > 1_000_000.0);
        assert!(p.mean_responsiveness_secs() < 0.2);
        assert!(p.effective_gops() > 0.5);
    }

    #[test]
    fn builders_apply() {
        let p = NodeProfile::healthy()
            .with_bandwidth_mbps(2.0)
            .with_loss(0.01)
            .with_responsiveness(DelayDistribution::Constant(3.0))
            .with_cpu(0.5, LoadModel::Constant(0.8));
        assert_eq!(p.up_mbps, 2.0);
        assert_eq!(p.down_mbps, 2.0);
        assert_eq!(p.loss, 0.01);
        assert_eq!(p.mean_responsiveness_secs(), 3.0);
        assert!((p.effective_gops() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn conversion_to_netsim_types() {
        let p = NodeProfile::healthy().with_bandwidth_mbps(8.0);
        let spec = p.to_node_spec("host.example");
        assert_eq!(spec.name, "host.example");
        assert_eq!(spec.cpu.base_gops, p.cpu_gops);
        let link = p.to_access_link();
        assert!((link.up_bytes_per_sec - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn synthetic_profiles_are_deterministic_and_distinct() {
        let a1 = synthetic_profile("planetlab1.poly.edu");
        let a2 = synthetic_profile("planetlab1.poly.edu");
        assert_eq!(a1, a2);
        let b = synthetic_profile("ricepl1.cs.rice.edu");
        assert_ne!(a1, b);
    }

    #[test]
    fn synthetic_profiles_in_band() {
        for host in ["a.example", "b.example", "c.example", "d.example"] {
            let p = synthetic_profile(host);
            assert!((4.0..=16.0).contains(&p.up_mbps));
            assert!(p.loss < 0.0012);
            assert!((0.8..=3.0).contains(&p.cpu_gops));
            assert!(p.mean_responsiveness_secs() < 0.5);
        }
    }
}
