//! Calibration of the SC1…SC8 profiles against the paper's measurements.
//!
//! The paper reports exact per-peer numbers only for Fig 2 (time to receive
//! a file-transfer petition); Figs 3–5 and 7 are published as bar charts with
//! qualitative statements (SC7 slowest; last Mb 2–4× slower on SC7; 16-part
//! transfer of 100 Mb averages 1.7 min; whole-file transfer "not worth it").
//! We therefore:
//!
//! * fit each SC's **responsiveness** distribution so its *mean* equals the
//!   paper's Fig 2 value exactly;
//! * choose per-sliver **bandwidth caps** so the average effective transfer
//!   rate is ≈1 MB/s (which reproduces the 1.7 min figure for 100 Mb in 16
//!   parts) with SC7 ~5× slower than the pack;
//! * choose **CPU/load** so "just execution" lands in the paper's
//!   minutes-scale band with SC7 the clear outlier (Fig 7).
//!
//! The paper's published series are kept here as constants so experiment
//! reports can print paper-vs-measured side by side.

use netsim::node::LoadModel;
use netsim::rng::DelayDistribution;

use crate::profile::NodeProfile;

/// Fig 2 — "time in receiving the petition" per SC peer, seconds
/// (SC1…SC8, exactly as printed on the figure).
pub const PAPER_FIG2_PETITION_SECS: [f64; 8] = [12.86, 0.04, 2.79, 0.07, 5.19, 0.35, 27.13, 0.06];

/// Fig 6 — file transmission time by selection model, **4-part** division,
/// seconds: economic, data evaluator (same priority), user preference
/// (quick peer).
pub const PAPER_FIG6_4PARTS_SECS: [f64; 3] = [0.16, 0.25, 0.33];

/// Fig 6 — same, **16-part** division.
pub const PAPER_FIG6_16PARTS_SECS: [f64; 3] = [0.14, 0.14, 0.14];

/// Fig 5 — average transmission time of a 100 Mb file split into 16 parts,
/// minutes ("the transmission time is in average 1.7 minutes").
pub const PAPER_FIG5_16PARTS_AVG_MIN: f64 = 1.7;

/// Fig 4 — the paper states SC7's last-Mb time is 2–4× the other peers'.
pub const PAPER_FIG4_SC7_SLOWDOWN_BAND: (f64, f64) = (2.0, 4.0);

/// Labels SC1…SC8 for report rendering.
pub const SC_LABELS: [&str; 8] = ["SC1", "SC2", "SC3", "SC4", "SC5", "SC6", "SC7", "SC8"];

/// A lognormal whose **mean** is exactly `mean` with shape `sigma`
/// (mean = median · e^{σ²/2} ⇒ median = mean · e^{−σ²/2}).
pub(crate) fn lognormal_with_mean(mean: f64, sigma: f64) -> DelayDistribution {
    DelayDistribution::Lognormal {
        median: mean * (-sigma * sigma / 2.0).exp(),
        sigma,
    }
}

/// Shape parameter for each SC's responsiveness: slow, contended nodes have
/// heavier tails (the petition times the paper averaged over 5 runs vary a
/// lot on such nodes).
const SC_RESP_SIGMA: [f64; 8] = [0.8, 0.3, 0.6, 0.3, 0.7, 0.4, 0.9, 0.3];

/// Per-sliver bandwidth cap in Mbit/s for each SC, fitted as described in
/// the module docs (≈1 MB/s pack, SC7 ~5× slower). SC4 — low-RTT Zurich on
/// a fat campus link — is the unambiguous fastest peer, which Fig 6's
/// history-driven models gravitate to.
const SC_BANDWIDTH_MBPS: [f64; 8] = [7.2, 11.2, 8.8, 12.0, 8.0, 9.6, 1.76, 10.8];

/// Access-link loss probability per SC (SC7's path was visibly lossy).
const SC_LOSS: [f64; 8] = [
    0.0010, 0.0003, 0.0005, 0.0003, 0.0008, 0.0004, 0.0040, 0.0003,
];

/// Idle CPU rate (gops) per SC. Advertised CPU deliberately does not track
/// network quality — SC5 has the biggest CPU but sluggish wake-ups — which
/// is exactly the trap the paper's Fig 6 exposes in models that tie-break
/// on CPU speed without responsiveness history.
const SC_CPU_GOPS: [f64; 8] = [1.2, 1.6, 1.3, 1.5, 1.7, 1.4, 1.0, 1.5];

/// Mean background load per SC (SC7 is an oversubscribed node).
const SC_LOAD_MEAN: [f64; 8] = [0.30, 0.15, 0.25, 0.15, 0.35, 0.20, 0.80, 0.15];

/// The calibrated profile of SCn (n in 1..=8). Panics on out-of-range n.
pub(crate) fn sc_profile(n: u8) -> NodeProfile {
    assert!((1..=8).contains(&n), "SC index {n} out of range");
    let i = (n - 1) as usize;
    let load_mean = SC_LOAD_MEAN[i];
    let spread = (load_mean * 0.15).min(0.05);
    NodeProfile::healthy()
        .with_bandwidth_mbps(SC_BANDWIDTH_MBPS[i])
        .with_loss(SC_LOSS[i])
        .with_responsiveness(lognormal_with_mean(
            PAPER_FIG2_PETITION_SECS[i],
            SC_RESP_SIGMA[i],
        ))
        .with_cpu(
            SC_CPU_GOPS[i],
            LoadModel::Uniform {
                lo: (load_mean - spread).max(0.0),
                hi: (load_mean + spread).min(0.99),
            },
        )
}

/// All eight calibrated profiles, SC1 first.
pub fn sc_profiles() -> Vec<NodeProfile> {
    (1..=8).map(sc_profile).collect()
}

/// The broker's profile: the nozomi cluster head is a dedicated machine on
/// a university LAN — fast, responsive, lightly loaded.
pub(crate) fn broker_profile() -> NodeProfile {
    NodeProfile::healthy()
        .with_bandwidth_mbps(80.0)
        .with_loss(0.0001)
        .with_responsiveness(DelayDistribution::Lognormal {
            median: 0.004,
            sigma: 0.3,
        })
        .with_cpu(3.0, LoadModel::Uniform { lo: 0.0, hi: 0.1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;

    #[test]
    fn responsiveness_means_match_fig2_exactly() {
        for (i, p) in sc_profiles().iter().enumerate() {
            let mean = p.mean_responsiveness_secs();
            let target = PAPER_FIG2_PETITION_SECS[i];
            assert!(
                (mean - target).abs() / target < 1e-9,
                "SC{}: mean {mean} vs target {target}",
                i + 1
            );
        }
    }

    #[test]
    fn empirical_responsiveness_tracks_fig2() {
        // Sampled means converge to the Fig 2 values (law of large numbers
        // check on the lognormal parameterisation).
        let mut rng = SimRng::new(1234);
        for (i, p) in sc_profiles().iter().enumerate() {
            let n = 60_000;
            let mean: f64 = (0..n)
                .map(|_| p.responsiveness.sample_secs(&mut rng))
                .sum::<f64>()
                / n as f64;
            let target = PAPER_FIG2_PETITION_SECS[i];
            assert!(
                (mean - target).abs() / target < 0.08,
                "SC{}: empirical {mean} vs {target}",
                i + 1
            );
        }
    }

    #[test]
    fn sc7_is_the_bandwidth_outlier() {
        let profiles = sc_profiles();
        let sc7 = &profiles[6];
        for (i, p) in profiles.iter().enumerate() {
            if i != 6 {
                assert!(
                    p.down_bytes_per_sec() > 3.0 * sc7.down_bytes_per_sec(),
                    "SC{} should be much faster than SC7",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn pack_throughput_near_one_mbyte_per_sec() {
        // Mean of the seven healthy SCs ≈ 1 MB/s → 100 MB in 16 parts ≈ 1.7 min.
        let profiles = sc_profiles();
        let pack_mean: f64 = profiles
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 6)
            .map(|(_, p)| p.down_bytes_per_sec())
            .sum::<f64>()
            / 7.0;
        assert!(
            (0.9e6..1.5e6).contains(&pack_mean),
            "pack mean {pack_mean} B/s"
        );
    }

    #[test]
    fn sc7_cpu_is_heavily_loaded() {
        let profiles = sc_profiles();
        let sc7_eff = profiles[6].effective_gops();
        for (i, p) in profiles.iter().enumerate() {
            if i != 6 {
                assert!(p.effective_gops() > 3.0 * sc7_eff, "SC{}", i + 1);
            }
        }
    }

    #[test]
    fn lognormal_with_mean_is_exact() {
        let d = lognormal_with_mean(5.19, 0.7);
        assert!((d.mean_secs() - 5.19).abs() < 1e-12);
        let d0 = lognormal_with_mean(1.0, 0.0);
        assert!((d0.mean_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sc_profile_rejects_zero() {
        sc_profile(0);
    }

    #[test]
    fn broker_is_fast() {
        let b = broker_profile();
        assert!(b.down_bytes_per_sec() > 5e6);
        assert!(b.mean_responsiveness_secs() < 0.01);
        assert!(b.effective_gops() > 2.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the paper's printed ordering
    fn paper_constants_self_consistent() {
        assert_eq!(PAPER_FIG2_PETITION_SECS.len(), SC_LABELS.len());
        // Fig 6 orderings as printed: economic < same priority < quick peer
        // at 4 parts, all equal at 16 parts.
        assert!(PAPER_FIG6_4PARTS_SECS[0] < PAPER_FIG6_4PARTS_SECS[1]);
        assert!(PAPER_FIG6_4PARTS_SECS[1] < PAPER_FIG6_4PARTS_SECS[2]);
        assert!(PAPER_FIG6_16PARTS_SECS.iter().all(|&v| v == 0.14));
    }
}
