//! The shared blind-transfer study behind Figures 2, 3 and 4.
//!
//! The paper's §4.2 "File transmission" experiment: a large file is sent to
//! every SC peer with **no** peer selection, repeated 5 times. From the same
//! runs the paper reads three series:
//!
//! * Fig 2 — time each peer takes to *receive the petition*;
//! * Fig 3 — transmission time of the 50 Mb file;
//! * Fig 4 — time to receive the *last Mb*.
//!
//! We reproduce that by transferring 50 MB in 50 × 1 MB parts to all eight
//! peers concurrently (each run), so the last part is exactly the last Mb.

use overlay::broker::{BrokerCommand, TargetSpec};
use planetlab::calibration::{PAPER_FIG2_PETITION_SECS, PAPER_FIG4_SC7_SLOWDOWN_BAND};

use crate::attribution::{attribute_trace, Phase, TransferAttribution};
use crate::experiments::{broker_owd_secs, per_sc_transfer_metric, sc_labels};
use crate::report::{FigureReport, SeriesRow};
use crate::runner::{run_replications, run_traced, SeriesAggregate};
use crate::scenario::ScenarioConfig;
use crate::spec::{ExperimentSpec, MB};

const LABEL: &str = "fig234";
/// File size of the paper's measured transfer.
pub const FILE_SIZE: u64 = 50 * MB;
/// One part per megabyte so "the last Mb" is the last part.
pub const NUM_PARTS: u32 = 50;

/// Aggregated outputs of the study.
pub struct TransferStudy {
    /// Petition latency per SC, seconds (Fig 2).
    pub petition: SeriesAggregate,
    /// Total transmission time per SC, minutes (Fig 3).
    pub total_min: SeriesAggregate,
    /// Last-Mb time per SC, seconds (Fig 4).
    pub last_mb: SeriesAggregate,
    /// Attributed wake-up phase per SC, seconds (trace decomposition).
    pub wakeup: SeriesAggregate,
    /// Attributed transmission phase per SC, minutes.
    pub transmission_min: SeriesAggregate,
}

/// Per-SC mean of an attributed phase over one replication's transfers.
fn per_sc_phase(
    scs: &[netsim::node::NodeId],
    attrs: &[TransferAttribution],
    phase: Phase,
    scale: f64,
) -> Vec<f64> {
    scs.iter()
        .map(|&sc| {
            let vals: Vec<f64> = attrs
                .iter()
                .filter(|a| a.to == sc)
                .map(|a| a.phase_secs(phase) * scale)
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// Runs the study: one blind 50 MB distribution per seed, traced so the
/// reports can break latency into attributed phases.
pub fn run(spec: &ExperimentSpec) -> TransferStudy {
    let rows = run_replications(&spec.seeds, |seed| {
        let cfg = ScenarioConfig {
            commands: vec![(
                spec.warmup,
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: FILE_SIZE,
                    num_parts: NUM_PARTS,
                    label: LABEL.into(),
                },
            )],
            ..ScenarioConfig::default()
        };
        let result = run_traced(&cfg, cfg.harness(), seed)
            .expect("the measurement setup runs on one shard")
            .result;
        let petition = result
            .testbed
            .scs
            .iter()
            .zip(per_sc_transfer_metric(&result, LABEL, |t| {
                t.petition_latency_secs()
            }))
            .map(|(&sc, lat)| lat - broker_owd_secs(&result, sc))
            .collect::<Vec<f64>>();
        let total_min =
            per_sc_transfer_metric(&result, LABEL, |t| t.total_secs().map(|s| s / 60.0));
        let last_mb = per_sc_transfer_metric(&result, LABEL, |t| t.last_part_secs());
        let attrs = attribute_trace(&result.run.trace);
        let wakeup = per_sc_phase(&result.testbed.scs, &attrs, Phase::Wakeup, 1.0);
        let transmission_min =
            per_sc_phase(&result.testbed.scs, &attrs, Phase::Transmission, 1.0 / 60.0);
        (petition, total_min, last_mb, wakeup, transmission_min)
    });
    TransferStudy {
        petition: SeriesAggregate::from_replications(
            &rows.iter().map(|r| r.0.clone()).collect::<Vec<_>>(),
        ),
        total_min: SeriesAggregate::from_replications(
            &rows.iter().map(|r| r.1.clone()).collect::<Vec<_>>(),
        ),
        last_mb: SeriesAggregate::from_replications(
            &rows.iter().map(|r| r.2.clone()).collect::<Vec<_>>(),
        ),
        wakeup: SeriesAggregate::from_replications(
            &rows.iter().map(|r| r.3.clone()).collect::<Vec<_>>(),
        ),
        transmission_min: SeriesAggregate::from_replications(
            &rows.iter().map(|r| r.4.clone()).collect::<Vec<_>>(),
        ),
    }
}

/// Figure 2: time in receiving the petition, per SC peer.
pub mod fig2 {
    use super::*;

    /// Runs the experiment and builds the report.
    pub fn run(spec: &ExperimentSpec) -> FigureReport {
        report(&super::run(spec))
    }

    /// Builds the Fig 2 report from an existing study.
    pub fn report(study: &TransferStudy) -> FigureReport {
        let mut f = FigureReport::new(
            "Figure 2",
            "Time in receiving the petition for file transmission",
            "seconds",
            sc_labels(),
        );
        f.push(SeriesRow::new("paper", PAPER_FIG2_PETITION_SECS.to_vec()));
        f.push(SeriesRow::with_sd(
            "measured",
            study.petition.means(),
            study.petition.std_devs(),
        ));
        f.push(SeriesRow::with_sd(
            "wakeup phase",
            study.wakeup.means(),
            study.wakeup.std_devs(),
        ));
        f.note("measured = petition handled at peer − petition sent − nominal one-way delay");
        f.note("wakeup phase = attributed petition→ack share of the traced timeline");
        f
    }
}

/// Figure 3: transmission time of the 50 Mb file, per SC peer.
pub mod fig3 {
    use super::*;

    /// Runs the experiment and builds the report.
    pub fn run(spec: &ExperimentSpec) -> FigureReport {
        report(&super::run(spec))
    }

    /// Builds the Fig 3 report from an existing study.
    pub fn report(study: &TransferStudy) -> FigureReport {
        let mut f = FigureReport::new(
            "Figure 3",
            "Transmission time for a file of 50 Mb",
            "minutes",
            sc_labels(),
        );
        f.push(SeriesRow::with_sd(
            "measured",
            study.total_min.means(),
            study.total_min.std_devs(),
        ));
        f.push(SeriesRow::with_sd(
            "transmission phase",
            study.transmission_min.means(),
            study.transmission_min.std_devs(),
        ));
        f.note(
            "paper publishes this figure as a chart without numbers; expected shape: SC7 slowest",
        );
        f.note("transmission phase = attributed productive part-transfer share (minutes)");
        f
    }
}

/// Figure 4: transmission time of the last Mb, per SC peer.
pub mod fig4 {
    use super::*;

    /// Runs the experiment and builds the report.
    pub fn run(spec: &ExperimentSpec) -> FigureReport {
        report(&super::run(spec))
    }

    /// Builds the Fig 4 report from an existing study.
    pub fn report(study: &TransferStudy) -> FigureReport {
        let mut f = FigureReport::new(
            "Figure 4",
            "Transmission time of the last Mb",
            "seconds",
            sc_labels(),
        );
        let means = study.last_mb.means();
        f.push(SeriesRow::with_sd(
            "measured",
            means.clone(),
            study.last_mb.std_devs(),
        ));
        let others: Vec<f64> = means
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 6)
            .map(|(_, &v)| v)
            .collect();
        let mean_others = others.iter().sum::<f64>() / others.len() as f64;
        let slowdown = means[6] / mean_others;
        f.note(format!(
            "SC7 slowdown vs mean of others: {:.2}× (paper: {:.0}–{:.0}×)",
            slowdown, PAPER_FIG4_SC7_SLOWDOWN_BAND.0, PAPER_FIG4_SC7_SLOWDOWN_BAND.1
        ));
        let wakeup_min = study.wakeup.means()[6] / 60.0;
        let xmit_min = study.transmission_min.means()[6];
        f.note(format!(
            "SC7 bulk runs are {}-dominated: {:.2} min transmission vs {:.2} min wakeup",
            if xmit_min > wakeup_min {
                "transmission"
            } else {
                "wakeup"
            },
            xmit_min,
            wakeup_min
        ));
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{argmax, spearman};

    fn study() -> &'static TransferStudy {
        use std::sync::OnceLock;
        static STUDY: OnceLock<TransferStudy> = OnceLock::new();
        STUDY.get_or_init(|| run(&ExperimentSpec::quick()))
    }

    #[test]
    fn all_scs_have_data() {
        let s = study();
        for stat in &s.petition.stats {
            assert!(stat.count() >= 2, "petition data missing");
        }
        for m in s.total_min.means() {
            assert!(m.is_finite() && m > 0.0);
        }
    }

    #[test]
    fn fig2_shape_matches_paper() {
        let s = study();
        let measured = s.petition.means();
        // SC7 is the worst, by a wide margin.
        assert_eq!(argmax(&measured), Some(6), "measured {measured:?}");
        // Rank order strongly correlates with the paper's series.
        let rho = spearman(&measured, &PAPER_FIG2_PETITION_SECS);
        assert!(rho > 0.85, "spearman {rho}, measured {measured:?}");
        // Magnitudes: every SC within a factor ~2.5 of the paper (latencies
        // are lognormal, so per-rep means wobble) except the sub-100 ms
        // peers where the absolute error is bounded instead.
        for (i, (&m, &p)) in measured.iter().zip(&PAPER_FIG2_PETITION_SECS).enumerate() {
            if p < 0.5 {
                assert!((m - p).abs() < 0.5, "SC{}: {m} vs {p}", i + 1);
            } else {
                let ratio = m / p;
                assert!((0.4..2.5).contains(&ratio), "SC{}: {m} vs {p}", i + 1);
            }
        }
    }

    #[test]
    fn fig3_sc7_is_slowest_and_minutes_scale() {
        let s = study();
        let total = s.total_min.means();
        assert_eq!(argmax(&total), Some(6), "measured {total:?}");
        // Healthy peers transfer 50 MB in ~1 minute; SC7 takes several.
        for (i, &m) in total.iter().enumerate() {
            if i != 6 {
                assert!((0.4..4.0).contains(&m), "SC{} took {m} min", i + 1);
            }
        }
        assert!(total[6] > 3.0, "SC7 took {} min", total[6]);
    }

    #[test]
    fn fig4_sc7_slowdown_in_band() {
        let s = study();
        let last = s.last_mb.means();
        assert_eq!(argmax(&last), Some(6));
        let others: Vec<f64> = last
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 6)
            .map(|(_, &v)| v)
            .collect();
        let mean_others = others.iter().sum::<f64>() / others.len() as f64;
        let slowdown = last[6] / mean_others;
        assert!(
            (1.8..8.0).contains(&slowdown),
            "SC7 last-Mb slowdown {slowdown}"
        );
    }

    #[test]
    fn reports_render() {
        let s = study();
        let r2 = fig2::report(s).render();
        assert!(r2.contains("Figure 2") && r2.contains("27.13"));
        assert!(r2.contains("wakeup phase"), "{r2}");
        let r3 = fig3::report(s).render();
        assert!(r3.contains("Figure 3"));
        assert!(r3.contains("transmission phase"), "{r3}");
        let r4 = fig4::report(s).render();
        assert!(r4.contains("slowdown"));
        assert!(r4.contains("-dominated"), "{r4}");
    }

    #[test]
    fn attributed_phases_match_the_paper_story() {
        let s = study();
        let wakeup = s.wakeup.means();
        let xmit_min = s.transmission_min.means();
        // Wake-up is worst on SC7 and roughly tracks the directly measured
        // petition latency (the two observe the same protocol milestones).
        assert_eq!(argmax(&wakeup), Some(6), "wakeup {wakeup:?}");
        for (i, (&w, &p)) in wakeup.iter().zip(&s.petition.means()).enumerate() {
            assert!(
                (w - p).abs() < 1.0 + p * 0.5,
                "SC{}: wakeup {w} vs petition {p}",
                i + 1
            );
        }
        // Bulk runs are transmission-bound everywhere, including SC7: the
        // 50 MB payload costs minutes, the wake-up seconds.
        for (i, (&x, &w)) in xmit_min.iter().zip(&wakeup).enumerate() {
            assert!(
                x * 60.0 > w,
                "SC{}: transmission {x} min vs wakeup {w} s",
                i + 1
            );
        }
    }
}
