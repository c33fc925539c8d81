//! The named sweep grids: each paper-facing campaign as a [`SweepSpec`]
//! that lists only the axes it varies.
//!
//! Split out of `sweep` so the axis/expansion/rendering machinery and the
//! concrete grid catalog stay separately auditable. `psim sweep` resolves
//! names through [`named_grid`]; [`named_grid_list`] is the help text.

use netsim::time::SimDuration;

use super::{Axis, CellWorkload, SeedScheme, SweepSpec};
use crate::experiments::{fig5, fig6};
use crate::spec::ExperimentSpec;
use crate::streaming::{PiecePolicy, UploadProfile};

/// The Figs 3–5 grid: the 100 MB file broadcast whole vs 4 vs 16 parts —
/// 3 cells × 8 SC rows = the paper's 24 transmission-time cells.
pub fn fig345_grid(seeds: SeedScheme, warmup: SimDuration) -> SweepSpec {
    SweepSpec {
        name: "fig345".into(),
        workload: CellWorkload::Distribute {
            size_bytes: fig5::FILE_SIZE,
        },
        axes: vec![Axis::Parts(fig5::GRANULARITIES.to_vec())],
        seeds,
        warmup,
    }
}

/// The Figs 6–7 grid: the four selection models × {4, 16} parts over the
/// warm-up/background/measured-transfer scenario.
pub fn fig67_grid(seeds: SeedScheme, warmup: SimDuration) -> SweepSpec {
    SweepSpec {
        name: "fig67".into(),
        workload: CellWorkload::SelectedTransfer {
            measured_bytes: fig6::MEASURED_SIZE,
            background_bytes: fig6::BACKGROUND_SIZE,
        },
        axes: vec![
            Axis::Models(fig6::MODELS.to_vec()),
            Axis::Parts(fig6::GRANULARITIES.to_vec()),
        ],
        seeds,
        warmup,
    }
}

/// The federation grid: mean petition latency across broker count × the
/// gossip/staleness cadence as a sweep campaign, so replications and
/// CSV/JSON rendering come for free. Every round splits its file in 4.
pub fn federation_grid(seeds: SeedScheme) -> SweepSpec {
    SweepSpec {
        name: "federation".into(),
        workload: CellWorkload::Federation { peers: 64 },
        axes: vec![
            Axis::Brokers(vec![2, 4]),
            Axis::Staleness(vec![30.0, 240.0]),
            Axis::Parts(vec![4]),
        ],
        seeds,
        warmup: SimDuration::ZERO,
    }
}

/// The streaming grid: median startup delay and fleet rebuffering across
/// piece policy × request window × uplink distribution — the
/// arXiv:1402.2187 selection axes as a sweep campaign.
pub fn streaming_grid(seeds: SeedScheme) -> SweepSpec {
    SweepSpec {
        name: "streaming".into(),
        workload: CellWorkload::Streaming { viewers: 16 },
        axes: vec![
            Axis::Policies(PiecePolicy::ALL.to_vec()),
            Axis::Windows(vec![2, 8]),
            Axis::Uploads(vec![UploadProfile::Home, UploadProfile::Campus]),
        ],
        seeds,
        warmup: SimDuration::ZERO,
    }
}

/// Builds a named grid from a seed scheme and the paper's warm-up.
type GridBuilder = fn(SeedScheme, SimDuration) -> SweepSpec;

/// Every named grid and its builder, in help order. The synthetic grids
/// script nothing, so they take no warm-up.
const NAMED_GRIDS: [(&str, GridBuilder); 4] = [
    ("fig345", fig345_grid),
    ("fig67", fig67_grid),
    ("federation", |seeds, _| federation_grid(seeds)),
    ("streaming", |seeds, _| streaming_grid(seeds)),
];

/// The grid names `psim sweep` accepts.
pub fn named_grid_list() -> Vec<&'static str> {
    NAMED_GRIDS.iter().map(|(name, _)| *name).collect()
}

/// Resolves a named grid with a derived seed scheme. `None` for unknown
/// names; see [`named_grid_list`].
pub fn named_grid(name: &str, campaign_seed: u64, replications: usize) -> Option<SweepSpec> {
    let seeds = SeedScheme::Derived {
        campaign_seed,
        replications,
    };
    let (_, grid) = NAMED_GRIDS.iter().find(|(n, _)| *n == name)?;
    Some(grid(seeds, ExperimentSpec::paper_defaults().warmup))
}

#[cfg(test)]
mod tests {
    use super::super::run_campaign;
    use super::*;

    #[test]
    fn fig345_covers_all_24_paper_cells() {
        let spec = fig345_grid(SeedScheme::Explicit(vec![1]), SimDuration::from_secs(60));
        let campaign = run_campaign(&spec, 4).expect("valid grid");
        assert_eq!(campaign.cells.len(), 3, "whole, 4 parts, 16 parts");
        let csv = campaign.to_csv();
        let data_rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(data_rows.len(), 24, "8 SCs x 3 splits");
        for sc in 1..=8 {
            assert_eq!(
                data_rows
                    .iter()
                    .filter(|r| r.contains(&format!(",SC{sc},")))
                    .count(),
                3,
                "SC{sc} appears once per split"
            );
        }
        // Finer granularity is faster, as in Fig 5.
        let mean_of = |ci: usize| {
            let means: Vec<f64> = campaign.cells[ci]
                .rows
                .iter()
                .map(|(_, s)| s.mean())
                .collect();
            means.iter().sum::<f64>() / means.len() as f64
        };
        assert!(mean_of(0) > mean_of(1), "whole slower than 4 parts");
        assert!(mean_of(1) > mean_of(2), "4 parts slower than 16");
    }

    #[test]
    fn federation_grid_runs_and_is_worker_invariant() {
        let mk = || {
            let mut s = federation_grid(SeedScheme::Derived {
                campaign_seed: 5,
                replications: 1,
            });
            s.workload = CellWorkload::Federation { peers: 24 };
            s.axes[1] = Axis::Staleness(vec![240.0]);
            s
        };
        let one = run_campaign(&mk(), 1).expect("valid grid");
        let four = run_campaign(&mk(), 4).expect("valid grid");
        assert_eq!(one.to_csv(), four.to_csv());
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.cells.len(), 2, "2 broker counts x 1 cadence");
        assert!(one.to_csv().starts_with(
            "grid,cell,testbed,accept,model,drop,parts,brokers,staleness,policy,window,upload,label,unit,reps,mean,sd,min,max\n"
        ));
        for c in &one.cells {
            assert_eq!(c.rows.len(), 1);
            assert_eq!(c.rows[0].0, "petition_mean");
            assert!(c.rows[0].1.mean() > 0.0, "petition latency recorded");
        }
        assert_eq!(one.cells[0].cell.brokers, 2);
        assert_eq!(one.cells[1].cell.brokers, 4);
    }

    #[test]
    fn streaming_grid_runs_and_is_worker_invariant() {
        let mk = || {
            let mut s = streaming_grid(SeedScheme::Derived {
                campaign_seed: 5,
                replications: 1,
            });
            s.workload = CellWorkload::Streaming { viewers: 8 };
            s.axes = vec![
                Axis::Policies(vec![PiecePolicy::Sequential, PiecePolicy::Windowed]),
                Axis::Windows(vec![4]),
            ];
            s
        };
        let one = run_campaign(&mk(), 1).expect("valid grid");
        let four = run_campaign(&mk(), 4).expect("valid grid");
        assert_eq!(one.to_csv(), four.to_csv());
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.cells.len(), 2, "2 policies x 1 window x 1 upload");
        for c in &one.cells {
            let labels: Vec<&str> = c.rows.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, ["startup_p50", "rebuffer_secs"]);
            assert!(c.rows[0].1.mean() > 0.0, "playback started");
        }
        assert_eq!(one.cells[0].cell.piece_policy, PiecePolicy::Sequential);
        assert_eq!(one.cells[1].cell.piece_policy, PiecePolicy::Windowed);
        // The policy axis moves the figures: the two cells differ.
        assert_ne!(
            one.cells[0].rows[0].1.mean(),
            one.cells[1].rows[0].1.mean(),
            "startup medians differ across policies"
        );
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `(grid, FNV-1a of to_csv(), of to_json(), of render())` at the
    /// `psim sweep <grid> --quick --seed 1` settings, recorded on the
    /// ten-`Vec`-field `SweepSpec` with its hand-written `for` nest and
    /// format strings, before either became a list of axes and columns.
    const QUICK_CAMPAIGN_DIGESTS: [(&str, u64, u64, u64); 4] = [
        (
            "fig345",
            0x1f25bf328a9069dc,
            0x4a240828e18d655d,
            0xa62189f94d6fa0f3,
        ),
        (
            "fig67",
            0x2341f8eabdf0a04b,
            0x3e4a48f2d433500c,
            0xec3e9114e1e7b90b,
        ),
        (
            "federation",
            0x37a09f508e080a9c,
            0xcc32b3a4b5eaea3e,
            0x183722855303ed56,
        ),
        (
            "streaming",
            0x46e922f3bde7458d,
            0xaee74e5db4ccc810,
            0xe2f4bcd8296dfaec,
        ),
    ];

    #[test]
    fn quick_campaigns_render_the_recorded_bytes_at_any_worker_count() {
        assert_eq!(
            QUICK_CAMPAIGN_DIGESTS.map(|(name, ..)| name).to_vec(),
            named_grid_list()
        );
        for (name, csv, json, summary) in QUICK_CAMPAIGN_DIGESTS {
            for workers in [1, 4] {
                let spec = named_grid(name, 1, 2).expect("listed grid resolves");
                let campaign = run_campaign(&spec, workers).expect("valid grid");
                let rendered = [
                    fnv1a(&campaign.to_csv()),
                    fnv1a(&campaign.to_json()),
                    fnv1a(&campaign.render()),
                ];
                assert_eq!(
                    rendered,
                    [csv, json, summary],
                    "{name} at {workers} workers: got {rendered:#018x?}"
                );
            }
        }
    }

    #[test]
    fn named_grids_resolve_and_unknown_does_not() {
        for name in named_grid_list() {
            let spec = named_grid(name, 1, 2).expect("listed grid resolves");
            spec.validate().expect("listed grid is valid");
        }
        assert!(named_grid("fig999", 1, 2).is_none());
    }
}
