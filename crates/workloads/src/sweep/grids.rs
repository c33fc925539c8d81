//! The named sweep grids: each paper-facing campaign as a [`SweepSpec`].
//!
//! Split out of `sweep` so the axis/expansion/rendering machinery and the
//! concrete grid catalog stay separately auditable. `psim sweep` resolves
//! names through [`named_grid`]; [`named_grid_list`] is the help text.

use netsim::time::SimDuration;

use super::{
    CellWorkload, ModelKind, SeedScheme, SweepSpec, TestbedAxis, ACCEPT_ALL, FIG6_WARMUP_ACCEPT,
};
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
        models: vec![ModelKind::Blind],
        parts: fig5::GRANULARITIES.to_vec(),
        drop_probabilities: vec![0.0],
        testbeds: vec![TestbedAxis::Measurement],
        accept_profiles: vec![ACCEPT_ALL],
        brokers: vec![1],
        gossip_staleness: vec![0.0],
        piece_policies: vec![PiecePolicy::Sequential],
        windows: vec![1],
        uploads: vec![UploadProfile::Home],
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
        models: fig6::MODELS.to_vec(),
        parts: fig6::GRANULARITIES.to_vec(),
        drop_probabilities: vec![0.0],
        testbeds: vec![TestbedAxis::Measurement],
        accept_profiles: vec![FIG6_WARMUP_ACCEPT],
        brokers: vec![1],
        gossip_staleness: vec![0.0],
        piece_policies: vec![PiecePolicy::Sequential],
        windows: vec![1],
        uploads: vec![UploadProfile::Home],
        seeds,
        warmup,
    }
}

/// The federation grid: mean petition latency across broker count × the
/// gossip/staleness cadence as a sweep campaign, so replications and
/// CSV/JSON rendering come for free.
pub fn federation_grid(seeds: SeedScheme) -> SweepSpec {
    SweepSpec {
        name: "federation".into(),
        workload: CellWorkload::Federation { peers: 64 },
        models: vec![ModelKind::Blind],
        parts: vec![4],
        drop_probabilities: vec![0.0],
        testbeds: vec![TestbedAxis::Measurement],
        accept_profiles: vec![ACCEPT_ALL],
        brokers: vec![2, 4],
        gossip_staleness: vec![30.0, 240.0],
        piece_policies: vec![PiecePolicy::Sequential],
        windows: vec![1],
        uploads: vec![UploadProfile::Home],
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
        models: vec![ModelKind::Blind],
        parts: vec![1],
        drop_probabilities: vec![0.0],
        testbeds: vec![TestbedAxis::Measurement],
        accept_profiles: vec![ACCEPT_ALL],
        brokers: vec![1],
        gossip_staleness: vec![0.0],
        piece_policies: PiecePolicy::ALL.to_vec(),
        windows: vec![2, 8],
        uploads: vec![UploadProfile::Home, UploadProfile::Campus],
        seeds,
        warmup: SimDuration::ZERO,
    }
}

/// The grid names `psim sweep` accepts.
pub fn named_grid_list() -> Vec<&'static str> {
    vec!["fig345", "fig67", "federation", "streaming"]
}

/// Resolves a named grid with a derived seed scheme. `None` for unknown
/// names; see [`named_grid_list`].
pub fn named_grid(name: &str, campaign_seed: u64, replications: usize) -> Option<SweepSpec> {
    let seeds = SeedScheme::Derived {
        campaign_seed,
        replications,
    };
    let warmup = ExperimentSpec::paper_defaults().warmup;
    match name {
        "fig345" => Some(fig345_grid(seeds, warmup)),
        "fig67" => Some(fig67_grid(seeds, warmup)),
        "federation" => Some(federation_grid(seeds)),
        "streaming" => Some(streaming_grid(seeds)),
        _ => None,
    }
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
            s.gossip_staleness = vec![240.0];
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
            s.piece_policies = vec![PiecePolicy::Sequential, PiecePolicy::Windowed];
            s.windows = vec![4];
            s.uploads = vec![UploadProfile::Home];
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

    #[test]
    fn named_grids_resolve_and_unknown_does_not() {
        for name in named_grid_list() {
            let spec = named_grid(name, 1, 2).expect("listed grid resolves");
            spec.validate().expect("listed grid is valid");
        }
        assert!(named_grid("fig999", 1, 2).is_none());
    }
}
