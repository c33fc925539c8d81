//! Figure 5: transmission time of a 100 Mb file sent whole vs divided into
//! 4 and 16 parts, per SC peer.
//!
//! The paper's finding: "the transmission time of the file as a whole it's
//! not worth!" — whole-file transfer collapses (JXTA pipes buffer entire
//! messages), while 16 × 6.25 Mb parts average ≈1.7 minutes.

use planetlab::calibration::PAPER_FIG5_16PARTS_AVG_MIN;

use crate::experiments::sc_labels;
use crate::report::{FigureReport, SeriesRow};
use crate::runner::{default_workers, SeriesAggregate};
use crate::spec::{ExperimentSpec, MB};
use crate::sweep::{fig345_grid, run_campaign, SeedScheme};

/// The file size of the experiment.
pub const FILE_SIZE: u64 = 100 * MB;
/// The granularities compared: whole, 4 parts, 16 parts.
pub const GRANULARITIES: [u32; 3] = [1, 4, 16];

/// Typed result: per-granularity, per-SC minutes.
pub struct Fig5Result {
    /// One aggregate per granularity, ordered like [`GRANULARITIES`].
    pub per_granularity: Vec<SeriesAggregate>,
}

impl Fig5Result {
    /// Mean across SCs for granularity index `g`.
    pub fn average_minutes(&self, g: usize) -> f64 {
        let means = self.per_granularity[g].means();
        means.iter().sum::<f64>() / means.len() as f64
    }
}

/// Runs the experiment as a fig345 sweep campaign with the spec's explicit
/// seed list: one grid cell per granularity, each replaying exactly the
/// seeds the classic harness used, so the statistics are unchanged.
pub fn run_experiment(spec: &ExperimentSpec) -> Fig5Result {
    let grid = fig345_grid(SeedScheme::Explicit(spec.seeds.clone()), spec.warmup);
    let campaign = run_campaign(&grid, default_workers()).expect("built-in fig345 grid is valid");
    let per_granularity = GRANULARITIES
        .iter()
        .map(|&parts| {
            let cell = campaign
                .cells
                .iter()
                .find(|c| c.cell.parts == parts)
                .expect("the fig345 grid has a cell per granularity");
            SeriesAggregate {
                stats: cell.rows.iter().map(|(_, stat)| stat.clone()).collect(),
            }
        })
        .collect();
    Fig5Result { per_granularity }
}

/// Runs the experiment and builds the report.
pub fn run(spec: &ExperimentSpec) -> FigureReport {
    report(&run_experiment(spec))
}

/// Builds the Fig 5 report from a typed result.
pub fn report(result: &Fig5Result) -> FigureReport {
    let mut f = FigureReport::new(
        "Figure 5",
        "File transmission time, 100 Mb whole vs 4 vs 16 parts",
        "minutes",
        sc_labels(),
    );
    let names = ["complete file", "4 parts", "16 parts"];
    for (i, name) in names.iter().enumerate() {
        f.push(SeriesRow::with_sd(
            *name,
            result.per_granularity[i].means(),
            result.per_granularity[i].std_devs(),
        ));
    }
    f.note(format!(
        "16-part average across peers: {:.2} min (paper: {:.1} min)",
        result.average_minutes(2),
        PAPER_FIG5_16PARTS_AVG_MIN
    ));
    let sixteen = result.per_granularity[2].means();
    let healthy: Vec<f64> = sixteen
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 6)
        .map(|(_, &v)| v)
        .collect();
    f.note(format!(
        "16-part average excluding the SC7 outlier: {:.2} min",
        healthy.iter().sum::<f64>() / healthy.len() as f64
    ));
    f.note(format!(
        "whole-file average: {:.1} min — 'not worth it', as the paper puts it",
        result.average_minutes(0)
    ));
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static Fig5Result {
        use std::sync::OnceLock;
        static R: OnceLock<Fig5Result> = OnceLock::new();
        R.get_or_init(|| run_experiment(&ExperimentSpec::quick()))
    }

    #[test]
    fn whole_file_is_much_slower_than_16_parts() {
        let r = result();
        let whole = r.average_minutes(0);
        let sixteen = r.average_minutes(2);
        assert!(
            whole > 5.0 * sixteen,
            "whole {whole} min vs 16-part {sixteen} min"
        );
    }

    #[test]
    fn granularity_ordering_holds_per_peer() {
        let r = result();
        let whole = r.per_granularity[0].means();
        let four = r.per_granularity[1].means();
        let sixteen = r.per_granularity[2].means();
        for i in 0..8 {
            assert!(
                whole[i] > four[i],
                "SC{}: whole {} !> 4-part {}",
                i + 1,
                whole[i],
                four[i]
            );
            assert!(
                four[i] > sixteen[i],
                "SC{}: 4-part {} !> 16-part {}",
                i + 1,
                four[i],
                sixteen[i]
            );
        }
    }

    #[test]
    fn sixteen_part_average_near_paper() {
        let r = result();
        let avg = r.average_minutes(2);
        // Paper: 1.7 min. Allow a generous band — SC7 drags the mean up.
        assert!((1.0..4.0).contains(&avg), "16-part avg {avg} min");
    }

    #[test]
    fn report_renders_with_notes() {
        let rep = report(result());
        let s = rep.render();
        assert!(s.contains("Figure 5"));
        assert!(s.contains("complete file"));
        assert!(s.contains("16-part average"));
    }
}
