//! Figure 6: file transmission time under the three peer selection models
//! (economic scheduling, data evaluator in same-priority mode, user's
//! preference in quick-peer mode), at 4-part and 16-part granularity.
//!
//! Scenario design (the paper gives the models and the measured times but
//! not the workload details; this scenario realises the *mechanism* each
//! model's description implies):
//!
//! 1. **Warm-up** — a small file goes to every peer (throughput + petition
//!    EWMAs for all), and five rounds of small tasks populate the §2.2 task
//!    statistics; the well-connected peers decline offers more often
//!    (`WARMUP_TASK_ACCEPT`), so their task statistics look worse.
//! 2. **Background load** — a 25 MB transfer is started to the historically
//!    fastest peer (SC4 by calibration), creating a *current-state* backlog
//!    that history alone cannot see.
//! 3. **Measured transfer** — 10 MB to the peer each model selects.
//!
//! Observed behaviour, matching each model's §2 description: economic
//! avoids the backlog *and* knows wake-up history → picks a prompt, fast,
//! idle peer (SC6); the data evaluator sees the backlog in its queue
//! criteria but — weighing task-acceptance statistics that are irrelevant
//! to a transfer and being blind to responsiveness — lands on a sluggish,
//! willing peer (SC5, 5.19 s wake-ups); quick-peer returns to its stale
//! favourite (SC4) and queues behind the background transfer.

use overlay::selector::ModelKind;
use planetlab::calibration::{PAPER_FIG6_16PARTS_SECS, PAPER_FIG6_4PARTS_SECS};

use crate::report::{FigureReport, SeriesRow};
use crate::runner::{default_workers, SeriesAggregate};
use crate::scenario::SelectorFactory;
use crate::spec::{ExperimentSpec, MB, WARMUP};
use crate::sweep::{fig67_grid, run_campaign, SeedScheme};

/// Size of the measured transfer.
pub(crate) const MEASURED_SIZE: u64 = 10 * MB;
/// Size of the background transfer congesting the historically-fastest peer.
pub(crate) const BACKGROUND_SIZE: u64 = 25 * MB;
/// Per-SC task-acceptance during warm-up: the well-connected peers (SC2,
/// SC4, SC6, SC8) are popular and decline task offers more often, so their
/// §2.2 task statistics look worse than the sluggish-but-willing peers'.
/// This is the information asymmetry that separates the data evaluator
/// (which weighs those statistics) from the economic model (which, for a
/// pure file transfer, cares only about predicted completion).
pub(crate) const WARMUP_TASK_ACCEPT: [f64; 8] = [1.0, 0.7, 1.0, 0.7, 1.0, 0.7, 1.0, 0.7];
/// Node id of the historically-fastest peer (SC4; broker=0, SC1=1, …).
const FASTEST_PEER_NODE: u32 = 4;
/// Granularities compared, as in the paper.
pub(crate) const GRANULARITIES: [u32; 2] = [4, 16];

/// The models compared (paper's three plus a random baseline), in report
/// order. The single source for `model_names` and the fig67 sweep grid.
pub(crate) const MODELS: [ModelKind; 4] = [
    ModelKind::Economic,
    ModelKind::SamePriority,
    ModelKind::QuickPeer,
    ModelKind::Random,
];

/// The node the background transfer congests (the historically-fastest
/// peer, SC4), for sweep cells that replicate this experiment's shape.
pub(crate) fn fastest_peer_node() -> netsim::node::NodeId {
    netsim::node::NodeId(FASTEST_PEER_NODE)
}

/// The models compared (paper's three plus a blind baseline).
pub(crate) fn model_names() -> Vec<String> {
    MODELS.iter().map(|m| m.name().to_string()).collect()
}

/// Seed salt mixed into this experiment's stochastic selectors, keeping
/// its historical random streams disjoint from the other drivers'.
const SEED_SALT: u64 = 0xF166;

/// Builds the selector factory implementing `kind`, or `None` for
/// [`ModelKind::Blind`] (blind mode installs no selector at all).
pub(crate) fn factory_for_kind(kind: ModelKind) -> Option<SelectorFactory> {
    peer_selection::service::factory_for(kind, SEED_SALT)
}

/// Typed result.
pub(crate) struct Fig6Result {
    /// Model names, report order.
    pub(crate) models: Vec<String>,
    /// Measured transfer seconds: `[granularity][model]` aggregate.
    pub(crate) seconds: Vec<SeriesAggregate>,
    /// Which peers each model chose, `[granularity][model]` → names seen.
    pub(crate) chosen: Vec<Vec<Vec<String>>>,
}

/// Runs the experiment as a fig67 sweep campaign with the spec's explicit
/// seed list: each (model, granularity) grid cell replays exactly the seeds
/// the classic harness used, so the statistics are unchanged — the sweep
/// driver only changes who schedules the work.
pub(crate) fn run_experiment(spec: &ExperimentSpec) -> Fig6Result {
    let grid = fig67_grid(SeedScheme::Explicit(spec.seeds.clone()), WARMUP);
    let campaign = run_campaign(&grid, default_workers()).expect("built-in fig67 grid is valid");
    let mut seconds = Vec::new();
    let mut chosen = Vec::new();
    for &parts in &GRANULARITIES {
        let mut stats = Vec::with_capacity(MODELS.len());
        let mut chosen_g = Vec::with_capacity(MODELS.len());
        for &model in &MODELS {
            let cell = campaign
                .cells
                .iter()
                .find(|c| c.cell.model == model && c.cell.parts == parts)
                .expect("the fig67 grid has a cell per (model, granularity)");
            let (_, stat) = cell
                .rows
                .first()
                .expect("selected-transfer cells have one row");
            stats.push(stat.clone());
            chosen_g.push(cell.chosen.clone());
        }
        seconds.push(SeriesAggregate { stats });
        chosen.push(chosen_g);
    }
    Fig6Result {
        models: model_names(),
        seconds,
        chosen,
    }
}

/// Runs the experiment and builds the report.
pub fn run(spec: &ExperimentSpec) -> FigureReport {
    report(&run_experiment(spec))
}

/// Builds the Fig 6 report from a typed result.
pub(crate) fn report(result: &Fig6Result) -> FigureReport {
    let mut f = FigureReport::new(
        "Figure 6",
        "File transmission time by peer selection model",
        "seconds",
        result.models.clone(),
    );
    // Paper rows cover only the three models; pad the baseline with NaN.
    let mut paper4 = PAPER_FIG6_4PARTS_SECS.to_vec();
    let mut paper16 = PAPER_FIG6_16PARTS_SECS.to_vec();
    while paper4.len() < result.models.len() {
        paper4.push(f64::NAN);
        paper16.push(f64::NAN);
    }
    f.push(SeriesRow::new("paper, 4 parts", paper4));
    f.push(SeriesRow::new("paper, 16 parts", paper16));
    for (gi, parts) in GRANULARITIES.iter().enumerate() {
        f.push(SeriesRow::with_sd(
            format!("measured, {parts} parts"),
            result.seconds[gi].means(),
            result.seconds[gi].std_devs(),
        ));
    }
    for (parts, chosen_g) in GRANULARITIES.iter().zip(&result.chosen) {
        let picks: Vec<String> = result
            .models
            .iter()
            .zip(chosen_g)
            .map(|(m, names)| format!("{m}→{}", names.join("/")))
            .collect();
        f.note(format!("{parts}-part picks: {}", picks.join(", ")));
    }
    f.note(
        "absolute scale differs from the paper (units unrecoverable from the \
         publication); the reproduced shape is the model ordering",
    );
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostname of the historically-fastest peer (SC4, node
    /// [`FASTEST_PEER_NODE`]).
    const FASTEST_PEER: &str = "planetlab1.csg.unizh.ch";

    fn result() -> &'static Fig6Result {
        use std::sync::OnceLock;
        static R: OnceLock<Fig6Result> = OnceLock::new();
        R.get_or_init(|| run_experiment(&ExperimentSpec::quick()))
    }

    #[test]
    fn ordering_matches_paper_at_4_parts() {
        let r = result();
        let means = r.seconds[0].means(); // 4 parts
        let (econ, same, quick) = (means[0], means[1], means[2]);
        assert!(
            econ < same,
            "economic {econ} should beat same-priority {same}"
        );
        assert!(
            same < quick,
            "same-priority {same} should beat quick-peer {quick}"
        );
    }

    #[test]
    fn models_beat_random_baseline() {
        // Random can luck into the same peer as economic in a given seed,
        // so the baseline claim is "economic is never worse".
        let r = result();
        for (parts, agg) in GRANULARITIES.iter().zip(&r.seconds) {
            let means = agg.means();
            let random = means[3];
            assert!(
                means[0] <= random * 1.001,
                "economic must not lose to random at {parts} parts ({} vs {random})",
                means[0]
            );
            assert!(
                means[2] > random || means[1] > means[0],
                "selection effects should be visible"
            );
        }
    }

    #[test]
    fn models_pick_the_expected_peers() {
        let r = result();
        // Economic avoids the backlogged SC2 and the sluggish peers.
        for names in &r.chosen[0][0] {
            assert_ne!(
                names, FASTEST_PEER,
                "economic must avoid the backlogged peer"
            );
            assert_ne!(names, "planetlab1.itwm.fhg.de", "economic must avoid SC7");
        }
        // Quick-peer goes to its stale favourite SC2.
        for names in &r.chosen[0][2] {
            assert_eq!(names, FASTEST_PEER, "quick-peer picks its stale favourite");
        }
    }

    #[test]
    fn quick_over_economic_ratio_grows_under_a_fifth_at_16_parts() {
        let r = result();
        let m4 = r.seconds[0].means();
        let m16 = r.seconds[1].means();
        let gap4 = m4[2] / m4[0]; // quick / economic at 4 parts
        let gap16 = m16[2] / m16[0];
        assert!(
            gap16 < gap4 * 1.2,
            "relative gap should not widen: 4-part {gap4}, 16-part {gap16}"
        );
    }

    /// The stated deviation from the paper, whose 16-part times are at
    /// most its 4-part ones: here 16 stop-and-wait parts pay 12 more part
    /// round trips than 4, and no part nears the large-message penalty, so
    /// every model's measured transfer is slower at 16 parts.
    #[test]
    fn every_model_is_slower_at_16_parts_than_at_4() {
        let r = result();
        let (m4, m16) = (r.seconds[0].means(), r.seconds[1].means());
        // The three paper models; the random baseline is too noisy to pin.
        for (i, model) in MODELS[..3].iter().enumerate() {
            assert!(
                m16[i] > m4[i],
                "{}: 16 parts {} s against 4 parts {} s",
                model.name(),
                m16[i],
                m4[i]
            );
        }
    }

    #[test]
    fn report_renders() {
        let s = report(result()).render();
        assert!(s.contains("Figure 6"));
        assert!(s.contains("economic"));
        assert!(s.contains("paper, 4 parts"));
        assert!(s.contains("picks:"));
    }
}
