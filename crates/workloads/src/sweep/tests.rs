//! Unit tests of the sweep spec, its expansion and the campaign driver
//! (the named grids test themselves in `grids.rs`).

use super::grids::{federation_grid, streaming_grid};
use super::*;
use crate::spec::MB;

fn tiny_grid(seeds: SeedScheme) -> SweepSpec {
    SweepSpec {
        name: "tiny".into(),
        workload: CellWorkload::Distribute { size_bytes: 4 * MB },
        axes: vec![Axis::Parts(vec![1, 4])],
        seeds,
        warmup: SimDuration::from_secs(60),
    }
}

fn one_rep() -> SeedScheme {
    SeedScheme::Derived {
        campaign_seed: 1,
        replications: 1,
    }
}

#[test]
fn derive_seed_is_stable_and_spread() {
    // Golden values: the derivation chain is part of the output format.
    assert_eq!(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
    let mut seen = std::collections::BTreeSet::new();
    for cell in 0..8u64 {
        for rep in 0..8u64 {
            assert!(seen.insert(derive_seed(42, cell, rep)), "seed collision");
        }
    }
    // Different campaign seeds diverge everywhere.
    assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
    assert_ne!(derive_seed(1, 1, 0), derive_seed(1, 0, 1));
}

#[test]
fn expansion_order_is_stable_with_parts_fastest() {
    let spec = SweepSpec {
        axes: vec![Axis::Parts(vec![1, 4, 16]), Axis::Drop(vec![0.0, 0.05])],
        ..tiny_grid(one_rep())
    };
    let cells = spec.expand().expect("valid");
    assert_eq!(cells.len(), 6);
    let keys: Vec<(f64, u32)> = cells
        .iter()
        .map(|c| (c.drop_probability, c.parts))
        .collect();
    assert_eq!(
        keys,
        vec![
            (0.0, 1),
            (0.0, 4),
            (0.0, 16),
            (0.05, 1),
            (0.05, 4),
            (0.05, 16)
        ]
    );
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(c.index, i);
    }
}

#[test]
fn listing_order_does_not_move_a_cell() {
    let listed = |axes: Vec<Axis>| {
        let mut spec = streaming_grid(one_rep());
        spec.axes = axes;
        spec.expand().expect("valid")
    };
    let policies = Axis::Policies(PiecePolicy::ALL.to_vec());
    let windows = Axis::Windows(vec![2, 8]);
    let uploads = Axis::Uploads(vec![UploadProfile::Home, UploadProfile::Campus]);
    let canonical = listed(vec![policies.clone(), windows.clone(), uploads.clone()]);
    assert_eq!(canonical, listed(vec![uploads, policies, windows]));
    // Upload varies fastest of the three, policy slowest.
    assert_ne!(canonical[0].upload, canonical[1].upload);
    assert_eq!(canonical[0].piece_policy, canonical[3].piece_policy);
    // An unlisted axis sits at its neutral level and moves no index.
    assert_eq!(
        canonical,
        streaming_grid(one_rep()).expand().expect("valid")
    );
    assert!(canonical.iter().all(|c| c.parts == 1 && c.brokers == 1));
}

#[test]
fn validation_rejects_bad_specs() {
    use SweepError::{DuplicateAxis, EmptyAxis, UnreadAxis};
    let explicit = || SeedScheme::Explicit(vec![1]);
    let bad_level = |axis, level: &str| SweepError::BadLevel {
        axis,
        level: level.into(),
    };
    let unread_models = |workload| UnreadAxis {
        axis: "models",
        workload,
    };
    let economic = || Axis::Models(vec![ModelKind::Economic]);
    let cases = [
        (
            tiny_grid(explicit()),
            vec![Axis::Parts(Vec::new())],
            EmptyAxis("parts"),
        ),
        (
            tiny_grid(explicit()),
            vec![Axis::Parts(vec![0])],
            bad_level("parts", "0"),
        ),
        (
            tiny_grid(explicit()),
            vec![Axis::Drop(vec![0.0, f64::NAN])],
            bad_level("drop", "NaN"),
        ),
        (
            tiny_grid(explicit()),
            vec![Axis::Parts(vec![1]), Axis::Parts(vec![4])],
            DuplicateAxis("parts"),
        ),
        (
            federation_grid(explicit()),
            vec![Axis::Brokers(vec![0])],
            bad_level("brokers", "0"),
        ),
        (
            federation_grid(explicit()),
            vec![Axis::Staleness(vec![-1.0])],
            bad_level("staleness", "-1"),
        ),
        (
            federation_grid(explicit()),
            vec![Axis::Staleness(vec![f64::INFINITY])],
            bad_level("staleness", "inf"),
        ),
        (
            streaming_grid(explicit()),
            vec![Axis::Windows(vec![0])],
            bad_level("windows", "0"),
        ),
        (
            streaming_grid(explicit()),
            vec![Axis::Policies(Vec::new())],
            EmptyAxis("policies"),
        ),
        (
            streaming_grid(explicit()),
            vec![Axis::Uploads(Vec::new())],
            EmptyAxis("uploads"),
        ),
        // A model only means something to a workload that selects.
        (
            federation_grid(explicit()),
            vec![economic()],
            unread_models("federation"),
        ),
        (
            tiny_grid(explicit()),
            vec![economic()],
            unread_models("distribute"),
        ),
    ];
    for (mut spec, axes, want) in cases {
        spec.axes = axes;
        assert_eq!(spec.validate(), Err(want), "{:?}", spec.axes);
    }
    assert_eq!(
        tiny_grid(SeedScheme::Explicit(Vec::new())).validate(),
        Err(SweepError::NoReplications)
    );
    // Which model a selecting cell can take is the cell's to say.
    let mut s = fig67_grid(explicit(), SimDuration::from_secs(60));
    s.axes[0] = Axis::Models(vec![ModelKind::Economic, ModelKind::Blind]);
    let blind = ModelKind::Blind;
    assert!(matches!(
        run_campaign(&s, 1),
        Err(SweepError::ModelWorkloadMismatch { model, .. }) if model == blind
    ));
}

/// At the parent commit the equivalent spec ran, and printed each
/// federation cell twice — once as `drop` 0, once as 0.5 — with the
/// same latency.
#[test]
fn an_axis_the_workload_does_not_read_is_refused() {
    let mut spec = federation_grid(SeedScheme::Explicit(vec![1]));
    spec.axes.push(Axis::Drop(vec![0.0, 0.5]));
    let err = run_campaign(&spec, 1).err().expect("drop is not read");
    assert_eq!(
        err,
        SweepError::UnreadAxis {
            axis: "drop",
            workload: "federation"
        }
    );
    let message = err.to_string();
    assert!(message.contains("drop") && message.contains("federation"));
}

/// A cadence that rounds to zero virtual time passes the axis check
/// and is refused by `Federation::new`, before any pool thread starts.
#[test]
fn a_cell_the_harness_refuses_is_an_error_before_the_pool() {
    use overlay::federation::FederationError;
    for workers in [1, 4] {
        let mut spec = federation_grid(SeedScheme::Explicit(vec![1]));
        spec.axes[1] = Axis::Staleness(vec![30.0, 1e-10]);
        assert_eq!(
            run_campaign(&spec, workers).err(),
            Some(SweepError::Harness(HarnessError::Federation(
                FederationError::NonPositiveGossip
            ))),
            "{workers} workers"
        );
    }
}

/// A finite drop level above 1 passes the axis check and is refused by
/// the scenario's own rule, through the same `Harness::check` as a
/// federation cell, before any replication runs.
#[test]
fn a_scenario_cell_the_harness_refuses_is_an_error_before_the_pool() {
    use crate::scenario::ScenarioError;
    let spec = SweepSpec {
        axes: vec![Axis::Drop(vec![0.0, 1.5])],
        ..tiny_grid(one_rep())
    };
    let err = run_campaign(&spec, 2)
        .err()
        .expect("a drop of 1.5 is refused");
    assert_eq!(
        err,
        SweepError::Harness(HarnessError::Scenario(
            ScenarioError::ProbabilityOutOfRange {
                what: "transport.message_drop_probability".into(),
                value: 1.5
            }
        ))
    );
    assert!(err.to_string().contains("probability 1.5 outside [0, 1]"));
}

#[test]
fn campaign_output_is_worker_count_invariant() {
    let mk = || {
        tiny_grid(SeedScheme::Derived {
            campaign_seed: 7,
            replications: 2,
        })
    };
    let one = run_campaign(&mk(), 1).expect("valid grid");
    let four = run_campaign(&mk(), 4).expect("valid grid");
    assert_eq!(one.to_csv(), four.to_csv());
    assert_eq!(one.to_json(), four.to_json());
    assert_eq!(
        one.merged_metrics().render(),
        four.merged_metrics().render()
    );
}

#[test]
fn merged_metrics_are_tagged_per_cell() {
    let spec = tiny_grid(SeedScheme::Derived {
        campaign_seed: 3,
        replications: 1,
    });
    let campaign = run_campaign(&spec, 2).expect("valid grid");
    let merged = campaign.merged_metrics();
    assert!(merged.counter("cell0.overlay.transfers_completed") > 0);
    assert!(merged.counter("cell1.overlay.transfers_completed") > 0);
    assert_eq!(merged.counter("overlay.transfers_completed"), 0);
}

#[test]
fn explicit_seeds_reuse_the_same_list_per_cell() {
    let spec = tiny_grid(SeedScheme::Explicit(vec![11, 22]));
    assert_eq!(spec.seed_for(0, 1), 22);
    assert_eq!(spec.seed_for(5, 1), 22);
    let derived = tiny_grid(SeedScheme::Derived {
        campaign_seed: 9,
        replications: 2,
    });
    assert_ne!(derived.seed_for(0, 1), derived.seed_for(5, 1));
}
