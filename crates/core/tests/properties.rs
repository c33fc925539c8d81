//! Property-based tests for the selection models' invariants.

use netsim::node::NodeId;
use netsim::time::SimTime;
use overlay::id::{IdGenerator, PeerId};
use overlay::selector::{
    CandidateView, InteractionHistory, PeerSelector, Purpose, SelectionRequest,
};
use overlay::stats::StatsSnapshot;
use peer_selection::economic::EconomicModel;
use peer_selection::evaluator::{DataEvaluatorModel, WeightProfile};
use peer_selection::model::{min_max_normalize, Scored, ScoringModel};
use peer_selection::preference::UserPreferenceModel;
use proptest::prelude::*;

/// Arbitrary-ish candidate from a tuple of knobs.
#[allow(clippy::too_many_arguments)]
fn candidate(
    i: usize,
    cpu: f64,
    msg_pct: Option<f64>,
    outbox: f64,
    pending: f64,
    thr: Option<f64>,
    wake: Option<f64>,
    queued: u64,
) -> CandidateView {
    let mut g = IdGenerator::new(1000 + i as u64);
    let mut snapshot = StatsSnapshot::empty(cpu);
    snapshot.msg_success_total = msg_pct;
    snapshot.outbox_now = outbox;
    snapshot.pending_transfers = pending;
    let mut history = InteractionHistory::empty();
    if let Some(t) = thr {
        history.observe_throughput(t, 1.0);
    }
    if let Some(w) = wake {
        history.observe_petition(w, 1.0);
    }
    history.queued_bytes = queued;
    CandidateView {
        peer: PeerId::generate(&mut g),
        node: NodeId(i as u32),
        name: format!("peer{i}").into(),
        cpu_gops: cpu,
        snapshot,
        history,
    }
}

prop_compose! {
    fn arb_candidate(i: usize)(
        cpu in 0.1f64..4.0,
        msg in prop::option::of(0.0f64..100.0),
        outbox in 0.0f64..20.0,
        pending in 0.0f64..5.0,
        thr in prop::option::of(10_000.0f64..5e6),
        wake in prop::option::of(0.01f64..30.0),
        queued in 0u64..100_000_000,
    ) -> CandidateView {
        candidate(i, cpu, msg, outbox, pending, thr, wake, queued)
    }
}

fn arb_candidates(n: usize) -> impl Strategy<Value = Vec<CandidateView>> {
    (0..n).map(arb_candidate).collect::<Vec<_>>()
}

proptest! {
    /// The evaluator's scores are always within [0, 1] and finite.
    #[test]
    fn evaluator_scores_bounded(cands in arb_candidates(6), bytes in 1u64..100_000_000) {
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes },
            candidates: &cands,
        };
        let scores = DataEvaluatorModel::same_priority().scores(&req);
        prop_assert_eq!(scores.len(), cands.len());
        for s in scores {
            prop_assert!(s.is_finite());
            prop_assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    /// Scaling all weights by a positive constant never changes the scores.
    #[test]
    fn evaluator_invariant_under_weight_scaling(
        cands in arb_candidates(4),
        scale in 0.001f64..1000.0,
    ) {
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 << 20 },
            candidates: &cands,
        };
        let base = WeightProfile::same_priority();
        let mut scaled = WeightProfile::empty();
        for &(c, w) in base.weights() {
            scaled = scaled.with(c, w * scale);
        }
        let s1 = DataEvaluatorModel::with_profile("a", base).scores(&req);
        let s2 = DataEvaluatorModel::with_profile("b", scaled).scores(&req);
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Economic cost (the negated score) is monotone in transfer size for
    /// every candidate.
    #[test]
    fn economic_cost_monotone_in_bytes(
        cands in arb_candidates(4),
        b1 in 1u64..100_000_000,
        b2 in 1u64..100_000_000,
    ) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let mut model = EconomicModel::new();
        let mut scores = |bytes| {
            model.scores(&SelectionRequest {
                now: SimTime::ZERO,
                purpose: Purpose::FileTransfer { bytes },
                candidates: &cands,
            })
        };
        let (rl, rh) = (scores(lo), scores(hi));
        for i in 0..cands.len() {
            prop_assert!(-rl[i] <= -rh[i] + 1e-9);
        }
    }

    /// Every scored model picks a valid index (or None only when the
    /// candidate set is empty).
    #[test]
    fn selectors_pick_valid_indices(cands in arb_candidates(5), bytes in 1u64..50_000_000) {
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes },
            candidates: &cands,
        };
        let mut models: Vec<Box<dyn PeerSelector>> = vec![
            Box::new(Scored::new(EconomicModel::new())),
            Box::new(Scored::new(DataEvaluatorModel::same_priority())),
            Box::new(Scored::new(UserPreferenceModel::quick_peer())),
        ];
        for m in &mut models {
            let pick = m.select(&req);
            prop_assert!(pick.is_some(), "{} refused a non-empty set", m.name());
            prop_assert!(pick.unwrap() < cands.len());
        }
        let empty = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes },
            candidates: &Vec::new(),
        };
        for m in &mut models {
            prop_assert_eq!(m.select(&empty), None);
        }
    }

    /// Selection is deterministic: the same request yields the same pick.
    #[test]
    fn selection_is_deterministic(cands in arb_candidates(6)) {
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 << 20 },
            candidates: &cands,
        };
        let mut a = Scored::new(EconomicModel::new());
        let mut b = Scored::new(EconomicModel::new());
        prop_assert_eq!(a.select(&req), b.select(&req));
    }

    /// min-max normalization maps into [0, 1] and preserves order.
    #[test]
    fn normalize_preserves_order(mut values in prop::collection::vec(-1e9f64..1e9, 2..50)) {
        let original = values.clone();
        min_max_normalize(&mut values);
        for v in &values {
            prop_assert!((0.0..=1.0).contains(v));
        }
        for i in 0..original.len() {
            for j in 0..original.len() {
                if original[i] < original[j] {
                    prop_assert!(values[i] <= values[j]);
                }
            }
        }
    }

    /// Quick-peer is invariant to current-state fields: zeroing queues and
    /// reservations never changes its choice.
    #[test]
    fn quick_peer_ignores_live_state(cands in arb_candidates(5)) {
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 << 20 },
            candidates: &cands,
        };
        let mut m = Scored::new(UserPreferenceModel::quick_peer());
        let before = m.select(&req);
        let mut stripped = cands.clone();
        for c in &mut stripped {
            c.history.queued_bytes = 0;
            c.history.busy_until = SimTime::ZERO;
            c.snapshot.outbox_now = 0.0;
            c.snapshot.inbox_now = 0.0;
            c.snapshot.pending_transfers = 0.0;
        }
        let req2 = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 << 20 },
            candidates: &stripped,
        };
        prop_assert_eq!(m.select(&req2), before);
    }
}
