//! Composite selection: weighted blending of scoring models.
//!
//! An extension beyond the paper's three models: each sub-model scores the
//! candidate set, each score vector is min-max normalized (so models with
//! different units — negative seconds, `[0,1]` goodness, raw bytes/s — blend
//! fairly), and the weighted sum decides. A hybrid of the economic and
//! data-evaluator models, for example, weighs both live readiness and
//! long-term reliability.

use overlay::selector::{SelectionOutcome, SelectionRequest};

use crate::model::{min_max_normalize, ScoringModel};

/// Weighted combination of scoring models.
pub struct CompositeModel {
    parts: Vec<(Box<dyn ScoringModel>, f64)>,
    name: String,
}

impl CompositeModel {
    /// Creates an empty composite (add parts with [`CompositeModel::plus`]).
    pub fn new(name: impl Into<String>) -> Self {
        CompositeModel {
            parts: Vec::new(),
            name: name.into(),
        }
    }

    /// Adds a sub-model with the given blend weight.
    pub fn plus(mut self, model: Box<dyn ScoringModel>, weight: f64) -> Self {
        if weight > 0.0 {
            self.parts.push((model, weight));
        }
        self
    }

    /// Number of active sub-models.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no sub-models are installed.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl ScoringModel for CompositeModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn scores(&mut self, req: &SelectionRequest<'_>) -> Vec<f64> {
        let n = req.candidates.len();
        let total: f64 = self.parts.iter().map(|(_, w)| w).sum();
        let mut blended = vec![0.0; n];
        if total <= 0.0 {
            return blended;
        }
        for (model, weight) in &mut self.parts {
            let mut scores = model.scores(req);
            scores.resize(n, f64::NAN);
            min_max_normalize(&mut scores);
            for (acc, s) in blended.iter_mut().zip(scores) {
                // NaN (ineligible in a sub-model) contributes the worst value.
                *acc += *weight / total * if s.is_nan() { 0.0 } else { s };
            }
        }
        blended
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        for (model, _) in &mut self.parts {
            model.on_outcome(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economic::EconomicModel;
    use crate::evaluator::DataEvaluatorModel;
    use crate::model::Scored;
    use netsim::node::NodeId;
    use netsim::time::SimTime;
    use overlay::id::{IdGenerator, PeerId};
    use overlay::selector::{CandidateView, InteractionHistory, PeerSelector, Purpose, Roster};
    use overlay::stats::StatsSnapshot;

    struct Fixed(&'static str, Vec<f64>);
    impl ScoringModel for Fixed {
        fn name(&self) -> &str {
            self.0
        }
        fn scores(&mut self, _req: &SelectionRequest<'_>) -> Vec<f64> {
            self.1.clone()
        }
    }

    fn candidates(n: usize) -> Vec<CandidateView> {
        let mut g = IdGenerator::new(9);
        (0..n)
            .map(|i| CandidateView {
                peer: PeerId::generate(&mut g),
                node: NodeId(i as u32),
                name: format!("n{i}").into(),
                cpu_gops: 1.0,
                snapshot: StatsSnapshot::empty(1.0),
                history: InteractionHistory::empty(),
            })
            .collect()
    }

    fn req(c: &dyn Roster) -> SelectionRequest<'_> {
        SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 << 20 },
            candidates: c,
        }
    }

    #[test]
    fn single_part_composite_equals_part() {
        let c = candidates(3);
        let mut composite =
            CompositeModel::new("solo").plus(Box::new(Fixed("a", vec![0.2, 0.9, 0.4])), 1.0);
        let scores = composite.scores(&req(&c));
        // Normalized ordering preserved.
        assert!(scores[1] > scores[2] && scores[2] > scores[0]);
    }

    #[test]
    fn weights_tilt_the_blend() {
        let c = candidates(2);
        // Model A prefers 0; model B prefers 1.
        let a = Fixed("a", vec![1.0, 0.0]);
        let b = Fixed("b", vec![0.0, 1.0]);
        let mut tilted_a = CompositeModel::new("ta")
            .plus(Box::new(a), 3.0)
            .plus(Box::new(b), 1.0);
        let scores = tilted_a.scores(&req(&c));
        assert!(scores[0] > scores[1]);
        let a = Fixed("a", vec![1.0, 0.0]);
        let b = Fixed("b", vec![0.0, 1.0]);
        let mut tilted_b = CompositeModel::new("tb")
            .plus(Box::new(a), 1.0)
            .plus(Box::new(b), 3.0);
        let scores = tilted_b.scores(&req(&c));
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn zero_weight_parts_are_dropped() {
        let composite = CompositeModel::new("z")
            .plus(Box::new(Fixed("a", vec![])), 0.0)
            .plus(Box::new(Fixed("b", vec![])), -1.0);
        assert!(composite.is_empty());
        assert_eq!(composite.len(), 0);
    }

    #[test]
    fn empty_composite_scores_zero() {
        let c = candidates(2);
        let mut composite = CompositeModel::new("empty");
        assert_eq!(composite.scores(&req(&c)), vec![0.0, 0.0]);
    }

    #[test]
    fn real_models_compose() {
        let c = candidates(3);
        let mut hybrid = Scored::new(
            CompositeModel::new("economic+evaluator")
                .plus(Box::new(EconomicModel::new()), 0.6)
                .plus(Box::new(DataEvaluatorModel::same_priority()), 0.4),
        );
        // With identical candidates any choice is valid; it must not panic
        // and must pick a valid index.
        let pick = hybrid.select(&req(&c)).unwrap();
        assert!(pick < 3);
        assert_eq!(hybrid.name(), "economic+evaluator");
    }

    #[test]
    fn nan_subscores_count_as_worst() {
        let c = candidates(2);
        let mut composite =
            CompositeModel::new("nan").plus(Box::new(Fixed("a", vec![f64::NAN, 1.0])), 1.0);
        let scores = composite.scores(&req(&c));
        assert!(scores[1] > scores[0]);
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn blended_scores_bounded() {
        let c = candidates(4);
        let mut composite = CompositeModel::new("b")
            .plus(Box::new(Fixed("a", vec![10.0, -5.0, 3.0, 0.0])), 2.0)
            .plus(Box::new(Fixed("b", vec![0.0, 100.0, 50.0, 25.0])), 1.0);
        for s in composite.scores(&req(&c)) {
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
