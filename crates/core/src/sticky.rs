//! Sticky selection: hysteresis on top of any scoring model.
//!
//! Raw argmax selection flaps between near-equal peers as scores wobble,
//! which costs real money on a P2P overlay: every switch pays a fresh
//! wake-up (petition) on a cold peer while the previous peer's pipe was
//! already hot. [`StickySelector`] keeps the incumbent peer unless a
//! challenger beats it by a margin (in min-max-normalized score space), a
//! standard hysteresis scheme.

use netsim::node::NodeId;
use overlay::selector::{PeerSelector, SelectionOutcome, SelectionRequest};

use crate::model::{argmax_with_tiebreak, min_max_normalize, ScoringModel};

/// Hysteresis wrapper around a scoring model.
pub struct StickySelector<M: ScoringModel> {
    model: M,
    /// Normalized-score margin a challenger must win by (0 = plain argmax,
    /// 1 = never switch while the incumbent is eligible).
    margin: f64,
    incumbent: Option<NodeId>,
    name: String,
    /// Switches made so far (observable for tests/reports).
    pub switches: u64,
}

impl<M: ScoringModel> StickySelector<M> {
    /// Wraps `model` with the given switching margin.
    pub fn new(model: M, margin: f64) -> Self {
        let name = format!("sticky({})", model.name());
        StickySelector {
            model,
            margin: margin.clamp(0.0, 1.0),
            incumbent: None,
            name,
            switches: 0,
        }
    }

    /// The current incumbent peer, if any.
    pub fn incumbent(&self) -> Option<NodeId> {
        self.incumbent
    }
}

impl<M: ScoringModel> PeerSelector for StickySelector<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        if req.candidates.is_empty() {
            self.incumbent = None;
            return None;
        }
        let mut scores = self.model.scores(req);
        let best = argmax_with_tiebreak(req, &scores)?;
        min_max_normalize(&mut scores);
        let incumbent_idx = self
            .incumbent
            .and_then(|n| req.candidates.iter().position(|c| c.node == n));
        let chosen = match incumbent_idx {
            // Incumbent still a candidate: challenger must clear the margin.
            Some(i) if scores[i].is_finite() => {
                let challenger_gain = scores[best] - scores[i];
                if challenger_gain > self.margin {
                    best
                } else {
                    i
                }
            }
            // No (eligible) incumbent: plain argmax.
            _ => best,
        };
        let node = req.candidates[chosen].node;
        if self.incumbent != Some(node) {
            if self.incumbent.is_some() {
                self.switches += 1;
            }
            self.incumbent = Some(node);
        }
        Some(chosen)
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        // A failure on the incumbent evicts it immediately.
        if !outcome.success && self.incumbent == Some(outcome.node) {
            self.incumbent = None;
        }
        self.model.on_outcome(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;
    use overlay::id::{IdGenerator, PeerId};
    use overlay::selector::{CandidateView, InteractionHistory, Purpose, Roster};
    use overlay::stats::StatsSnapshot;

    struct Scripted {
        rounds: std::cell::Cell<usize>,
        script: Vec<Vec<f64>>,
    }
    impl ScoringModel for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn scores(&mut self, _req: &SelectionRequest<'_>) -> Vec<f64> {
            let i = self.rounds.get().min(self.script.len() - 1);
            self.rounds.set(self.rounds.get() + 1);
            self.script[i].clone()
        }
    }

    fn candidates(n: usize) -> Vec<CandidateView> {
        let mut g = IdGenerator::new(3);
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

    fn sticky(script: Vec<Vec<f64>>, margin: f64) -> StickySelector<Scripted> {
        StickySelector::new(
            Scripted {
                rounds: std::cell::Cell::new(0),
                script,
            },
            margin,
        )
    }

    #[test]
    fn sticks_through_marginal_flapping() {
        // Leader alternates between 0 and 1 by a whisker each round.
        let script = vec![
            vec![1.00, 0.99, 0.0],
            vec![0.99, 1.00, 0.0],
            vec![1.00, 0.99, 0.0],
            vec![0.99, 1.00, 0.0],
        ];
        let c = candidates(3);
        let mut s = sticky(script, 0.2);
        let picks: Vec<usize> = (0..4).map(|_| s.select(&req(&c)).unwrap()).collect();
        assert_eq!(picks, vec![0, 0, 0, 0], "incumbent survives whisker leads");
        assert_eq!(s.switches, 0);
    }

    #[test]
    fn switches_on_decisive_challenger() {
        let script = vec![
            vec![1.0, 0.5, 0.0],
            vec![0.1, 1.0, 0.0], // candidate 1 now decisively better
        ];
        let c = candidates(3);
        let mut s = sticky(script, 0.2);
        assert_eq!(s.select(&req(&c)), Some(0));
        assert_eq!(s.select(&req(&c)), Some(1));
        assert_eq!(s.switches, 1);
        assert_eq!(s.incumbent(), Some(NodeId(1)));
    }

    #[test]
    fn zero_margin_is_plain_argmax() {
        let script = vec![vec![1.0, 0.9], vec![0.9, 1.0]];
        let c = candidates(2);
        let mut s = sticky(script, 0.0);
        assert_eq!(s.select(&req(&c)), Some(0));
        assert_eq!(s.select(&req(&c)), Some(1), "any lead switches at margin 0");
    }

    #[test]
    fn incumbent_disappearing_forces_repick() {
        let script = vec![vec![0.0, 0.0, 1.0], vec![1.0, 0.5]];
        let c3 = candidates(3);
        let mut s = sticky(script, 0.5);
        assert_eq!(s.select(&req(&c3)), Some(2));
        // Candidate set shrinks: node 2 gone.
        let c2 = candidates(2);
        assert_eq!(s.select(&req(&c2)), Some(0));
        assert_eq!(s.incumbent(), Some(NodeId(0)));
    }

    #[test]
    fn failure_evicts_incumbent() {
        let script = vec![vec![1.0, 0.9], vec![1.0, 0.99]];
        let c = candidates(2);
        let mut s = sticky(script, 0.5);
        assert_eq!(s.select(&req(&c)), Some(0));
        s.on_outcome(&SelectionOutcome {
            node: NodeId(0),
            success: false,
            elapsed_secs: 1.0,
            bytes: 0,
        });
        assert_eq!(s.incumbent(), None);
        // Next pick is a fresh argmax.
        assert_eq!(s.select(&req(&c)), Some(0));
    }

    #[test]
    fn empty_candidates_reset() {
        let script = vec![vec![1.0]];
        let mut s = sticky(script, 0.2);
        let c = candidates(1);
        assert_eq!(s.select(&req(&c)), Some(0));
        assert_eq!(s.select(&req(&Vec::new())), None);
        assert_eq!(s.incumbent(), None);
    }

    #[test]
    fn wraps_real_models() {
        let mut s = StickySelector::new(crate::economic::EconomicModel::new(), 0.1);
        let c = candidates(4);
        let pick = s.select(&req(&c)).unwrap();
        assert!(pick < 4);
        assert!(s.name().contains("economic"));
    }
}
