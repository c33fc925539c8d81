//! The scoring framework shared by all selection models.
//!
//! Every model in this crate reduces to "assign each candidate a score,
//! higher is better, pick the argmax". Expressing that as a separate
//! [`ScoringModel`] trait (rather than implementing
//! [`overlay::selector::PeerSelector`] directly) buys two things:
//!
//! * ties are broken uniformly (by advertised CPU speed, as the paper's
//!   scheduling model prescribes, then by node id for determinism);
//! * score vectors are inspectable in tests and reports.

use netsim::node::NodeId;
use overlay::selector::{PeerSelector, SelectionOutcome, SelectionRequest};

/// A model that scores every candidate (higher = better peer).
pub trait ScoringModel: Send {
    /// Model name for reports.
    fn name(&self) -> &str;

    /// Scores for each candidate, parallel to `req.candidates`.
    /// Non-finite scores mark a candidate as ineligible.
    fn scores(&mut self, req: &SelectionRequest<'_>) -> Vec<f64>;

    /// Outcome feedback (default: ignored).
    fn on_outcome(&mut self, _outcome: &SelectionOutcome) {}
}

/// Picks the argmax of a score vector with the standard tie-breaks:
/// higher advertised CPU first, then lower node id. Non-finite scores are
/// ineligible. One pass carries the incumbent's score, CPU and node, so a
/// candidate's keys ([`Roster::tiebreak`]) are read only when its score
/// reaches the incumbent's — on a roster where most peers share the
/// priors, once per tied peer.
///
/// [`Roster::tiebreak`]: overlay::selector::Roster::tiebreak
pub fn argmax_with_tiebreak(req: &SelectionRequest<'_>, scores: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64, f64, NodeId)> = None;
    for (i, &s) in scores.iter().enumerate() {
        if !s.is_finite() {
            continue;
        }
        let wins = match best {
            None => true,
            Some((_, top, cpu, node)) => {
                s > top
                    || (s == top && {
                        let (c_cpu, c_node) = req.candidates.tiebreak(i);
                        c_cpu > cpu || (c_cpu == cpu && c_node < node)
                    })
            }
        };
        if wins {
            let (cpu, node) = req.candidates.tiebreak(i);
            best = Some((i, s, cpu, node));
        }
    }
    best.map(|(i, ..)| i)
}

/// Adapter turning any [`ScoringModel`] into a [`PeerSelector`].
pub struct Scored<M: ScoringModel> {
    model: M,
}

impl<M: ScoringModel> Scored<M> {
    /// Wraps a scoring model.
    pub fn new(model: M) -> Self {
        Scored { model }
    }

    /// Access to the wrapped model.
    #[cfg(test)]
    pub(crate) fn inner(&self) -> &M {
        &self.model
    }
}

impl<M: ScoringModel> PeerSelector for Scored<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        if req.candidates.is_empty() {
            return None;
        }
        let scores = self.model.scores(req);
        debug_assert_eq!(scores.len(), req.candidates.len());
        argmax_with_tiebreak(req, &scores)
    }

    fn candidate_costs(&mut self, req: &SelectionRequest<'_>) -> Option<Vec<f64>> {
        // Scores are higher-is-better; the observability layer reports
        // costs (lower-is-better), so negate. Non-finite stays non-finite
        // (ineligible either way).
        Some(self.model.scores(req).into_iter().map(|s| -s).collect())
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        self.model.on_outcome(outcome);
    }
}

/// Min-max normalizes a slice into `[0, 1]` in place; constant slices map
/// to 0.5 (all equally good). Non-finite entries are left untouched.
pub fn min_max_normalize(values: &mut [f64]) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values.iter().filter(|v| v.is_finite()) {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    let span = hi - lo; // -inf with no finite entry, and then nothing to map
    for v in values.iter_mut() {
        if v.is_finite() {
            *v = if span <= 0.0 { 0.5 } else { (*v - lo) / span };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::node::NodeId;
    use netsim::time::SimTime;
    use overlay::id::{IdGenerator, PeerId};
    use overlay::selector::{CandidateView, InteractionHistory, Purpose, Roster};
    use overlay::stats::StatsSnapshot;

    pub(crate) fn mk_candidates(n: usize) -> Vec<CandidateView> {
        let mut g = IdGenerator::new(77);
        (0..n)
            .map(|i| CandidateView {
                peer: PeerId::generate(&mut g),
                node: NodeId(i as u32),
                name: format!("peer{i}").into(),
                cpu_gops: 1.0 + i as f64 * 0.1,
                snapshot: StatsSnapshot::empty(1.0 + i as f64 * 0.1),
                history: InteractionHistory::empty(),
            })
            .collect()
    }

    struct Fixed(Vec<f64>);
    impl ScoringModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn scores(&mut self, _req: &SelectionRequest<'_>) -> Vec<f64> {
            self.0.clone()
        }
    }

    fn req(c: &dyn Roster) -> SelectionRequest<'_> {
        SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 },
            candidates: c,
        }
    }

    #[test]
    fn argmax_picks_highest() {
        let c = mk_candidates(4);
        let mut s = Scored::new(Fixed(vec![0.1, 0.9, 0.3, 0.2]));
        assert_eq!(s.select(&req(&c)), Some(1));
        assert_eq!(s.name(), "fixed");
    }

    #[test]
    fn ties_break_by_cpu_speed() {
        let c = mk_candidates(3); // cpu: 1.0, 1.1, 1.2
        let mut s = Scored::new(Fixed(vec![0.5, 0.5, 0.5]));
        assert_eq!(s.select(&req(&c)), Some(2), "fastest CPU wins ties");
    }

    #[test]
    fn equal_cpu_ties_break_by_node_id() {
        let mut c = mk_candidates(3);
        for cand in &mut c {
            cand.cpu_gops = 1.0;
        }
        let mut s = Scored::new(Fixed(vec![0.5, 0.5, 0.5]));
        assert_eq!(s.select(&req(&c)), Some(0));
    }

    #[test]
    fn non_finite_scores_are_ineligible() {
        let c = mk_candidates(3);
        let mut s = Scored::new(Fixed(vec![f64::NAN, 0.1, f64::NEG_INFINITY]));
        assert_eq!(s.select(&req(&c)), Some(1));
        let mut all_bad = Scored::new(Fixed(vec![f64::NAN, f64::NAN, f64::NAN]));
        assert_eq!(all_bad.select(&req(&c)), None);
    }

    /// The argmax `argmax_with_tiebreak` replaced: the same rule, re-reading
    /// the incumbent from the roster on every tie.
    fn sequential_argmax(req: &SelectionRequest<'_>, scores: &[f64]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &s) in scores.iter().enumerate() {
            if !s.is_finite() {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let sb = scores[b];
                    let better = s > sb
                        || (s == sb && {
                            let (ci, cb) = (&req.candidates[i], &req.candidates[b]);
                            ci.cpu_gops > cb.cpu_gops
                                || (ci.cpu_gops == cb.cpu_gops && ci.node < cb.node)
                        });
                    if better {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    #[test]
    fn argmax_matches_the_sequential_reference() {
        let mut rng = netsim::rng::SimRng::new(0xA7_6A4);
        let pool = [
            0.0,
            -0.0,
            0.5,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for round in 0..3000 {
            let n = rng.below(12) as usize; // empty rosters included
            let mut c = mk_candidates(n);
            for i in (1..n).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                let node = c[i].node;
                c[i].node = c[j].node;
                c[j].node = node;
            }
            if round % 4 == 3 {
                // Two views may claim one host.
                for cand in &mut c {
                    cand.node = NodeId(rng.below(3) as u32);
                }
            }
            for cand in &mut c {
                // Equal, unequal, or sometimes-NaN CPU speeds.
                cand.cpu_gops = match round % 3 {
                    0 => 1.0,
                    1 => [1.0, 2.0, 3.0][rng.below(3) as usize],
                    _ => [1.0, 2.0, f64::NAN][rng.below(3) as usize],
                };
            }
            let scores: Vec<f64> = (0..n)
                .map(|_| {
                    if round % 10 == 0 {
                        f64::NAN // every candidate ineligible
                    } else if rng.below(5) == 0 {
                        rng.uniform_range(-1.0, 1.0)
                    } else {
                        pool[rng.below(pool.len() as u64) as usize]
                    }
                })
                .collect();
            assert_eq!(
                argmax_with_tiebreak(&req(&c), &scores),
                sequential_argmax(&req(&c), &scores),
                "round {round}: scores {scores:?}, candidates {c:?}"
            );
        }
    }

    #[test]
    fn scored_exposes_candidate_costs() {
        let c = mk_candidates(3);
        let mut s = Scored::new(Fixed(vec![0.1, 0.9, f64::NAN]));
        let costs = s.candidate_costs(&req(&c)).unwrap();
        assert_eq!(costs.len(), 3);
        assert_eq!(costs[0], -0.1);
        assert_eq!(costs[1], -0.9, "best score maps to lowest cost");
        assert!(costs[2].is_nan());
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut s = Scored::new(Fixed(vec![]));
        assert_eq!(s.select(&req(&Vec::new())), None);
    }

    #[test]
    fn min_max_normalize_basics() {
        let mut v = vec![2.0, 4.0, 6.0];
        min_max_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
        let mut constant = vec![3.0, 3.0];
        min_max_normalize(&mut constant);
        assert_eq!(constant, vec![0.5, 0.5]);
        let mut empty: Vec<f64> = vec![];
        min_max_normalize(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn min_max_normalize_skips_non_finite() {
        let mut v = vec![1.0, f64::NAN, 3.0];
        min_max_normalize(&mut v);
        assert_eq!(v[0], 0.0);
        assert!(v[1].is_nan());
        assert_eq!(v[2], 1.0);
    }
}
