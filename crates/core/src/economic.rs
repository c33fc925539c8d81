//! The scheduling-based ("economic") selection model (paper §2.1).
//!
//! After Ernemann et al.'s economic grid scheduling: the broker plans ahead
//! by estimating each peer's **ready time** from historical data, predicts
//! the completion time of the new work on each peer, prices machine time by
//! capability, and awards the work to the peer with the lowest economic
//! cost. Idle peers ("find/provision as many as possible available idle
//! peers") naturally win because their ready time is zero. Ties are broken
//! by CPU speed — exactly the paper's "additional data and criteria such as
//! CPU speed".

use overlay::selector::{InteractionHistory, SelectionOutcome, SelectionRequest};

use crate::estimate::{completion_secs, Priors};
use crate::model::ScoringModel;

/// Economic model parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EconomicConfig {
    /// Price per advertised gops (machine hourly rate analogue). With
    /// `budget_pressure` = 0 the model is pure earliest-completion.
    pub(crate) price_per_gops: f64,
    /// How strongly price trades off against completion time, in `[0, 1]`.
    pub(crate) budget_pressure: f64,
}

impl Default for EconomicConfig {
    fn default() -> Self {
        EconomicConfig {
            price_per_gops: 0.2,
            budget_pressure: 0.0,
        }
    }
}

/// The economic scheduling model.
#[derive(Debug, Clone)]
pub struct EconomicModel {
    cfg: EconomicConfig,
    /// Estimation priors for peers without history.
    priors: Priors,
    /// Where a roster that keeps no history column gathers one.
    scratch: Vec<InteractionHistory>,
}

impl EconomicModel {
    /// Creates the model with default parameters (pure earliest completion).
    pub fn new() -> Self {
        EconomicModel::with_config(EconomicConfig::default())
    }

    /// Creates the model with explicit parameters.
    pub(crate) fn with_config(cfg: EconomicConfig) -> Self {
        EconomicModel {
            cfg,
            priors: Priors::default(),
            scratch: Vec::new(),
        }
    }

    /// Candidate `i`'s cost, read through [`Roster::get`]: the oracle
    /// `scores` must match bit for bit.
    ///
    /// [`Roster::get`]: overlay::selector::Roster::get
    #[cfg(test)]
    fn cost(&self, req: &SelectionRequest<'_>, i: usize) -> f64 {
        let c = &req.candidates[i];
        cost(&self.cfg, &self.priors, req, &c.history, c.cpu_gops)
    }
}

/// The economic cost of running `req.purpose` on a peer with history `h`
/// advertising `cpu_gops` (lower is better).
fn cost(
    cfg: &EconomicConfig,
    priors: &Priors,
    req: &SelectionRequest<'_>,
    h: &InteractionHistory,
    cpu_gops: f64,
) -> f64 {
    let completion = completion_secs(req.now, h, cpu_gops, req.purpose, priors);
    let price = 1.0 + cfg.price_per_gops * cpu_gops;
    // cost = time × (1 + pressure·(price − 1)): at zero pressure this is
    // pure makespan; at pressure 1 it is the Ernemann-style time×price.
    completion * (1.0 + cfg.budget_pressure * (price - 1.0))
}

impl Default for EconomicModel {
    fn default() -> Self {
        EconomicModel::new()
    }
}

impl ScoringModel for EconomicModel {
    fn name(&self) -> &str {
        "economic"
    }

    /// Reads the roster's history column once, and each candidate's CPU
    /// through the tie-break keys the argmax reads anyway.
    fn scores(&mut self, req: &SelectionRequest<'_>) -> Vec<f64> {
        let roster = req.candidates;
        let (cfg, priors) = (&self.cfg, &self.priors);
        (roster.histories(&mut self.scratch).iter().enumerate())
            .map(|(i, h)| -cost(cfg, priors, req, h, roster.tiebreak(i).0))
            .collect()
    }

    fn on_outcome(&mut self, _outcome: &SelectionOutcome) {
        // The broker already folds outcomes into InteractionHistory, which
        // this model reads on the next request; no private state needed.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scored;
    use netsim::node::NodeId;
    use netsim::time::{SimDuration, SimTime};
    use overlay::id::{IdGenerator, PeerId};
    use overlay::selector::{CandidateView, InteractionHistory, PeerSelector, Purpose, Roster};
    use overlay::stats::StatsSnapshot;

    fn cand(node: u32, cpu: f64, history: InteractionHistory) -> CandidateView {
        let mut g = IdGenerator::new(node as u64 + 1);
        CandidateView {
            peer: PeerId::generate(&mut g),
            node: NodeId(node),
            name: format!("n{node}").into(),
            cpu_gops: cpu,
            snapshot: StatsSnapshot::empty(cpu),
            history,
        }
    }

    fn file_req(c: &dyn Roster, bytes: u64) -> SelectionRequest<'_> {
        SelectionRequest {
            now: SimTime::ZERO + SimDuration::from_secs(1000),
            purpose: Purpose::FileTransfer { bytes },
            candidates: c,
        }
    }

    #[test]
    fn prefers_idle_peer_over_backlogged_equal() {
        let idle = InteractionHistory::empty();
        let mut busy = InteractionHistory::empty();
        busy.queued_bytes = 50_000_000;
        let c = vec![cand(0, 1.0, busy), cand(1, 1.0, idle)];
        let mut s = Scored::new(EconomicModel::new());
        assert_eq!(s.select(&file_req(&c, 1_000_000)), Some(1));
    }

    #[test]
    fn prefers_historically_fast_peer() {
        let mut slow = InteractionHistory::empty();
        slow.observe_throughput(200_000.0, 1.0);
        let mut fast = InteractionHistory::empty();
        fast.observe_throughput(1_400_000.0, 1.0);
        let c = vec![cand(0, 1.0, slow), cand(1, 1.0, fast)];
        let mut s = Scored::new(EconomicModel::new());
        assert_eq!(s.select(&file_req(&c, 10_000_000)), Some(1));
    }

    #[test]
    fn avoids_high_petition_latency_for_small_transfers() {
        // Small transfers are dominated by the wake-up latency, so the model
        // must weigh petition history (the SC7 pathology).
        let mut sluggish = InteractionHistory::empty();
        sluggish.observe_petition(27.13, 1.0);
        sluggish.observe_throughput(1_000_000.0, 1.0);
        let mut prompt = InteractionHistory::empty();
        prompt.observe_petition(0.04, 1.0);
        prompt.observe_throughput(900_000.0, 1.0);
        let c = vec![cand(0, 1.0, sluggish), cand(1, 1.0, prompt)];
        let mut s = Scored::new(EconomicModel::new());
        assert_eq!(s.select(&file_req(&c, 500_000)), Some(1));
    }

    #[test]
    fn busy_until_in_future_penalizes() {
        let now = SimTime::ZERO + SimDuration::from_secs(1000);
        let mut reserved = InteractionHistory::empty();
        reserved.busy_until = now + SimDuration::from_secs(300);
        let free = InteractionHistory::empty();
        let c = vec![cand(0, 2.0, reserved), cand(1, 1.0, free)];
        let mut s = Scored::new(EconomicModel::new());
        let req = SelectionRequest {
            now,
            purpose: Purpose::FileTransfer { bytes: 1_000_000 },
            candidates: &c,
        };
        assert_eq!(s.select(&req), Some(1));
    }

    #[test]
    fn task_purpose_weighs_exec_rate() {
        let mut weak = InteractionHistory::empty();
        weak.observe_exec_rate(0.2, 1.0);
        let mut strong = InteractionHistory::empty();
        strong.observe_exec_rate(1.4, 1.0);
        let c = vec![cand(0, 1.0, weak), cand(1, 1.0, strong)];
        let mut s = Scored::new(EconomicModel::new());
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::TaskExecution {
                work_gops: 300,
                input_bytes: 0,
            },
            candidates: &c,
        };
        assert_eq!(s.select(&req), Some(1));
    }

    #[test]
    fn budget_pressure_trades_speed_for_price() {
        // Candidate 0: modest CPU, slightly slower; candidate 1: big CPU,
        // slightly faster. Under pure makespan 1 wins; under strong budget
        // pressure the cheaper machine wins.
        let mut mid = InteractionHistory::empty();
        mid.observe_exec_rate(1.0, 1.0);
        mid.observe_petition(0.1, 1.0);
        let mut big = InteractionHistory::empty();
        big.observe_exec_rate(1.1, 1.0);
        big.observe_petition(0.1, 1.0);
        let c = vec![cand(0, 1.0, mid), cand(1, 8.0, big)];
        let req = SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::TaskExecution {
                work_gops: 100,
                input_bytes: 0,
            },
            candidates: &c,
        };
        let mut pure = Scored::new(EconomicModel::new());
        assert_eq!(pure.select(&req), Some(1));
        let mut frugal = Scored::new(EconomicModel::with_config(EconomicConfig {
            budget_pressure: 1.0,
            price_per_gops: 0.5,
        }));
        assert_eq!(frugal.select(&req), Some(0));
    }

    #[test]
    fn cost_is_positive_and_monotone_in_bytes() {
        let c = vec![cand(0, 1.0, InteractionHistory::empty())];
        let m = EconomicModel::new();
        let small = m.cost(&file_req(&c, 1_000), 0);
        let large = m.cost(&file_req(&c, 100_000_000), 0);
        assert!(small > 0.0);
        assert!(large > small);
    }

    #[test]
    fn column_scores_match_the_per_candidate_cost_bit_for_bit() {
        let mut rng = netsim::rng::SimRng::new(0xEC0);
        let now = SimTime::ZERO + SimDuration::from_secs(500);
        for round in 0..200 {
            let c: Vec<CandidateView> = (0..1 + rng.below(8) as u32)
                .map(|node| {
                    let mut h = InteractionHistory::empty();
                    if rng.bernoulli(0.6) {
                        h.observe_throughput(rng.uniform_range(0.0, 2e6), 1.0);
                    }
                    if rng.bernoulli(0.6) {
                        h.observe_petition(rng.uniform_range(0.0, 30.0), 1.0);
                    }
                    if rng.bernoulli(0.5) {
                        h.observe_exec_rate(rng.uniform_range(0.0, 2.0), 1.0);
                    }
                    h.queued_bytes = rng.below(1 << 26);
                    h.busy_until = SimTime::ZERO + SimDuration::from_secs(rng.below(1000));
                    let cpu = [1.0, 0.25, 3.5, f64::NAN][rng.below(4) as usize];
                    cand(node, cpu, h)
                })
                .collect();
            let purpose = if round % 2 == 0 {
                Purpose::FileTransfer {
                    bytes: rng.below(1 << 30),
                }
            } else {
                Purpose::TaskExecution {
                    work_gops: rng.below(500),
                    input_bytes: rng.below(1 << 24),
                }
            };
            let mut m = EconomicModel::with_config(EconomicConfig {
                price_per_gops: 0.2,
                budget_pressure: [0.0, 0.5, 1.0][round % 3],
            });
            let req = SelectionRequest {
                now,
                purpose,
                candidates: &c,
            };
            let want: Vec<u64> = (0..c.len()).map(|i| (-m.cost(&req, i)).to_bits()).collect();
            let got: Vec<u64> = m.scores(&req).iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "round {round}");
        }
    }
}
