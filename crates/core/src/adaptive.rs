//! Adaptive (bandit) selection — the paper's future-work direction.
//!
//! The three models of the paper use fixed policies over history. A natural
//! extension treats peer selection as a multi-armed bandit: the reward of
//! "arm" *p* is the observed service rate of peer *p*, and the selector
//! balances exploiting known-fast peers against re-probing others whose
//! state may have changed. We provide ε-greedy and UCB1, both learning
//! purely from [`SelectionOutcome`] feedback.

use netsim::idmap::IdMap;
use netsim::node::NodeId;
use netsim::rng::SimRng;
use overlay::selector::{PeerSelector, SelectionOutcome, SelectionRequest};

/// Reward of one outcome: bytes/second for transfers, 1/seconds for pure
/// compute (both "bigger is better" rates).
fn reward(outcome: &SelectionOutcome) -> f64 {
    if !outcome.success {
        return 0.0;
    }
    let secs = outcome.elapsed_secs.max(1e-6);
    if outcome.bytes > 0 {
        outcome.bytes as f64 / secs
    } else {
        1.0 / secs
    }
}

/// Whether the incumbent value strictly beats the challenger. An arm is
/// replaced unless it does, so of several equal maxima the last one wins
/// and an incomparable (NaN) value never holds its place — the rule
/// `Iterator::max_by` applies, with each arm evaluated once. A sweep
/// starts from a NaN incumbent, which the first arm always replaces.
fn beats(incumbent: f64, challenger: f64) -> bool {
    incumbent.partial_cmp(&challenger) == Some(std::cmp::Ordering::Greater)
}

/// ε-greedy bandit: explore a uniformly random peer with probability ε,
/// otherwise exploit the best observed mean reward.
pub struct EpsilonGreedySelector {
    epsilon: f64,
    rng: SimRng,
    means: IdMap<NodeId, (f64, u64)>, // (mean reward, pulls)
}

impl EpsilonGreedySelector {
    /// Creates the selector; typical `epsilon` is 0.1.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        EpsilonGreedySelector {
            epsilon: epsilon.clamp(0.0, 1.0),
            rng: SimRng::new(seed),
            means: IdMap::default(),
        }
    }

    /// Observed mean reward for a node (None = never tried).
    pub fn mean_reward(&self, node: NodeId) -> Option<f64> {
        self.means.get(&node).map(|(m, _)| *m)
    }
}

impl PeerSelector for EpsilonGreedySelector {
    fn name(&self) -> &str {
        "adaptive(epsilon-greedy)"
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        let n = req.candidates.len();
        if n == 0 {
            return None;
        }
        // One probe per arm: the first untried arm goes before anything
        // else; otherwise the sweep has already found the best mean.
        let mut best = (0, f64::NAN);
        for (i, c) in req.candidates.iter().enumerate() {
            match self.means.get(&c.node) {
                None => return Some(i),
                Some(&(mean, _)) => {
                    if !beats(best.1, mean) {
                        best = (i, mean);
                    }
                }
            }
        }
        if self.rng.bernoulli(self.epsilon) {
            return Some(self.rng.below(n as u64) as usize);
        }
        Some(best.0)
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        let r = reward(outcome);
        let entry = self.means.entry(outcome.node).or_insert((0.0, 0));
        entry.1 += 1;
        entry.0 += (r - entry.0) / entry.1 as f64;
    }
}

/// UCB1 bandit: pick the arm maximizing `mean + c·√(ln t / pulls)`.
pub struct Ucb1Selector {
    exploration: f64,
    total_pulls: u64,
    arms: IdMap<NodeId, (f64, u64)>,
    /// Normalizer so rewards land roughly in [0, 1] (UCB1's assumption).
    reward_scale: f64,
}

impl Ucb1Selector {
    /// Creates the selector; `exploration` is the UCB `c` (√2 is classic),
    /// `reward_scale` should be an upper bound on typical rewards (e.g.
    /// 2e6 bytes/s for transfer workloads).
    pub fn new(exploration: f64, reward_scale: f64) -> Self {
        Ucb1Selector {
            exploration,
            total_pulls: 0,
            arms: IdMap::default(),
            reward_scale: reward_scale.max(1e-9),
        }
    }

    /// `ln t`, the same for every arm of one selection.
    fn ln_pulls(&self) -> f64 {
        (self.total_pulls.max(1) as f64).ln()
    }

    fn ucb(&self, ln_pulls: f64, node: NodeId) -> f64 {
        match self.arms.get(&node) {
            None => f64::INFINITY, // untried arms first
            Some((mean, pulls)) => {
                mean / self.reward_scale + self.exploration * (ln_pulls / *pulls as f64).sqrt()
            }
        }
    }
}

impl PeerSelector for Ucb1Selector {
    fn name(&self) -> &str {
        "adaptive(ucb1)"
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        if req.candidates.is_empty() {
            return None;
        }
        let ln_pulls = self.ln_pulls();
        let mut best = (0, f64::NAN);
        for (i, c) in req.candidates.iter().enumerate() {
            let ucb = self.ucb(ln_pulls, c.node);
            if !beats(best.1, ucb) {
                best = (i, ucb);
            }
        }
        Some(best.0)
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        self.total_pulls += 1;
        let r = reward(outcome);
        let entry = self.arms.entry(outcome.node).or_insert((0.0, 0));
        entry.1 += 1;
        entry.0 += (r - entry.0) / entry.1 as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;
    use overlay::id::{IdGenerator, PeerId};
    use overlay::selector::{CandidateView, InteractionHistory, Purpose, Roster};
    use overlay::stats::StatsSnapshot;

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

    fn outcome(node: u32, bps: f64) -> SelectionOutcome {
        SelectionOutcome {
            node: NodeId(node),
            success: true,
            elapsed_secs: 1.0,
            bytes: bps as u64,
        }
    }

    /// Simulates a bandit loop where node 2 is truly the fastest.
    fn drive<S: PeerSelector>(selector: &mut S, rounds: usize) -> Vec<u32> {
        let c = candidates(4);
        let true_bps = [300_000.0, 500_000.0, 1_500_000.0, 800_000.0];
        let mut picks = Vec::new();
        for _ in 0..rounds {
            let i = selector.select(&req(&c)).unwrap();
            picks.push(i as u32);
            selector.on_outcome(&outcome(i as u32, true_bps[i]));
        }
        picks
    }

    #[test]
    fn epsilon_greedy_converges_to_best_arm() {
        let mut s = EpsilonGreedySelector::new(0.1, 42);
        let picks = drive(&mut s, 400);
        let best_share = picks.iter().filter(|&&p| p == 2).count() as f64 / picks.len() as f64;
        assert!(best_share > 0.7, "best arm share {best_share}");
        assert!(s.mean_reward(NodeId(2)).unwrap() > s.mean_reward(NodeId(0)).unwrap());
    }

    #[test]
    fn epsilon_greedy_tries_every_arm_first() {
        let mut s = EpsilonGreedySelector::new(0.0, 1);
        let picks = drive(&mut s, 4);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "each arm probed once");
    }

    #[test]
    fn epsilon_one_is_uniform_exploration() {
        let mut s = EpsilonGreedySelector::new(1.0, 7);
        let picks = drive(&mut s, 400);
        for arm in 0..4u32 {
            let share = picks.iter().filter(|&&p| p == arm).count() as f64 / 400.0;
            assert!(share > 0.1, "arm {arm} share {share}");
        }
    }

    #[test]
    fn ucb1_converges_to_best_arm() {
        let mut s = Ucb1Selector::new(std::f64::consts::SQRT_2, 2_000_000.0);
        let picks = drive(&mut s, 400);
        let late = &picks[200..];
        let best_share = late.iter().filter(|&&p| p == 2).count() as f64 / late.len() as f64;
        assert!(best_share > 0.6, "late best-arm share {best_share}");
    }

    #[test]
    fn ucb1_probes_all_arms() {
        let mut s = Ucb1Selector::new(1.0, 1e6);
        let picks = drive(&mut s, 12);
        let distinct: std::collections::HashSet<u32> = picks.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn failures_earn_zero_reward() {
        let fail = SelectionOutcome {
            node: NodeId(0),
            success: false,
            elapsed_secs: 1.0,
            bytes: 1_000_000,
        };
        assert_eq!(reward(&fail), 0.0);
        let compute = SelectionOutcome {
            node: NodeId(0),
            success: true,
            elapsed_secs: 4.0,
            bytes: 0,
        };
        assert!((reward(&compute) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_candidates_handled() {
        let mut e = EpsilonGreedySelector::new(0.1, 1);
        assert_eq!(e.select(&req(&Vec::new())), None);
        let mut u = Ucb1Selector::new(1.0, 1.0);
        assert_eq!(u.select(&req(&Vec::new())), None);
    }

    /// ε-greedy as it was: a scan for an untried arm, the exploration
    /// draw, then `max_by` probing the table for both sides of every
    /// comparison.
    fn eps_greedy_two_probe(s: &mut EpsilonGreedySelector, c: &[CandidateView]) -> Option<usize> {
        if c.is_empty() {
            return None;
        }
        if let Some(i) = c.iter().position(|c| !s.means.contains_key(&c.node)) {
            return Some(i);
        }
        if s.rng.bernoulli(s.epsilon) {
            return Some(s.rng.below(c.len() as u64) as usize);
        }
        c.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let ma = s.means[&a.node].0;
                let mb = s.means[&b.node].0;
                ma.partial_cmp(&mb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    /// UCB1 as it was: `ln t` and the arm's bound computed afresh for
    /// both sides of every `max_by` comparison.
    fn ucb1_two_probe(s: &Ucb1Selector, c: &[CandidateView]) -> Option<usize> {
        let ucb = |node| {
            let t = s.total_pulls.max(1) as f64;
            match s.arms.get(&node) {
                None => f64::INFINITY,
                Some((mean, pulls)) => {
                    mean / s.reward_scale + s.exploration * (t.ln() / *pulls as f64).sqrt()
                }
            }
        };
        c.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                ucb(a.node)
                    .partial_cmp(&ucb(b.node))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    }

    #[test]
    fn one_probe_per_arm_picks_what_two_probes_per_comparison_did() {
        // Rewards come in a few round values so means tie, some arms are
        // never pulled (UCB1: +inf, tied; ε-greedy: taken first), and the
        // roster offered changes from call to call.
        let all = candidates(12);
        let mut rng = SimRng::new(0xBA7D17);
        let mut eps = (
            EpsilonGreedySelector::new(0.2, 9),
            EpsilonGreedySelector::new(0.2, 9),
        );
        let mut ucb = Ucb1Selector::new(std::f64::consts::SQRT_2, 2e6);
        for round in 0..600 {
            let offered: Vec<CandidateView> = all
                .iter()
                .filter(|_| round % 7 == 0 || rng.below(3) > 0)
                .cloned()
                .collect();
            let pick = eps.0.select(&req(&offered));
            assert_eq!(
                pick,
                eps_greedy_two_probe(&mut eps.1, &offered),
                "round {round}"
            );
            let ucb_pick = ucb.select(&req(&offered));
            assert_eq!(ucb_pick, ucb1_two_probe(&ucb, &offered), "round {round}");
            // Feed back on a random arm, not the pick, so untried arms last.
            if let Some(i) = pick.or(ucb_pick) {
                let node = offered[(i + rng.below(2) as usize) % offered.len()].node.0 % 11;
                let feedback = outcome(node, 250_000.0 * (1 + rng.below(3)) as f64);
                eps.0.on_outcome(&feedback);
                eps.1.on_outcome(&feedback);
                ucb.on_outcome(&feedback);
            }
        }
        // Every maximum tied: the last one wins, as `max_by` has it.
        let mut tied = Ucb1Selector::new(1.0, 1e6);
        assert_eq!(tied.select(&req(&all)), Some(all.len() - 1), "all untried");
        for node in 0..12 {
            tied.on_outcome(&outcome(node, 500_000.0));
        }
        assert_eq!(tied.select(&req(&all)), Some(all.len() - 1), "all equal");
        assert_eq!(ucb1_two_probe(&tied, &all), Some(all.len() - 1));
    }
}
