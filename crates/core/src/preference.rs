//! The user's preference selection model (paper §2.3).
//!
//! "The peer is selected by the user according to his preferences and
//! experience in using the peer nodes … useful when the user knows the
//! performance of some peers in advance, for instance, from previous
//! submissions … very low computational cost. Its main drawback is that it
//! does not take into account the current state of the selected peer nor
//! the current state of the network."
//!
//! The mode the paper measures in Fig 6 is **quick peer**: pick the peer
//! that has historically been fastest (throughput first, wake-up latency as
//! the secondary signal), *ignoring* every live signal (queues, backlog,
//! reservations). The staleness of that choice is exactly what the paper's
//! comparison exposes.

use overlay::selector::{InteractionHistory, SelectionRequest};

use crate::estimate::{petition_secs, throughput_bps, Priors};
use crate::model::ScoringModel;

/// The user's preference model, in quick-peer mode.
#[derive(Debug, Clone)]
pub struct UserPreferenceModel {
    priors: Priors,
    /// Where a roster that keeps no history column gathers one.
    scratch: Vec<InteractionHistory>,
}

impl UserPreferenceModel {
    /// The paper's quick-peer mode.
    pub fn quick_peer() -> Self {
        UserPreferenceModel {
            priors: Priors::default(),
            scratch: Vec::new(),
        }
    }
}

impl ScoringModel for UserPreferenceModel {
    fn name(&self) -> &str {
        "user-preference(quick-peer)"
    }

    fn scores(&mut self, req: &SelectionRequest<'_>) -> Vec<f64> {
        (req.candidates.histories(&mut self.scratch).iter())
            .map(|h| {
                // Historical speed only: observed throughput, with the
                // observed wake-up latency as a mild penalty. Live state
                // (queued_bytes, busy_until, queue gauges) is DELIBERATELY
                // ignored — that is the model's defining property.
                let thr = throughput_bps(h, &self.priors);
                let wake = petition_secs(h, &self.priors);
                thr / (1.0 + wake)
            })
            .collect()
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

    fn cand(node: u32, name: &str, history: InteractionHistory) -> CandidateView {
        let mut g = IdGenerator::new(node as u64 + 1);
        CandidateView {
            peer: PeerId::generate(&mut g),
            node: NodeId(node),
            name: name.into(),
            cpu_gops: 1.0,
            snapshot: StatsSnapshot::empty(1.0),
            history,
        }
    }

    fn req(c: &dyn Roster) -> SelectionRequest<'_> {
        SelectionRequest {
            now: SimTime::ZERO,
            purpose: Purpose::FileTransfer { bytes: 1 << 20 },
            candidates: c,
        }
    }

    #[test]
    fn quick_peer_picks_historically_fastest() {
        let mut slow = InteractionHistory::empty();
        slow.observe_throughput(200_000.0, 1.0);
        let mut fast = InteractionHistory::empty();
        fast.observe_throughput(1_500_000.0, 1.0);
        let c = vec![cand(0, "slow", slow), cand(1, "fast", fast)];
        let mut s = Scored::new(UserPreferenceModel::quick_peer());
        assert_eq!(s.select(&req(&c)), Some(1));
        assert_eq!(s.name(), "user-preference(quick-peer)");
    }

    #[test]
    fn quick_peer_ignores_current_state() {
        // The historically-fastest peer is now massively backlogged and
        // reserved — quick-peer must still pick it (its defining flaw).
        let mut stale_fast = InteractionHistory::empty();
        stale_fast.observe_throughput(1_500_000.0, 1.0);
        stale_fast.queued_bytes = 500_000_000;
        stale_fast.busy_until = SimTime::ZERO + SimDuration::from_secs(10_000);
        let mut free_ok = InteractionHistory::empty();
        free_ok.observe_throughput(1_000_000.0, 1.0);
        let c = vec![cand(0, "stale-fast", stale_fast), cand(1, "free", free_ok)];
        let mut s = Scored::new(UserPreferenceModel::quick_peer());
        assert_eq!(s.select(&req(&c)), Some(0));
    }

    #[test]
    fn quick_peer_penalizes_sluggish_wakeups() {
        let mut fast_but_sluggish = InteractionHistory::empty();
        fast_but_sluggish.observe_throughput(1_200_000.0, 1.0);
        fast_but_sluggish.observe_petition(27.0, 1.0);
        let mut prompt = InteractionHistory::empty();
        prompt.observe_throughput(1_000_000.0, 1.0);
        prompt.observe_petition(0.05, 1.0);
        let c = vec![
            cand(0, "sluggish", fast_but_sluggish),
            cand(1, "prompt", prompt),
        ];
        let mut s = Scored::new(UserPreferenceModel::quick_peer());
        assert_eq!(s.select(&req(&c)), Some(1));
    }
}
