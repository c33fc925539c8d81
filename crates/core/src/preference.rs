//! The user's preference selection model (paper §2.3).
//!
//! "The peer is selected by the user according to his preferences and
//! experience in using the peer nodes … useful when the user knows the
//! performance of some peers in advance, for instance, from previous
//! submissions … very low computational cost. Its main drawback is that it
//! does not take into account the current state of the selected peer nor
//! the current state of the network."
//!
//! Two modes:
//!
//! * **Explicit ranking** — the user lists hostnames in order of preference.
//! * **Quick peer** — the mode measured in the paper's Fig 6: pick the peer
//!   that has historically been fastest, *ignoring* every live signal
//!   (queues, backlog, reservations). The staleness of that choice is
//!   exactly what the paper's comparison exposes.

use overlay::selector::{InteractionHistory, SelectionRequest};

use crate::estimate::{petition_secs, throughput_bps, Priors};
use crate::model::ScoringModel;

/// How the user expresses their preference.
#[derive(Debug, Clone, PartialEq)]
pub enum PreferenceMode {
    /// Hostnames in descending preference; unlisted peers rank last.
    Ranking(Vec<String>),
    /// Historically fastest peer (throughput first, wake-up latency as the
    /// secondary signal) — *no* current-state inputs.
    QuickPeer,
}

/// The user's preference model.
#[derive(Debug, Clone)]
pub struct UserPreferenceModel {
    mode: PreferenceMode,
    priors: Priors,
    name: String,
    /// Where a roster that keeps no history column gathers one.
    scratch: Vec<InteractionHistory>,
}

impl UserPreferenceModel {
    /// Explicit ranking mode.
    pub fn from_ranking<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        UserPreferenceModel {
            mode: PreferenceMode::Ranking(names.into_iter().map(Into::into).collect()),
            priors: Priors::default(),
            name: "user-preference(ranking)".into(),
            scratch: Vec::new(),
        }
    }

    /// The paper's quick-peer mode.
    pub fn quick_peer() -> Self {
        UserPreferenceModel {
            mode: PreferenceMode::QuickPeer,
            priors: Priors::default(),
            name: "user-preference(quick-peer)".into(),
            scratch: Vec::new(),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> &PreferenceMode {
        &self.mode
    }
}

impl ScoringModel for UserPreferenceModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn scores(&mut self, req: &SelectionRequest<'_>) -> Vec<f64> {
        match &self.mode {
            PreferenceMode::Ranking(names) => req
                .candidates
                .iter()
                .map(|c| {
                    match names.iter().position(|n| n.as_str() == &*c.name) {
                        // First-ranked gets the highest score.
                        Some(pos) => (names.len() - pos) as f64,
                        None => 0.0,
                    }
                })
                .collect(),
            PreferenceMode::QuickPeer => (req.candidates.histories(&mut self.scratch).iter())
                .map(|h| {
                    // Historical speed only: observed throughput, with the
                    // observed wake-up latency as a mild penalty. Live state
                    // (queued_bytes, busy_until, queue gauges) is DELIBERATELY
                    // ignored — that is the model's defining property.
                    let thr = throughput_bps(h, &self.priors);
                    let wake = petition_secs(h, &self.priors);
                    thr / (1.0 + wake)
                })
                .collect(),
        }
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
    fn ranking_respects_user_order() {
        let c = vec![
            cand(0, "alpha", InteractionHistory::empty()),
            cand(1, "beta", InteractionHistory::empty()),
            cand(2, "gamma", InteractionHistory::empty()),
        ];
        let mut s = Scored::new(UserPreferenceModel::from_ranking(["gamma", "alpha"]));
        assert_eq!(s.select(&req(&c)), Some(2));
        // Remove gamma: alpha is next.
        let c2 = vec![c[0].clone(), c[1].clone()];
        assert_eq!(s.select(&req(&c2)), Some(0));
    }

    #[test]
    fn unlisted_peers_rank_last() {
        let c = vec![
            cand(0, "unknown", InteractionHistory::empty()),
            cand(1, "listed", InteractionHistory::empty()),
        ];
        let mut s = Scored::new(UserPreferenceModel::from_ranking(["listed"]));
        assert_eq!(s.select(&req(&c)), Some(1));
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

    #[test]
    fn mode_accessor() {
        let m = UserPreferenceModel::from_ranking(["a"]);
        assert!(matches!(m.mode(), PreferenceMode::Ranking(v) if v.len() == 1));
        assert!(matches!(
            UserPreferenceModel::quick_peer().mode(),
            PreferenceMode::QuickPeer
        ));
    }
}
