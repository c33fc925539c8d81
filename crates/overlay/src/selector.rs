//! The peer-selection hook.
//!
//! The broker delegates "which peer should get this work?" to a
//! [`PeerSelector`]. The overlay ships only the trivial baselines; the real
//! models (economic scheduling, data evaluator, user preference) live in the
//! `peer-selection` crate and implement this trait. Keeping the trait here
//! lets the substrate stay ignorant of the contribution built on top of it.

use std::sync::Arc;

use netsim::node::NodeId;
use netsim::time::SimTime;

use crate::id::PeerId;
use crate::stats::StatsSnapshot;

/// What the broker has learned about one peer from past interactions.
///
/// This is *observed* history (latencies, throughputs the broker measured
/// itself), complementing the peer-reported [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionHistory {
    /// EWMA of petition→ack latency, seconds.
    pub ewma_petition_secs: Option<f64>,
    /// EWMA of observed file-transfer throughput, bytes/second.
    pub ewma_throughput_bps: Option<f64>,
    /// EWMA of observed pure execution rate, gops/second.
    pub ewma_exec_gops_per_sec: Option<f64>,
    /// Completed transfers to this peer.
    pub transfers_completed: u64,
    /// Cancelled transfers to this peer.
    pub transfers_cancelled: u64,
    /// Bytes currently queued (sent or scheduled) to this peer.
    pub queued_bytes: u64,
    /// Broker's estimate of when the peer finishes its current backlog.
    pub busy_until: SimTime,
}

impl InteractionHistory {
    /// History for a never-before-used peer.
    pub fn empty() -> Self {
        InteractionHistory {
            ewma_petition_secs: None,
            ewma_throughput_bps: None,
            ewma_exec_gops_per_sec: None,
            transfers_completed: 0,
            transfers_cancelled: 0,
            queued_bytes: 0,
            busy_until: SimTime::ZERO,
        }
    }

    /// Folds a new petition-latency observation into the EWMA.
    pub fn observe_petition(&mut self, secs: f64, alpha: f64) {
        fold(&mut self.ewma_petition_secs, secs, alpha);
    }

    /// Folds a new throughput observation into the EWMA.
    pub fn observe_throughput(&mut self, bps: f64, alpha: f64) {
        fold(&mut self.ewma_throughput_bps, bps, alpha);
    }

    /// Folds a new execution-rate observation into the EWMA.
    pub fn observe_exec_rate(&mut self, gops_per_sec: f64, alpha: f64) {
        fold(&mut self.ewma_exec_gops_per_sec, gops_per_sec, alpha);
    }
}

fn fold(slot: &mut Option<f64>, value: f64, alpha: f64) {
    let alpha = alpha.clamp(0.0, 1.0);
    *slot = Some(match *slot {
        None => value,
        Some(old) => alpha * value + (1.0 - alpha) * old,
    });
}

/// One candidate peer as the selector sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateView {
    /// Overlay identity.
    pub peer: PeerId,
    /// Simulated host.
    pub node: NodeId,
    /// Hostname, interned at admission — building a roster or recording a
    /// selection clones a refcount, never a string buffer.
    pub name: Arc<str>,
    /// Advertised CPU rate, gops.
    pub cpu_gops: f64,
    /// Latest peer-reported statistics.
    pub snapshot: StatsSnapshot,
    /// Broker-observed interaction history.
    pub history: InteractionHistory,
}

/// Why a peer is being selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// Destination for a file transfer of roughly this many bytes.
    FileTransfer {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Executor for a task of roughly this much work.
    TaskExecution {
        /// Compute demand in giga-ops.
        work_gops: u64,
        /// Input bytes that must be shipped first.
        input_bytes: u64,
    },
}

/// A candidate set a selector reads in place: `len` views, addressed by
/// index, in ascending node order when the broker builds it.
///
/// The broker's registry implements this over its own slots, so a
/// petition borrows the roster instead of copying it; an owned
/// `Vec<CandidateView>` implements it too, and `&vec` coerces to
/// `&dyn Roster` wherever a [`SelectionRequest`] is built. Model code
/// reads a `&dyn Roster` like a slice: `len()`, `is_empty()`, `iter()`,
/// `roster[i]`.
pub trait Roster {
    /// Number of candidates.
    fn len(&self) -> usize;

    /// The `i`-th candidate; panics when `i >= len()`.
    fn get(&self, i: usize) -> &CandidateView;

    /// Whether there is no candidate at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Roster for Vec<CandidateView> {
    fn len(&self) -> usize {
        <[CandidateView]>::len(self)
    }

    fn get(&self, i: usize) -> &CandidateView {
        &self[i]
    }
}

impl dyn Roster + '_ {
    /// The candidates in index order.
    pub fn iter(&self) -> RosterIter<'_> {
        RosterIter {
            roster: self,
            range: 0..self.len(),
        }
    }
}

impl std::ops::Index<usize> for dyn Roster + '_ {
    type Output = CandidateView;

    fn index(&self, i: usize) -> &CandidateView {
        self.get(i)
    }
}

impl std::fmt::Debug for dyn Roster + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Roster`], in index order.
#[derive(Debug, Clone)]
pub struct RosterIter<'a> {
    roster: &'a dyn Roster,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for RosterIter<'a> {
    type Item = &'a CandidateView;

    fn next(&mut self) -> Option<&'a CandidateView> {
        self.range.next().map(|i| self.roster.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for RosterIter<'_> {}

/// One selection request.
#[derive(Debug, Clone)]
pub struct SelectionRequest<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// What the chosen peer will be asked to do.
    pub purpose: Purpose,
    /// The candidate set (never empty when the broker calls), borrowed
    /// for the duration of the call — a model that wants to keep
    /// anything past `select` copies that field out.
    pub candidates: &'a dyn Roster,
}

/// Outcome feedback delivered to the selector after the work finishes,
/// letting adaptive models learn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionOutcome {
    /// The peer that did the work.
    pub node: NodeId,
    /// Whether it completed successfully.
    pub success: bool,
    /// Observed end-to-end seconds.
    pub elapsed_secs: f64,
    /// Bytes moved (0 for pure compute).
    pub bytes: u64,
}

/// A peer-selection policy.
pub trait PeerSelector: Send {
    /// Human-readable model name (printed in reports).
    fn name(&self) -> &str;

    /// Picks a candidate (by index into `req.candidates`), or `None` to
    /// refuse (no viable peer). The roster is borrowed from the broker's
    /// registry, so the cost of a call is whatever the model reads: one
    /// that looks at every candidate is O(roster), one that does not
    /// (round-robin, random) is O(1).
    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize>;

    /// Per-candidate cost estimates for observability, parallel to
    /// `req.candidates` (lower = better; non-finite = ineligible). Models
    /// that don't score candidates return `None` (the default). Only
    /// consulted when tracing is enabled, so implementations may recompute.
    fn candidate_costs(&mut self, _req: &SelectionRequest<'_>) -> Option<Vec<f64>> {
        None
    }

    /// Feedback after the selected work finished (default: ignored).
    fn on_outcome(&mut self, _outcome: &SelectionOutcome) {}
}

/// Baseline: uniformly random choice ("blind" selection).
#[derive(Debug)]
pub struct RandomSelector {
    rng: netsim::rng::SimRng,
}

impl RandomSelector {
    /// Creates the baseline with its own seeded stream.
    pub fn new(seed: u64) -> Self {
        RandomSelector {
            rng: netsim::rng::SimRng::new(seed),
        }
    }
}

impl PeerSelector for RandomSelector {
    fn name(&self) -> &str {
        "random"
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        if req.candidates.is_empty() {
            None
        } else {
            Some(self.rng.below(req.candidates.len() as u64) as usize)
        }
    }
}

/// Baseline: strict round-robin over the candidate list.
#[derive(Debug, Default)]
pub struct RoundRobinSelector {
    next: usize,
}

impl RoundRobinSelector {
    /// Creates the baseline starting at the first candidate.
    pub fn new() -> Self {
        RoundRobinSelector::default()
    }
}

impl PeerSelector for RoundRobinSelector {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        if req.candidates.is_empty() {
            return None;
        }
        let i = self.next % req.candidates.len();
        self.next = self.next.wrapping_add(1);
        Some(i)
    }
}

/// Factory producing a fresh selector per replication (selectors are
/// stateful and not clonable). Campaign drivers call it once per run,
/// passing that run's seed so stochastic selectors draw independent
/// streams across replications.
pub type SelectorFactory = Box<dyn Fn(u64) -> Box<dyn PeerSelector> + Sync>;

/// Identity of a selection model a campaign can sweep over.
///
/// This is the *axis value*, not the implementation: the overlay stays
/// ignorant of the concrete models (they live in the `peer-selection`
/// crate), but grid specs, CLIs, and reports need one canonical spelling
/// per model. `Blind` means "no selector installed" — the broker
/// broadcasts instead of choosing, the paper's Figs 2–5 mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// No selection: broadcast / scripted targets only.
    Blind,
    /// Economic scheduling model (Ernemann et al.).
    Economic,
    /// Data-evaluator model with equal criterion weights (Yu et al.).
    SamePriority,
    /// User-preference model favouring the quickest peer.
    QuickPeer,
    /// Uniform-random baseline.
    Random,
    /// UCB1 bandit over observed transfer outcomes (extension).
    Ucb1,
    /// ε-greedy bandit (extension).
    EpsGreedy,
}

impl ModelKind {
    /// Every model, in canonical (grid-expansion and CLI listing) order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Blind,
        ModelKind::Economic,
        ModelKind::SamePriority,
        ModelKind::QuickPeer,
        ModelKind::Random,
        ModelKind::Ucb1,
        ModelKind::EpsGreedy,
    ];

    /// The canonical spelling used by CLIs, CSV columns, and grid specs.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Blind => "blind",
            ModelKind::Economic => "economic",
            ModelKind::SamePriority => "same-priority",
            ModelKind::QuickPeer => "quick-peer",
            ModelKind::Random => "random",
            ModelKind::Ucb1 => "ucb1",
            ModelKind::EpsGreedy => "eps-greedy",
        }
    }

    /// Parses a canonical spelling back into the axis value. Also accepts
    /// `evaluator`, the CLI's historical spelling of the data-evaluator
    /// model in same-priority mode.
    pub fn parse(name: &str) -> Option<ModelKind> {
        if name == "evaluator" {
            return Some(ModelKind::SamePriority);
        }
        ModelKind::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;

    fn candidates(n: usize) -> Vec<CandidateView> {
        let mut g = IdGenerator::new(5);
        (0..n)
            .map(|i| CandidateView {
                peer: PeerId::generate(&mut g),
                node: NodeId(i as u32),
                name: format!("peer{i}").into(),
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
    fn ewma_folding() {
        let mut h = InteractionHistory::empty();
        h.observe_petition(2.0, 0.5);
        assert_eq!(h.ewma_petition_secs, Some(2.0));
        h.observe_petition(4.0, 0.5);
        assert_eq!(h.ewma_petition_secs, Some(3.0));
        h.observe_throughput(1e6, 0.3);
        assert_eq!(h.ewma_throughput_bps, Some(1e6));
        h.observe_exec_rate(0.5, 1.0);
        assert_eq!(h.ewma_exec_gops_per_sec, Some(0.5));
    }

    #[test]
    fn random_selector_in_bounds_and_covers() {
        let c = candidates(5);
        let mut s = RandomSelector::new(1);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let i = s.select(&req(&c)).unwrap();
            assert!(i < 5);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&x| x));
        assert_eq!(s.name(), "random");
    }

    #[test]
    fn random_selector_empty_candidates() {
        let mut s = RandomSelector::new(2);
        assert_eq!(s.select(&req(&Vec::new())), None);
    }

    #[test]
    fn round_robin_cycles() {
        let c = candidates(3);
        let mut s = RoundRobinSelector::new();
        let picks: Vec<usize> = (0..7).map(|_| s.select(&req(&c)).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(s.select(&req(&Vec::new())), None);
    }

    #[test]
    fn model_kind_names_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in ModelKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ModelKind::parse("no-such-model"), None);
    }

    #[test]
    fn evaluator_alias_parses_to_same_priority() {
        assert_eq!(ModelKind::parse("evaluator"), Some(ModelKind::SamePriority));
    }
}
