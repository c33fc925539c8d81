//! The data evaluator ("cost") selection model (paper §2.2).
//!
//! Each peer is assigned a cost from its historical and statistical data:
//! every §2.2 criterion is evaluated from the broker's
//! [`overlay::stats::StatsSnapshot`],
//! min-max normalized across the candidate set, polarity-corrected (queue
//! lengths and cancellation rates count *against* a peer), weighted, and
//! summed. "Some criteria are more important than others or even some are
//! negligible (of zero weight)" — weights are user-defined or one of the
//! presets; the paper's measured configuration is *same priority mode*,
//! i.e. every criterion weighted equally.

use overlay::selector::SelectionRequest;
use overlay::stats::Criterion;

use crate::model::ScoringModel;

/// A weighting of the §2.2 criteria.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightProfile {
    weights: Vec<(Criterion, f64)>,
}

impl WeightProfile {
    /// No criteria (useless on its own; start for builder use).
    pub fn empty() -> Self {
        WeightProfile {
            weights: Vec::new(),
        }
    }

    /// The paper's *same priority* mode: every criterion, equal weight.
    pub fn same_priority() -> Self {
        WeightProfile {
            weights: Criterion::ALL.iter().map(|&c| (c, 1.0)).collect(),
        }
    }

    /// Message-delivery-oriented preset (global criteria of §2.2).
    pub fn message_oriented() -> Self {
        WeightProfile::empty()
            .with(Criterion::MsgSuccessSession, 2.0)
            .with(Criterion::MsgSuccessTotal, 1.0)
            .with(Criterion::MsgSuccessLastK, 2.0)
            .with(Criterion::OutboxNow, 1.5)
            .with(Criterion::OutboxAvg, 1.0)
            .with(Criterion::InboxNow, 1.5)
            .with(Criterion::InboxAvg, 1.0)
    }

    /// Task-execution-oriented preset.
    pub fn task_oriented() -> Self {
        WeightProfile::empty()
            .with(Criterion::TaskExecSession, 2.0)
            .with(Criterion::TaskExecTotal, 1.5)
            .with(Criterion::TaskAcceptSession, 1.5)
            .with(Criterion::TaskAcceptTotal, 1.0)
            .with(Criterion::InboxNow, 1.0)
            .with(Criterion::PendingTransfers, 0.5)
    }

    /// File-transfer-oriented preset.
    pub fn file_oriented() -> Self {
        WeightProfile::empty()
            .with(Criterion::FilesSentSession, 2.0)
            .with(Criterion::FilesSentTotal, 1.0)
            .with(Criterion::CancelSession, 2.0)
            .with(Criterion::CancelTotal, 1.0)
            .with(Criterion::PendingTransfers, 1.5)
            .with(Criterion::OutboxNow, 1.0)
    }

    /// Adds (or replaces) a criterion weight.
    pub fn with(mut self, criterion: Criterion, weight: f64) -> Self {
        self.weights.retain(|(c, _)| *c != criterion);
        if weight != 0.0 {
            self.weights.push((criterion, weight));
        }
        self
    }

    /// The active (non-zero) criterion weights.
    pub fn weights(&self) -> &[(Criterion, f64)] {
        &self.weights
    }

    /// Sum of all weights.
    pub(crate) fn total_weight(&self) -> f64 {
        self.weights.iter().map(|(_, w)| w.abs()).sum()
    }
}

/// The data evaluator model.
#[derive(Debug, Clone)]
pub struct DataEvaluatorModel {
    profile: WeightProfile,
    /// Goodness assumed for criteria a peer has no history on.
    neutral: f64,
    name: String,
    /// Where a roster that keeps no criterion columns gathers them (see
    /// [`overlay::selector::Roster::criteria`]), kept between calls.
    scratch: Vec<f64>,
}

impl DataEvaluatorModel {
    /// Creates the model in the paper's *same priority* mode.
    pub fn same_priority() -> Self {
        DataEvaluatorModel::with_profile(
            "data-evaluator(same-priority)",
            WeightProfile::same_priority(),
        )
    }

    /// Creates the model with a custom weight profile.
    pub fn with_profile(name: impl Into<String>, profile: WeightProfile) -> Self {
        DataEvaluatorModel {
            profile,
            neutral: 0.5,
            name: name.into(),
            scratch: Vec::new(),
        }
    }
}

impl ScoringModel for DataEvaluatorModel {
    fn name(&self) -> &str {
        &self.name
    }

    /// Reads the roster's criterion columns once. For each profile
    /// criterion, one pass finds the column's finite minimum and maximum
    /// and one tight loop normalizes, polarity-corrects, weights and adds
    /// the column into the scores. Each candidate's score is accumulated
    /// criterion by criterion in profile order, so it is `to_bits`-equal
    /// to normalizing one column per criterion with `min_max_normalize`.
    fn scores(&mut self, req: &SelectionRequest<'_>) -> Vec<f64> {
        let n = req.candidates.len();
        let total_weight = self.profile.total_weight();
        if n == 0 || total_weight <= 0.0 {
            return vec![0.0; n];
        }
        let columns = req.candidates.criteria(&mut self.scratch);
        let mut scores = vec![0.0; n];
        for &(criterion, weight) in self.profile.weights() {
            let column = &columns[criterion as usize * n..][..n];
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in column.iter().filter(|v| v.is_finite()) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let (span, neutral) = (hi - lo, self.neutral);
            // Missing history is NaN: neutral, not zero. Other non-finite
            // values pass through un-normalized.
            let checked = move |raw: f64| {
                if !raw.is_finite() {
                    raw
                } else if span <= 0.0 {
                    0.5 // constant column: all equally good
                } else {
                    (raw - lo) / span
                }
            };
            // With a finite positive span `lo` is finite too, and the
            // formula maps NaN and ±inf onto themselves: no test needed.
            let direct = move |raw: f64| (raw - lo) / span;
            match (span > 0.0 && span.is_finite(), criterion.higher_is_better()) {
                (true, true) => add_column(&mut scores, column, weight, neutral, direct, |v| v),
                (true, false) => {
                    add_column(&mut scores, column, weight, neutral, direct, |v| 1.0 - v)
                }
                (false, true) => add_column(&mut scores, column, weight, neutral, checked, |v| v),
                (false, false) => {
                    add_column(&mut scores, column, weight, neutral, checked, |v| 1.0 - v)
                }
            }
        }
        for s in &mut scores {
            *s /= total_weight;
        }
        scores
    }
}

/// Adds `weight × goodness` of one criterion's column into the scores:
/// `normalize` maps a raw value into `[0, 1]`, a NaN result (no history)
/// counts as `neutral`, and `polarity` turns any other into goodness.
/// Each column class gets its own loop, with no branch per value.
#[inline(always)]
fn add_column(
    scores: &mut [f64],
    column: &[f64],
    weight: f64,
    neutral: f64,
    normalize: impl Fn(f64) -> f64,
    polarity: impl Fn(f64) -> f64,
) {
    for (score, &raw) in scores.iter_mut().zip(column) {
        let v = normalize(raw);
        let goodness = if v.is_nan() { neutral } else { polarity(v) };
        *score += weight * goodness;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scored;
    use netsim::node::NodeId;
    use netsim::time::SimTime;
    use overlay::id::{IdGenerator, PeerId};
    use overlay::selector::{CandidateView, InteractionHistory, PeerSelector, Purpose, Roster};
    use overlay::stats::StatsSnapshot;

    fn cand(node: u32, snapshot: StatsSnapshot) -> CandidateView {
        let mut g = IdGenerator::new(node as u64 + 1);
        CandidateView {
            peer: PeerId::generate(&mut g),
            node: NodeId(node),
            name: format!("n{node}").into(),
            cpu_gops: 1.0,
            snapshot,
            history: InteractionHistory::empty(),
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
    fn profile_presets_are_nonempty() {
        assert_eq!(WeightProfile::same_priority().weights().len(), 16);
        assert!(!WeightProfile::message_oriented().weights().is_empty());
        assert!(!WeightProfile::task_oriented().weights().is_empty());
        assert!(!WeightProfile::file_oriented().weights().is_empty());
    }

    #[test]
    fn with_replaces_and_zero_removes() {
        let p = WeightProfile::empty()
            .with(Criterion::OutboxNow, 1.0)
            .with(Criterion::OutboxNow, 2.0);
        assert_eq!(p.weights(), &[(Criterion::OutboxNow, 2.0)]);
        let p = p.with(Criterion::OutboxNow, 0.0);
        assert!(p.weights().is_empty());
    }

    #[test]
    fn better_message_success_wins() {
        let mut good = StatsSnapshot::empty(1.0);
        good.msg_success_total = Some(99.0);
        let mut bad = StatsSnapshot::empty(1.0);
        bad.msg_success_total = Some(60.0);
        let c = vec![cand(0, bad), cand(1, good)];
        let mut s = Scored::new(DataEvaluatorModel::same_priority());
        assert_eq!(s.select(&req(&c)), Some(1));
    }

    #[test]
    fn long_queues_count_against() {
        let mut idle = StatsSnapshot::empty(1.0);
        idle.outbox_now = 0.0;
        idle.inbox_now = 0.0;
        let mut congested = StatsSnapshot::empty(1.0);
        congested.outbox_now = 12.0;
        congested.inbox_now = 9.0;
        let c = vec![cand(0, congested), cand(1, idle)];
        let mut s = Scored::new(DataEvaluatorModel::same_priority());
        assert_eq!(s.select(&req(&c)), Some(1));
    }

    #[test]
    fn cancellation_rate_counts_against() {
        let mut flaky = StatsSnapshot::empty(1.0);
        flaky.cancel_total = Some(40.0);
        flaky.files_sent_total = Some(60.0);
        let mut solid = StatsSnapshot::empty(1.0);
        solid.cancel_total = Some(0.0);
        solid.files_sent_total = Some(100.0);
        let c = vec![cand(0, flaky), cand(1, solid)];
        let mut s = Scored::new(DataEvaluatorModel::with_profile(
            "files",
            WeightProfile::file_oriented(),
        ));
        assert_eq!(s.select(&req(&c)), Some(1));
    }

    #[test]
    fn missing_history_is_neutral_not_zero() {
        // A peer with no data must not automatically beat (or lose to) a
        // peer with mediocre data on a higher-is-better criterion.
        let unknown = StatsSnapshot::empty(1.0);
        let mut perfect = StatsSnapshot::empty(1.0);
        perfect.msg_success_total = Some(100.0);
        let mut poor = StatsSnapshot::empty(1.0);
        poor.msg_success_total = Some(0.0);
        let profile = WeightProfile::empty().with(Criterion::MsgSuccessTotal, 1.0);
        let s = Scored::new(DataEvaluatorModel::with_profile("msg", profile));
        let c = vec![cand(0, poor), cand(1, unknown), cand(2, perfect)];
        let scores = s.inner().clone().scores(&req(&c));
        assert!(scores[0] < scores[1]);
        assert!(scores[1] < scores[2]);
        assert!((scores[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scores_invariant_under_weight_scaling() {
        let mut a = StatsSnapshot::empty(1.0);
        a.msg_success_total = Some(80.0);
        a.outbox_now = 3.0;
        let mut b = StatsSnapshot::empty(1.0);
        b.msg_success_total = Some(90.0);
        b.outbox_now = 6.0;
        let c = vec![cand(0, a), cand(1, b)];
        let p1 = WeightProfile::empty()
            .with(Criterion::MsgSuccessTotal, 1.0)
            .with(Criterion::OutboxNow, 2.0);
        let p2 = WeightProfile::empty()
            .with(Criterion::MsgSuccessTotal, 10.0)
            .with(Criterion::OutboxNow, 20.0);
        let s1 = DataEvaluatorModel::with_profile("p1", p1).scores(&req(&c));
        let s2 = DataEvaluatorModel::with_profile("p2", p2).scores(&req(&c));
        for (x, y) in s1.iter().zip(&s2) {
            assert!(
                (x - y).abs() < 1e-12,
                "scaling weights must not change scores"
            );
        }
    }

    #[test]
    fn scores_bounded_zero_one() {
        let mut a = StatsSnapshot::empty(1.0);
        a.msg_success_total = Some(10.0);
        a.outbox_now = 100.0;
        let mut b = StatsSnapshot::empty(1.0);
        b.msg_success_total = Some(95.0);
        b.outbox_now = 0.0;
        let c = vec![cand(0, a), cand(1, b)];
        let scores = DataEvaluatorModel::same_priority().scores(&req(&c));
        for s in scores {
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn empty_profile_scores_zero() {
        let c = vec![cand(0, StatsSnapshot::empty(1.0))];
        let scores =
            DataEvaluatorModel::with_profile("none", WeightProfile::empty()).scores(&req(&c));
        assert_eq!(scores, vec![0.0]);
    }

    /// The column-wise evaluation the single-sweep `scores` replaced: one
    /// raw column per criterion, min-max normalized on its own, then
    /// polarity-corrected, weighted and added into the score vector.
    fn column_wise_scores(model: &DataEvaluatorModel, req: &SelectionRequest<'_>) -> Vec<f64> {
        let n = req.candidates.len();
        let total_weight = model.profile.total_weight();
        if n == 0 || total_weight <= 0.0 {
            return vec![0.0; n];
        }
        let mut scores = vec![0.0; n];
        for &(criterion, weight) in model.profile.weights() {
            let mut column: Vec<f64> = req
                .candidates
                .iter()
                .map(|c| c.snapshot.value(criterion).unwrap_or(f64::NAN))
                .collect();
            crate::model::min_max_normalize(&mut column);
            for (i, v) in column.into_iter().enumerate() {
                let goodness = if v.is_nan() {
                    model.neutral
                } else if criterion.higher_is_better() {
                    v
                } else {
                    1.0 - v
                };
                scores[i] += weight * goodness;
            }
        }
        for s in &mut scores {
            *s /= total_weight;
        }
        scores
    }

    /// A snapshot whose criteria are each, by `shape`: absent, the same
    /// for every candidate, or (mostly) random — with the odd non-finite
    /// gauge thrown in. A session criterion reads its total, so the
    /// session slots of `shape` go unused.
    fn random_snapshot(rng: &mut netsim::rng::SimRng, shape: &[u64; 16]) -> StatsSnapshot {
        let mut pct = |k: usize| match shape[k] {
            0 => None,
            1 => Some(42.0),
            _ if rng.below(5) == 0 => None,
            _ => Some(rng.uniform_range(0.0, 100.0)),
        };
        let mut snapshot = StatsSnapshot::empty(1.0);
        snapshot.msg_success_total = pct(1);
        snapshot.msg_success_last_k = pct(2);
        snapshot.task_exec_total = pct(8);
        snapshot.task_accept_total = pct(10);
        snapshot.files_sent_total = pct(12);
        snapshot.cancel_total = pct(14);
        let mut gauge = |k: usize| match shape[k] {
            0 | 1 => 3.0,
            _ if rng.below(40) == 0 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][k % 3],
            _ => rng.uniform_range(0.0, 20.0),
        };
        snapshot.outbox_now = gauge(3);
        snapshot.outbox_avg = gauge(4);
        snapshot.inbox_now = gauge(5);
        snapshot.inbox_avg = gauge(6);
        snapshot.pending_transfers = gauge(15);
        snapshot
    }

    #[test]
    fn single_sweep_scores_are_bit_identical_to_column_wise_normalization() {
        let mut rng = netsim::rng::SimRng::new(0xE7A1);
        let models = [
            DataEvaluatorModel::same_priority(),
            DataEvaluatorModel::with_profile("files", WeightProfile::file_oriented()),
            DataEvaluatorModel::with_profile("tasks", WeightProfile::task_oriented()),
            DataEvaluatorModel::with_profile("none", WeightProfile::empty()),
        ];
        for round in 0..300 {
            // A single candidate, a pair, rosters of up to 40, and a few
            // hundred on either side of a power of two.
            let n = [1, 2, 1 + rng.below(40) as usize, 255, 256, 257, 515][round % 7];
            let shape: [u64; 16] = std::array::from_fn(|_| rng.below(4));
            let roster: Vec<CandidateView> = (0..n)
                .map(|i| cand(i as u32, random_snapshot(&mut rng, &shape)))
                .collect();
            for model in &models {
                let got = model.clone().scores(&req(&roster));
                let want = column_wise_scores(model, &req(&roster));
                assert_eq!(
                    got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "round {round}, {}: {got:?} vs {want:?}",
                    model.name
                );
            }
        }
        let none: Vec<CandidateView> = Vec::new();
        assert!(models[0].clone().scores(&req(&none)).is_empty());
    }

    #[test]
    fn overflowing_and_non_finite_columns_match_column_wise_normalization() {
        let values = [
            -1.5e308,
            1.5e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -0.0,
        ];
        let roster: Vec<CandidateView> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut snapshot = StatsSnapshot::empty(1.0);
                snapshot.outbox_now = v; // lower is better, span overflows
                snapshot.msg_success_total = Some(values[(i + 3) % values.len()]);
                snapshot.inbox_avg = -0.0; // constant column
                cand(i as u32, snapshot)
            })
            .collect();
        let model = DataEvaluatorModel::same_priority();
        let got = model.clone().scores(&req(&roster));
        let want = column_wise_scores(&model, &req(&roster));
        assert_eq!(
            got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "{got:?} vs {want:?}"
        );
    }
}
