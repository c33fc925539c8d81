//! Pins what the paper's models *choose* on a federated roster under
//! churn.
//!
//! The shipped workloads hard-code the round-robin selector, which reads
//! no snapshot or history field, so none of their digests would notice a
//! stale cached snapshot, a roster out of node order, or an expired
//! remote view still on offer. This workload runs four brokers — economic,
//! same-priority, quick-peer and UCB1 — over a few hundred peers, a third
//! of which leave and rejoin, with gossip every 20 s and a 50 s staleness
//! bound, so departures, purges, order rebuilds and view expiries all
//! interleave with a petition every 3 s per broker. The digest of the
//! merged selection log was recorded before the registry's read path
//! borrowed the roster and must not move; it must also not depend on the
//! shard-worker count. Every broker's model also checks each read: the
//! registry's cached columns against the trait defaults, and every
//! model's scores and choice on the live roster against an owned copy.

use std::sync::{Arc, Mutex};

use netsim::engine::Actor;
use netsim::node::NodeId;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::trace::fnv1a;
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::id::PeerId;
use overlay::lifecycle::{LifecycleConfig, LifecyclePeer, LifecycleScript, SessionPlan};
use overlay::message::OverlayMsg;
use overlay::selector::{
    CandidateView, InteractionHistory, ModelKind, PeerSelector, Purpose, Roster, SelectionOutcome,
    SelectionRequest,
};
use peer_selection::adaptive::{EpsilonGreedySelector, Ucb1Selector};
use peer_selection::economic::EconomicModel;
use peer_selection::evaluator::DataEvaluatorModel;
use peer_selection::model::{argmax_with_tiebreak, ScoringModel};
use peer_selection::preference::UserPreferenceModel;
use peer_selection::service::{factory_for, EPS_GREEDY_EPSILON, UCB1_EXPLORATION, UCB1_SCALE};
use workloads::harness::{
    BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload, WorkloadBuilder,
};
use workloads::synthtopo::{build_synth_topo, SynthTopoConfig};

const MODELS: [ModelKind; 4] = [
    ModelKind::Economic,
    ModelKind::SamePriority,
    ModelKind::QuickPeer,
    ModelKind::Ucb1,
];
const PEERS: usize = 320;
const HORIZON: SimDuration = SimDuration::from_secs(600);
const FIRST_PETITION: SimDuration = SimDuration::from_secs(45);
const PETITION_INTERVAL: SimDuration = SimDuration::from_secs(3);
const PETITIONS_PER_BROKER: usize = 150;
const GOSSIP_INTERVAL: SimDuration = SimDuration::from_secs(20);
const STALENESS_BOUND: SimDuration = SimDuration::from_secs(50);
const SEED: u64 = 17;

/// `(selections, digest)` of the run, recorded at the commit before the
/// borrowed roster (`87efcd2`).
const PINNED: (usize, u64) = (600, 0x2164_f9d0_1157_bd65);

struct ModelStorm {
    topo: SynthTopoConfig,
    reads: Arc<Mutex<Reads>>,
}

/// How each broker's roster changed from one of its reads to the next,
/// by what the models could see of it, summed over the brokers.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Reads {
    /// Reads whose candidates are not the previous read's: the order was
    /// rebuilt, so the columns were built afresh.
    rebuilt: usize,
    /// Reads with the previous read's candidates, but with criteria that
    /// moved: what `refresh` patches in place, unless something else
    /// outdated the order in between.
    criteria_patched: usize,
    /// The same, for histories that moved.
    histories_patched: usize,
}

/// A roster that only addresses its candidates, so every other read goes
/// through the [`Roster`] trait's defaults.
struct Plain<'a>(&'a dyn Roster);

impl Roster for Plain<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, i: usize) -> &CandidateView {
        self.0.get(i)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A broker's model, choosing as `factory_for` builds it, after checking
/// the read. The registry serves the criterion and history columns
/// without gathering them, and they, the tie-break keys and the hosts
/// equal the trait defaults. Every scoring model's scores (economic for
/// both purposes) and choice, and each bandit's choice, equal those over
/// an owned copy of the roster.
struct Probe {
    /// The broker's own model: the one that chooses.
    model: Box<dyn PeerSelector>,
    scoring: [Box<dyn ScoringModel>; 3],
    /// Fed the broker's outcomes, so its arms are the ones learnt here.
    ucb1: Ucb1Selector,
    /// One per roster, on one seed, so both draw the same stream.
    eps_greedy: [EpsilonGreedySelector; 2],
    reads: Arc<Mutex<Reads>>,
    /// The candidates, criterion columns and histories of the previous
    /// read.
    keys: Vec<(NodeId, PeerId)>,
    columns: Vec<u64>,
    histories: Vec<InteractionHistory>,
}

impl Probe {
    fn new(model: Box<dyn PeerSelector>, seed: u64, reads: Arc<Mutex<Reads>>) -> Self {
        let eps_greedy = || EpsilonGreedySelector::new(EPS_GREEDY_EPSILON, seed);
        Probe {
            model,
            scoring: [
                Box::new(EconomicModel::new()),
                Box::new(UserPreferenceModel::quick_peer()),
                Box::new(DataEvaluatorModel::same_priority()),
            ],
            ucb1: Ucb1Selector::new(UCB1_EXPLORATION, UCB1_SCALE),
            eps_greedy: [eps_greedy(), eps_greedy()],
            reads,
            keys: Vec::new(),
            columns: Vec::new(),
            histories: Vec::new(),
        }
    }
}

impl PeerSelector for Probe {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        let roster = req.candidates;
        let mut scratch = Vec::new();
        let served = bits(roster.criteria(&mut scratch));
        assert!(scratch.is_empty(), "the registry gathered its columns");
        assert_eq!(served, bits(Plain(roster).criteria(&mut scratch)));
        let mut scratch = Vec::new();
        let histories = roster.histories(&mut scratch).to_vec();
        assert!(scratch.is_empty(), "the registry gathered its histories");
        assert_eq!(histories, Plain(roster).histories(&mut scratch));
        for i in 0..roster.len() {
            let (cpu, node) = roster.tiebreak(i);
            let (want_cpu, want_node) = Plain(roster).tiebreak(i);
            assert_eq!((cpu.to_bits(), node), (want_cpu.to_bits(), want_node));
            assert_eq!(roster.node(i), want_node);
        }

        let copy: Vec<CandidateView> = roster.iter().cloned().collect();
        let task = Purpose::TaskExecution {
            work_gops: 300,
            input_bytes: 4 * 1024 * 1024,
        };
        for purpose in [req.purpose, task] {
            let live = SelectionRequest {
                purpose,
                ..req.clone()
            };
            let owned = SelectionRequest {
                candidates: &copy,
                ..live.clone()
            };
            for model in &mut self.scoring {
                let scores = model.scores(&live);
                let owned_scores = model.scores(&owned);
                assert_eq!(bits(&scores), bits(&owned_scores), "{}", model.name());
                assert_eq!(
                    argmax_with_tiebreak(&live, &scores),
                    argmax_with_tiebreak(&owned, &owned_scores),
                    "{}",
                    model.name()
                );
            }
        }
        let owned = SelectionRequest {
            candidates: &copy,
            ..req.clone()
        };
        assert_eq!(self.ucb1.select(req), self.ucb1.select(&owned));
        let [live_eps, owned_eps] = &mut self.eps_greedy;
        assert_eq!(live_eps.select(req), owned_eps.select(&owned));
        let chosen = self.model.select(req);

        let keys: Vec<_> = copy.iter().map(|c| (c.node, c.peer)).collect();
        let mut reads = self.reads.lock().expect("unpoisoned");
        if self.keys != keys {
            reads.rebuilt += 1;
        } else {
            reads.criteria_patched += usize::from(self.columns != served);
            reads.histories_patched += usize::from(self.histories != histories);
        }
        (self.keys, self.columns, self.histories) = (keys, served, histories);
        chosen
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        self.model.on_outcome(outcome);
        self.ucb1.on_outcome(outcome);
        for eps_greedy in &mut self.eps_greedy {
            eps_greedy.on_outcome(outcome);
        }
    }
}

impl Workload for ModelStorm {
    fn name(&self) -> &'static str {
        "model-storm"
    }

    fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError> {
        let built = build_synth_topo(&self.topo, seed);
        Ok(TopologyPlan {
            topo: built.topo,
            map: self.topo.shard_map(self.topo.regions)?,
            brokers: built.brokers,
        })
    }

    fn federation(&self) -> FederationSpec {
        FederationSpec {
            gossip_interval: GOSSIP_INTERVAL,
            staleness_bound: Some(STALENESS_BOUND),
            ..FederationSpec::default()
        }
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let mut actors: Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> = Vec::new();
        for (r, &broker) in cx.brokers.iter().enumerate() {
            let mut cfg = BrokerConfig::new(cx.seed ^ (0x5E1E_0000 + r as u64));
            cfg.stop_when_idle = false;
            let model = factory_for(MODELS[r], 0).expect("no blind model in MODELS")(cx.seed);
            cfg.selector = Some(Box::new(Probe::new(
                model,
                cx.seed,
                Arc::clone(&self.reads),
            )));
            cx.federation.configure(r, &mut cfg);
            for i in 0..PETITIONS_PER_BROKER {
                cfg = cfg.at(
                    FIRST_PETITION + PETITION_INTERVAL * i as u64,
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::Selected,
                        size_bytes: 4 * 1024 * 1024,
                        num_parts: 4,
                        label: format!("storm-r{r}-{i}"),
                    },
                );
            }
            actors.push((broker, Box::new(Broker::new(cfg, cx.sink_of(broker)))));
        }
        let master = SimRng::new(cx.seed).split(0x5E1E_0B11);
        for r in 0..self.topo.regions {
            for node in self.topo.peer_nodes(r) {
                let mut rng = master.split(node.index() as u64);
                let arrival = SimDuration::from_secs_f64(rng.uniform_range(0.0, 40.0));
                // Two in three stay for the whole run; the rest leave once
                // or twice and come back with a different capacity.
                let sessions = if rng.below(3) > 0 {
                    vec![SessionPlan {
                        length: HORIZON * 2,
                        off_time: SimDuration::ZERO,
                        cpu_gops: rng.pareto(0.5, 1.8),
                    }]
                } else {
                    (0..3)
                        .map(|_| SessionPlan {
                            length: SimDuration::from_secs_f64(rng.uniform_range(60.0, 240.0)),
                            off_time: SimDuration::from_secs_f64(rng.uniform_range(10.0, 90.0)),
                            cpu_gops: rng.pareto(0.5, 1.8),
                        })
                        .collect()
                };
                let cfg = LifecycleConfig {
                    brokers: vec![cx.brokers[r]],
                    script: LifecycleScript { arrival, sessions },
                    accepts_tasks: true,
                    failover: None,
                };
                let peer = LifecyclePeer::new(cfg, rng.next_u64_raw());
                actors.push((node, Box::new(peer)));
            }
        }
        actors
    }

    fn summarize(&self, _seed: u64, run: &HarnessRun) -> String {
        run.log
            .selections
            .iter()
            .map(|s| {
                format!(
                    "{} {} {} {} {}\n",
                    s.at.as_nanos(),
                    s.model,
                    s.chosen.index(),
                    s.chosen_name,
                    s.candidates
                )
            })
            .collect()
    }
}

/// `(selections, digest of the selection log, leaves, distinct roster
/// sizes, the brokers' reads)`.
fn run(workers: usize) -> (usize, u64, u64, usize, Reads) {
    let workload = ModelStorm {
        topo: SynthTopoConfig {
            regions: MODELS.len(),
            peers: PEERS,
            ..SynthTopoConfig::default()
        },
        reads: Arc::default(),
    };
    let harness = WorkloadBuilder::new()
        .horizon(HORIZON)
        .shard_workers(workers)
        .trace_capacity(None)
        .build()
        .expect("valid harness");
    let run = harness.run(&workload, SEED).expect("run succeeds");
    let log = workload.summarize(SEED, &run);
    let mut sizes: Vec<usize> = run.log.selections.iter().map(|s| s.candidates).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let reads = *workload.reads.lock().expect("unpoisoned");
    (
        run.log.selections.len(),
        fnv1a(log.as_bytes()),
        run.metrics.counter("churn.leaves"),
        sizes.len(),
        reads,
    )
}

#[test]
fn model_choices_on_a_churning_federated_roster_are_pinned_at_any_worker_count() {
    let serial = run(1);
    let (selections, digest, leaves, roster_sizes, reads) = serial;
    // Vacuity guards: petitions were placed, peers did leave, and the
    // roster the models saw kept changing size (joins, purges, expiries).
    assert!(selections > 500, "only {selections} selections");
    assert!(leaves > 50, "only {leaves} leaves");
    assert!(
        roster_sizes > 20,
        "only {roster_sizes} distinct roster sizes"
    );
    // The registry's criterion and history columns were both rebuilt
    // and patched under the pin.
    assert!(
        reads.rebuilt > 20 && reads.criteria_patched > 20 && reads.histories_patched > 20,
        "{reads:?}"
    );
    assert_eq!(
        (selections, digest),
        PINNED,
        "selection log moved: {selections} selections, digest {digest:#018x}"
    );
    assert_eq!(run(4), serial, "selection log depends on the worker count");
}
