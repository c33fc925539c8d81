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
//! shard-worker count.

use netsim::engine::Actor;
use netsim::node::NodeId;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::trace::fnv1a;
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::lifecycle::{LifecycleConfig, LifecyclePeer, LifecycleScript, SessionPlan};
use overlay::message::OverlayMsg;
use overlay::selector::ModelKind;
use peer_selection::service::factory_for;
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
            let factory = factory_for(MODELS[r], 0).expect("no blind model in MODELS");
            cfg.selector = Some(factory(cx.seed));
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
/// sizes, smallest roster)`.
fn run(workers: usize) -> (usize, u64, u64, usize, usize) {
    let workload = ModelStorm {
        topo: SynthTopoConfig {
            regions: MODELS.len(),
            peers: PEERS,
            ..SynthTopoConfig::default()
        },
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
    (
        run.log.selections.len(),
        fnv1a(log.as_bytes()),
        run.metrics.counter("churn.leaves"),
        sizes.len(),
        sizes.first().copied().unwrap_or(0),
    )
}

#[test]
fn model_choices_on_a_churning_federated_roster_are_pinned_at_any_worker_count() {
    let serial = run(1);
    let (selections, digest, leaves, roster_sizes, smallest) = serial;
    // Vacuity guards: petitions were placed, peers did leave, and the
    // roster the models saw kept changing size (joins, purges, expiries).
    assert!(selections > 500, "only {selections} selections");
    assert!(leaves > 50, "only {leaves} leaves");
    assert!(
        roster_sizes > 20,
        "only {roster_sizes} distinct roster sizes"
    );
    // The data evaluator scores 256 candidates per block (`BLOCK` in
    // `crates/core/src/evaluator.rs`). The block must stay below the
    // smallest roster here (291), so the pin covers a multi-block sweep.
    assert!(
        smallest > 256,
        "smallest roster {smallest} fits in one scoring block"
    );
    assert_eq!(
        (selections, digest),
        PINNED,
        "selection log moved: {selections} selections, digest {digest:#018x}"
    );
    assert_eq!(run(4), serial, "selection log depends on the worker count");
}
