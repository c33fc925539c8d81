//! `petition-storm`: the registry's read side under the paper's models.
//!
//! A static fleet joins, then every broker places a `Selected` file
//! petition every few seconds — one roster materialisation and one model
//! call each — while gossip barely ticks. The shipped workloads hard-code
//! the round-robin selector and issue a handful of petitions, so no
//! shipped workload runs the paper's selection models against a large
//! roster; this one is built from the program's public pieces only
//! (`Broker`, `LifecyclePeer`, `Federation::configure`, `factory_for`).

use std::time::Instant;

use netsim::engine::Actor;
use netsim::node::NodeId;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::lifecycle::{LifecycleConfig, LifecyclePeer, LifecycleScript, SessionPlan};
use overlay::message::OverlayMsg;
use overlay::selector::ModelKind;
use peer_selection::service::factory_for;
use workloads::harness::{
    BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload,
};
use workloads::synthtopo::{build_synth_topo, SynthTopoConfig};

use super::{harness_rep, Done, Expect, Mode, Size};

/// One model per broker, cycling: the three paper models and the bandit.
const MODELS: [ModelKind; 4] = [
    ModelKind::Economic,
    ModelKind::SamePriority,
    ModelKind::QuickPeer,
    ModelKind::Ucb1,
];

const HORIZON: SimDuration = SimDuration::from_secs(700);
/// Every peer has joined before this (arrivals spread over 100 s).
const FIRST_PETITION: SimDuration = SimDuration::from_secs(120);
const PETITION_INTERVAL: SimDuration = SimDuration::from_secs(5);
const ARRIVAL_SPREAD_SECS: f64 = 100.0;
const FILE_BYTES: u64 = 1024 * 1024;
const FILE_PARTS: u32 = 4;
/// Gossip is sparse on purpose (two ticks per broker in the horizon).
const GOSSIP_INTERVAL: SimDuration = SimDuration::from_secs(240);
const STALENESS_BOUND: SimDuration = SimDuration::from_secs(720);
/// Salt for the selector factory, so stochastic models (none are used
/// today) would draw a stream no other driver uses.
const SELECTOR_SALT: u64 = 0xBE7C;

pub struct PetitionStorm {
    pub topo: SynthTopoConfig,
    pub petitions_per_broker: usize,
}

impl Workload for PetitionStorm {
    fn name(&self) -> &'static str {
        "petition-storm"
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
            let mut cfg = BrokerConfig::new(cx.seed ^ (0x5701_0000 + r as u64));
            cfg.stop_when_idle = false;
            let model = MODELS[r % MODELS.len()];
            let factory = factory_for(model, SELECTOR_SALT).expect("no blind model in MODELS");
            cfg.selector = Some(factory(cx.seed));
            cx.federation.configure(r, &mut cfg);
            for i in 0..self.petitions_per_broker {
                cfg = cfg.at(
                    FIRST_PETITION + PETITION_INTERVAL * i as u64,
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::Selected,
                        size_bytes: FILE_BYTES,
                        num_parts: FILE_PARTS,
                        label: format!("storm-r{r}-{i}"),
                    },
                );
            }
            actors.push((broker, Box::new(Broker::new(cfg, cx.sink_of(broker)))));
        }
        // Streams derive from the master seed and the node id only, so the
        // fleet is the same under any sharding.
        let master = SimRng::new(cx.seed).split(0x5701_0B11);
        for r in 0..self.topo.regions {
            for node in self.topo.peer_nodes(r) {
                let mut rng = master.split(node.index() as u64);
                let script = LifecycleScript {
                    arrival: SimDuration::from_secs_f64(
                        rng.uniform_range(0.0, ARRIVAL_SPREAD_SECS),
                    ),
                    // One session that outlives the horizon: nobody leaves.
                    sessions: vec![SessionPlan {
                        length: HORIZON * 2,
                        off_time: SimDuration::ZERO,
                        cpu_gops: rng.pareto(0.5, 1.8),
                    }],
                };
                let cfg = LifecycleConfig {
                    brokers: vec![cx.brokers[r]],
                    script,
                    accepts_tasks: true,
                    failover: None,
                };
                let peer = LifecyclePeer::new(cfg, rng.next_u64_raw());
                actors.push((node, Box::new(peer)));
            }
        }
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        TimeSeriesRecorder::new(interval)
    }

    fn summarize(&self, seed: u64, run: &HarnessRun) -> String {
        let chosen: Vec<String> = run
            .log
            .selections
            .iter()
            .map(|s| format!("\"{}@{}:{}\"", s.model, s.at.as_nanos(), s.chosen.index()))
            .collect();
        format!(
            "{{\"workload\":\"petition-storm\",\"seed\":{seed},\"outcome\":\"{:?}\",\
             \"elapsed_ns\":{},\"events\":{},\"transfers\":{},\"selections\":[{}]}}\n",
            run.outcome,
            run.elapsed.as_nanos(),
            run.events_processed,
            run.log.transfers.len(),
            chosen.join(",")
        )
    }
}

pub fn run(size: Size, seed: u64, mode: Mode, entry: Instant) -> Result<Done, String> {
    let (peers, petitions_per_broker) = match size {
        Size::Full => (16_000, 100),
        Size::Quick => (400, 10),
    };
    let workload = PetitionStorm {
        topo: SynthTopoConfig {
            regions: MODELS.len(),
            peers,
            ..SynthTopoConfig::default()
        },
        petitions_per_broker,
    };
    let expect = Expect {
        peers: peers as u64,
        selections: Some((workload.topo.regions * petitions_per_broker) as u64),
        rehomes: false,
    };
    harness_rep(
        "petition-storm",
        &workload,
        HORIZON,
        &expect,
        seed,
        mode,
        entry,
    )
}
