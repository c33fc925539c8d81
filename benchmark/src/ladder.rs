//! The direct-call ladder: public functions of single layers, timed in a
//! loop with no workload around them.
//!
//! A rung answers "what does this layer cost by itself?", so that a
//! change in an end-to-end number can be followed down to the layer that
//! caused it: queue → engine → transport → selection → testbed builders.
//! Inputs are fixed (the ladder takes no seed): rungs compare commits, not
//! scenarios. None is gated; `BENCHMARK.json` lists them as per-layer
//! metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use netsim::engine::{Actor, Context, Engine, Payload};
use netsim::event::EventQueue;
use netsim::link::{AccessLink, PathSpec};
use netsim::node::{NodeId, NodeSpec};
use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::Topology;
use netsim::transport::{TransferPlanner, TransportConfig};
use overlay::id::{IdGenerator, PeerId};
use overlay::selector::{CandidateView, InteractionHistory, ModelKind, Purpose, SelectionRequest};
use overlay::stats::StatsSnapshot;
use peer_selection::service::factory_for;
use planetlab::builder::TestbedConfig;
use workloads::synthtopo::{build_synth_topo, SynthTopoConfig};

use crate::stats::median;

const SEED: u64 = 0x01AD_DE12;

/// Runs every rung; `scale` divides the iteration counts (1 = full).
pub fn run(scale: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    out.insert("host.calib_ns".to_string(), crate::host::calibrate());
    out.insert(
        "event.push_pop_ns".to_string(),
        queue_push_pop(2_000_000 / scale),
    );
    out.insert(
        "engine.pingpong_ns_per_event".to_string(),
        pingpong(2_000_000 / scale),
    );
    out.insert(
        "transport.plan_ns".to_string(),
        transport_plan(2_000_000 / scale),
    );
    for (model, label) in [
        (ModelKind::Economic, "economic"),
        (ModelKind::SamePriority, "same-priority"),
        (ModelKind::QuickPeer, "quick-peer"),
    ] {
        for (n, calls) in [(10, 200_000), (1_000, 2_000), (100_000, 20)] {
            out.insert(
                format!("core.select_ns.{label}.n{n}"),
                select(model, n, (calls / scale).max(1)),
            );
        }
    }
    out.insert(
        "synthtopo.build_ms.n20k".to_string(),
        synth_build_ms(20_000, 5),
    );
    out.insert(
        "synthtopo.build_ms.n100k".to_string(),
        synth_build_ms(100_000, 3),
    );
    out.insert(
        "planetlab.build_us".to_string(),
        planetlab_build_us(2_000 / scale),
    );
    out
}

fn ns_per(iterations: u64, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / iterations as f64
}

/// One pop and one push on an `EventQueue` held at depth 4096.
fn queue_push_pop(iterations: u64) -> f64 {
    let mut rng = SimRng::new(SEED);
    let mut queue = EventQueue::new();
    for i in 0..4096u64 {
        queue.schedule(SimTime::from_nanos(rng.below(1_000_000)), i);
    }
    let start = Instant::now();
    for _ in 0..iterations {
        let (time, payload) = queue.pop().expect("queue holds 4096 events");
        let later = time + SimDuration::from_nanos(1 + rng.below(1_000_000));
        queue.schedule(later, black_box(payload));
    }
    black_box(&queue);
    ns_per(iterations, start)
}

#[derive(Debug)]
struct Ball(u64);

impl Payload for Ball {
    fn wire_size(&self) -> u64 {
        64
    }
}

/// Returns every ball until its counter runs out.
struct Paddle {
    peer: NodeId,
    serve: Option<u64>,
}

impl Actor<Ball> for Paddle {
    fn on_start(&mut self, ctx: &mut Context<Ball>) {
        if let Some(rallies) = self.serve {
            ctx.send(self.peer, Ball(rallies));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Ball>, from: NodeId, msg: Ball) {
        if msg.0 > 1 {
            ctx.send(from, Ball(msg.0 - 1));
        }
    }
}

/// Host ns per event of a two-node ping-pong on the ideal transport: the
/// engine's dispatch loop at queue depth one.
fn pingpong(messages: u64) -> f64 {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let b = topo.add_node(NodeSpec::responsive("b"), AccessLink::default());
    topo.set_path_symmetric(a, b, PathSpec::from_owd_ms(25.0, 0.0));
    let mut engine = Engine::new(topo, TransportConfig::ideal(), SEED);
    engine.register(
        a,
        Box::new(Paddle {
            peer: b,
            serve: Some(messages),
        }),
    );
    engine.register(
        b,
        Box::new(Paddle {
            peer: a,
            serve: None,
        }),
    );
    let start = Instant::now();
    engine.run();
    let ns = start.elapsed().as_nanos() as f64;
    ns / engine.events_processed() as f64
}

/// One `TransferPlanner::plan` between random nodes of a 1024-peer
/// synthetic testbed, default transport.
fn transport_plan(iterations: u64) -> f64 {
    let cfg = SynthTopoConfig {
        regions: 4,
        peers: 1024,
        ..SynthTopoConfig::default()
    };
    let topo = build_synth_topo(&cfg, SEED).topo;
    let n = topo.len() as u64;
    let mut planner = TransferPlanner::new(TransportConfig::default(), topo.len());
    let mut rng = SimRng::new(SEED);
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    for _ in 0..iterations {
        let from = NodeId(rng.below(n) as u32);
        let to = NodeId(rng.below(n) as u32);
        now += SimDuration::from_micros(1);
        black_box(planner.plan(&topo, now, from, to, 256, &mut rng));
    }
    ns_per(iterations, start)
}

/// A roster of `n` peers with varied capacity and history, the shape the
/// broker's registry hands a selector.
fn candidates(n: usize) -> Vec<CandidateView> {
    let mut rng = SimRng::new(SEED);
    let mut ids = IdGenerator::new(SEED);
    (0..n)
        .map(|i| {
            let cpu_gops = rng.pareto(0.5, 1.8);
            let mut snapshot = StatsSnapshot::empty(cpu_gops);
            snapshot.msg_success_total = Some(rng.uniform_range(50.0, 100.0));
            snapshot.files_sent_total = Some(rng.uniform_range(50.0, 100.0));
            snapshot.inbox_avg = rng.uniform_range(0.0, 4.0);
            snapshot.pending_transfers = rng.below(4) as f64;
            let mut history = InteractionHistory::empty();
            history.ewma_petition_secs = Some(rng.uniform_range(0.05, 2.0));
            history.ewma_throughput_bps = Some(rng.pareto(250_000.0, 1.5));
            CandidateView {
                peer: PeerId::generate(&mut ids),
                node: NodeId(i as u32),
                name: Arc::from(format!("peer-{i}")),
                cpu_gops,
                snapshot,
                history,
            }
        })
        .collect()
}

/// One `PeerSelector::select` over `n` candidates.
fn select(model: ModelKind, n: usize, calls: u64) -> f64 {
    let roster = candidates(n);
    let mut selector = factory_for(model, 0).expect("a scoring model")(SEED);
    let request = SelectionRequest {
        now: SimTime::ZERO + SimDuration::from_secs(600),
        purpose: Purpose::FileTransfer { bytes: 1 << 20 },
        candidates: &roster,
    };
    let start = Instant::now();
    for _ in 0..calls {
        black_box(selector.select(black_box(&request)));
    }
    ns_per(calls, start)
}

/// Median wall time of `build_synth_topo` at `peers` peers, 8 regions.
fn synth_build_ms(peers: usize, repeats: usize) -> f64 {
    let cfg = SynthTopoConfig {
        peers,
        ..SynthTopoConfig::default()
    };
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            black_box(build_synth_topo(black_box(&cfg), SEED));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Mean wall time of building the paper's measurement testbed — paid once
/// per campaign cell replication.
fn planetlab_build_us(iterations: u64) -> f64 {
    let cfg = TestbedConfig::measurement_setup();
    let start = Instant::now();
    for _ in 0..iterations {
        black_box(planetlab::builder::build(black_box(&cfg)));
    }
    ns_per(iterations, start) / 1e3
}
