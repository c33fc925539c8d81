//! `engine-mesh`: the floor under every other workload.
//!
//! A thousand nodes on a serial `Engine` keep a fixed number of small
//! messages in flight to random destinations and churn a timer each, so
//! the event queue sits at a realistic depth (thousands, not the two of a
//! ping-pong) and every event pays transport planning, a queue push and
//! pop, the timer set, the hot metric ids and the node RNG — and no
//! overlay code at all. An overlay optimisation predicts no change here;
//! an engine one must show here first.
//!
//! Handlers are not timed on this workload even in traced mode: two clock
//! reads would cost a third of an event. `engine.self_s` is the whole run.

use std::collections::BTreeMap;
use std::time::Instant;

use netsim::engine::{Actor, Context, Engine, Payload, RunOutcome, TimerId};
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::transport::TransportConfig;
use workloads::report::metrics_snapshot_json;
use workloads::synthtopo::{build_synth_topo, SynthTopoConfig};

use super::{Done, Fnv1a, Mode, Rep, Size};
use crate::layers::engine_layers;

const IN_FLIGHT_PER_NODE: usize = 4;
const MESSAGE_BYTES: u64 = 256;
const TIMER_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Every this-many received messages a node cancels and re-arms its timer.
const CANCEL_EVERY: u64 = 8;

#[derive(Debug)]
struct MeshMsg;

impl Payload for MeshMsg {
    fn wire_size(&self) -> u64 {
        MESSAGE_BYTES
    }

    fn kind(&self) -> &'static str {
        "mesh"
    }
}

#[derive(Default)]
struct MeshNode {
    timer: Option<TimerId>,
    received: u64,
}

impl MeshNode {
    fn send_random(ctx: &mut Context<MeshMsg>) {
        let n = ctx.num_nodes() as u64;
        let to = NodeId(ctx.rng().below(n) as u32);
        ctx.send(to, MeshMsg);
    }
}

impl Actor<MeshMsg> for MeshNode {
    fn on_start(&mut self, ctx: &mut Context<MeshMsg>) {
        for _ in 0..IN_FLIGHT_PER_NODE {
            Self::send_random(ctx);
        }
        self.timer = Some(ctx.schedule_timer(TIMER_PERIOD, 0));
    }

    fn on_message(&mut self, ctx: &mut Context<MeshMsg>, _from: NodeId, _msg: MeshMsg) {
        self.received += 1;
        if self.received.is_multiple_of(CANCEL_EVERY) {
            if let Some(timer) = self.timer.take() {
                ctx.cancel_timer(timer);
            }
            self.timer = Some(ctx.schedule_timer(TIMER_PERIOD, 0));
        }
        // One message out per message in keeps the in-flight count fixed.
        Self::send_random(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<MeshMsg>, _timer: TimerId, _tag: u64) {
        self.timer = Some(ctx.schedule_timer(TIMER_PERIOD, 0));
    }
}

/// Set-up: the testbed, the engine, one node actor per host.
fn build(size: Size, seed: u64) -> (Engine<MeshMsg>, u64) {
    let (peers, event_limit) = match size {
        Size::Full => (1024, 12_000_000),
        Size::Quick => (64, 100_000),
    };
    let topo_cfg = SynthTopoConfig {
        regions: 4,
        peers,
        ..SynthTopoConfig::default()
    };
    let topo = build_synth_topo(&topo_cfg, seed).topo;
    let nodes: Vec<NodeId> = topo.node_ids().collect();
    let mut engine: Engine<MeshMsg> = Engine::new(topo, TransportConfig::default(), seed);
    engine.set_event_limit(event_limit);
    for node in nodes {
        engine.register(node, Box::new(MeshNode::default()));
    }
    (engine, event_limit)
}

pub fn run(size: Size, seed: u64, mode: Mode, entry: Instant) -> Result<Done, String> {
    if mode == Mode::SetupOnly {
        return Rep::setup_only(|| {
            let start = Instant::now();
            let built = build(size, seed);
            let took = start.elapsed().as_secs_f64();
            drop(built);
            Ok(took)
        });
    }
    let (mut engine, event_limit) = build(size, seed);

    // `run_until` calls every `on_start` first, so this is the boundary.
    let first = Instant::now();
    let outcome = engine.run_until(SimTime::FAR_FUTURE);
    let events = engine.events_processed();
    let peak_queue_len = engine.peak_queue_len();
    let elapsed = engine.now();
    let snapshot = metrics_snapshot_json(engine.metrics());
    let counters: BTreeMap<String, u64> = engine
        .metrics()
        .counters_sorted()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    drop(engine);
    let end = Instant::now();
    let setup_s = (first - entry).as_secs_f64();
    let run_s = (end - first).as_secs_f64();

    let mut digest = Fnv1a::new();
    digest.feed(snapshot.as_bytes());
    digest.feed(&events.to_le_bytes());
    digest.feed(&elapsed.as_nanos().to_le_bytes());

    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let counts = BTreeMap::from([
        ("engine.events".to_string(), events),
        (
            "sim.messages_sent".to_string(),
            counter("net.messages_sent"),
        ),
    ]);

    // An op is an event; it failed if its message found no actor or was
    // lost (neither can happen on a loss-free mesh with every node manned).
    let mut failures = Vec::new();
    let mut ops_failed = counter("net.messages_dropped_no_actor") + counter("net.messages_lost");
    if ops_failed > 0 {
        failures.push(format!("{ops_failed} messages dropped or lost"));
    }
    if outcome != RunOutcome::EventLimit {
        failures.push(format!("outcome {outcome:?}, expected EventLimit"));
        ops_failed += 1;
    }
    if events != event_limit {
        failures.push(format!("{events} events, expected {event_limit}"));
        ops_failed += event_limit.abs_diff(events);
    }

    let mut layers = BTreeMap::new();
    if mode == Mode::Traced {
        engine_layers(&mut layers, events, peak_queue_len, run_s, 0.0);
    }
    Ok(Done {
        rep: Rep {
            setup_s,
            run_s,
            ops_attempted: event_limit,
            ops_failed,
            digest: digest.finish(),
            counts,
            failures,
            layers,
            ..Rep::default()
        },
        spans: None,
    })
}
