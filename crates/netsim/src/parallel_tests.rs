//! Unit tests for [`super`] (the sharded engine), kept in a child module.

use super::*;
use crate::engine::{Context, ServiceClass};
use crate::link::{AccessLink, PathSpec};
use crate::node::NodeSpec;
use crate::rng::SimRng;

#[derive(Debug, Clone)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> u64 {
        128
    }
    fn kind(&self) -> &'static str {
        "token"
    }
    fn service_class(&self) -> ServiceClass {
        ServiceClass::Fast
    }
}

/// Bounces a token around a fixed itinerary of nodes.
struct Bouncer {
    itinerary: Vec<NodeId>,
    hops: u32,
    kick_off: bool,
}

impl Actor<Token> for Bouncer {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if self.kick_off {
            ctx.send(self.itinerary[0], Token(0));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
        if msg.0 < self.hops {
            let next = self.itinerary[(msg.0 as usize) % self.itinerary.len()];
            ctx.send(next, Token(msg.0 + 1));
        }
    }
}

/// Two regions of three nodes: 2 ms inside a region, 40 ms across.
fn two_region_topo() -> Topology {
    let mut t = Topology::new();
    for i in 0..6 {
        t.add_node(NodeSpec::responsive(format!("n{i}")), AccessLink::default());
    }
    for a in 0..6u32 {
        for b in 0..6u32 {
            if a == b {
                continue;
            }
            let ms = if (a < 3) == (b < 3) { 2.0 } else { 40.0 };
            t.set_path(NodeId(a), NodeId(b), PathSpec::from_owd_ms(ms, 0.0));
        }
    }
    t
}

fn build(workers: usize) -> ShardedEngine<Token> {
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).unwrap();
    let mut e = ShardedEngine::new(
        two_region_topo(),
        TransportConfig::default(),
        42,
        map,
        workers,
    )
    .unwrap();
    let all: Vec<NodeId> = (0..6).map(NodeId).collect();
    for (i, &node) in all.iter().enumerate() {
        // Every token hop moves to a pseudo-random next node, with
        // plenty of cross-region (= cross-shard) traffic.
        let itinerary: Vec<NodeId> = (0..6).map(|j| NodeId((j * 5 + 1) % 6)).collect();
        e.register(
            node,
            Box::new(Bouncer {
                itinerary,
                hops: 40,
                kick_off: i < 2,
            }),
        );
    }
    e.enable_trace(4096);
    e
}

#[test]
fn sharded_run_is_worker_count_invariant() {
    let horizon = SimTime::from_secs_f64(30.0);
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut e = build(workers);
        let outcome = e.run_until(horizon);
        runs.push((
            workers,
            outcome,
            e.trace().digest(),
            e.trace().to_jsonl(),
            e.metrics().render(),
            e.now(),
            e.events_processed(),
            e.profile().rounds,
        ));
    }
    let (_, o1, d1, j1, m1, t1, n1, r1) = &runs[0];
    for (w, o, d, j, m, t, n, r) in &runs[1..] {
        assert_eq!(o, o1, "outcome differs at {w} workers");
        assert_eq!(d, d1, "trace digest differs at {w} workers");
        assert_eq!(j, j1, "trace JSONL differs at {w} workers");
        assert_eq!(m, m1, "metrics differ at {w} workers");
        assert_eq!(t, t1, "final clock differs at {w} workers");
        assert_eq!(n, n1, "event count differs at {w} workers");
        assert_eq!(r, r1, "round count differs at {w} workers");
    }
    assert!(*n1 > 0, "the workload must actually run");
}

#[test]
fn each_shard_holds_per_node_state_for_its_own_nodes_only() {
    // An uneven map: shard 0 owns two nodes, shard 1 the other four.
    let map = ShardMap::from_assignment(vec![1, 0, 1, 1, 0, 1]).unwrap();
    let e = ShardedEngine::<Token>::new(two_region_topo(), TransportConfig::default(), 3, map, 1)
        .unwrap();
    // RNG streams, actor slots; FIFO receivers keep no in-flight lists.
    assert_eq!(e.engine(0).node_table_lens(), [2, 2, 0]);
    assert_eq!(e.engine(1).node_table_lens(), [4, 4, 0]);
    let lone = ShardMap::single(6);
    let e = ShardedEngine::<Token>::new(two_region_topo(), TransportConfig::default(), 3, lone, 1)
        .unwrap();
    assert_eq!(e.engine(0).node_table_lens(), [6, 6, 0]);
}

/// Checks at start that it runs as its own node, on that node's stream.
struct Owned {
    node: NodeId,
    first_draw: u64,
}

impl Actor<Token> for Owned {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        assert_eq!(ctx.self_id(), self.node);
        assert_eq!(ctx.rng().next_u64_raw(), self.first_draw, "{:?}", self.node);
        let metrics = ctx.metrics();
        let id = metrics.counter_id("test.started");
        metrics.incr_id(id, 1);
    }
    fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, _: Token) {}
}

#[test]
fn an_uneven_map_runs_every_node_on_its_owner_and_its_own_stream() {
    let assignment = vec![1, 0, 1, 1, 0, 1];
    let map = ShardMap::from_assignment(assignment.clone()).unwrap();
    let mut e =
        ShardedEngine::new(two_region_topo(), TransportConfig::default(), 3, map, 2).unwrap();
    for (node, shard) in (0..6).map(NodeId).zip(assignment) {
        let stream = SimRng::new(shard_seed(3, shard as u64)).split(node.index() as u64);
        let first_draw = stream.clone().next_u64_raw();
        e.register(node, Box::new(Owned { node, first_draw }));
    }
    assert_eq!(
        e.run_until(SimTime::from_secs_f64(1.0)),
        RunOutcome::QueueEmpty
    );
    assert_eq!(e.metrics().counter("test.started"), 6);
    assert!((0..6).all(|i| e.with_actor(NodeId(i), |_| ()).is_some()));
}

#[test]
fn cross_shard_messages_are_delivered_and_counted() {
    let mut e = build(1);
    e.run_until(SimTime::from_secs_f64(30.0));
    let m = e.metrics();
    assert!(m.counter("net.messages_sent") > 0);
    assert_eq!(
        m.counter("net.messages_delivered") + m.counter("net.messages_dropped_no_actor"),
        m.counter("net.messages_sent"),
        "every sent message is accounted for across shards"
    );
}

#[test]
fn zero_cross_shard_traffic_still_terminates() {
    // Tokens bounce strictly inside each region: outboxes stay empty,
    // windows are pure clock advancement.
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).unwrap();
    let mut e =
        ShardedEngine::new(two_region_topo(), TransportConfig::default(), 7, map, 2).unwrap();
    for region in 0..2u32 {
        let local: Vec<NodeId> = (0..3).map(|j| NodeId(region * 3 + j)).collect();
        for (i, &node) in local.iter().enumerate() {
            e.register(
                node,
                Box::new(Bouncer {
                    itinerary: local.clone(),
                    hops: 10,
                    kick_off: i == 0,
                }),
            );
        }
    }
    // Both regions finish their 10 hops, outboxes stay empty, and the
    // barrier loop notices the drained queues instead of spinning on
    // clock-advance windows forever.
    let outcome = e.run_until(SimTime::from_secs_f64(10.0));
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    assert!(e.events_processed() > 0);
    // 1 kick-off + 10 forwarded hops per region, two regions.
    assert_eq!(e.metrics().counter("net.messages_delivered"), 22);
}

#[test]
fn single_shard_degenerate_matches_serial_engine() {
    // A lone shard is the serial engine: same seed, same history.
    let topo = two_region_topo();
    let map = ShardMap::single(topo.len());
    let mut sharded =
        ShardedEngine::new(topo.clone(), TransportConfig::default(), 9, map, 1).unwrap();
    let mut serial = Engine::new(topo, TransportConfig::default(), 9);
    let itinerary: Vec<NodeId> = (0..6).map(|j| NodeId((j * 5 + 1) % 6)).collect();
    for (i, node) in (0..6).map(NodeId).enumerate() {
        let make = || Bouncer {
            itinerary: itinerary.clone(),
            hops: 25,
            kick_off: i == 0,
        };
        sharded.register(node, Box::new(make()));
        serial.register(node, Box::new(make()));
    }
    sharded.enable_trace(4096);
    serial.enable_trace(4096);
    let horizon = SimTime::from_secs_f64(20.0);
    let a = sharded.run_until(horizon);
    let b = serial.run_until(horizon);
    assert_eq!(a, b);
    assert_eq!(sharded.trace().digest(), serial.trace().digest());
    assert_eq!(sharded.metrics().render(), serial.metrics().render());
}

/// Sends `count` tokens to `to` at start, all at once; the receiver's FIFO
/// spreads their deliveries out one service time apart. Never forwards.
struct Burst {
    to: NodeId,
    count: u32,
}

impl Actor<Token> for Burst {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        for i in 0..self.count {
            ctx.send(self.to, Token(i));
        }
    }
    fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, _: Token) {}
}

#[test]
fn a_shard_holding_only_post_horizon_deliveries_reaches_the_horizon() {
    // Node 0 (shard 0) bursts across the boundary at node 3 (shard 1).
    // The horizon cuts the burst: at the end shard 1 has stored nothing,
    // yet deliveries are in flight, so the run ends at the horizon rather
    // than on a drained queue.
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).unwrap();
    let mut e = ShardedEngine::new(two_region_topo(), TransportConfig::default(), 5, map, 1)
        .expect("positive cross-shard lookahead");
    let burst = 50;
    for node in (0..6).map(NodeId) {
        let count = if node == NodeId(0) { burst } else { 0 };
        e.register(
            node,
            Box::new(Burst {
                to: NodeId(3),
                count,
            }),
        );
    }
    let horizon = SimTime::from_secs_f64(1.0);
    assert_eq!(e.run_until(horizon), RunOutcome::HorizonReached);
    for s in 0..2 {
        assert_eq!(e.engine(s).now(), horizon, "shard {s} clock");
    }
    assert!(e.engine(1).next_event_time().is_some_and(|t| t > horizon));
    let m = e.metrics();
    let delivered = m.counter("net.messages_delivered");
    assert_eq!(m.counter("net.messages_sent"), u64::from(burst));
    assert!(delivered > 0 && delivered < u64::from(burst), "{delivered}");
    assert!(
        e.peak_queue_len() < burst as usize,
        "late deliveries unstored"
    );
}

#[test]
#[should_panic(expected = "past its first horizon")]
fn a_second_run_past_the_first_horizon_is_refused() {
    let mut e = build(1);
    e.run_until(SimTime::from_secs_f64(1.0));
    e.run_until(SimTime::from_secs_f64(2.0));
}

#[test]
fn zero_lookahead_is_rejected() {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
    t.set_path_symmetric(a, b, PathSpec::from_owd_ms(0.0, 0.0));
    let map = ShardMap::from_assignment(vec![0, 1]).unwrap();
    let err = ShardedEngine::<Token>::new(t, TransportConfig::default(), 1, map, 2)
        .err()
        .expect("zero-delay cross links must be rejected");
    assert_eq!(err, ParallelError::ZeroLookahead);
}

#[test]
fn map_size_mismatch_is_rejected() {
    let t = two_region_topo();
    let map = ShardMap::from_assignment(vec![0, 1]).unwrap();
    let err = ShardedEngine::<Token>::new(t, TransportConfig::default(), 1, map, 2)
        .err()
        .expect("undersized shard map must be rejected");
    assert_eq!(
        err,
        ParallelError::MapSizeMismatch {
            map: 2,
            topology: 6
        }
    );
}

#[test]
fn profile_accounts_busy_and_critical_path() {
    let mut e = build(2);
    e.run_until(SimTime::from_secs_f64(30.0));
    let p = e.profile();
    assert!(p.rounds > 0, "multi-shard run must take barrier rounds");
    assert!(p.busy > Duration::ZERO);
}

/// A [`Bouncer`] that panics on its third message.
struct Fragile {
    inner: Bouncer,
    seen: u32,
}

impl Actor<Token> for Fragile {
    fn on_message(&mut self, ctx: &mut Context<Token>, from: NodeId, msg: Token) {
        self.seen += 1;
        assert!(self.seen < 3, "panicked on its third message");
        self.inner.on_message(ctx, from, msg);
    }
}

#[test]
#[should_panic(expected = "panicked on its third message")]
fn a_panicking_shard_fails_the_run_instead_of_hanging_it() {
    // Node 4 sits on shard 1, which runs on the second pinned worker.
    let mut e = build(2);
    let itinerary = (0..6).map(|j| NodeId((j * 5 + 1) % 6)).collect();
    let inner = Bouncer {
        itinerary,
        hops: 40,
        kick_off: false,
    };
    e.register(NodeId(4), Box::new(Fragile { inner, seen: 0 }));
    e.run_until(SimTime::from_secs_f64(30.0));
}

/// Ticks every millisecond; stops the run on tick `stop_at`, if set.
struct Ticker {
    ticks: u32,
    stop_at: Option<u32>,
}

impl Actor<Token> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        ctx.schedule_timer(SimDuration::from_millis(1), 0);
    }
    fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, _: Token) {}
    fn on_timer(&mut self, ctx: &mut Context<Token>, _: crate::engine::TimerId, _: u64) {
        self.ticks += 1;
        if Some(self.ticks) == self.stop_at {
            ctx.stop();
        } else {
            ctx.schedule_timer(SimDuration::from_millis(1), 0);
        }
    }
}

#[test]
fn a_stop_beats_an_event_limit_tripped_in_the_same_round() {
    // Shard 0 stops on its fifth tick; shard 1, later in shard order, hits
    // the event limit on its tenth. Both land in the first 41 ms window.
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let mut e = ShardedEngine::new(
            two_region_topo(),
            TransportConfig::default(),
            4,
            map,
            workers,
        )
        .unwrap();
        let stops = [(NodeId(0), Some(5)), (NodeId(3), None)];
        for (node, stop_at) in stops {
            e.register(node, Box::new(Ticker { ticks: 0, stop_at }));
        }
        e.set_event_limit(10);
        let outcome = e.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(e.profile().rounds, 1, "both trip in one round");
        runs.push((outcome, e.now(), e.events_processed(), e.metrics().render()));
    }
    assert_eq!(runs[0].0, RunOutcome::Stopped);
    assert_eq!(runs[0].2, 15, "five ticks on shard 0, ten on shard 1");
    assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
}
