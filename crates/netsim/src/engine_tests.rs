//! Unit tests for [`super`] (the serial engine), kept in a child module.

use super::*;
use crate::link::{AccessLink, PathSpec};
use crate::node::NodeSpec;
use crate::rng::DelayDistribution;

#[derive(Debug, Clone, PartialEq)]
enum Ping {
    Ping(u32),
    Pong(u32),
}

impl Payload for Ping {
    fn wire_size(&self) -> u64 {
        64
    }
    fn kind(&self) -> &'static str {
        match self {
            Ping::Ping(_) => "ping",
            Ping::Pong(_) => "pong",
        }
    }
}

struct Pinger {
    peer: NodeId,
    rounds: u32,
    completed_at: Option<SimTime>,
}

impl Actor<Ping> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<Ping>) {
        ctx.send(self.peer, Ping::Ping(0));
    }
    fn on_message(&mut self, ctx: &mut Context<Ping>, _from: NodeId, msg: Ping) {
        if let Ping::Pong(n) = msg {
            if n + 1 < self.rounds {
                ctx.send(self.peer, Ping::Ping(n + 1));
            } else {
                self.completed_at = Some(ctx.now());
            }
        }
    }
}

struct Ponger;

impl Actor<Ping> for Ponger {
    fn on_message(&mut self, ctx: &mut Context<Ping>, from: NodeId, msg: Ping) {
        if let Ping::Ping(n) = msg {
            ctx.send(from, Ping::Pong(n));
        }
    }
}

fn topo(owd_ms: f64) -> (Topology, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
    t.set_path_symmetric(a, b, PathSpec::from_owd_ms(owd_ms, 0.0));
    (t, a, b)
}

fn build_pingpong(seed: u64) -> (Engine<Ping>, NodeId) {
    let (t, a, b) = topo(25.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), seed);
    e.register(
        a,
        Box::new(Pinger {
            peer: b,
            rounds: 10,
            completed_at: None,
        }),
    );
    e.register(b, Box::new(Ponger));
    (e, a)
}

#[test]
fn pingpong_completes_and_time_advances() {
    let (mut e, _a) = build_pingpong(1);
    assert_eq!(e.run(), RunOutcome::QueueEmpty);
    // 10 rounds × 2 × (25 ms + service) ≈ 0.5 s + ε
    let secs = e.now().as_secs_f64();
    assert!(secs > 0.5 && secs < 1.0, "elapsed {secs}");
    assert_eq!(e.metrics().counter("net.messages_sent"), 20);
    assert_eq!(e.metrics().counter("net.messages_delivered"), 20);
}

#[test]
fn same_seed_same_history() {
    let (mut e1, _) = build_pingpong(7);
    let (mut e2, _) = build_pingpong(7);
    e1.enable_trace(1024);
    e2.enable_trace(1024);
    e1.run();
    e2.run();
    assert_eq!(e1.trace().digest(), e2.trace().digest());
    assert_eq!(e1.now(), e2.now());
}

#[test]
fn different_seed_different_history_with_jitter() {
    let make = |seed| {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        t.set_path_symmetric(a, b, PathSpec::from_owd_ms(25.0, 0.5));
        let mut e = Engine::new(t, TransportConfig::default(), seed);
        e.register(
            a,
            Box::new(Pinger {
                peer: b,
                rounds: 10,
                completed_at: None,
            }),
        );
        e.register(b, Box::new(Ponger));
        e.run();
        e.now()
    };
    assert_ne!(make(1), make(2));
}

#[test]
fn horizon_stops_the_clock_exactly() {
    let (mut e, _) = build_pingpong(3);
    let horizon = SimTime::from_secs_f64(0.1);
    assert_eq!(e.run_until(horizon), RunOutcome::HorizonReached);
    assert_eq!(e.now(), horizon);
    // Can resume afterwards.
    assert_eq!(e.run(), RunOutcome::QueueEmpty);
}

#[test]
fn event_limit_trips() {
    let (mut e, _) = build_pingpong(4);
    e.set_event_limit(3);
    assert_eq!(e.run(), RunOutcome::EventLimit);
}

#[test]
fn service_delay_inflates_delivery() {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let slow = NodeSpec::responsive("b").with_service_delay(DelayDistribution::Constant(5.0));
    let b = t.add_node(slow, AccessLink::default());
    t.set_path_symmetric(a, b, PathSpec::from_owd_ms(1.0, 0.0));
    let mut e = Engine::new(t, TransportConfig::ideal(), 5);
    e.register(
        a,
        Box::new(Pinger {
            peer: b,
            rounds: 1,
            completed_at: None,
        }),
    );
    e.register(b, Box::new(Ponger));
    e.run();
    // One round trip dominated by b's 5 s service delay.
    assert!(e.now().as_secs_f64() > 5.0);
    assert!(e.now().as_secs_f64() < 6.0);
}

struct TimerActor {
    fired: Vec<u64>,
    cancel_second: bool,
}

impl Actor<Ping> for TimerActor {
    fn on_start(&mut self, ctx: &mut Context<Ping>) {
        ctx.schedule_timer(SimDuration::from_secs(1), 1);
        let second = ctx.schedule_timer(SimDuration::from_secs(2), 2);
        ctx.schedule_timer(SimDuration::from_secs(3), 3);
        if self.cancel_second {
            ctx.cancel_timer(second);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<Ping>, _from: NodeId, _msg: Ping) {}
    fn on_timer(&mut self, _ctx: &mut Context<Ping>, _timer: TimerId, tag: u64) {
        self.fired.push(tag);
    }
}

#[test]
fn timers_fire_in_order_and_cancel_works() {
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 6);
    e.register(
        a,
        Box::new(TimerActor {
            fired: vec![],
            cancel_second: true,
        }),
    );
    e.run();
    // Inspect the actor through the trait-object accessor by re-boxing:
    // simplest is to re-run without cancel and compare times.
    assert_eq!(e.now().as_secs_f64(), 3.0);
}

#[test]
fn cancel_after_fire_leaves_no_tombstone() {
    // Regression: cancelling a timer that already fired used to insert
    // its id into a tombstone set that was never purged, growing
    // engine state forever under schedule/fire/cancel churn.
    struct LateCanceller {
        first: Option<TimerId>,
    }
    impl Actor<Ping> for LateCanceller {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            self.first = Some(ctx.schedule_timer(SimDuration::from_secs(1), 1));
            ctx.schedule_timer(SimDuration::from_secs(2), 2);
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, tag: u64) {
            if tag == 2 {
                // The 1 s timer fired long ago; cancelling it now must
                // be a no-op that records nothing.
                ctx.cancel_timer(self.first.expect("scheduled at start"));
                // Cancelling a handle that was never scheduled (forged
                // id) must also record nothing.
                ctx.cancel_timer(TimerId {
                    id: u64::MAX,
                    ..self.first.expect("scheduled at start")
                });
            }
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 11);
    e.register(a, Box::new(LateCanceller { first: None }));
    e.run();
    assert_eq!(
        e.pending_timer_count(),
        0,
        "fired + cancelled timers must leave no bookkeeping behind"
    );
    assert_eq!(e.metrics().counter("engine.timers_pending_hwm"), 2);
}

#[test]
fn cancelled_timer_does_not_fire_and_is_purged() {
    struct CancelImmediately {
        fired: bool,
    }
    impl Actor<Ping> for CancelImmediately {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            let id = ctx.schedule_timer(SimDuration::from_secs(1), 7);
            ctx.cancel_timer(id);
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, _: u64) {
            self.fired = true;
            let metrics = ctx.metrics();
            let id = metrics.counter_id("test.timer_fired");
            metrics.incr_id(id, 1);
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 12);
    e.register(a, Box::new(CancelImmediately { fired: false }));
    e.run();
    assert_eq!(e.pending_timer_count(), 0);
    assert_eq!(
        e.metrics().counter("test.timer_fired"),
        0,
        "cancelled timer must not fire"
    );
}

#[test]
fn pending_timer_set_stays_bounded_under_churn() {
    // Schedule-and-fire many timers one after another; in-flight count
    // never exceeds the overlap, and the high-water metric records it.
    struct Chain {
        remaining: u32,
    }
    impl Actor<Ping> for Chain {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.schedule_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, _: u64) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_timer(SimDuration::from_millis(1), 0);
            }
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 13);
    e.register(a, Box::new(Chain { remaining: 10_000 }));
    e.run();
    assert_eq!(e.pending_timer_count(), 0);
    assert_eq!(
        e.metrics().counter("engine.timers_pending_hwm"),
        1,
        "chained timers never overlap"
    );
}

#[test]
fn on_timer_receives_the_id_schedule_timer_returned() {
    struct Keeper {
        armed: Vec<TimerId>,
    }
    impl Actor<Ping> for Keeper {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            for tag in 0..3 {
                let id = ctx.schedule_timer(SimDuration::from_secs(tag + 1), tag);
                self.armed.push(id);
            }
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, timer: TimerId, tag: u64) {
            assert_eq!(timer, self.armed[tag as usize]);
            let metrics = ctx.metrics();
            let id = metrics.counter_id("test.timer_matched");
            metrics.incr_id(id, 1);
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 14);
    e.register(a, Box::new(Keeper { armed: vec![] }));
    e.run();
    assert_eq!(e.metrics().counter("test.timer_matched"), 3);
}

#[test]
fn stale_and_forged_handles_cancel_nothing_once_the_slot_is_reused() {
    // One event is pending at any time, so the queue has a single slot and
    // the second timer sits exactly where the first one did.
    struct Reuser {
        first: Option<TimerId>,
    }
    impl Actor<Ping> for Reuser {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            self.first = Some(ctx.schedule_timer(SimDuration::from_secs(1), 1));
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, tag: u64) {
            let metrics = ctx.metrics();
            let id = metrics.counter_id("test.timer_fired");
            metrics.incr_id(id, 1);
            if tag == 1 {
                let first = self.first.expect("scheduled at start");
                let second = ctx.schedule_timer(SimDuration::from_secs(1), 2);
                assert_ne!(first, second);
                ctx.cancel_timer(first);
                ctx.cancel_timer(TimerId { id: 99, ..second });
                ctx.cancel_timer(TimerId {
                    id: second.id,
                    ..first
                });
            }
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 15);
    e.enable_trace(64);
    e.register(a, Box::new(Reuser { first: None }));
    e.run();
    assert_eq!(e.peak_queue_len(), 1, "the second timer reused the slot");
    assert_eq!(e.metrics().counter("test.timer_fired"), 2);
    assert_eq!(e.pending_timer_count(), 0);
    let cancels = (e.trace().events())
        .filter(|ev| matches!(ev.kind, TraceEventKind::TimerCancelled { .. }))
        .count();
    assert_eq!(cancels, 0, "a no-op cancel records nothing");
}

#[test]
fn cancelled_timer_pop_still_counts_and_advances_the_clock() {
    struct CancelLast;
    impl Actor<Ping> for CancelLast {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.schedule_timer(SimDuration::from_secs(1), 1);
            let last = ctx.schedule_timer(SimDuration::from_secs(2), 2);
            ctx.cancel_timer(last);
            ctx.cancel_timer(last);
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, tag: u64) {
            assert_eq!(tag, 1, "the cancelled timer must not fire");
            let metrics = ctx.metrics();
            let id = metrics.counter_id("test.timer_fired");
            metrics.incr_id(id, 1);
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 16);
    e.register(a, Box::new(CancelLast));
    assert_eq!(e.run(), RunOutcome::QueueEmpty);
    assert_eq!(e.metrics().counter("test.timer_fired"), 1);
    // Event limits and digests have always counted the dead pop.
    assert_eq!(e.events_processed(), 2);
    assert_eq!(e.now().as_secs_f64(), 2.0);
    assert_eq!(e.pending_timer_count(), 0, "the second cancel was a no-op");
    assert_eq!(e.metrics().counter("engine.timers_pending_hwm"), 2);
}

#[test]
fn stop_request_halts_promptly() {
    struct Stopper;
    impl Actor<Ping> for Stopper {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.schedule_timer(SimDuration::from_secs(1), 0);
            ctx.schedule_timer(SimDuration::from_secs(100), 1);
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, tag: u64) {
            if tag == 0 {
                ctx.stop();
            }
        }
    }
    let (t, a, _b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 8);
    e.register(a, Box::new(Stopper));
    assert_eq!(e.run(), RunOutcome::Stopped);
    assert_eq!(e.now().as_secs_f64(), 1.0);
}

#[test]
fn messages_to_actorless_nodes_are_counted() {
    let (t, a, _b) = topo(10.0);
    struct Blind {
        peer: NodeId,
    }
    impl Actor<Ping> for Blind {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.send(self.peer, Ping::Ping(0));
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
    }
    let mut e = Engine::new(t, TransportConfig::ideal(), 9);
    let b = NodeId(1);
    e.register(a, Box::new(Blind { peer: b }));
    e.run();
    assert_eq!(e.metrics().counter("net.messages_dropped_no_actor"), 1);
}

#[test]
fn context_estimates_and_names() {
    struct Probe {
        peer: NodeId,
        est: Option<SimDuration>,
    }
    impl Actor<Ping> for Probe {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            assert_eq!(ctx.node_name(ctx.self_id()), "a");
            assert_eq!(ctx.num_nodes(), 2);
            self.est = Some(ctx.estimate_transfer(self.peer, 1_000_000));
        }
        fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
    }
    let (t, a, b) = topo(10.0);
    let mut e = Engine::new(t, TransportConfig::ideal(), 10);
    e.register(a, Box::new(Probe { peer: b, est: None }));
    e.run();
}

#[test]
fn a_pending_delivery_of_a_48_byte_message_costs_at_most_88_bytes() {
    /// The size and alignment `OverlayMsg` is held to.
    #[derive(Debug)]
    struct Wide([u128; 3]);
    impl Payload for Wide {
        fn wire_size(&self) -> u64 {
            size_of_val(&self.0) as u64
        }
    }
    assert_eq!((size_of::<Wide>(), align_of::<Wide>()), (48, 16));
    let bytes = EventQueue::<Ev<Wide>>::BYTES_PER_PENDING;
    assert!(bytes <= 88, "{bytes} B per pending delivery");
}
