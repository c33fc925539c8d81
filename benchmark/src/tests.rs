//! Tests that cross modules: the timing wrapper on a toy engine, the
//! workloads at the quick size class, and `BENCHMARK.json` against what
//! the code actually produces.

use std::collections::BTreeSet;
use std::time::Instant;

use netsim::engine::{Actor, Context, Engine, Payload, TimerId};
use netsim::link::{AccessLink, PathSpec};
use netsim::node::{NodeId, NodeSpec};
use netsim::time::SimDuration;
use netsim::topology::Topology;
use netsim::transport::TransportConfig;

use crate::measure::{self, END_TO_END};
use crate::timed::{Handler, Profile, TimedActor};
use crate::workloads::{run_rep, Mode, Rep, Size, NAMES};
use crate::{declared, ladder, read_json, repo_root};

#[derive(Debug)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> u64 {
        32
    }

    fn kind(&self) -> &'static str {
        "token"
    }
}

/// Passes a token around a ring until it runs out, and ticks a timer a
/// few times. Never cancels a timer, so every event reaches a handler.
struct RingNode {
    next: NodeId,
    serve: Option<u32>,
    ticks_left: u32,
}

impl Actor<Token> for RingNode {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if let Some(hops) = self.serve {
            ctx.send(self.next, Token(hops));
        }
        ctx.schedule_timer(SimDuration::from_millis(10), 0);
    }

    fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Token>, _timer: TimerId, _tag: u64) {
        if self.ticks_left > 0 {
            self.ticks_left -= 1;
            ctx.schedule_timer(SimDuration::from_millis(10), 0);
        }
    }
}

#[test]
fn timed_actors_account_for_every_event_of_a_toy_engine() {
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = ["a", "b", "c"]
        .map(|name| topo.add_node(NodeSpec::responsive(name), AccessLink::default()))
        .to_vec();
    for (i, &from) in nodes.iter().enumerate() {
        for &to in &nodes[i + 1..] {
            topo.set_path_symmetric(from, to, PathSpec::from_owd_ms(5.0, 0.0));
        }
    }
    let mut engine = Engine::new(topo, TransportConfig::ideal(), 11);
    let profile = Profile::new(true, Instant::now());
    for (i, &node) in nodes.iter().enumerate() {
        let actor = RingNode {
            next: nodes[(i + 1) % nodes.len()],
            serve: (i == 0).then_some(500),
            ticks_left: 20,
        };
        let role = if i == 0 { "broker" } else { "peer" };
        engine.register(
            node,
            Box::new(TimedActor::new(Box::new(actor), role, profile.clone())),
        );
    }

    let wall_start = Instant::now();
    engine.run();
    let wall = wall_start.elapsed();
    let collected = profile.take();

    assert_eq!(collected.dispatched(), engine.events_processed());
    assert_eq!(engine.events_processed(), 501 + 3 * 21);
    assert!(
        collected.handler_busy() <= wall,
        "handlers cannot outlast the run"
    );
    assert_eq!(collected.buckets[&("broker", Handler::Start)].count, 1);
    assert_eq!(collected.buckets[&("peer", Handler::Start)].count, 2);
    assert_eq!(collected.buckets[&("peer", Handler::Timer)].count, 2 * 21);
    let tokens: u64 = ["broker", "peer"]
        .iter()
        .map(|role| collected.buckets[&(*role, Handler::Msg("token"))].count)
        .sum();
    assert_eq!(tokens, 501);
    assert!(profile.first_start().is_some_and(|t| t >= wall_start));
}

#[test]
fn a_disabled_profile_marks_the_start_and_records_nothing_else() {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let mut engine = Engine::new(topo, TransportConfig::ideal(), 1);
    let profile = Profile::new(false, Instant::now());
    let actor = RingNode {
        next: a,
        serve: Some(3),
        ticks_left: 2,
    };
    engine.register(
        a,
        Box::new(TimedActor::new(Box::new(actor), "peer", profile.clone())),
    );
    engine.run();
    assert!(profile.first_start().is_some());
    let collected = profile.take();
    assert!(collected.buckets.is_empty() && collected.spans.is_empty());
}

fn quick(name: &str, seed: u64, mode: Mode) -> Rep {
    run_rep(name, Size::Quick, seed, mode, Instant::now())
        .unwrap_or_else(|e| panic!("{name} at the quick size: {e}"))
        .rep
}

#[test]
fn digests_repeat_in_process_and_follow_the_seed() {
    for name in NAMES {
        let (first, again, other) = (
            quick(name, 7, Mode::Timed),
            quick(name, 7, Mode::Timed),
            quick(name, 8, Mode::Timed),
        );
        assert_eq!(first.digest, again.digest, "{name}: same seed, same digest");
        assert_eq!(first.counts, again.counts, "{name}: same seed, same counts");
        assert_ne!(
            first.digest, other.digest,
            "{name}: the seed must reach the scenario"
        );
    }
}

#[test]
fn repetitions_survive_the_trip_through_json() {
    let mut rep = quick("petition-storm", 3, Mode::Traced);
    rep.peak_rss_mb = 12.5;
    let line = rep.to_json().to_string();
    let back = Rep::from_json(&crate::json::parse(&line).expect("one JSON line")).expect("a rep");
    assert_eq!(back, rep);
}

/// The whole measuring path at the quick size class, in process: every
/// workload in every mode its layer measurement uses, folded the way
/// `bench measure --trace 1` folds them. Keeps the harness from rotting
/// unnoticed, and pins `BENCHMARK.json` to the names the code produces.
#[test]
fn quick_size_class_passes_every_check_and_covers_the_contract() {
    let started = Instant::now();
    let contract = read_json(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json parses");

    let declared_workloads: Vec<String> = contract
        .get("workloads")
        .and_then(crate::json::Value::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect();
    assert_eq!(declared_workloads, NAMES);
    let end_to_end: Vec<String> = declared(&contract, "end_to_end")
        .expect("end_to_end")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(end_to_end, END_TO_END);

    let mut produced: BTreeSet<String> = ladder::run(100).into_keys().collect();
    for name in NAMES {
        let timed = quick(name, 5, Mode::Timed);
        let traced = quick(name, 5, Mode::Traced);
        let extras = measure::extra_modes(name)
            .iter()
            .map(|&mode| (mode, quick(name, 5, mode)))
            .collect();
        let (metrics, summary) = measure::combine(name, timed, traced, extras, 0.07);
        assert!(summary.correct(), "{name}: {:?}", summary.failures);
        assert_eq!(summary.ops_failed, 0);
        for (metric, value) in &metrics {
            assert!(value.is_finite(), "{name}: {metric} is {value}");
        }
        if name != "paper-campaign" && name != "engine-mesh" {
            // The buckets plus the engine's self time are the traced run.
            let busy: f64 = metrics
                .iter()
                .filter(|(k, _)| {
                    k.ends_with(".busy_s") && !k.contains(".other.") && *k != "parallel.busy_s"
                })
                .map(|(_, v)| v)
                .sum();
            let total = busy + metrics["engine.self_s"];
            assert!(
                (total - metrics["trace.run_s"]).abs() < 1e-9,
                "{name}: {total}"
            );
        }
        produced.extend(metrics.into_keys());
    }

    for (name, _) in declared(&contract, "per_layer").expect("per_layer") {
        assert!(
            produced.contains(&name),
            "BENCHMARK.json names `{name}`, which nothing produces"
        );
    }
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed().as_secs_f64() <= 5.0,
            "the quick size class must stay quick"
        );
    }
}
