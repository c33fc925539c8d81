//! From one traced harness run to per-layer metric values.
//!
//! Metric names follow the program's modules: `broker.*` is
//! `overlay::broker`, `peer.*` is `overlay::lifecycle`, `engine.*` and
//! `parallel.*` are `netsim::{engine, transport, parallel}`, `harness.*`
//! is `workloads::harness`, `registry.*` is `overlay::footprint`. Every
//! (role, handler) bucket is exported under its own name; the buckets that
//! carry a run get fixed names in `BENCHMARK.json` and the rest of a role
//! is folded into `<role>.other.busy_s`, so the named metrics always sum
//! to the role's busy time.

use std::collections::BTreeMap;

use workloads::harness::HarnessRun;

use crate::timed::{Collected, Handler, BROKER, PEER};

/// Broker buckets with a name of their own in `BENCHMARK.json`.
const BROKER_NAMED: [Handler; 6] = [
    Handler::Timer,
    Handler::Msg("gossip"),
    Handler::Msg("join"),
    Handler::Msg("leave"),
    Handler::Msg("ping"),
    Handler::Msg("confirm"),
];

/// Peer buckets with a name of their own in `BENCHMARK.json`.
const PEER_NAMED: [Handler; 4] = [
    Handler::Timer,
    Handler::Msg("pong"),
    Handler::Msg("part"),
    Handler::Start,
];

/// Host seconds of one traced harness run, by phase.
pub struct HarnessTimes {
    pub setup_s: f64,
    pub run_s: f64,
    pub topology_s: f64,
    pub actors_s: f64,
    /// From the last handler's return to the drained result.
    pub drain_s: f64,
}

/// Writes the engine-level metrics every workload with an event loop
/// reports: events, host time per event, queue depth.
pub fn engine_layers(
    layers: &mut BTreeMap<String, f64>,
    events: u64,
    peak_queue_len: usize,
    run_s: f64,
    handler_busy_s: f64,
) {
    let mut put = |name: &str, value: f64| layers.insert(name.to_string(), value);
    put("trace.run_s", run_s);
    put("engine.self_s", run_s - handler_busy_s);
    put("engine.events", events as f64);
    put("engine.ns_per_event", run_s * 1e9 / events as f64);
    put("engine.events_per_s", events as f64 / run_s);
    put("engine.peak_queue_len", peak_queue_len as f64);
}

/// Writes every layer metric a traced harness run yields.
pub fn harness_layers(
    layers: &mut BTreeMap<String, f64>,
    run: &HarnessRun,
    collected: &Collected,
    times: &HarnessTimes,
    peers: u64,
) {
    let busy_s = collected.handler_busy().as_secs_f64();
    engine_layers(
        layers,
        run.events_processed,
        run.peak_queue_len,
        times.run_s,
        busy_s,
    );
    let mut put = |name: String, value: f64| layers.insert(name, value);

    for (role, named) in [(BROKER, &BROKER_NAMED[..]), (PEER, &PEER_NAMED[..])] {
        let mut role_busy = 0.0;
        let mut other_busy = 0.0;
        for ((bucket_role, handler), bucket) in &collected.buckets {
            if *bucket_role != role {
                continue;
            }
            let label = handler.label();
            let bucket_busy = bucket.busy.as_secs_f64();
            put(format!("{role}.{label}.count"), bucket.count as f64);
            put(format!("{role}.{label}.busy_s"), bucket_busy);
            role_busy += bucket_busy;
            if !named.contains(handler) {
                other_busy += bucket_busy;
            }
        }
        put(format!("{role}.other.busy_s"), other_busy);
        put(format!("{role}.busy_share"), role_busy / times.run_s);
    }

    put("parallel.rounds".into(), run.profile.rounds as f64);
    put(
        "parallel.events_per_round".into(),
        run.events_processed as f64 / run.profile.rounds as f64,
    );
    put("parallel.busy_s".into(), run.profile.busy.as_secs_f64());

    put("harness.topology_s".into(), times.topology_s);
    put("harness.actors_s".into(), times.actors_s);
    put(
        "harness.assemble_s".into(),
        times.setup_s - times.topology_s - times.actors_s,
    );
    put("harness.drain_s".into(), times.drain_s);
    put("trace.spans".into(), collected.spans.len() as f64);
    put("trace.spans_dropped".into(), collected.spans_dropped as f64);

    // Brokers publish one gauge per broker node; the prefix sums the fleet.
    let gauge_sum = |prefix: &str| -> f64 {
        run.metrics
            .gauges_sorted()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, value)| value)
            .sum()
    };
    let registry_bytes = gauge_sum("registry.bytes.");
    put("registry.bytes".into(), registry_bytes);
    put(
        "registry.bytes_per_peer".into(),
        registry_bytes / peers as f64,
    );
    put(
        "registry.gossip_bytes_share".into(),
        gauge_sum("registry.gossip_bytes.") / registry_bytes,
    );
}
