//! Engine throughput measurement: the data source for the
//! `engine_throughput` criterion bench and the `psim bench-engine`
//! subcommand (which renders `BENCH_engine.json`).
//!
//! Two workloads are driven through the real engine:
//!
//! * a ping-pong actor pair — the pure event-loop hot path (send → plan →
//!   deliver) with nothing else on it, and
//! * the paper's 8-client broker scenario — the full overlay protocol stack.
//!
//! A third measurement isolates the metrics layer: the same bookkeeping the
//! engine does per event (two counter bumps and one observation), once
//! through the legacy string-keyed path (per-event key allocation plus a
//! `BTreeMap` walk, as before interning) and once through the interned
//! [`MetricId`](netsim::metrics::MetricId) path the hot loop uses now.

use std::time::Instant;

use netsim::engine::{Actor, Context, Engine, Payload};
use netsim::link::{AccessLink, PathSpec};
use netsim::metrics::Metrics;
use netsim::node::{NodeId, NodeSpec};
use netsim::time::SimDuration;
use netsim::topology::Topology;
use netsim::transport::TransportConfig;
use overlay::broker::{BrokerCommand, TargetSpec};

use crate::scenario::{run_scenario, ScenarioConfig};
use crate::spec::MB;

/// One timed engine run.
#[derive(Debug, Clone)]
pub struct EngineBenchResult {
    /// Events processed by the engine.
    pub events: u64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Largest number of simultaneously pending events.
    pub peak_queue_len: usize,
}

impl EngineBenchResult {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Nanoseconds of wall time per event.
    pub fn ns_per_event(&self) -> f64 {
        if self.events > 0 {
            self.wall_secs * 1e9 / self.events as f64
        } else {
            0.0
        }
    }
}

#[derive(Debug)]
struct Packet;

impl Payload for Packet {
    fn wire_size(&self) -> u64 {
        64
    }
    fn kind(&self) -> &'static str {
        "pkt"
    }
}

/// How much extra per-event metrics work a ping-pong actor performs, to
/// compare the engine's current interned bookkeeping against the
/// string-keyed bookkeeping it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsProbe {
    /// No extra work: the engine's own (interned) bookkeeping only.
    None,
    /// Replays the pre-interning per-event cost on top: for each message,
    /// two counter increments and one observation through string keys,
    /// each paying the key allocation the old `Metrics::incr` did.
    LegacyStrings,
}

struct Bouncer {
    peer: NodeId,
    remaining: u64,
    probe: MetricsProbe,
}

impl Actor<Packet> for Bouncer {
    fn on_start(&mut self, ctx: &mut Context<Packet>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.peer, Packet);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Packet>, from: NodeId, _msg: Packet) {
        if self.probe == MetricsProbe::LegacyStrings {
            let sent = String::from("legacy.messages_sent");
            let bytes = String::from("legacy.bytes_sent");
            let secs = String::from("legacy.delivery_secs");
            let m = ctx.metrics();
            m.incr(&sent, 1);
            m.incr(&bytes, 64);
            m.observe(&secs, 0.005);
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, Packet);
        }
    }
}

fn run_pingpong(messages: u64, seed: u64, probe: MetricsProbe) -> EngineBenchResult {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let b = topo.add_node(NodeSpec::responsive("b"), AccessLink::default());
    topo.set_path_symmetric(a, b, PathSpec::from_owd_ms(5.0, 0.0));
    let mut engine = Engine::new(topo, TransportConfig::ideal(), seed);
    engine.set_event_limit(messages.saturating_mul(4).max(1_000));
    engine.register(
        a,
        Box::new(Bouncer {
            peer: b,
            remaining: messages / 2 + messages % 2,
            probe,
        }),
    );
    engine.register(
        b,
        Box::new(Bouncer {
            peer: a,
            remaining: messages / 2,
            probe,
        }),
    );
    let start = Instant::now();
    engine.run();
    let wall_secs = start.elapsed().as_secs_f64();
    EngineBenchResult {
        events: engine.events_processed(),
        wall_secs,
        peak_queue_len: engine.peak_queue_len(),
    }
}

/// Drives `messages` messages through a two-node ping-pong pair and times
/// the run. Every message is one deliver event, so `messages = 1_000_000`
/// puts at least a million events through the engine.
pub fn pingpong(messages: u64, seed: u64) -> EngineBenchResult {
    run_pingpong(messages, seed, MetricsProbe::None)
}

/// The same ping-pong run, with the pre-interning string-keyed metrics cost
/// replayed per message — the "before" side of the optimization, measured
/// in the same binary.
pub fn pingpong_string_metrics(messages: u64, seed: u64) -> EngineBenchResult {
    run_pingpong(messages, seed, MetricsProbe::LegacyStrings)
}

/// Runs the paper's 8-client measurement setup through a multi-round file
/// distribution plus a task campaign, and times the engine.
pub fn broker_scenario(rounds: u32, seed: u64) -> EngineBenchResult {
    let mut cfg = ScenarioConfig::measurement_setup();
    for round in 0..rounds {
        cfg = cfg.at(
            SimDuration::from_secs(60 + round as u64 * 600),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 12 * MB,
                num_parts: 12,
                label: format!("bench-{round}"),
            },
        );
    }
    cfg = cfg.at(
        SimDuration::from_secs(60 + rounds as u64 * 600),
        BrokerCommand::SubmitTask {
            target: TargetSpec::AllClients,
            work_gops: 120.0,
            input_bytes: 2 * MB,
            input_parts: 4,
            label: "bench-task".into(),
        },
    );
    let start = Instant::now();
    let result = run_scenario(&cfg, seed);
    let wall_secs = start.elapsed().as_secs_f64();
    EngineBenchResult {
        events: result.run.events_processed,
        wall_secs,
        peak_queue_len: result.run.peak_queue_len,
    }
}

/// Per-operation cost of the metrics layer, string-keyed vs interned.
#[derive(Debug, Clone, Copy)]
pub struct MetricsOverhead {
    /// ns per (incr, incr, observe) triple through the string API with a
    /// per-event key allocation (the pre-interning engine pattern).
    pub string_ns_per_event: f64,
    /// ns per identical triple through pre-resolved ids.
    pub interned_ns_per_event: f64,
}

impl MetricsOverhead {
    /// How many times faster the interned path is.
    pub fn speedup(&self) -> f64 {
        if self.interned_ns_per_event > 0.0 {
            self.string_ns_per_event / self.interned_ns_per_event
        } else {
            0.0
        }
    }
}

/// Measures `events` repetitions of the engine's per-send bookkeeping
/// (two counter increments and one observation) through both metric paths.
/// The registry is pre-populated with a realistic name set so the string
/// path pays representative map depth.
pub fn metrics_overhead(events: u64) -> MetricsOverhead {
    let populate = |m: &mut Metrics| {
        for name in [
            "engine.timers_pending_hwm",
            "net.bytes_sent",
            "net.messages_delivered",
            "net.messages_dropped_no_actor",
            "net.messages_lost",
            "net.messages_sent",
            "overlay.content_published",
            "overlay.file_requests_served",
            "overlay.file_requests_unserved",
            "overlay.gossip_received",
            "overlay.jobs_unplaced",
            "overlay.joins",
            "overlay.retransmissions",
            "overlay.retries_exhausted",
            "overlay.tasks_completed",
            "overlay.tasks_failed",
            "overlay.tasks_submitted",
            "overlay.tasks_timed_out",
            "overlay.transfers_cancelled",
            "overlay.transfers_completed",
            "overlay.transfers_started",
        ] {
            m.counter_id(name);
        }
        m.stat_id("net.delivery_secs");
    };

    let mut m = Metrics::new();
    populate(&mut m);
    let start = Instant::now();
    for i in 0..events {
        // The allocation mirrors the `name.to_string()` the old
        // `Metrics::incr` performed on every call.
        let sent = String::from("net.messages_sent");
        let bytes = String::from("net.bytes_sent");
        let secs = String::from("net.delivery_secs");
        m.incr(&sent, 1);
        m.incr(&bytes, 64);
        m.observe(&secs, i as f64 * 1e-6);
    }
    let string_ns_per_event = start.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64;
    assert_eq!(m.counter("net.messages_sent"), events);

    let mut m = Metrics::new();
    populate(&mut m);
    let sent = m.counter_id("net.messages_sent");
    let bytes = m.counter_id("net.bytes_sent");
    let secs = m.stat_id("net.delivery_secs");
    let start = Instant::now();
    for i in 0..events {
        m.incr_id(sent, 1);
        m.incr_id(bytes, 64);
        m.observe_id(secs, i as f64 * 1e-6);
    }
    let interned_ns_per_event = start.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64;
    assert_eq!(m.counter("net.messages_sent"), events);

    MetricsOverhead {
        string_ns_per_event,
        interned_ns_per_event,
    }
}

/// Per-operation cost of the broker's per-message name handling: fresh
/// `String` allocations (the pre-`Arc` pattern — every record write paid a
/// `node_name().to_string()` *retained for the life of the record*) versus
/// refcount clones of `Arc<str>` values interned once at admission, the
/// pattern the registry, `CandidateView` rosters and selection records use
/// now.
///
/// An earlier version of this bench cloned and immediately dropped one pair
/// per iteration, which let a warm thread-local allocator recycle the same
/// slab and reported the two sides as equal (0.98×). Record writes don't do
/// that: the clone outlives the event, buffered in the run log. The bench
/// therefore retains each clone in a batch (as `RunLog` does) and drops the
/// batch wholesale, so the `String` side pays the allocate-and-keep cost the
/// broker actually paid.
#[derive(Debug, Clone, Copy)]
pub struct NameCloneOverhead {
    /// ns per retained record name materialised as a fresh `String`.
    pub string_ns_per_event: f64,
    /// ns per identical retained name cloned from an interned `Arc<str>`.
    pub arc_ns_per_event: f64,
}

impl NameCloneOverhead {
    /// How many times faster the `Arc<str>` path is.
    pub fn speedup(&self) -> f64 {
        if self.arc_ns_per_event > 0.0 {
            self.string_ns_per_event / self.arc_ns_per_event
        } else {
            0.0
        }
    }
}

/// Measures `events` record-name writes through both patterns, batched the
/// way the run log retains them: each event clones one of a realistic
/// PlanetLab hostname set into a live batch of 1024 records, and batches are
/// dropped wholesale (as a drained `RunLog` is). The `String` side allocates
/// and keeps a buffer per event; the `Arc<str>` side bumps a refcount on a
/// value interned once.
pub fn name_clone_overhead(events: u64) -> NameCloneOverhead {
    use std::hint::black_box;
    use std::sync::Arc;

    const BATCH: usize = 1024;
    let hosts: [&str; 8] = [
        "planetlab1.ssvl.kth.se",
        "planetlab2.csg.unizh.ch",
        "planetlab1.diku.copenhagen.dk",
        "planetlab3.upc.rediris.es",
        "planetlab1.itwm.fhg.de",
        "planetlab2.polito.torino.it",
        "planetlab1.info.ucl.ac.be",
        "planetlab2.cs.vu.amsterdam.nl",
    ];

    let mut batch: Vec<String> = Vec::with_capacity(BATCH);
    let start = Instant::now();
    for i in 0..events {
        // The allocation mirrors the `node_name().to_string()` every record
        // write performed before interning — retained, not dropped.
        batch.push(black_box(hosts[(i % 8) as usize]).to_string());
        if batch.len() == BATCH {
            black_box(&batch);
            batch.clear();
        }
    }
    black_box(&batch);
    drop(batch);
    let string_ns_per_event = start.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64;

    let interned: Vec<Arc<str>> = hosts.iter().map(|&h| Arc::from(h)).collect();
    let mut batch: Vec<Arc<str>> = Vec::with_capacity(BATCH);
    let start = Instant::now();
    for i in 0..events {
        batch.push(Arc::clone(black_box(&interned[(i % 8) as usize])));
        if batch.len() == BATCH {
            black_box(&batch);
            batch.clear();
        }
    }
    black_box(&batch);
    drop(batch);
    let arc_ns_per_event = start.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64;

    NameCloneOverhead {
        string_ns_per_event,
        arc_ns_per_event,
    }
}

/// One worker-count point of the parallel-engine bench.
#[derive(Debug, Clone, Copy)]
pub struct ParallelBenchPoint {
    /// Worker threads the sharded engine ran with.
    pub workers: usize,
    /// Events processed (identical at every worker count, by construction).
    pub events: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Lookahead windows executed.
    pub rounds: u64,
    /// Sum of per-window execution spans across all shards, seconds.
    pub busy_secs: f64,
    /// Sum over rounds of the slowest worker's busy span, seconds. The
    /// wall-clock floor a perfectly synchronised run could reach.
    pub critical_path_secs: f64,
}

impl ParallelBenchPoint {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// How many-fold the per-window work overlapped across workers:
    /// `busy / critical_path`, bounded above by the worker count by
    /// construction. 1.0 for a single worker; the modeled wall-clock
    /// speedup on a host with enough free cores.
    pub fn occupancy(&self) -> f64 {
        if self.critical_path_secs > 0.0 {
            self.busy_secs / self.critical_path_secs
        } else {
            0.0
        }
    }
}

/// Runs the multi-region workload once per entry of `workers_list` (same
/// config and seed — the histories are byte-identical, only the thread
/// count differs) and times each run. Tracing stays disabled so the bench
/// measures the engine, not the trace ring.
pub fn parallel_engine(
    cfg: &crate::multiregion::MultiRegionConfig,
    workers_list: &[usize],
    seed: u64,
) -> Vec<ParallelBenchPoint> {
    workers_list
        .iter()
        .map(|&workers| {
            let cfg = crate::multiregion::MultiRegionConfig {
                shard_workers: workers,
                trace_capacity: None,
                ..cfg.clone()
            };
            let start = Instant::now();
            let result = crate::multiregion::run_multiregion(&cfg, seed)
                .unwrap_or_else(|e| panic!("bench multi-region run failed: {e}"));
            let wall_secs = start.elapsed().as_secs_f64();
            ParallelBenchPoint {
                workers,
                events: result.events_processed,
                wall_secs,
                rounds: result.profile.rounds,
                busy_secs: result.profile.busy.as_secs_f64(),
                critical_path_secs: result.profile.critical_path.as_secs_f64(),
            }
        })
        .collect()
}

/// Renders the `BENCH_parallel_engine.json` document: measured wall-clock
/// throughput per worker count plus the critical-path model.
///
/// Two speedup columns on purpose. `speedup_vs_1` is measured wall clock —
/// on a host with fewer cores than workers it saturates near 1.0× and the
/// `saturated` flag says so. `modeled_parallel_occupancy` is the same run's
/// `busy / critical_path` ratio: how many-fold the per-window work
/// overlapped across workers, bounded by the worker count by construction
/// (each round contributes its worker-busy sum to `busy` and its slowest
/// worker to `critical_path`). It models the wall-clock speedup a host with
/// ≥ `workers` free cores would see, excluding synchronisation overhead,
/// and stays meaningful on a saturated host.
pub fn render_parallel_json(
    cfg: &crate::multiregion::MultiRegionConfig,
    points: &[ParallelBenchPoint],
) -> String {
    let host = crate::runner::detect_host_parallelism();
    let saturated = points.iter().any(|p| p.workers > host);
    let base_eps = points.first().map(|p| p.events_per_sec()).unwrap_or(0.0);
    let point_json = |p: &ParallelBenchPoint| {
        let speedup = if base_eps > 0.0 {
            p.events_per_sec() / base_eps
        } else {
            0.0
        };
        let modeled = p.occupancy();
        format!(
            "{{\"workers\":{},\"events\":{},\"wall_secs\":{:.4},\"events_per_sec\":{:.1},\
             \"speedup_vs_1\":{:.3},\"modeled_parallel_occupancy\":{:.3},\
             \"rounds\":{},\"busy_secs\":{:.4},\"critical_path_secs\":{:.4}}}",
            p.workers,
            p.events,
            p.wall_secs,
            p.events_per_sec(),
            speedup,
            modeled,
            p.rounds,
            p.busy_secs,
            p.critical_path_secs,
        )
    };
    let points_json = points.iter().map(point_json).collect::<Vec<_>>().join(",");
    format!(
        "{{\"bench\":\"parallel_engine\",\"schema\":1,\"host_parallelism\":{host},\
         \"saturated\":{saturated},\
         \"scenario\":{{\"regions\":{},\"clients_per_region\":{},\"rounds\":{},\
         \"intra_owd_ms\":{},\"inter_owd_ms\":{},\"file_mb\":{},\"horizon_secs\":{}}},\
         \"note\":\"speedup_vs_1 is measured wall clock (ceiling = host_parallelism); \
         modeled_parallel_occupancy is busy/critical_path per run, an upper \
         bound on parallel capacity that excludes synchronisation overhead\",\
         \"points\":[{points_json}]}}\n",
        cfg.regions,
        cfg.clients_per_region,
        cfg.rounds,
        cfg.intra_owd_ms,
        cfg.inter_owd_ms,
        cfg.file_bytes / crate::spec::MB,
        cfg.horizon.as_secs_f64(),
    )
}

/// Renders the `BENCH_engine.json` document tracking the engine's
/// performance trajectory across PRs.
pub fn render_json(
    pingpong_interned: &EngineBenchResult,
    pingpong_strings: &EngineBenchResult,
    broker: &EngineBenchResult,
    overhead: &MetricsOverhead,
    names: &NameCloneOverhead,
) -> String {
    let section = |r: &EngineBenchResult| {
        format!(
            "{{\"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \"ns_per_event\": {:.1}, \"peak_queue_len\": {}}}",
            r.events,
            r.wall_secs,
            r.events_per_sec(),
            r.ns_per_event(),
            r.peak_queue_len
        )
    };
    let speedup = if pingpong_interned.ns_per_event() > 0.0 {
        pingpong_strings.ns_per_event() / pingpong_interned.ns_per_event()
    } else {
        0.0
    };
    format!(
        "{{\n  \"pingpong\": {},\n  \"pingpong_string_metrics_baseline\": {},\n  \"engine_speedup_vs_string_baseline\": {:.2},\n  \"broker_8_clients\": {},\n  \"metrics_layer\": {{\"string_ns_per_event\": {:.1}, \"interned_ns_per_event\": {:.1}, \"speedup\": {:.2}}},\n  \"name_interning\": {{\"string_ns_per_event\": {:.1}, \"arc_ns_per_event\": {:.1}, \"speedup\": {:.2}}}\n}}\n",
        section(pingpong_interned),
        section(pingpong_strings),
        speedup,
        section(broker),
        overhead.string_ns_per_event,
        overhead.interned_ns_per_event,
        overhead.speedup(),
        names.string_ns_per_event,
        names.arc_ns_per_event,
        names.speedup()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_counts_every_message() {
        let r = pingpong(10_000, 1);
        assert_eq!(r.events, 10_000, "one deliver event per message");
        assert!(r.peak_queue_len >= 1);
        assert!(r.wall_secs > 0.0);
    }

    #[test]
    fn string_probe_runs_same_schedule() {
        let a = pingpong(2_000, 3);
        let b = pingpong_string_metrics(2_000, 3);
        assert_eq!(
            a.events, b.events,
            "probe must not change the event history"
        );
    }

    #[test]
    fn interned_path_is_faster() {
        let o = metrics_overhead(200_000);
        assert!(
            o.speedup() > 1.0,
            "interned ids should beat string keys ({:.1} vs {:.1} ns)",
            o.string_ns_per_event,
            o.interned_ns_per_event
        );
    }

    #[test]
    fn name_clone_overhead_measures_both_sides() {
        let o = name_clone_overhead(400_000);
        assert!(
            o.string_ns_per_event > 0.0 && o.string_ns_per_event.is_finite(),
            "string side measured {} ns",
            o.string_ns_per_event
        );
        assert!(
            o.arc_ns_per_event > 0.0 && o.arc_ns_per_event.is_finite(),
            "arc side measured {} ns",
            o.arc_ns_per_event
        );
        // With retention modelled (the clone outlives the event in a record
        // batch, as in the run log), the refcount bump beats the
        // allocate-and-keep path on any allocator.
        assert!(
            o.speedup() > 1.0,
            "interned names should beat retained String clones ({:.1} vs {:.1} ns)",
            o.string_ns_per_event,
            o.arc_ns_per_event
        );
    }

    #[test]
    fn parallel_bench_is_worker_invariant_and_json_has_schema_fields() {
        let cfg = crate::multiregion::MultiRegionConfig {
            regions: 2,
            clients_per_region: 2,
            rounds: 1,
            horizon: netsim::time::SimDuration::from_secs(300),
            ..Default::default()
        };
        let points = parallel_engine(&cfg, &[1, 2], 3);
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].events, points[1].events,
            "worker count must not change the event history"
        );
        assert!(points.iter().all(|p| p.rounds > 0 && p.wall_secs > 0.0));
        let json = render_parallel_json(&cfg, &points);
        for field in [
            "\"bench\":\"parallel_engine\"",
            "\"schema\":1",
            "\"host_parallelism\"",
            "\"saturated\"",
            "\"events_per_sec\"",
            "\"speedup_vs_1\"",
            "\"modeled_parallel_occupancy\"",
            "\"critical_path_secs\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = pingpong(1_000, 1);
        let o = metrics_overhead(10_000);
        let n = name_clone_overhead(10_000);
        let json = render_json(&r, &r, &r, &o, &n);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("events_per_sec").count(), 3);
        assert!(json.contains("metrics_layer"));
        assert!(json.contains("name_interning"));
    }
}
