//! Integration coverage for the telemetry subsystem: windowed time-series
//! recording through both engines, worker-count invariance of the series
//! exports, and the sharded engine's profile with its Chrome-trace
//! exporter.

use netsim::prelude::*;

#[derive(Debug, Clone)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> u64 {
        128
    }
    fn kind(&self) -> &'static str {
        "token"
    }
}

/// Bounces a token along a fixed itinerary for a set number of hops.
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

fn series_recorder() -> TimeSeriesRecorder {
    let mut rec = TimeSeriesRecorder::new(SimDuration::from_millis(500)).expect("interval");
    rec.register(
        "delivered",
        SeriesSource::Counter("net.messages_delivered".into()),
        SeriesMode::Cumulative,
    );
    rec.register(
        "delivered_rate",
        SeriesSource::Counter("net.messages_delivered".into()),
        SeriesMode::Delta,
    );
    rec.register(
        "bytes",
        SeriesSource::Counter("net.bytes_sent".into()),
        SeriesMode::Cumulative,
    );
    rec
}

fn register_bouncers(mut install: impl FnMut(NodeId, Box<dyn Actor<Token> + Send>)) {
    let itinerary: Vec<NodeId> = (0..6).map(|j| NodeId((j * 5 + 1) % 6)).collect();
    for (i, node) in (0..6).map(NodeId).enumerate() {
        install(
            node,
            Box::new(Bouncer {
                itinerary: itinerary.clone(),
                hops: 40,
                kick_off: i < 2,
            }),
        );
    }
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

/// Node 0 bursts 400 tokens at node 1; the other nodes stay quiet.
fn register_burst(install: &mut dyn FnMut(NodeId, Box<dyn Actor<Token> + Send>)) {
    for node in (0..6).map(NodeId) {
        let count = if node == NodeId(0) { 400 } else { 0 };
        install(
            node,
            Box::new(Burst {
                to: NodeId(1),
                count,
            }),
        );
    }
}

/// Runs `fleet` to `horizon` on a plain `Engine` and on a lone shard,
/// asserts that outcome, final clock, trace, metrics and series agree, and
/// returns the lone shard's series with both queue peaks (serial, lone).
fn serial_against_lone_shard(
    fleet: impl Fn(&mut dyn FnMut(NodeId, Box<dyn Actor<Token> + Send>)),
    horizon: SimTime,
) -> (TimeSeriesRecorder, usize, usize) {
    let mut serial = Engine::new(two_region_topo(), TransportConfig::default(), 42);
    fleet(&mut |node, actor| serial.register(node, actor));
    serial.enable_trace(4096);
    serial.install_recorder(series_recorder());
    let outcome = serial.run_until(horizon);
    let expected = serial.take_recorder().expect("recorder installed");

    let mut lone = ShardedEngine::new(
        two_region_topo(),
        TransportConfig::default(),
        42,
        ShardMap::single(6),
        1,
    )
    .expect("a lone shard needs no lookahead");
    fleet(&mut |node, actor| lone.register(node, actor));
    lone.enable_trace(4096);
    lone.install_recorder(series_recorder());
    assert_eq!(lone.run_until(horizon), outcome);
    let rec = lone.take_recorder().expect("recorder installed");

    assert_eq!(lone.now(), serial.now());
    assert_eq!(lone.trace().digest(), serial.trace().digest());
    assert_eq!(lone.metrics().render(), serial.metrics().render());
    assert_eq!(rec.to_csv(), expected.to_csv());
    (rec, serial.peak_queue_len(), lone.peak_queue_len())
}

fn sharded(workers: usize) -> ShardedEngine<Token> {
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).expect("valid assignment");
    let mut e = ShardedEngine::new(
        two_region_topo(),
        TransportConfig::default(),
        42,
        map,
        workers,
    )
    .expect("positive cross-shard lookahead");
    register_bouncers(|node, actor| e.register(node, actor));
    e
}

#[test]
fn serial_engine_emits_rows_and_final_horizon_boundary() {
    let mut e = Engine::new(two_region_topo(), TransportConfig::default(), 42);
    register_bouncers(|node, actor| e.register(node, actor));
    e.install_recorder(series_recorder());
    let horizon = SimTime::from_secs_f64(10.0);
    e.run_until(horizon);
    let rec = e.take_recorder().expect("recorder installed");
    // Boundaries every 500 ms from 0 through the final clock; the run
    // drains well before the horizon, so the last row sits at the last
    // complete boundary, not at the horizon.
    assert!(!rec.is_empty());
    assert_eq!(rec.rows()[0].t, SimTime::ZERO);
    let last = rec.rows().last().expect("rows");
    assert!(last.t <= horizon);
    // Cumulative column is monotone; the delta column sums to it.
    let deliveries: Vec<f64> = rec.rows().iter().map(|r| r.values[0]).collect();
    assert!(deliveries.windows(2).all(|w| w[0] <= w[1]));
    let delta_sum: f64 = rec.rows().iter().map(|r| r.values[1]).sum();
    assert_eq!(delta_sum, *deliveries.last().expect("rows"));
    assert!(*deliveries.last().expect("rows") > 0.0, "workload ran");
}

#[test]
fn lone_shard_series_matches_the_serial_engine() {
    // A lone shard has exactly one barrier, so barrier-time sampling would
    // read every boundary off the end-of-run metrics (a flat series). It is
    // the serial engine instead: same seed, in-loop sampling, same bytes.
    let (rec, serial_peak, lone_peak) = serial_against_lone_shard(
        |install| register_bouncers(install),
        SimTime::from_secs_f64(10.0),
    );
    let rates: Vec<f64> = rec.rows().iter().map(|r| r.values[1]).collect();
    assert!(
        rates.iter().filter(|&&r| r > 0.0).count() > 1,
        "deliveries must spread over several windows, got {rates:?}"
    );
    assert_eq!(lone_peak, serial_peak, "the run drains before the horizon");

    // A horizon that cuts the burst in flight. The lone shard never stores
    // a delivery due after it, yet must end, sample and report exactly as
    // the serial engine, whose queue still holds them.
    let (rec, serial_peak, lone_peak) =
        serial_against_lone_shard(register_burst, SimTime::from_secs_f64(1.2));
    let delivered = rec.rows().last().expect("rows").values[0];
    assert!(delivered > 0.0 && delivered < 400.0, "{delivered}");
    assert!(
        lone_peak < serial_peak,
        "late deliveries stay unstored: lone {lone_peak}, serial {serial_peak}"
    );
}

#[test]
fn sharded_series_exports_are_worker_count_invariant() {
    let horizon = SimTime::from_secs_f64(10.0);
    let mut exports = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut e = sharded(workers);
        e.install_recorder(series_recorder());
        e.run_until(horizon);
        let rec = e.take_recorder().expect("recorder installed");
        assert!(
            !rec.is_empty(),
            "series must have rows at {workers} workers"
        );
        exports.push((workers, rec.to_csv()));
    }
    let (_, csv1) = &exports[0];
    for (workers, csv) in &exports[1..] {
        assert_eq!(csv, csv1, "CSV differs at {workers} workers");
    }
    assert!(csv1.starts_with("t_secs,delivered,delivered_rate,bytes\n"));
}

#[test]
fn profiler_accounts_rounds_and_chrome_trace_is_deterministic() {
    let horizon = SimTime::from_secs_f64(10.0);
    let mut traces = Vec::new();
    for workers in [1usize, 2] {
        let mut e = sharded(workers);
        e.install_recorder(series_recorder());
        e.run_until(horizon);
        let profile = e.profile();
        assert_eq!(profile.shards.len(), 2);
        assert_eq!(profile.schedule.len() as u64, profile.rounds * 2);
        let events: u64 = profile.shards.iter().map(|t| t.events).sum();
        assert_eq!(events, e.events_processed(), "totals cover every event");
        let envelopes: u64 = profile.shards.iter().map(|t| t.envelopes_out).sum();
        assert!(envelopes > 0, "cross-region traffic crosses shards");
        // Sim-time structure (rounds, events, envelopes, windows) is
        // worker-count invariant even though the busy total is not.
        traces.push(profile.chrome_trace_json());
    }
    assert_eq!(traces[0], traces[1], "chrome trace differs across workers");
    let json = &traces[0];
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(!json.contains("busy"), "wall-clock fields stay out");
}

#[test]
fn profiler_and_recorder_compose_on_one_run() {
    // Without a recorder the profile keeps its totals but no schedule;
    // installing one makes the same run a telemetry run.
    let horizon = SimTime::from_secs_f64(10.0);
    let mut plain = sharded(2);
    plain.run_until(horizon);
    let mut e = sharded(2);
    e.install_recorder(series_recorder());
    e.run_until(horizon);
    assert!(plain.profile().schedule.is_empty());
    assert_eq!(plain.profile().rounds, e.profile().rounds);
    assert_eq!(plain.profile().shards, e.profile().shards);
    assert!(!e.profile().schedule.is_empty());
    let rec = e.take_recorder().expect("recorder installed");
    assert!(!rec.is_empty());
    let summary = e.profile().summary_json();
    assert!(summary.starts_with("{\"rounds\":"), "{summary}");
    assert!(summary.contains("\"busy_secs\":"), "{summary}");
}

/// Ticks every 10 ms, forever, and sends nothing.
struct Ticker;

impl Actor<Token> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        ctx.schedule_timer(SimDuration::from_millis(10), 0);
    }
    fn on_message(&mut self, _: &mut Context<Token>, _: NodeId, _: Token) {}
    fn on_timer(&mut self, ctx: &mut Context<Token>, _: TimerId, _: u64) {
        ctx.schedule_timer(SimDuration::from_millis(10), 0);
    }
}

#[test]
fn a_long_telemetry_run_keeps_its_whole_schedule() {
    // Six one-node shards tick in step, so each barrier round runs one
    // tick per shard: 90 s of sim time is ~9 000 rounds and ~54 000
    // shard-rounds, more than any capped profiler would store.
    let map = ShardMap::from_assignment((0..6).collect()).expect("valid assignment");
    let mut e = ShardedEngine::new(two_region_topo(), TransportConfig::default(), 42, map, 1)
        .expect("positive cross-shard lookahead");
    for node in (0..6).map(NodeId) {
        e.register(node, Box::new(Ticker));
    }
    e.install_recorder(series_recorder());
    e.run_until(SimTime::from_secs_f64(90.0));
    let profile = e.profile();
    let records = profile.schedule.len() as u64;
    assert!(records > 50_000, "only {records} shard-rounds");
    assert_eq!(records, profile.rounds * 6, "one record per shard-round");
    let events: u64 = profile.shards.iter().map(|t| t.events).sum();
    assert_eq!(events, e.events_processed());
    let json = profile.chrome_trace_json();
    assert_eq!(
        json.matches("\"ph\":\"X\"").count() as u64,
        records,
        "one complete event per record"
    );
}
