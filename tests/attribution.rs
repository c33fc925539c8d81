//! Latency attribution invariants over full runs: the phase decomposition
//! of the run log must partition every completed transfer's end-to-end
//! latency exactly (integer nanoseconds, no residue), the exported
//! artefacts must be byte-deterministic per seed, and neither may depend
//! on whether the run kept a trace.

use netsim::engine::Engine;
use netsim::link::{AccessLink, PathSpec};
use netsim::node::{NodeId, NodeSpec};
use netsim::rng::DelayDistribution;
use netsim::time::{SimDuration, SimTime};
use netsim::topology::Topology;
use netsim::trace::{fnv1a, TraceEventKind};
use netsim::transport::TransportConfig;
use overlay::broker::{Broker, BrokerCommand, BrokerConfig, TargetSpec};
use overlay::client::{ClientConfig, SimpleClient};
use overlay::message::OverlayMsg;
use overlay::records::RecordSink;
use workloads::attribution::{
    aggregate_metrics, attribute_log, breakdown_by_peer, phase_table_csv, Phase,
    TransferAttribution,
};
use workloads::harness::defaults::CLI_TRACE_CAPACITY;
use workloads::multiregion::{MultiRegionConfig, MultiRegionWorkload};
use workloads::scenario::{run_scenario, ScenarioConfig, ScenarioResult};

fn attributed(name: &str, seed: u64) -> Vec<TransferAttribution> {
    let cfg = ScenarioConfig::named(name).expect("known scenario");
    attribute_log(&run_scenario(&cfg, seed).run.log)
}

/// Acceptance property: for every completed transfer of a traced fig5 run,
/// the five phases sum *exactly* to the end-to-end latency. All phase
/// arithmetic is integer-nanosecond, so this is equality, not tolerance.
#[test]
fn phases_sum_exactly_to_end_to_end() {
    for seed in [1, 2, 7, 42] {
        let attrs = attributed("fig5", seed);
        assert_eq!(attrs.len(), 8, "one transfer per SC under seed {seed}");
        for a in &attrs {
            assert!(a.ok, "fig5 transfers complete under seed {seed}");
            let sum: SimDuration = a.phases.iter().copied().sum();
            assert_eq!(
                sum,
                a.end_to_end(),
                "phase residue on transfer {:#x} (seed {seed})",
                a.transfer
            );
        }
    }
}

/// Same invariant under loss: retransmission stalls and timeout idle must
/// still partition the window, never overlap or leak.
#[test]
fn phases_sum_exactly_under_loss() {
    let attrs = attributed("fig5-lossy", 3);
    assert!(!attrs.is_empty());
    for a in &attrs {
        let sum: SimDuration = a.phases.iter().copied().sum();
        assert_eq!(sum, a.end_to_end(), "lossy residue on {:#x}", a.transfer);
    }
}

/// The paper's story: the small fig2 petition is wake-up-bound on SC7,
/// while the bulk fig234 run is transmission-bound everywhere.
#[test]
fn attribution_reproduces_the_paper_story() {
    let fig2 = attributed("fig2", 1);
    let slowest = fig2
        .iter()
        .max_by_key(|a| a.phase(Phase::Wakeup))
        .expect("transfers");
    assert_eq!(slowest.dominant_phase(), Phase::Wakeup);

    let fig234 = attributed("fig234", 1);
    for a in &fig234 {
        assert_eq!(
            a.dominant_phase(),
            Phase::Transmission,
            "bulk transfer {:#x} should be transmission-bound",
            a.transfer
        );
    }
}

/// Exposition determinism: identical seeds yield byte-identical CSV and
/// Prometheus exports (the CI job checks the CLI path; this guards the
/// library path the CLI is built on).
#[test]
fn exports_are_byte_deterministic() {
    let label = |node: NodeId| format!("n{}", node.0);
    let render = || {
        let attrs = attributed("fig5", 11);
        let breakdowns = breakdown_by_peer(&attrs, &label);
        let csv = phase_table_csv(&breakdowns);
        let prom = aggregate_metrics(&attrs, &label).render_prometheus("psim");
        (csv, prom)
    };
    let (csv_a, prom_a) = render();
    let (csv_b, prom_b) = render();
    assert_eq!(csv_a, csv_b);
    assert_eq!(prom_a, prom_b);
    assert!(csv_a.starts_with("peer,phase,transfers,"));
    assert!(prom_a.contains("# TYPE psim_attr_all_transmission_seconds histogram"));
}

/// The `psim attribute <name> --csv --prom` files of one run: the phase
/// table by SC label, and the run's metrics plus the attribution
/// histograms as Prometheus text.
fn attribute_exports(result: &ScenarioResult) -> (String, String) {
    let scs = &result.testbed.scs;
    let label_of = |node: NodeId| {
        (scs.iter().position(|&sc| sc == node))
            .map(|i| format!("SC{}", i + 1))
            .unwrap_or_else(|| format!("n{}", node.0))
    };
    let attrs = attribute_log(&result.run.log);
    let csv = phase_table_csv(&breakdown_by_peer(&attrs, label_of));
    let mut metrics = result.run.metrics.clone();
    metrics.merge(&aggregate_metrics(&attrs, label_of));
    (csv, metrics.render_prometheus("psim"))
}

/// The run log is the one account of a transfer: a run without a trace
/// ring attributes exactly what the traced run does, and both match the
/// pinned `psim attribute <name> --seed 7` CSV and Prometheus files
/// (FNV-1a). The pins were first taken from the trace replay the run log
/// replaced, and re-blessed once when the digest took FNV-1a's published
/// prime and the Prometheus text lost `overlay.jobs_unplaced`; no other
/// byte moved. The multi-region phase tail likewise equals the one in
/// the traced golden.
#[test]
fn attribution_does_not_depend_on_the_trace() {
    let pins = [
        ("fig5", 0x011a_8f89_8fc7_36cc, 0xa0e7_8a2d_88fc_6e79),
        ("fig5-lossy", 0x738d_2340_34af_3439, 0x48f4_a59a_9eef_77cc),
    ];
    for (name, csv_pin, prom_pin) in pins {
        let cfg = ScenarioConfig::named(name).expect("known scenario");
        let plain = cfg.run_with(cfg.harness(), 7).expect("one shard runs");
        let harness = cfg.harness().trace_capacity(Some(CLI_TRACE_CAPACITY));
        let traced = cfg.run_with(harness, 7).expect("one shard runs");
        assert!(plain.run.trace.is_empty() && !traced.run.trace.is_empty());
        assert_eq!(traced.run.trace.dropped(), 0);
        let (csv, prom) = attribute_exports(&plain);
        assert_eq!(fnv1a(csv.as_bytes()), csv_pin, "{name} phase CSV");
        assert_eq!(fnv1a(prom.as_bytes()), prom_pin, "{name} Prometheus text");
        assert_eq!((csv, prom), attribute_exports(&traced), "{name} traced");
    }

    // `psim multiregion --regions 3 --clients 2 --seed 11`, untraced.
    let cfg = MultiRegionConfig {
        regions: 3,
        clients_per_region: 2,
        ..MultiRegionConfig::default()
    };
    let (run, artifact) = (cfg.harness().build())
        .and_then(|h| h.run_with_artifact(&MultiRegionWorkload { cfg: &cfg }, 11))
        .expect("golden config is valid");
    assert!(run.trace.is_empty());
    fn phase_tail(artifact: &str) -> &str {
        &artifact[artifact.find("peer,phase,").expect("a phase CSV")..]
    }
    let golden = include_str!("goldens/multiregion.txt");
    assert_eq!(phase_tail(&artifact), phase_tail(golden));
}

/// The one case where the record and a replay of the trace disagree: a
/// petition ack that arrives after the watchdog already closed the
/// transfer. The trace still exports that ack, but the record never
/// stamps it, so the dead wait is `timeout_idle` (the cancelled tail),
/// not `wakeup`.
#[test]
fn a_petition_ack_after_the_watchdog_close_is_timeout_idle() {
    let mut topo = Topology::new();
    let broker = topo.add_node(NodeSpec::responsive("broker"), AccessLink::default());
    // The receiver handles each message 30 s after it lands: far slower
    // than the 10 s watchdog.
    let slow = NodeSpec::responsive("slow").with_service_delay(DelayDistribution::Constant(30.0));
    let client = topo.add_node(slow, AccessLink::default());
    topo.set_path_symmetric(broker, client, PathSpec::from_owd_ms(20.0, 0.0));
    let sink = RecordSink::new();
    let mut bcfg = BrokerConfig::new(3).at(
        SimDuration::from_secs(1),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 1 << 20,
            num_parts: 1,
            label: "late".into(),
        },
    );
    bcfg.transfer_timeout = SimDuration::from_secs(10);
    bcfg.stop_when_idle = false;
    let mut engine: Engine<OverlayMsg> = Engine::new(topo, TransportConfig::default(), 5);
    engine.enable_trace(1 << 12);
    engine.register(broker, Box::new(Broker::new(bcfg, sink.clone())));
    let client_cfg = ClientConfig::new(broker);
    engine.register(client, Box::new(SimpleClient::new(client_cfg, 9)));
    engine.run_until(SimTime::ZERO + SimDuration::from_secs(120));

    let instant = |want: fn(&TraceEventKind) -> bool| {
        (engine.trace().events())
            .find(|e| e.node == broker && want(&e.kind))
            .map(|e| e.time)
    };
    let closed = instant(|k| matches!(k, TraceEventKind::TransferCompleted { ok: false, .. }));
    let acked = instant(|k| matches!(k, TraceEventKind::PetitionAcked { .. }));
    let (closed, acked) = (closed.expect("the watchdog closed"), acked.expect("acked"));
    assert!(
        acked > closed,
        "the ack ({acked:?}) must land after the close ({closed:?})"
    );

    let log = sink.drain();
    let rec = &log.transfers[0];
    assert_eq!(
        (rec.petition_acked_at, rec.cancelled_at),
        (None, Some(closed))
    );
    let attrs = attribute_log(&log);
    let a = &attrs[0];
    assert!(!a.ok);
    assert_eq!(a.phase(Phase::Wakeup), SimDuration::ZERO);
    assert_eq!(a.phase(Phase::TimeoutIdle), a.end_to_end());
    assert_eq!(a.dominant_phase(), Phase::TimeoutIdle);
}
