//! Integration tests for the overlay features beyond the paper's
//! evaluation, exercised on the calibrated PlanetLab testbed.

use netsim::engine::Engine;
use netsim::time::{SimDuration, SimTime};
use netsim::trace::fnv1a;
use overlay::broker::{Broker, BrokerConfig};
use overlay::client::{ClientCommand, ClientConfig, SimpleClient};
use overlay::message::OverlayMsg;
use overlay::records::RecordSink;
use planetlab::builder::build;
use workloads::harness::defaults::CLI_TRACE_CAPACITY;
use workloads::scenario::ScenarioConfig;
use workloads::spec::MB;

#[test]
fn file_request_flows_peer_to_peer_on_the_testbed() {
    // SC4 shares a dataset; SC1 requests it twice; the transfers flow
    // SC4 → SC1 without touching the broker's data plane.
    let request = || ClientCommand::RequestFile {
        name: "corpus.tar".into(),
    };
    let cfg = ScenarioConfig {
        shared_files_by_sc: vec![(4, "corpus.tar".into(), 6 * MB)],
        client_commands_by_sc: vec![
            (1, SimDuration::from_secs(120), request()),
            (1, SimDuration::from_secs(400), request()),
        ],
        stop_when_idle: false,
        horizon: SimDuration::from_secs(900),
        ..ScenarioConfig::default()
    };
    let harness = cfg.harness().trace_capacity(Some(CLI_TRACE_CAPACITY));
    let result = cfg
        .run_with(harness, 3)
        .expect("the measurement testbed runs");
    let served: Vec<_> = result
        .run
        .log
        .transfers
        .iter()
        .filter(|t| t.label == "corpus.tar")
        .collect();
    assert_eq!(served.len(), 2);
    for t in &served {
        assert_eq!(t.to, result.testbed.sc(1));
        assert!(t.completed_at.is_some(), "request unserved");
    }
    assert_eq!(
        result.run.metrics.counter("overlay.file_requests_served"),
        2
    );
    // The serving client's sending end (petition, parts, closing rows,
    // report) is pinned byte for byte: no golden covers it otherwise.
    assert_eq!(
        result.run.trace.digest(),
        0x4c76_bbbd_556b_342d,
        "trace digest"
    );
    assert_eq!(
        fnv1a(result.run.metrics.render().as_bytes()),
        0x8946_6a84_1ca3_283c,
        "metrics"
    );
}

#[test]
fn lossy_testbed_still_reproduces_fig2_shape() {
    // With 2% message loss and retransmissions enabled, the petition-time
    // ordering survives (SC7 worst, SC2/4/8 best).
    use overlay::broker::{BrokerCommand, RetryPolicy, TargetSpec};
    let mut cfg = ScenarioConfig {
        commands: vec![(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 10 * MB,
                num_parts: 10,
                label: "lossy".into(),
            },
        )],
        ..ScenarioConfig::default()
    };
    cfg.transport.message_drop_probability = 0.02;
    let result = {
        // This test drives the broker directly with a custom retry policy,
        // reading the scenario's testbed, script and transport.
        let tb = build(&cfg.testbed);
        let sink = RecordSink::new();
        let mut bcfg = BrokerConfig::new(81);
        bcfg.commands = cfg.commands.clone();
        bcfg.retry = Some(RetryPolicy {
            timeout: SimDuration::from_secs(90),
            max_attempts: 6,
        });
        let mut engine: Engine<OverlayMsg> =
            Engine::new(tb.topology.clone(), cfg.transport.clone(), 31);
        engine.register(tb.broker, Box::new(Broker::new(bcfg, sink.clone())));
        for (i, node) in tb.clients().into_iter().enumerate() {
            engine.register(
                node,
                Box::new(SimpleClient::new(
                    ClientConfig::new(tb.broker),
                    700 + i as u64,
                )),
            );
        }
        engine.run_until(SimTime::from_secs_f64(7200.0));
        (sink.drain(), tb)
    };
    let (log, tb) = result;
    let completed = log
        .transfers
        .iter()
        .filter(|t| t.completed_at.is_some())
        .count();
    assert!(
        completed >= 7,
        "loss must not break most transfers: {completed}/8"
    );
    // SC7 still slowest among completed transfers.
    let sc7_total = log
        .transfers
        .iter()
        .find(|t| t.to == tb.sc(7))
        .and_then(|t| t.total_secs());
    if let Some(sc7) = sc7_total {
        for t in &log.transfers {
            if t.to != tb.sc(7) {
                if let Some(other) = t.total_secs() {
                    assert!(sc7 > other, "SC7 must remain the bottleneck");
                }
            }
        }
    }
}
