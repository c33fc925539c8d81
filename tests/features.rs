//! Integration tests for the overlay features beyond the paper's
//! evaluation, exercised on the calibrated PlanetLab testbed.

use netsim::engine::Engine;
use netsim::time::{SimDuration, SimTime};
use overlay::broker::{Broker, BrokerConfig};
use overlay::client::{ClientCommand, ClientConfig, SimpleClient};
use overlay::gui::{GuiClient, UserBehavior};
use overlay::message::OverlayMsg;
use overlay::records::RecordSink;
use peer_selection::prelude::*;
use planetlab::builder::{build, TestbedConfig};
use workloads::scenario::{run_scenario, ScenarioConfig};
use workloads::spec::MB;

#[test]
fn file_request_flows_peer_to_peer_on_the_testbed() {
    // SC4 shares a dataset; SC1 requests it twice; the transfers flow
    // SC4 → SC1 without touching the broker's data plane.
    let cfg = ScenarioConfig::builder()
        .shared_file(4, "corpus.tar", 6 * MB)
        .client_command(
            1,
            SimDuration::from_secs(120),
            ClientCommand::RequestFile {
                name: "corpus.tar".into(),
            },
        )
        .client_command(
            1,
            SimDuration::from_secs(400),
            ClientCommand::RequestFile {
                name: "corpus.tar".into(),
            },
        )
        .stop_when_idle(false)
        .horizon(SimDuration::from_secs(900))
        .build()
        .expect("valid scenario");
    let result = run_scenario(&cfg, 3);
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
}

#[test]
fn client_job_runs_remotely_with_selection() {
    // SC5 submits a job; the economic selector places it on a fast peer,
    // never on the submitter or SC7.
    let cfg = ScenarioConfig::builder()
        .client_command(
            5,
            SimDuration::from_secs(200),
            ClientCommand::SubmitJob {
                work_gops: 30.0,
                input_bytes: 2 * MB,
                input_parts: 4,
                label: "analysis".into(),
            },
        )
        .stop_when_idle(false)
        .horizon(SimDuration::from_secs(2000))
        .build()
        .expect("valid scenario")
        .with_selector(Box::new(|_| -> Box<dyn PeerSelector> {
            Box::new(Scored::new(EconomicModel::new()))
        }));
    let result = run_scenario(&cfg, 5);
    assert_eq!(result.run.log.jobs.len(), 1);
    let job = &result.run.log.jobs[0];
    assert!(job.success);
    assert_eq!(job.submitter, result.testbed.sc(5));
    assert_ne!(job.executor, result.testbed.sc(5));
    assert_ne!(job.executor, result.testbed.sc(7), "SC7 must not be chosen");
}

#[test]
fn gui_user_session_on_the_testbed() {
    // A GUI client on SC6's host browses, chats, requests a file shared by
    // SC2, and submits jobs, against the real broker.
    let tb = build(&TestbedConfig::measurement_setup());
    let sink = RecordSink::new();
    let mut bcfg = BrokerConfig::new(71);
    bcfg.stop_when_idle = false;
    let mut engine: Engine<OverlayMsg> = Engine::new(tb.topology.clone(), Default::default(), 21);
    engine.register(tb.broker, Box::new(Broker::new(bcfg, sink.clone())));
    for (i, &sc) in tb.scs.iter().enumerate() {
        if i == 5 {
            let behavior = UserBehavior {
                mean_think_secs: 30.0,
                max_actions: Some(40),
                ..UserBehavior::default()
            };
            engine.register(
                sc,
                Box::new(GuiClient::new(ClientConfig::new(tb.broker), behavior, 500)),
            );
        } else {
            let cfg = if i == 1 {
                ClientConfig::new(tb.broker).sharing("lecture-01.mp4", 3 * MB)
            } else {
                ClientConfig::new(tb.broker)
            };
            engine.register(
                sc,
                Box::new(SimpleClient::new(cfg, 500 + i as u64).with_sink(sink.clone())),
            );
        }
    }
    engine.run_until(SimTime::from_secs_f64(3600.0));
    // The user's browsing found the shared file and requested it at least
    // once over ~40 actions with request weight 1/6.5 (p≈0.998 of ≥1).
    let log = sink.drain();
    let requested = log
        .transfers
        .iter()
        .filter(|t| t.label == "lecture-01.mp4")
        .count();
    assert!(
        requested >= 1,
        "GUI user should have requested the discovered file"
    );
    assert!(engine.metrics().counter("net.messages_sent") > 100);
}

#[test]
fn lossy_testbed_still_reproduces_fig2_shape() {
    // With 2% message loss and retransmissions enabled, the petition-time
    // ordering survives (SC7 worst, SC2/4/8 best).
    use overlay::broker::{BrokerCommand, RetryPolicy, TargetSpec};
    let cfg = ScenarioConfig::builder()
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 10 * MB,
                num_parts: 10,
                label: "lossy".into(),
            },
        )
        .drop_probability(0.02)
        .build()
        .expect("valid scenario");
    let result = {
        // This test drives the broker directly with a custom retry policy,
        // reading the built scenario back through its accessors.
        let tb = build(cfg.testbed());
        let sink = RecordSink::new();
        let mut bcfg = BrokerConfig::new(81);
        bcfg.commands = cfg.commands().to_vec();
        bcfg.retry = Some(RetryPolicy {
            timeout: SimDuration::from_secs(90),
            max_attempts: 6,
        });
        let mut engine: Engine<OverlayMsg> =
            Engine::new(tb.topology.clone(), cfg.transport().clone(), 31);
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
