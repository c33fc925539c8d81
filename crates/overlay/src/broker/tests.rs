//! End-to-end broker tests on loss-free star topologies.

use super::*;
use crate::client::{ClientCommand, ClientConfig, SimpleClient};
use netsim::link::{AccessLink, PathSpec};
use netsim::node::NodeSpec;
use netsim::prelude::*;
use std::sync::{Arc, Mutex};

/// Builds a broker + `n` clients on a simple star topology.
fn star(
    n: usize,
    cfg_broker: impl FnOnce(NodeId) -> BrokerConfig,
) -> (Engine<OverlayMsg>, RecordSink, NodeId, Vec<NodeId>) {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let mut clients = Vec::new();
    for i in 0..n {
        let c = topo.add_node(
            NodeSpec::responsive(format!("client{i}")),
            AccessLink::symmetric_mbps(8.0, 0.0003),
        );
        topo.set_path_symmetric(broker_node, c, PathSpec::from_owd_ms(20.0, 0.0));
        clients.push(c);
    }
    let sink = RecordSink::new();
    let mut engine = Engine::new(topo, TransportConfig::default(), 42);
    engine.register(
        broker_node,
        Box::new(Broker::new(cfg_broker(broker_node), sink.clone())),
    );
    for (i, &c) in clients.iter().enumerate() {
        engine.register(
            c,
            Box::new(SimpleClient::new(
                ClientConfig::new(broker_node),
                1000 + i as u64,
            )),
        );
    }
    (engine, sink, broker_node, clients)
}

#[test]
fn clients_join_and_transfer_completes() {
    let (mut engine, sink, _b, clients) = star(2, |_| {
        BrokerConfig::new(7).at(
            SimDuration::from_secs(1),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 4 << 20,
                num_parts: 4,
                label: "t".into(),
            },
        )
    });
    let outcome = engine.run_until(SimTime::from_secs_f64(3600.0));
    assert_eq!(outcome, RunOutcome::Stopped, "broker stops when idle");
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 2);
    for t in &log.transfers {
        assert!(
            t.completed_at.is_some(),
            "transfer to {} incomplete",
            t.to_name
        );
        assert!(!t.cancelled);
        assert_eq!(t.parts.len(), 4);
        assert!(t.parts.iter().all(|p| p.confirmed_at.is_some()));
        assert!(clients.contains(&t.to));
        assert!(t.petition_latency_secs().unwrap() > 0.0);
        assert!(t.total_secs().unwrap() > 0.0);
    }
}

#[test]
fn single_part_transfer_is_whole_file() {
    let (mut engine, sink, _b, _c) = star(1, |_| {
        BrokerConfig::new(8).at(
            SimDuration::from_secs(1),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 1 << 20,
                num_parts: 1,
                label: "whole".into(),
            },
        )
    });
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    assert_eq!(log.transfers[0].num_parts, 1);
    assert!(log.transfers[0].completed_at.is_some());
}

#[test]
fn task_without_input_runs_to_completion() {
    let (mut engine, sink, _b, clients) = star(1, |_| {
        BrokerConfig::new(9).at(
            SimDuration::from_secs(1),
            BrokerCommand::SubmitTask {
                target: TargetSpec::Node(NodeId(1)),
                work_gops: 10.0,
                input_bytes: 0,
                input_parts: 1,
                label: "compute".into(),
            },
        )
    });
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.tasks.len(), 1);
    let t = &log.tasks[0];
    assert_eq!(t.on, clients[0]);
    assert!(t.success);
    assert!(t.exec_secs.unwrap() > 0.0);
    assert!(t.accepted_at.is_some());
    assert!(t.total_secs().unwrap() >= t.exec_secs.unwrap());
    assert_eq!(t.input_done_at, None);
}

#[test]
fn task_with_input_ships_file_first() {
    let (mut engine, sink, _b, _c) = star(1, |_| {
        BrokerConfig::new(10).at(
            SimDuration::from_secs(1),
            BrokerCommand::SubmitTask {
                target: TargetSpec::AllClients,
                work_gops: 5.0,
                input_bytes: 2 << 20,
                input_parts: 4,
                label: "process".into(),
            },
        )
    });
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.tasks.len(), 1);
    assert_eq!(log.transfers.len(), 1, "input shipped as a transfer");
    let task = &log.tasks[0];
    assert!(task.success);
    assert!(task.input_done_at.is_some());
    // Makespan covers transfer + execution.
    let transfer_secs = log.transfers[0].total_secs().unwrap();
    assert!(task.total_secs().unwrap() > transfer_secs);
}

#[test]
fn refusing_client_causes_cancel() {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let c = topo.add_node(
        NodeSpec::responsive("refuser"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    topo.set_path_symmetric(broker_node, c, PathSpec::from_owd_ms(20.0, 0.0));
    let sink = RecordSink::new();
    let mut engine = Engine::new(topo, TransportConfig::default(), 5);
    engine.register(
        broker_node,
        Box::new(Broker::new(
            BrokerConfig::new(11).at(
                SimDuration::from_secs(1),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: 1 << 20,
                    num_parts: 2,
                    label: "refused".into(),
                },
            ),
            sink.clone(),
        )),
    );
    let mut cfg = ClientConfig::new(broker_node);
    cfg.refuse_transfers = true;
    engine.register(c, Box::new(SimpleClient::new(cfg, 99)));
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    assert!(log.transfers[0].cancelled);
    assert!(log.transfers[0].completed_at.is_none());
}

#[test]
fn selected_target_uses_selector_and_records_decision() {
    let (mut engine, sink, _b, _c) = star(3, |_| {
        BrokerConfig::new(12)
            .with_selector(Box::new(crate::selector::RoundRobinSelector::new()))
            .at(
                SimDuration::from_secs(2),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Selected,
                    size_bytes: 1 << 20,
                    num_parts: 2,
                    label: "sel".into(),
                },
            )
    });
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.selections.len(), 1);
    assert_eq!(log.selections[0].model, "round-robin");
    assert_eq!(log.selections[0].candidates, 3);
    assert_eq!(log.transfers.len(), 1);
    assert_eq!(log.transfers[0].to, log.selections[0].chosen);
}

#[test]
fn commands_wait_for_peers_to_join() {
    // Command scheduled at t=0, before any Join can arrive; the broker
    // must retry until the client is registered.
    let (mut engine, sink, _b, _c) = star(1, |_| {
        BrokerConfig::new(13).at(
            SimDuration::ZERO,
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 1 << 20,
                num_parts: 2,
                label: "early".into(),
            },
        )
    });
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    assert!(log.transfers[0].completed_at.is_some());
}

#[test]
fn instant_message_reaches_clients() {
    let (mut engine, _sink, _b, clients) = star(2, |_| {
        let mut cfg = BrokerConfig::new(14).at(
            SimDuration::from_secs(1),
            BrokerCommand::SendInstant {
                target: TargetSpec::AllClients,
                text: "hello peers".into(),
            },
        );
        cfg.stop_when_idle = true;
        cfg
    });
    engine.run_until(SimTime::from_secs_f64(120.0));
    for &c in &clients {
        let got = engine.with_actor(c, |_a| ()).is_some();
        assert!(got);
    }
    assert!(engine.metrics().counter("net.messages_sent") > 0);
}

/// Star topology where client configs are customised per index.
fn star_with(
    n: usize,
    broker_cfg: BrokerConfig,
    mut client_cfg: impl FnMut(usize, NodeId) -> ClientConfig,
    sink: &RecordSink,
) -> (Engine<OverlayMsg>, NodeId, Vec<NodeId>) {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let mut clients = Vec::new();
    for i in 0..n {
        let c = topo.add_node(
            NodeSpec::responsive(format!("client{i}")),
            AccessLink::symmetric_mbps(8.0, 0.0003),
        );
        topo.set_path_symmetric(broker_node, c, PathSpec::from_owd_ms(20.0, 0.0));
        clients.push(c);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            topo.set_path_symmetric(clients[i], clients[j], PathSpec::from_owd_ms(30.0, 0.0));
        }
    }
    let mut engine = Engine::new(topo, TransportConfig::default(), 42);
    engine.register(broker_node, Box::new(Broker::new(broker_cfg, sink.clone())));
    for (i, &c) in clients.iter().enumerate() {
        engine.register(
            c,
            Box::new(
                SimpleClient::new(client_cfg(i, broker_node), 1000 + i as u64)
                    .with_sink(sink.clone()),
            ),
        );
    }
    (engine, broker_node, clients)
}

#[test]
fn file_request_is_served_peer_to_peer() {
    let sink = RecordSink::new();
    // Keep the run alive past the sender's TransferReport: stopping at
    // the broker's first idle moment would strand the in-flight
    // TransferComplete that carries the receiver's byte tally.
    let mut bcfg = BrokerConfig::new(21);
    bcfg.stop_when_idle = false;
    let (mut engine, _b, clients) = star_with(
        2,
        bcfg,
        |i, broker| {
            let cfg = ClientConfig::new(broker);
            if i == 0 {
                cfg.sharing("dataset.bin", 2 << 20)
            } else {
                cfg.at(
                    SimDuration::from_secs(5),
                    crate::client::ClientCommand::RequestFile {
                        name: "dataset.bin".into(),
                    },
                )
            }
        },
        &sink,
    );
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    let xfer = log
        .transfers
        .iter()
        .find(|t| t.label == "dataset.bin")
        .expect("peer-to-peer transfer recorded");
    assert_eq!(xfer.to, clients[1], "file flows to the requester");
    assert!(xfer.completed_at.is_some());
    assert!(!xfer.cancelled);
    assert_eq!(
        xfer.receiver_bytes,
        Some(2 << 20),
        "receiver tallies every byte exactly once"
    );
    assert_eq!(engine.metrics().counter("overlay.file_requests_served"), 1);
    assert_eq!(engine.metrics().counter("overlay.content_published"), 1);
}

#[test]
fn file_request_for_unknown_content_is_counted() {
    let sink = RecordSink::new();
    let (mut engine, _b, _c) = star_with(
        1,
        BrokerConfig::new(22),
        |_, broker| {
            ClientConfig::new(broker).at(
                SimDuration::from_secs(5),
                crate::client::ClientCommand::RequestFile {
                    name: "missing.bin".into(),
                },
            )
        },
        &sink,
    );
    engine.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(
        engine.metrics().counter("overlay.file_requests_unserved"),
        1
    );
}

#[test]
fn file_request_selects_among_multiple_owners() {
    let sink = RecordSink::new();
    let mut broker_cfg =
        BrokerConfig::new(23).with_selector(Box::new(crate::selector::RoundRobinSelector::new()));
    // The broker cannot see future client-scheduled commands, so don't
    // let it stop at the first idle moment.
    broker_cfg.stop_when_idle = false;
    let (mut engine, _b, clients) = star_with(
        3,
        broker_cfg,
        |i, broker| {
            let cfg = ClientConfig::new(broker);
            if i < 2 {
                cfg.sharing("replicated.iso", 1 << 20)
            } else {
                cfg.at(
                    SimDuration::from_secs(5),
                    crate::client::ClientCommand::RequestFile {
                        name: "replicated.iso".into(),
                    },
                )
                .at(
                    SimDuration::from_secs(60),
                    crate::client::ClientCommand::RequestFile {
                        name: "replicated.iso".into(),
                    },
                )
            }
        },
        &sink,
    );
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(engine.metrics().counter("overlay.file_requests_served"), 2);
    assert_eq!(
        log.selections.len(),
        2,
        "selector consulted when several peers hold the content"
    );
    let completed = log
        .transfers
        .iter()
        .filter(|t| t.label == "replicated.iso" && t.completed_at.is_some())
        .count();
    assert_eq!(completed, 2);
    for t in &log.transfers {
        assert_eq!(t.to, clients[2]);
    }
}

#[test]
fn client_submitted_job_round_trips() {
    let sink = RecordSink::new();
    let (mut engine, _b, clients) = star_with(
        3,
        BrokerConfig::new(24),
        |i, broker| {
            let cfg = ClientConfig::new(broker);
            if i == 0 {
                cfg.at(
                    SimDuration::from_secs(5),
                    crate::client::ClientCommand::SubmitJob {
                        work_gops: 10.0,
                        input_bytes: 1 << 20,
                        input_parts: 2,
                        label: "render".into(),
                    },
                )
            } else {
                cfg
            }
        },
        &sink,
    );
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.jobs.len(), 1);
    let job = &log.jobs[0];
    assert_eq!(job.label, "render");
    assert_eq!(job.submitter, clients[0]);
    assert_ne!(job.executor, clients[0], "job runs on a different peer");
    assert!(job.success, "job completed");
    assert!(job.total_secs().unwrap() > 0.0);
    // Its input travelled as a transfer and the task executed.
    assert_eq!(log.tasks.len(), 1);
    assert!(log.tasks[0].success);
}

#[test]
fn federated_brokers_select_across_domains() {
    // Broker A governs clients 0–1; broker B governs clients 2–3.
    // After gossip, A's selection sees all four peers.
    let mut topo = Topology::new();
    let broker_a = topo.add_node(
        NodeSpec::responsive("broker-a"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let broker_b = topo.add_node(
        NodeSpec::responsive("broker-b"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    topo.set_path_symmetric(broker_a, broker_b, PathSpec::from_owd_ms(10.0, 0.0));
    let mut clients = Vec::new();
    for i in 0..4 {
        let c = topo.add_node(
            NodeSpec::responsive(format!("client{i}")),
            AccessLink::symmetric_mbps(8.0, 0.0003),
        );
        topo.set_path_symmetric(broker_a, c, PathSpec::from_owd_ms(20.0, 0.0));
        topo.set_path_symmetric(broker_b, c, PathSpec::from_owd_ms(20.0, 0.0));
        clients.push(c);
    }
    let sink = RecordSink::new();
    let mut cfg_a = BrokerConfig::new(31)
        .with_selector(Box::new(crate::selector::RoundRobinSelector::new()))
        .at(
            // Well after the first gossip round (60 s).
            SimDuration::from_secs(150),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: 1 << 20,
                num_parts: 2,
                label: "federated".into(),
            },
        );
    cfg_a.peer_brokers = vec![broker_b];
    let mut cfg_b = BrokerConfig::new(32);
    cfg_b.peer_brokers = vec![broker_a];
    cfg_b.stop_when_idle = false;
    let mut engine = Engine::new(topo, TransportConfig::default(), 77);
    engine.register(broker_a, Box::new(Broker::new(cfg_a, sink.clone())));
    engine.register(broker_b, Box::new(Broker::new(cfg_b, RecordSink::new())));
    for (i, &c) in clients.iter().enumerate() {
        let broker = if i < 2 { broker_a } else { broker_b };
        engine.register(
            c,
            Box::new(SimpleClient::new(
                ClientConfig::new(broker),
                3000 + i as u64,
            )),
        );
    }
    engine.run_until(SimTime::from_secs_f64(400.0));
    let log = sink.drain();
    assert_eq!(log.selections.len(), 1);
    assert_eq!(
        log.selections[0].candidates, 4,
        "broker A must see B's peers after gossip"
    );
    assert_eq!(log.transfers.len(), 1);
    assert!(log.transfers[0].completed_at.is_some());
    assert!(engine.metrics().counter("overlay.gossip_received") >= 2);
}

#[test]
fn task_watchdog_fails_unanswered_offers() {
    // The task goes to a host with no running application: the offer is
    // never answered, so the task watchdog must fail it (and the broker
    // must then be able to stop as idle).
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let alive = topo.add_node(
        NodeSpec::responsive("alive"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    let dead = topo.add_node(
        NodeSpec::responsive("dead"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    topo.set_path_symmetric(broker_node, alive, PathSpec::from_owd_ms(20.0, 0.0));
    topo.set_path_symmetric(broker_node, dead, PathSpec::from_owd_ms(20.0, 0.0));
    let sink = RecordSink::new();
    let mut bcfg = BrokerConfig::new(41).at(
        SimDuration::from_secs(5),
        BrokerCommand::SubmitTask {
            target: TargetSpec::Node(dead),
            work_gops: 5.0,
            input_bytes: 0,
            input_parts: 1,
            label: "doomed".into(),
        },
    );
    bcfg.task_timeout = SimDuration::from_secs(60);
    let mut engine = Engine::new(topo, TransportConfig::default(), 13);
    engine.register(broker_node, Box::new(Broker::new(bcfg, sink.clone())));
    engine.register(
        alive,
        Box::new(SimpleClient::new(ClientConfig::new(broker_node), 50)),
    );
    // `dead` has no actor registered.
    let outcome = engine.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(outcome, RunOutcome::Stopped, "broker stops after timeout");
    assert!(
        engine.now().as_secs_f64() < 120.0,
        "watchdog fired at ~65 s"
    );
    assert_eq!(engine.metrics().counter("overlay.tasks_timed_out"), 1);
    let log = sink.drain();
    assert_eq!(log.tasks.len(), 1);
    assert!(!log.tasks[0].success);
}

#[test]
fn departed_peer_is_never_selected() {
    // Client 2 leaves at t=30 s; every Selected distribution after that
    // must see only the two remaining candidates and never choose the
    // departed host.
    let sink = RecordSink::new();
    let mut bcfg =
        BrokerConfig::new(61).with_selector(Box::new(crate::selector::RoundRobinSelector::new()));
    for k in 0..6u64 {
        bcfg = bcfg.at(
            SimDuration::from_secs(60 + 10 * k),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: 1 << 18,
                num_parts: 1,
                label: format!("after-leave-{k}"),
            },
        );
    }
    let (mut engine, _b, clients) = star_with(
        3,
        bcfg,
        |i, broker| {
            let cfg = ClientConfig::new(broker);
            if i == 2 {
                cfg.at(SimDuration::from_secs(30), ClientCommand::Leave)
            } else {
                cfg
            }
        },
        &sink,
    );
    let outcome = engine.run_until(SimTime::from_secs_f64(3600.0));
    assert_eq!(outcome, RunOutcome::Stopped);
    let log = sink.drain();
    let departed = clients[2];
    assert_eq!(log.selections.len(), 6);
    for sel in &log.selections {
        assert_eq!(sel.candidates, 2, "departed peer out of the roster");
        assert_ne!(sel.chosen, departed, "selection returned a departed peer");
    }
    for t in &log.transfers {
        assert_ne!(t.to, departed, "transfer addressed to a departed peer");
    }
}

#[test]
fn leave_cancels_deferred_commands_to_the_departed_node() {
    // A command explicitly targeted at client 0's host is scheduled after
    // that client leaves: the broker must withdraw it (no transfer, no
    // watchdog) and still reach idle-stop.
    let sink = RecordSink::new();
    // star_with lays nodes out broker-first: client 0 lives on NodeId(1).
    let target = NodeId(1);
    let (mut engine, _b, clients) = star_with(
        2,
        BrokerConfig::new(62).at(
            SimDuration::from_secs(90),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Node(target),
                size_bytes: 1 << 20,
                num_parts: 2,
                label: "to-departed".into(),
            },
        ),
        |i, broker| {
            let cfg = ClientConfig::new(broker);
            if i == 0 {
                cfg.at(SimDuration::from_secs(30), ClientCommand::Leave)
            } else {
                cfg
            }
        },
        &sink,
    );
    assert_eq!(clients[0], target);
    let outcome = engine.run_until(SimTime::from_secs_f64(3600.0));
    assert_eq!(outcome, RunOutcome::Stopped, "idle despite withdrawn work");
    let log = sink.drain();
    assert!(
        log.transfers.is_empty(),
        "cancelled command must not start a transfer"
    );
}

/// A broker the test can still look into once the engine owns it.
struct Watched(Arc<Mutex<Broker>>);

impl Actor<OverlayMsg> for Watched {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        self.0.lock().unwrap().on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        self.0.lock().unwrap().on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, timer: TimerId, tag: u64) {
        self.0.lock().unwrap().on_timer(ctx, timer, tag);
    }
}

/// Sends a fixed list of messages to one host at start, then keeps
/// whatever it is sent.
struct Scripted {
    to: NodeId,
    send: Vec<OverlayMsg>,
    inbox: Arc<Mutex<Vec<OverlayMsg>>>,
}

impl Actor<OverlayMsg> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        for msg in self.send.drain(..) {
            ctx.send(self.to, msg);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<OverlayMsg>, _from: NodeId, msg: OverlayMsg) {
        self.inbox.lock().unwrap().push(msg);
    }
}

fn join_of(ids: &mut IdGenerator, node: NodeId, name: &str) -> OverlayMsg {
    OverlayMsg::Join(crate::advertisement::PeerAdvertisement {
        peer: crate::id::PeerId::generate(ids),
        node,
        name: name.to_string(),
        cpu_gops: 1.0,
        accepts_tasks: true,
        published: SimTime::ZERO,
        lifetime: crate::advertisement::DEFAULT_LIFETIME,
    })
}

#[test]
fn a_superseded_occupant_leaves_the_default_group_too() {
    // Crash-rejoin without a Leave: a second identity joins from a host
    // that still carries the first. The registry supersedes the old
    // occupant; the group table used to keep it forever.
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let host = topo.add_node(
        NodeSpec::responsive("host"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    topo.set_path_symmetric(broker_node, host, PathSpec::from_owd_ms(20.0, 0.0));
    let mut cfg = BrokerConfig::new(5);
    cfg.stop_when_idle = false;
    let broker = Arc::new(Mutex::new(Broker::new(cfg, RecordSink::new())));
    let mut ids = IdGenerator::new(9);
    let mut engine = Engine::new(topo, TransportConfig::default(), 3);
    engine.register(broker_node, Box::new(Watched(broker.clone())));
    engine.register(
        host,
        Box::new(Scripted {
            to: broker_node,
            send: vec![
                join_of(&mut ids, host, "before"),
                join_of(&mut ids, host, "after"),
            ],
            inbox: Default::default(),
        }),
    );
    engine.run_until(SimTime::from_secs_f64(10.0));
    let broker = broker.lock().unwrap();
    assert_eq!(broker.registry.peer_count(), 1);
    assert_eq!(
        broker.groups.default_group().len(),
        1,
        "the default group follows the registry"
    );
}

#[test]
fn one_gossip_round_shares_one_roster_between_recipients() {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let fellows: Vec<NodeId> = (0..2)
        .map(|i| {
            let n = topo.add_node(
                NodeSpec::responsive(format!("fellow{i}")),
                AccessLink::symmetric_mbps(80.0, 0.0001),
            );
            topo.set_path_symmetric(broker_node, n, PathSpec::from_owd_ms(10.0, 0.0));
            n
        })
        .collect();
    let mut cfg = BrokerConfig::new(5);
    cfg.stop_when_idle = false;
    cfg.peer_brokers = fellows.clone();
    let mut ids = IdGenerator::new(9);
    let mut engine = Engine::new(topo, TransportConfig::default(), 3);
    engine.register(broker_node, Box::new(Broker::new(cfg, RecordSink::new())));
    let inboxes: Vec<_> = fellows
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let inbox = Arc::new(Mutex::new(Vec::new()));
            // The first fellow also stands in for a client host.
            let send = if i == 0 {
                vec![join_of(&mut ids, n, "member")]
            } else {
                Vec::new()
            };
            engine.register(
                n,
                Box::new(Scripted {
                    to: broker_node,
                    send,
                    inbox: inbox.clone(),
                }),
            );
            inbox
        })
        .collect();
    // One gossip tick at 60 s.
    engine.run_until(SimTime::from_secs_f64(100.0));
    let rosters: Vec<_> = inboxes
        .iter()
        .map(|inbox| {
            let inbox = inbox.lock().unwrap();
            let gossip: Vec<_> = inbox
                .iter()
                .filter_map(|m| match m {
                    OverlayMsg::BrokerGossip {
                        recipients, roster, ..
                    } => Some((*recipients, roster.clone())),
                    _ => None,
                })
                .collect();
            assert_eq!(gossip.len(), 1, "one roster per fellow per tick");
            gossip[0].clone()
        })
        .collect();
    assert_eq!(rosters[0].0, 2, "the roster says how many brokers share it");
    assert_eq!(rosters[0].1.len(), 1);
    assert_eq!(&*rosters[0].1[0].name, "member");
    assert!(
        Arc::ptr_eq(&rosters[0].1, &rosters[1].1),
        "both messages carry the same allocation, not a copy each"
    );
}
