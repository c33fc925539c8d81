//! Broker tests under loss, watchdogs, and hostile receivers.

use super::*;
use crate::advertisement::PeerAdvertisement;
use crate::client::{ClientConfig, SimpleClient};
use crate::id::PeerId;
use netsim::link::{AccessLink, PathSpec};
use netsim::node::NodeSpec;
use netsim::prelude::*;

/// Star with a lossy transport and optional retry policy.
fn lossy_star(
    drop_p: f64,
    retry: Option<RetryPolicy>,
    timeout: SimDuration,
) -> (Engine<OverlayMsg>, RecordSink) {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let c = topo.add_node(
        NodeSpec::responsive("client"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    topo.set_path_symmetric(broker_node, c, PathSpec::from_owd_ms(20.0, 0.0));
    let sink = RecordSink::new();
    let transport = TransportConfig {
        message_drop_probability: drop_p,
        ..TransportConfig::default()
    };
    let mut engine = Engine::new(topo, transport, 1234);
    let mut bcfg = BrokerConfig::new(51).at(
        SimDuration::from_secs(1),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 8 << 20,
            num_parts: 16,
            label: "lossy".into(),
        },
    );
    bcfg.retry = retry;
    bcfg.transfer_timeout = timeout;
    engine.register(broker_node, Box::new(Broker::new(bcfg, sink.clone())));
    engine.register(
        c,
        Box::new(SimpleClient::new(ClientConfig::new(broker_node), 99)),
    );
    (engine, sink)
}

#[test]
fn retransmission_completes_transfers_on_lossy_networks() {
    // 10% whole-message loss: a 16-part stop-and-wait transfer has
    // ~97% chance of losing at least one message; retries recover it.
    let (mut engine, sink) = lossy_star(
        0.10,
        Some(RetryPolicy {
            timeout: SimDuration::from_secs(20),
            max_attempts: 8,
        }),
        SimDuration::from_mins(60),
    );
    engine.run_until(SimTime::from_secs_f64(3600.0));
    assert!(
        engine.metrics().counter("net.messages_lost") > 0,
        "loss occurred"
    );
    assert!(
        engine.metrics().counter("overlay.retransmissions") > 0,
        "retries fired"
    );
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    assert!(
        log.transfers[0].completed_at.is_some(),
        "transfer must complete despite loss"
    );
    // Every byte arrived exactly once despite duplicates on the wire.
    let sent: u64 = log.transfers[0].parts.iter().map(|p| p.size).sum();
    assert_eq!(sent, 8 << 20);
}

#[test]
fn without_retries_loss_stalls_and_watchdog_cancels() {
    let (mut engine, sink) = lossy_star(0.10, None, SimDuration::from_secs(120));
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    assert!(
        log.transfers[0].cancelled,
        "a lost message stalls stop-and-wait; the watchdog cancels"
    );
}

#[test]
fn retries_exhaust_and_cancel_cleanly() {
    // 100% loss after the join (drop only applies between distinct
    // nodes, and the join itself may be lost — use a huge drop rate and
    // verify the run terminates with a cancelled or absent transfer).
    let (mut engine, sink) = lossy_star(
        0.9,
        Some(RetryPolicy {
            timeout: SimDuration::from_secs(5),
            max_attempts: 3,
        }),
        SimDuration::from_mins(30),
    );
    engine.run_until(SimTime::from_secs_f64(7200.0));
    let log = sink.drain();
    for t in &log.transfers {
        assert!(
            t.completed_at.is_some() || t.cancelled,
            "no transfer may dangle"
        );
    }
}

#[test]
fn watchdog_cancels_stuck_transfers() {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    // Pathologically slow client link: the transfer cannot finish
    // within the watchdog timeout.
    let c = topo.add_node(
        NodeSpec::responsive("slow"),
        AccessLink::symmetric_mbps(0.001, 0.01),
    );
    topo.set_path_symmetric(broker_node, c, PathSpec::from_owd_ms(150.0, 0.0));
    let sink = RecordSink::new();
    let mut engine = Engine::new(topo, TransportConfig::default(), 6);
    let mut bcfg = BrokerConfig::new(15).at(
        SimDuration::from_secs(1),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 200 << 20,
            num_parts: 2,
            label: "stuck".into(),
        },
    );
    bcfg.transfer_timeout = SimDuration::from_secs(60);
    engine.register(broker_node, Box::new(Broker::new(bcfg, sink.clone())));
    engine.register(
        c,
        Box::new(SimpleClient::new(ClientConfig::new(broker_node), 44)),
    );
    engine.run_until(SimTime::from_secs_f64(7200.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    assert!(log.transfers[0].cancelled, "watchdog should cancel");
}

/// A hostile receiver that confirms every part twice. The duplicate
/// confirm arrives after the sender has already advanced its window;
/// before the first-confirm-wins fix the broker stamped `confirmed_at`
/// prior to validating the confirm, so the duplicate dragged the
/// milestone forward — past the next part's send instant, and past
/// `completed_at` for the final part (inflating `last_part_secs`).
struct DoubleConfirmClient {
    peer: PeerId,
    broker: NodeId,
}

impl Actor<OverlayMsg> for DoubleConfirmClient {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        let adv = PeerAdvertisement {
            peer: self.peer,
            node: ctx.self_id(),
            name: ctx.node_name(ctx.self_id()).to_string(),
            cpu_gops: 1.0,
            accepts_tasks: false,
            published: ctx.now(),
            lifetime: crate::advertisement::DEFAULT_LIFETIME,
        };
        ctx.send(self.broker, OverlayMsg::Join(Box::new(adv)));
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        match msg {
            OverlayMsg::FilePetition {
                transfer, sent_at, ..
            } => {
                ctx.send(
                    from,
                    OverlayMsg::PetitionAck {
                        transfer,
                        accepted: true,
                        petition_sent_at: sent_at,
                        handled_at: ctx.now(),
                    },
                );
            }
            OverlayMsg::FilePart {
                transfer, index, ..
            } => {
                ctx.send(from, OverlayMsg::PartConfirm { transfer, index });
                ctx.send(from, OverlayMsg::PartConfirm { transfer, index });
            }
            _ => {}
        }
    }
}

#[test]
fn duplicate_confirms_do_not_move_part_milestones() {
    let mut topo = Topology::new();
    let broker_node = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let c = topo.add_node(
        NodeSpec::responsive("doubler"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    topo.set_path_symmetric(broker_node, c, PathSpec::from_owd_ms(20.0, 0.0));
    let sink = RecordSink::new();
    let mut engine = Engine::new(topo, TransportConfig::default(), 17);
    let bcfg = BrokerConfig::new(61).at(
        SimDuration::from_secs(1),
        BrokerCommand::DistributeFile {
            target: TargetSpec::AllClients,
            size_bytes: 4 << 20,
            num_parts: 4,
            label: "dup".into(),
        },
    );
    engine.register(broker_node, Box::new(Broker::new(bcfg, sink.clone())));
    let mut ids = IdGenerator::new(7);
    engine.register(
        c,
        Box::new(DoubleConfirmClient {
            peer: PeerId::generate(&mut ids),
            broker: broker_node,
        }),
    );
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    let rec = &log.transfers[0];
    let completed = rec.completed_at.expect("transfer completes");
    assert_eq!(rec.parts.len(), 4);
    for pair in rec.parts.windows(2) {
        let confirmed = pair[0].confirmed_at.expect("confirmed");
        assert!(
            confirmed <= pair[1].sent_at,
            "part {} confirm ({:?}) must not postdate part {} send ({:?})",
            pair[0].index,
            confirmed,
            pair[1].index,
            pair[1].sent_at,
        );
    }
    let last = rec.parts.last().unwrap();
    assert!(
        last.confirmed_at.unwrap() <= completed,
        "last confirm must not postdate completion (first-confirm-wins)"
    );
    assert_eq!(
        last.confirmed_at,
        Some(completed),
        "completion is stamped at the accepted (first) confirm"
    );
    assert!(rec.last_part_secs().unwrap() > 0.0);
}

#[test]
fn lossy_retransmissions_keep_first_confirm_milestones() {
    // Lossy network + retries ⇒ duplicate parts and duplicate confirms
    // on the wire. First-confirm-wins must keep per-part milestones
    // causally ordered: each confirm at or before the next part's send.
    let (mut engine, sink) = lossy_star(
        0.10,
        Some(RetryPolicy {
            timeout: SimDuration::from_secs(20),
            max_attempts: 8,
        }),
        SimDuration::from_mins(60),
    );
    engine.run_until(SimTime::from_secs_f64(3600.0));
    let log = sink.drain();
    assert_eq!(log.transfers.len(), 1);
    let rec = &log.transfers[0];
    assert!(rec.completed_at.is_some(), "transfer completes under loss");
    for p in &rec.parts {
        let confirmed = p.confirmed_at.expect("every part confirmed");
        assert!(confirmed >= p.sent_at, "confirm cannot precede send");
    }
    for pair in rec.parts.windows(2) {
        assert!(
            pair[0].confirmed_at.unwrap() <= pair[1].sent_at,
            "stale duplicate confirm moved part {} milestone",
            pair[0].index
        );
        assert!(pair[0].index < pair[1].index, "indices strictly increase");
    }
}
