//! A statistics report allocates nothing once its broker holds one: with
//! one broker and one idle `SimpleClient`, the client's reports 11–20
//! (sent every 30 s) make no heap allocation at either end.
//!
//! The counting allocator is global to this test binary, so the file holds
//! exactly one test.

#[path = "../../netsim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use netsim::link::{AccessLink, PathSpec};
use netsim::node::NodeSpec;
use netsim::prelude::*;
use overlay::broker::{Broker, BrokerConfig};
use overlay::client::{ClientConfig, SimpleClient};
use overlay::message::OverlayMsg;
use overlay::records::RecordSink;

/// The instant just after the client's `n`-th report reached the broker
/// (reports leave every 30 s; the path takes 20 ms).
fn after_report(n: u64) -> SimTime {
    SimTime::from_secs_f64(30.0 * n as f64 + 15.0)
}

#[test]
fn an_idle_clients_reports_allocate_nothing() {
    let mut topo = Topology::new();
    let broker = topo.add_node(
        NodeSpec::responsive("broker"),
        AccessLink::symmetric_mbps(80.0, 0.0001),
    );
    let client = topo.add_node(
        NodeSpec::responsive("client"),
        AccessLink::symmetric_mbps(8.0, 0.0003),
    );
    topo.set_path_symmetric(broker, client, PathSpec::from_owd_ms(20.0, 0.0));
    let mut cfg = BrokerConfig::new(5);
    cfg.stop_when_idle = false;
    let mut engine: Engine<OverlayMsg> = Engine::new(topo, TransportConfig::default(), 3);
    engine.register(broker, Box::new(Broker::new(cfg, RecordSink::new())));
    engine.register(
        client,
        Box::new(SimpleClient::new(ClientConfig::new(broker), 1)),
    );

    engine.run_until(after_report(10));
    let (before, events) = (allocations(), engine.events_processed());
    engine.run_until(after_report(20));
    let made = allocations() - before;
    assert_eq!(
        engine.events_processed() - events,
        20,
        "ten report timers and ten deliveries, nothing else"
    );
    assert_eq!(made, 0, "{made} allocations across reports 11-20");
}
