//! Committed budgets for what a run holds, checked through the library at
//! a quick size and a fixed seed, where the figures are exact.
//!
//! Each row is the brokers' estimated registry heap per peer
//! (`registry.bytes_per_peer`, the `registry.bytes.*` gauges summed over
//! the fleet at the end of the run, over the configured peer count), the
//! figure the benchmark reports and DESIGN.md's per-peer cost table
//! explains: one for a churning federation, one for a federation that
//! loses a broker and re-homes its clients. Raising a budget is a
//! reviewed diff with a reason.

use netsim::metrics::Metrics;
use netsim::time::SimDuration;
use workloads::churn::{ChurnConfig, ChurnWorkload};
use workloads::federation::{BrokerOutage, FederationConfig, FederationWorkload};
use workloads::synthtopo::SynthTopoConfig;

/// The fleet's registry bytes at the end of a run, over `peers`.
fn registry_bytes_per_peer(metrics: &Metrics, peers: usize) -> f64 {
    let bytes: f64 = (metrics.gauges_sorted())
        .filter(|(name, _)| name.starts_with("registry.bytes."))
        .map(|(_, value)| value)
        .sum();
    assert!(bytes > 0.0, "every broker publishes its footprint");
    bytes / peers as f64
}

/// Bytes per peer the quick churn below may hold. The run reads 816 B:
/// each broker keeps one copy of each local peer's view (the allocation
/// its gossip publishes) and each statistic once (a session criterion
/// reads its total; the CPU rate lives in the view alone; ids sit at
/// 8-byte alignment), and its per-peer indexes name a peer by a 4-byte
/// slot or handle and hold no id: a membership slot is 8 B (a hash tag
/// and the state; the id is read from the row it names), a host row and
/// an order entry 8 B, a remote view one 24 B row of the remote slab and
/// a tombstone a time and the departed id. The budget leaves 5 % for a
/// change that adds a field, and catches an index that holds ids again:
/// a registry whose membership buckets held the peer id beside the state
/// (24 B) read 943 B here; one whose membership values also held the
/// remote view (32 B), whose host rows held a peer id (24 B) and whose
/// order held a pointer (16 B) read 1 095 B; one that also stored a
/// session block beside the totals, a second CPU rate and
/// 16-byte-aligned ids read 1 334 B.
const CHURN_BYTES_PER_PEER: f64 = 860.0;

#[test]
fn a_quick_churn_keeps_its_registry_within_the_bytes_per_peer_budget() {
    let peers = 2_000;
    let cfg = ChurnConfig {
        topo: SynthTopoConfig {
            regions: 8,
            peers,
            ..SynthTopoConfig::default()
        },
        horizon: SimDuration::from_secs(600),
        trace_capacity: None,
        ..ChurnConfig::default()
    };
    let run = (cfg.harness().build())
        .and_then(|h| h.run(&ChurnWorkload { cfg: &cfg }, 11))
        .expect("quick churn config is valid");
    let per_peer = registry_bytes_per_peer(&run.metrics, peers);
    assert!(
        per_peer <= CHURN_BYTES_PER_PEER,
        "{per_peer:.1} B/peer is over the {CHURN_BYTES_PER_PEER} B budget"
    );
}

/// Bytes per peer the quick failover below may hold. The run reads
/// 674 B: with four brokers to the churn's eight, a peer is a remote view
/// at three brokers rather than seven. The budget leaves 5 %; a registry
/// whose membership buckets held the peer id (see
/// [`CHURN_BYTES_PER_PEER`]) read 725 B, and one whose indexes held views
/// and ids 817 B.
const FAILOVER_BYTES_PER_PEER: f64 = 710.0;

#[test]
fn a_quick_failover_keeps_its_registry_within_the_bytes_per_peer_budget() {
    // The benchmark's `failover-20k` shape at a tenth of its peers: four
    // brokers gossiping every 240 s, and region 0's broker down from
    // 300 s to 600 s while its clients re-home.
    let peers = 2_000;
    let cfg = FederationConfig {
        topo: SynthTopoConfig {
            regions: 4,
            peers,
            ..SynthTopoConfig::default()
        },
        gossip_interval: SimDuration::from_secs(240),
        staleness_bound: Some(SimDuration::from_secs(720)),
        horizon: SimDuration::from_secs(900),
        kill: Some(BrokerOutage {
            region: 0,
            down_at: SimDuration::from_secs(300),
            restart_at: Some(SimDuration::from_secs(600)),
        }),
        trace_capacity: None,
        ..FederationConfig::default()
    };
    let run = (cfg.harness().build())
        .and_then(|h| h.run(&FederationWorkload { cfg: &cfg }, 11))
        .expect("quick failover config is valid");
    assert!(
        run.metrics.counter("churn.rehomes") > 0,
        "the crash strands clients"
    );
    let per_peer = registry_bytes_per_peer(&run.metrics, peers);
    assert!(
        per_peer <= FAILOVER_BYTES_PER_PEER,
        "{per_peer:.1} B/peer is over the {FAILOVER_BYTES_PER_PEER} B budget"
    );
}
