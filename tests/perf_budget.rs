//! Committed budgets for what a run holds, checked through the library at
//! a quick size and a fixed seed, where the figures are exact.
//!
//! One row so far: the brokers' estimated registry heap per peer
//! (`registry.bytes_per_peer`, the `registry.bytes.*` gauges summed over
//! the fleet at the end of the run, over the configured peer count), the
//! figure the benchmark reports and DESIGN.md's per-peer cost table
//! explains. Raising a budget is a reviewed diff with a reason.

use netsim::time::SimDuration;
use workloads::churn::{ChurnConfig, ChurnWorkload};
use workloads::synthtopo::SynthTopoConfig;

/// Bytes per peer the quick churn below may hold. The run reads 1 095 B:
/// each broker keeps one copy of each local peer's view (the allocation
/// its gossip publishes), one 24 B host row per node id, and each
/// statistic once (a session criterion reads its total; the CPU rate lives
/// in the view alone; ids sit at 8-byte alignment, so no record pads to
/// 16). The budget leaves 5 % for a change that adds a field, and catches
/// the padded, twice-counted records: a registry that stored a session
/// block beside the totals, a second CPU rate and 16-byte-aligned ids read
/// 1 334 B here, and one that also kept a second copy of each view per
/// broker and hashed its host rows read 1 732 B.
const CHURN_BYTES_PER_PEER: f64 = 1_150.0;

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
    let bytes: f64 = (run.metrics.gauges_sorted())
        .filter(|(name, _)| name.starts_with("registry.bytes."))
        .map(|(_, value)| value)
        .sum();
    let per_peer = bytes / peers as f64;
    assert!(per_peer > 0.0, "every broker publishes its footprint");
    assert!(
        per_peer <= CHURN_BYTES_PER_PEER,
        "{per_peer:.1} B/peer is over the {CHURN_BYTES_PER_PEER} B budget"
    );
}
