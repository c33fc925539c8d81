//! Latency attribution invariants over full traced runs: the phase
//! decomposition must partition every completed transfer's end-to-end
//! latency exactly (integer nanoseconds, no residue), and the exported
//! artefacts must be byte-deterministic per seed.

use netsim::node::NodeId;
use netsim::time::SimDuration;
use workloads::attribution::{
    aggregate_metrics, attribute_trace, breakdown_by_peer, phase_table_csv, Phase,
    TransferAttribution,
};
use workloads::runner::run_traced;
use workloads::scenario::ScenarioConfig;

fn attributed(name: &str, seed: u64) -> Vec<TransferAttribution> {
    let cfg = ScenarioConfig::named(name).expect("known scenario");
    let run = run_traced(&cfg, cfg.harness(), seed).expect("one shard always runs");
    assert_eq!(
        run.result.run.trace.dropped(),
        0,
        "trace ring dropped events; the attribution below would be partial"
    );
    attribute_trace(&run.result.run.trace)
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
