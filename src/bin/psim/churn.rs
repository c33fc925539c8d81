//! `psim churn`: one churn run as a determinism artifact.
//!
//! It writes only worker-count-invariant bytes to stdout —
//! trace JSONL, metrics snapshot, summary JSON — so the CI
//! churn-determinism job can byte-diff two runs that differ only in
//! `--shard-workers`. Wall-clock numbers and diagnostics go to stderr.

use workloads::churn::{run_churn, summary_json, ChurnConfig, ChurnResult};
use workloads::harness::stdout_artifact;
use workloads::synthtopo::SynthTopoConfig;

use crate::Flags;

/// Builds the [`ChurnConfig`] `psim churn` and `psim profile churn` share
/// from the common flag set (`--regions`, `--peers`, `--horizon-secs`,
/// `--num-shards`).
pub(crate) fn churn_config(flags: &Flags) -> ChurnConfig {
    let regions = flags.usize("regions").max(1);
    let peers = flags.usize("peers").max(regions);
    let num_shards = flags.usize("num-shards").max(1).min(regions);
    ChurnConfig {
        topo: SynthTopoConfig {
            regions,
            peers,
            ..SynthTopoConfig::default()
        },
        horizon: netsim::time::SimDuration::from_secs(flags.u64("horizon-secs").max(1)),
        num_shards,
        trace_capacity: Some(1 << 16),
        ..ChurnConfig::default()
    }
}

/// Runs one churn replication, exiting with a flag diagnostic when the
/// configuration cannot be sharded instead of panicking.
pub(crate) fn run_churn_or_exit(cfg: &ChurnConfig, seed: u64) -> ChurnResult {
    run_churn(cfg, seed).unwrap_or_else(|e| {
        eprintln!("churn: {e}");
        std::process::exit(2);
    })
}

/// `psim churn`: one churn run; stdout carries the determinism artifact
/// (trace JSONL + metrics snapshot + summary JSON), stderr the human
/// summary. Byte-identical stdout for any `--shard-workers`.
pub(crate) fn cmd_churn(flags: &Flags) {
    let cfg = ChurnConfig {
        shard_workers: flags.usize("shard-workers").max(1),
        ..churn_config(flags)
    };
    let seed = flags.u64("seed");
    let result = run_churn_or_exit(&cfg, seed);

    let mut tail = summary_json(&cfg, seed, &result);
    tail.push('\n');
    print!("{}", stdout_artifact(&result.trace, &result.metrics, &tail));
    eprintln!(
        "churn: {:?} at t={:.1}s, {} peers / {} regions / {} shards, {} events, \
         {} trace events ({} dropped), digest {:016x}, {} workers",
        result.outcome,
        result.elapsed.as_secs_f64(),
        cfg.topo.peers,
        cfg.topo.regions,
        cfg.num_shards,
        result.events_processed,
        result.trace.len(),
        result.trace.dropped(),
        result.trace.digest(),
        cfg.shard_workers,
    );
    eprintln!(
        "swap dynamics: {} joins, {} rejoins, {} leaves, {} refused petitions, \
         {} refused tasks",
        result.swap.joins,
        result.swap.rejoins,
        result.swap.leaves,
        result.swap.refused_petitions,
        result.swap.refused_tasks,
    );
}
