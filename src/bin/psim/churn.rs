//! `psim churn`: one churn run as a determinism artifact (trace JSONL,
//! metrics snapshot, summary JSON on stdout; wall-clock numbers and
//! diagnostics on stderr).

use workloads::churn::{ChurnConfig, ChurnWorkload, SwapDynamics};
use workloads::synthtopo::SynthTopoConfig;

use crate::{workload_artifact_or_exit, Flags};

/// Builds the [`ChurnConfig`] `psim churn` and `psim profile churn` share
/// from the common flag set (`--regions`, `--peers`, `--horizon-secs`,
/// `--num-shards`).
pub(crate) fn churn_config(flags: &Flags) -> ChurnConfig {
    let regions = flags.at_least("regions", 1);
    ChurnConfig {
        topo: SynthTopoConfig {
            regions: regions as usize,
            peers: flags.at_least("peers", regions) as usize,
            ..SynthTopoConfig::default()
        },
        horizon: netsim::time::SimDuration::from_secs(flags.at_least("horizon-secs", 1)),
        num_shards: flags.usize("num-shards"),
        trace_capacity: Some(1 << 16),
        ..ChurnConfig::default()
    }
}

/// `psim churn`: one churn run, plus the population movement on stderr.
pub(crate) fn cmd_churn(flags: &Flags) {
    let cfg = churn_config(flags);
    let run = workload_artifact_or_exit(flags, cfg.harness(), &ChurnWorkload { cfg: &cfg });
    let swap = SwapDynamics::from_metrics(&run.metrics);
    eprintln!(
        "swap dynamics: {} joins, {} rejoins, {} leaves, {} refused petitions, \
         {} refused tasks",
        swap.joins, swap.rejoins, swap.leaves, swap.refused_petitions, swap.refused_tasks,
    );
}
