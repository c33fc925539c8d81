//! `psim churn`: one churn run as a determinism artifact (trace JSONL,
//! metrics snapshot, summary JSON on stdout; wall-clock numbers and
//! diagnostics on stderr).

use workloads::churn::{ChurnConfig, ChurnWorkload, SwapDynamics};
use workloads::harness::defaults;
use workloads::synthtopo::SynthTopoConfig;

use crate::{workload_artifact_or_exit, Flags};

/// Builds the [`ChurnConfig`] `psim churn` and `psim profile churn` share
/// from the common flag set (`--regions`, `--peers`, `--horizon-secs`)
/// and the shard count each command reads from its own flag.
pub(crate) fn churn_config(flags: &Flags, num_shards: usize) -> ChurnConfig {
    let regions = flags.at_least("regions", 1);
    ChurnConfig {
        topo: SynthTopoConfig {
            regions: regions as usize,
            peers: flags.at_least("peers", regions) as usize,
            ..SynthTopoConfig::default()
        },
        horizon: netsim::time::SimDuration::from_secs(flags.at_least("horizon-secs", 1)),
        num_shards,
        trace_capacity: Some(defaults::CLI_TRACE_CAPACITY),
        ..ChurnConfig::default()
    }
}

/// `psim churn`: one churn run, plus the population movement on stderr.
pub(crate) fn cmd_churn(flags: &Flags) {
    let cfg = churn_config(flags, flags.usize("num-shards"));
    let run = workload_artifact_or_exit(flags, cfg.harness(), &ChurnWorkload { cfg: &cfg });
    let swap = SwapDynamics::from_metrics(&run.metrics);
    eprintln!(
        "swap dynamics: {} joins, {} rejoins, {} leaves, {} refused petitions, \
         {} refused tasks",
        swap.joins, swap.rejoins, swap.leaves, swap.refused_petitions, swap.refused_tasks,
    );
}
