//! `psim federate`: one federated run as a determinism artifact.
//!
//! It writes only worker-count-invariant bytes to stdout —
//! trace JSONL, metrics snapshot, summary JSON — so the CI
//! federation-determinism job can byte-diff two runs that differ only in
//! `--shard-workers`, including a `--kill-broker-at` run. Wall-clock
//! numbers and diagnostics go to stderr.

use netsim::time::SimDuration;
use overlay::federation::HomingPolicy;
use workloads::federation::{
    run_federation, summary_json, BrokerOutage, FederationConfig, FederationResult,
};
use workloads::harness::stdout_artifact;
use workloads::synthtopo::SynthTopoConfig;

use crate::Flags;

/// Parses `--homing` (region|hash), exiting 2 on anything else.
fn homing_or_exit(flags: &Flags) -> HomingPolicy {
    match flags.get("homing").expect("table default") {
        "region" => HomingPolicy::RegionAffinity,
        "hash" => HomingPolicy::ConsistentHash,
        other => {
            eprintln!("invalid value `{other}` for --homing (expected region|hash)");
            std::process::exit(2);
        }
    }
}

/// Builds the [`FederationConfig`] from the flag set.
fn federation_config(flags: &Flags) -> FederationConfig {
    let brokers = flags.usize("brokers").max(1);
    let peers = flags.usize("peers").max(brokers);
    let num_shards = flags.usize("num-shards").max(1).min(brokers);
    let gossip = SimDuration::from_millis(flags.u64("gossip-ms").max(1));
    let staleness = flags
        .has("staleness-ms")
        .then(|| SimDuration::from_millis(flags.u64("staleness-ms").max(1)));
    let kill = flags.has("kill-broker-at").then(|| BrokerOutage {
        region: flags.usize("kill-region"),
        down_at: SimDuration::from_secs_f64(flags.f64("kill-broker-at").max(0.0)),
        restart_at: flags
            .has("restart-broker-at")
            .then(|| SimDuration::from_secs_f64(flags.f64("restart-broker-at").max(0.0))),
    });
    FederationConfig {
        topo: SynthTopoConfig {
            regions: brokers,
            peers,
            ..SynthTopoConfig::default()
        },
        homing: homing_or_exit(flags),
        gossip_interval: gossip,
        staleness_bound: staleness,
        forward_hops: flags.u64("forward-hops") as u32,
        horizon: SimDuration::from_secs(flags.u64("horizon-secs").max(1)),
        num_shards,
        kill,
        trace_capacity: Some(1 << 16),
        ..FederationConfig::default()
    }
}

/// Runs one federation replication, exiting with a flag diagnostic when
/// the configuration is rejected instead of panicking.
fn run_federation_or_exit(cfg: &FederationConfig, seed: u64) -> FederationResult {
    run_federation(cfg, seed).unwrap_or_else(|e| {
        eprintln!("federate: {e}");
        std::process::exit(2);
    })
}

/// `psim federate`: one federation run; stdout carries the determinism
/// artifact (trace JSONL + metrics snapshot + summary JSON), stderr the
/// human summary. Byte-identical stdout for any `--shard-workers`.
pub(crate) fn cmd_federate(flags: &Flags) {
    let cfg = FederationConfig {
        shard_workers: flags.usize("shard-workers").max(1),
        ..federation_config(flags)
    };
    let seed = flags.u64("seed");
    let result = run_federation_or_exit(&cfg, seed);

    let mut tail = summary_json(&cfg, seed, &result);
    tail.push('\n');
    print!("{}", stdout_artifact(&result.trace, &result.metrics, &tail));
    eprintln!(
        "federate: {:?} at t={:.1}s, {} peers / {} brokers / {} shards, {} events, \
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
    let d = result.dynamics;
    eprintln!(
        "federation dynamics: {} joins, {} rehomes, {} forwarded ({} served, \
         {} exhausted), {} stale views dropped",
        d.joins,
        d.rehomes,
        d.petitions_forwarded,
        d.forwards_served,
        d.forwards_exhausted,
        d.stale_views_dropped,
    );
    if let Some(kill) = cfg.kill {
        match result.recovery {
            Some(r) => eprintln!(
                "failover: broker of region {} down at {:.0}s; {} re-homes, \
                 recovery {:.1}s mean / {:.1}s max",
                kill.region,
                kill.down_at.as_secs_f64(),
                r.count,
                r.mean_s,
                r.max_s,
            ),
            None => eprintln!(
                "failover: broker of region {} down at {:.0}s; no client re-homed \
                 (horizon too short for the probe timeout?)",
                kill.region,
                kill.down_at.as_secs_f64(),
            ),
        }
    }
}
