//! `psim federate`: one federated run as a determinism artifact (trace
//! JSONL, metrics snapshot, summary JSON on stdout; wall-clock numbers
//! and diagnostics on stderr), optionally with a `--kill-broker-at`
//! crash.

use netsim::time::SimDuration;
use overlay::federation::HomingPolicy;
use workloads::federation::{
    recovery_summary, BrokerOutage, FederationConfig, FederationDynamics, FederationWorkload,
};
use workloads::synthtopo::SynthTopoConfig;

use crate::{workload_artifact_or_exit, Flags};

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
    let brokers = flags.at_least("brokers", 1);
    let peers = flags.at_least("peers", brokers) as usize;
    let gossip = SimDuration::from_millis(flags.at_least("gossip-ms", 1));
    let staleness = flags
        .has("staleness-ms")
        .then(|| SimDuration::from_millis(flags.at_least("staleness-ms", 1)));
    let kill = flags.has("kill-broker-at").then(|| BrokerOutage {
        region: flags.usize("kill-region"),
        down_at: SimDuration::from_secs_f64(flags.f64("kill-broker-at").max(0.0)),
        restart_at: flags
            .has("restart-broker-at")
            .then(|| SimDuration::from_secs_f64(flags.f64("restart-broker-at").max(0.0))),
    });
    FederationConfig {
        topo: SynthTopoConfig {
            regions: brokers as usize,
            peers,
            ..SynthTopoConfig::default()
        },
        homing: homing_or_exit(flags),
        gossip_interval: gossip,
        staleness_bound: staleness,
        forward_hops: flags.u64("forward-hops") as u32,
        horizon: SimDuration::from_secs(flags.at_least("horizon-secs", 1)),
        num_shards: flags.usize("num-shards"),
        kill,
        trace_capacity: Some(1 << 16),
        ..FederationConfig::default()
    }
}

/// `psim federate`: one federation run, plus the federation dynamics
/// and — after a scripted crash — the re-homing recovery on stderr.
pub(crate) fn cmd_federate(flags: &Flags) {
    let cfg = federation_config(flags);
    let run = workload_artifact_or_exit(flags, cfg.harness(), &FederationWorkload { cfg: &cfg });
    let d = FederationDynamics::from_metrics(&run.metrics);
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
        match recovery_summary(&run.trace, cfg.kill) {
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
