//! Pins the stdout artifacts of the harness-hosted workloads to goldens.
//!
//! The goldens were first captured from the implementations that preceded
//! the harness, and re-blessed once when the transfer `span_begin` /
//! `span_end` rows and the `overlay.jobs_unplaced` counter were deleted
//! and `trace_digest` took FNV-1a's published prime: with those rows and
//! that counter filtered out, the old and new goldens differ only in
//! their digests, so no simulated event moved.
//!
//! A refactor of the run pipeline has one contract: not one byte of the
//! churn, multiregion, or federation determinism artifacts moves. These
//! tests render each artifact with
//! [`Harness::run_with_artifact`] — the function `psim churn` /
//! `psim multiregion` / `psim federate` print the result of — under the
//! same configs as the golden capture commands, and byte-compare against
//! `tests/goldens/*.txt` at 1, 2, and 4 workers, so they pin
//! worker-count invariance and byte-compatibility in one assertion.
//!
//! If a golden diff is ever *intended* (a deliberate artifact change),
//! re-capture with the commands documented on each constant.
//!
//! [`Harness::run_with_artifact`]: workloads::harness::Harness::run_with_artifact

use netsim::time::SimDuration;
use workloads::churn::{ChurnConfig, ChurnWorkload};
use workloads::federation::{BrokerOutage, FederationConfig, FederationWorkload};
use workloads::harness::{Workload, WorkloadBuilder};
use workloads::multiregion::{MultiRegionConfig, MultiRegionWorkload};
use workloads::synthtopo::SynthTopoConfig;

/// `psim churn --regions 4 --peers 24 --num-shards 4 --horizon-secs 600
/// --seed 11 > tests/goldens/churn.txt`
const CHURN_GOLDEN: &str = include_str!("goldens/churn.txt");

/// `psim multiregion --regions 3 --clients 2 --seed 11 >
/// tests/goldens/multiregion.txt`
const MULTIREGION_GOLDEN: &str = include_str!("goldens/multiregion.txt");

/// `psim federate --brokers 3 --peers 12 --num-shards 3
/// --horizon-secs 600 --seed 11 > tests/goldens/federation.txt`
const FEDERATION_GOLDEN: &str = include_str!("goldens/federation.txt");

/// `psim federate --brokers 3 --peers 12 --num-shards 3
/// --horizon-secs 900 --kill-broker-at 300 --seed 11 >
/// tests/goldens/federation_kill.txt`
const FEDERATION_KILL_GOLDEN: &str = include_str!("goldens/federation_kill.txt");

const SEED: u64 = 11;

/// Asserts `artifact == golden` with a diagnosis that names the first
/// differing line instead of dumping hundreds of kilobytes.
fn assert_matches_golden(name: &str, workers: usize, artifact: &str, golden: &str) {
    if artifact == golden {
        return;
    }
    let line = artifact
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .map(|i| i + 1);
    panic!(
        "{name} artifact at {workers} workers diverged from the golden: \
         {} vs {} bytes, first differing line {:?}",
        artifact.len(),
        golden.len(),
        line
    );
}

/// The bytes `psim` prints for `workload` on `harness` at `workers`.
fn artifact(harness: WorkloadBuilder, workload: &dyn Workload, workers: usize) -> String {
    harness
        .shard_workers(workers)
        .build()
        .and_then(|h| h.run_with_artifact(workload, SEED))
        .expect("golden config is valid")
        .1
}

#[test]
fn churn_artifact_matches_pre_harness_golden() {
    let cfg = ChurnConfig {
        topo: SynthTopoConfig {
            regions: 4,
            peers: 24,
            ..SynthTopoConfig::default()
        },
        horizon: SimDuration::from_secs(600),
        num_shards: 4,
        trace_capacity: Some(1 << 16),
        ..ChurnConfig::default()
    };
    for workers in [1usize, 2, 4] {
        let artifact = artifact(cfg.harness(), &ChurnWorkload { cfg: &cfg }, workers);
        assert_matches_golden("churn", workers, &artifact, CHURN_GOLDEN);
    }
}

#[test]
fn multiregion_artifact_matches_pre_harness_golden() {
    let cfg = MultiRegionConfig {
        regions: 3,
        clients_per_region: 2,
        trace_capacity: Some(1 << 16),
        ..MultiRegionConfig::default()
    };
    for workers in [1usize, 2, 4] {
        let artifact = artifact(cfg.harness(), &MultiRegionWorkload { cfg: &cfg }, workers);
        assert_matches_golden("multiregion", workers, &artifact, MULTIREGION_GOLDEN);
    }
}

/// The federate golden configs: `--brokers 3 --peers 12 --num-shards 3`
/// with the psim flag defaults (region homing, 30 s gossip, 2 forward
/// hops).
fn federate_base() -> FederationConfig {
    FederationConfig {
        topo: SynthTopoConfig {
            regions: 3,
            peers: 12,
            ..SynthTopoConfig::default()
        },
        num_shards: 3,
        trace_capacity: Some(1 << 16),
        ..FederationConfig::default()
    }
}

#[test]
fn federation_artifact_matches_pre_harness_golden() {
    let cfg = FederationConfig {
        horizon: SimDuration::from_secs(600),
        ..federate_base()
    };
    for workers in [1usize, 2, 4] {
        let artifact = artifact(cfg.harness(), &FederationWorkload { cfg: &cfg }, workers);
        assert_matches_golden("federation", workers, &artifact, FEDERATION_GOLDEN);
    }
}

#[test]
fn federation_failover_artifact_matches_pre_harness_golden() {
    let cfg = FederationConfig {
        horizon: SimDuration::from_secs(900),
        kill: Some(BrokerOutage {
            region: 0,
            down_at: SimDuration::from_secs(300),
            restart_at: None,
        }),
        ..federate_base()
    };
    for workers in [1usize, 2, 4] {
        let artifact = artifact(cfg.harness(), &FederationWorkload { cfg: &cfg }, workers);
        assert_matches_golden(
            "federation_kill",
            workers,
            &artifact,
            FEDERATION_KILL_GOLDEN,
        );
    }
}
