//! `psim stream`: one streaming run as a determinism artifact.
//!
//! It writes only worker-count-invariant bytes to stdout —
//! trace JSONL, metrics snapshot, summary JSON — so the CI
//! workload-determinism job can byte-diff two runs that differ only in
//! `--shard-workers`. Wall-clock numbers and diagnostics go to stderr.

use netsim::time::SimDuration;
use peer_selection::service::try_piece_policy_for;
use workloads::harness::stdout_artifact;
use workloads::streaming::{
    run_streaming, summary_json, PiecePolicy, StartupQuantiles, StreamingConfig, StreamingResult,
    UploadProfile,
};
use workloads::synthtopo::SynthTopoConfig;

use crate::Flags;

/// Parses `--policy` through the shared `peer_selection::service` table,
/// exiting with the valid list on anything else.
fn policy_or_exit(flags: &Flags) -> PiecePolicy {
    let name = flags.get("policy").expect("table default");
    try_piece_policy_for(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Parses `--upload`, exiting with the valid list on anything else.
fn upload_or_exit(flags: &Flags) -> UploadProfile {
    let name = flags.get("upload").expect("table default");
    UploadProfile::parse(name).unwrap_or_else(|| {
        let valid: Vec<&str> = UploadProfile::ALL.iter().map(|p| p.name()).collect();
        eprintln!(
            "unknown upload profile `{name}`; valid profiles: {}",
            valid.join(", ")
        );
        std::process::exit(2);
    })
}

/// Builds the [`StreamingConfig`] from the flag set.
fn streaming_config(flags: &Flags) -> StreamingConfig {
    let regions = flags.usize("regions").max(1);
    let peers = flags.usize("peers").max(regions);
    let num_shards = flags.usize("num-shards").max(1).min(regions);
    StreamingConfig {
        topo: SynthTopoConfig {
            regions,
            peers,
            ..SynthTopoConfig::default()
        },
        policy: policy_or_exit(flags),
        window: flags.u64("window").max(1) as u32,
        upload: upload_or_exit(flags),
        horizon: SimDuration::from_secs(flags.u64("horizon-secs").max(1)),
        num_shards,
        total_pieces: flags.u64("pieces").max(1) as u32,
        trace_capacity: Some(1 << 16),
        ..StreamingConfig::default()
    }
}

/// Runs one streaming replication, exiting with a flag diagnostic when
/// the configuration is rejected instead of panicking.
fn run_streaming_or_exit(cfg: &StreamingConfig, seed: u64) -> StreamingResult {
    run_streaming(cfg, seed).unwrap_or_else(|e| {
        eprintln!("stream: {e}");
        std::process::exit(2);
    })
}

/// `psim stream`: one streaming run; stdout carries the determinism
/// artifact (trace JSONL + metrics snapshot + summary JSON), stderr the
/// human summary. Byte-identical stdout for any `--shard-workers`.
pub(crate) fn cmd_stream(flags: &Flags) {
    let cfg = StreamingConfig {
        shard_workers: flags.usize("shard-workers").max(1),
        ..streaming_config(flags)
    };
    let seed = flags.u64("seed");
    let result = run_streaming_or_exit(&cfg, seed);

    let mut tail = summary_json(&cfg, seed, &result);
    tail.push('\n');
    print!("{}", stdout_artifact(&result.trace, &result.metrics, &tail));
    eprintln!(
        "stream: {:?} at t={:.1}s, {} viewers / {} regions / {} shards, {} events, \
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
    let s = result.stats;
    match StartupQuantiles::from_samples(&result.startup_delays()) {
        Some(q) => eprintln!(
            "playback: {} streams, {} started ({} completed), startup p50 {:.2}s / \
             p90 {:.2}s / max {:.2}s, {} rebuffers ({:.1}s stalled)",
            s.streams,
            s.playbacks_started,
            s.completions,
            q.p50_s,
            q.p90_s,
            q.max_s,
            s.rebuffer_events,
            s.rebuffer_secs,
        ),
        None => eprintln!(
            "playback: {} streams, none reached the startup buffer inside the horizon",
            s.streams
        ),
    }
}
