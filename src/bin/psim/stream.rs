//! `psim stream`: one streaming run as a determinism artifact (trace
//! JSONL, metrics snapshot, summary JSON on stdout; wall-clock numbers
//! and diagnostics on stderr).

use netsim::time::SimDuration;
use peer_selection::service::try_piece_policy_for;
use workloads::harness::defaults;
use workloads::streaming::{
    startup_delays, PiecePolicy, StartupQuantiles, StreamingConfig, StreamingStats,
    StreamingWorkload, UploadProfile,
};
use workloads::synthtopo::SynthTopoConfig;

use crate::{workload_artifact_or_exit, Flags};

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
    let regions = flags.at_least("regions", 1);
    let peers = flags.at_least("peers", regions) as usize;
    StreamingConfig {
        topo: SynthTopoConfig {
            regions: regions as usize,
            peers,
            ..SynthTopoConfig::default()
        },
        policy: policy_or_exit(flags),
        window: flags.at_least("window", 1) as u32,
        upload: upload_or_exit(flags),
        horizon: SimDuration::from_secs(flags.at_least("horizon-secs", 1)),
        num_shards: flags.usize("num-shards"),
        total_pieces: flags.at_least("pieces", 1) as u32,
        trace_capacity: Some(defaults::CLI_TRACE_CAPACITY),
        ..StreamingConfig::default()
    }
}

/// `psim stream`: one streaming run, plus the playback figures on
/// stderr.
pub(crate) fn cmd_stream(flags: &Flags) {
    let cfg = streaming_config(flags);
    let run = workload_artifact_or_exit(flags, cfg.harness(), &StreamingWorkload { cfg: &cfg });
    let s = StreamingStats::from_log(&run.log);
    match StartupQuantiles::from_samples(&startup_delays(&run.log)) {
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
