//! `psim profile`: end-to-end deterministic telemetry for one workload.
//!
//! Runs the churn workload (default) or a named scenario with the
//! windowed time-series recorder and the per-shard execution profiler
//! attached, then splits the artifacts by determinism:
//!
//! * **stdout** — the series CSV followed by the Prometheus exposition
//!   of the final merged metrics. Both are keyed only by virtual time
//!   and shard-ordered merges, so the bytes are identical at any
//!   `--shard-workers`; the CI `workload-determinism` matrix diffs exactly
//!   this stream at 1 vs 4 workers.
//! * **`--series-csv` / `--chrome-trace`** — the same series CSV and a
//!   Chrome `trace_event` JSON of the barrier-round schedule (sim-time
//!   spans only; load it in Perfetto or `chrome://tracing`). Every run
//!   has one: a lone shard's schedule is a single round to the horizon.
//! * **`--out`** — the non-deterministic wall-clock summary JSON: RSS
//!   proxy, per-shard busy/wait seconds, plus the registry memory
//!   breakdown read back from the final gauges. Written only when asked
//!   for, like the other two files.

use netsim::metrics::Metrics;
use netsim::time::SimDuration;
use workloads::churn::{ChurnConfig, ChurnWorkload};
use workloads::harness::{HarnessRun, Workload};

use crate::churn::churn_config;
use crate::{harness_error_exit, named_scenario_or_exit, write_or_exit, Flags};

/// One profiled run and the shape of the workload it ran, as
/// `cmd_profile` reports them.
struct ProfileRun {
    workload: String,
    peers: usize,
    regions: usize,
    num_shards: usize,
    horizon: SimDuration,
    run: HarnessRun,
}

/// Sum of all gauges whose name starts with `prefix` — reconstructs a
/// fleet-wide total from the per-broker `registry.*.<node>` gauges.
/// Folds from `0.0`: `Iterator::sum` over no `f64`s is `-0.0`, which a
/// run without registry gauges would print as `-0`.
fn gauge_prefix_sum(m: &Metrics, prefix: &str) -> f64 {
    m.gauges_sorted()
        .filter(|(name, _)| name.starts_with(prefix))
        .fold(0.0, |sum, (_, v)| sum + v)
}

/// Resident-set proxy from `/proc/self/statm` (pages × 4 KiB); 0 when the
/// proc filesystem is unavailable (non-Linux hosts).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

fn profile_churn(flags: &Flags, interval: SimDuration, seed: u64) -> ProfileRun {
    let cfg = ChurnConfig {
        // The profiler measures the engine and the registry, not the
        // trace ring, so tracing stays off.
        trace_capacity: None,
        ..churn_config(
            flags,
            flags.usize_or("shards", ChurnConfig::default().num_shards),
        )
    };
    let run = cfg
        .harness()
        .shard_workers(flags.usize("shard-workers"))
        .series_interval(Some(interval))
        .profile_execution(true)
        .build()
        .and_then(|h| h.run(&ChurnWorkload { cfg: &cfg }, seed))
        .unwrap_or_else(|e| harness_error_exit("churn", &e));
    ProfileRun {
        workload: "churn".into(),
        peers: cfg.topo.peers,
        regions: cfg.topo.regions,
        num_shards: cfg.num_shards,
        horizon: cfg.horizon,
        run,
    }
}

fn profile_scenario(flags: &Flags, interval: SimDuration, seed: u64) -> ProfileRun {
    let (cfg, harness) = named_scenario_or_exit(flags);
    let harness = harness
        .series_interval(Some(interval))
        .profile_execution(true);
    let result = cfg
        .run_with(harness, seed)
        .unwrap_or_else(|e| harness_error_exit(cfg.name(), &e));
    ProfileRun {
        workload: flags.positional.clone().unwrap_or_default(),
        peers: result.testbed.len().saturating_sub(1),
        regions: 1,
        num_shards: cfg.shards,
        horizon: cfg.horizon,
        run: result.run,
    }
}

/// `psim profile [churn|<scenario>]`: deterministic telemetry artifacts
/// on stdout, wall-clock summary JSON in `--out` when given.
pub(crate) fn cmd_profile(flags: &Flags) {
    let seed = flags.u64("seed");
    let interval = SimDuration::from_secs(flags.at_least("interval-secs", 1));
    let workload = flags.positional.as_deref().unwrap_or("churn");

    let profiled = if workload == "churn" {
        profile_churn(flags, interval, seed)
    } else {
        profile_scenario(flags, interval, seed)
    };
    let run = &profiled.run;
    let series = run.series.as_ref().expect("a series interval was set");
    let exec_profile = run.exec_profile.as_ref().expect("profiling was on");

    let csv = series.to_csv();
    print!("{csv}");
    print!("{}", run.metrics.render_prometheus("psim_profile"));

    if let Some(path) = flags.get("series-csv") {
        write_or_exit(path, &csv);
    }
    if let Some(path) = flags.get("chrome-trace") {
        write_or_exit(path, &exec_profile.chrome_trace_json());
    }

    let registry_bytes = gauge_prefix_sum(&run.metrics, "registry.bytes.");
    let registry_peers = gauge_prefix_sum(&run.metrics, "registry.peers.");
    let bytes_per_peer = if registry_peers > 0.0 {
        registry_bytes / registry_peers
    } else {
        0.0
    };
    let components: Vec<String> = ["roster", "stats", "ads", "content", "gossip", "scripts"]
        .iter()
        .map(|c| {
            format!(
                "\"{c}\": {}",
                gauge_prefix_sum(&run.metrics, &format!("registry.{c}_bytes."))
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"profile\",\n  \"workload\": \"{}\",\n  \"peers\": {},\n  \
         \"regions\": {},\n  \"num_shards\": {},\n  \"shard_workers\": {},\n  \
         \"horizon_secs\": {},\n  \"interval_secs\": {},\n  \"seed\": {},\n  \
         \"events\": {},\n  \"elapsed_secs\": {},\n  \"rss_bytes\": {},\n  \
         \"registry\": {{\"bytes\": {}, \"peers\": {}, \"bytes_per_peer\": {}, \
         \"components\": {{{}}}}},\n  \"series_rows\": {},\n  \"profiler\": {}\n}}\n",
        profiled.workload,
        profiled.peers,
        profiled.regions,
        profiled.num_shards,
        flags.usize("shard-workers"),
        profiled.horizon.as_secs_f64(),
        interval.as_secs_f64(),
        seed,
        run.events_processed,
        run.elapsed.as_secs_f64(),
        rss_bytes(),
        registry_bytes,
        registry_peers,
        bytes_per_peer,
        components.join(", "),
        series.len(),
        exec_profile.wall_clock_json(),
    );
    if let Some(path) = flags.get("out") {
        write_or_exit(path, &json);
    }

    eprintln!(
        "profile: {} — {} events to t={:.1}s, {} series rows, registry {:.0} bytes \
         over {:.0} peers ({:.1} B/peer), rss {} MiB",
        profiled.workload,
        run.events_processed,
        run.elapsed.as_secs_f64(),
        series.len(),
        registry_bytes,
        registry_peers,
        bytes_per_peer,
        rss_bytes() >> 20,
    );
}
