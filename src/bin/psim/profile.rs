//! `psim profile`: end-to-end deterministic telemetry for one workload.
//!
//! Runs the churn workload (default) or a named scenario as a telemetry
//! run — the windowed time-series recorder attached, so the engine's
//! profile keeps the whole barrier-round schedule — then splits the
//! artifacts by determinism:
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
//! * **`--out`** — the summary JSON, non-deterministic through its two
//!   host figures (resident set size, busy seconds): round and per-shard
//!   counts, plus the registry memory breakdown read back from the final
//!   gauges. Written only when asked for, like the other two files.

use netsim::metrics::Metrics;
use netsim::time::SimDuration;
use overlay::footprint::FootprintBreakdown;
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

/// The resident set size now (`VmRSS`) and at its peak so far (`VmHWM`),
/// in bytes; 0 when the proc filesystem is unavailable (non-Linux hosts).
fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let read = |field| status_bytes(&status, field).unwrap_or(0);
    (read("VmRSS"), read("VmHWM"))
}

/// A `/proc/<pid>/status` memory line, such as `VmRSS`, in bytes. The
/// kernel writes it in kB whatever its page size, so no page size is
/// assumed.
fn status_bytes(status: &str, field: &str) -> Option<u64> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

fn profile_churn(flags: &Flags, interval: SimDuration, seed: u64) -> ProfileRun {
    let cfg = ChurnConfig {
        // The profiler measures the engine and the registry, not the
        // trace ring, so tracing stays off.
        trace_capacity: None,
        ..churn_config(flags, "shards")
    };
    let run = cfg
        .harness()
        .shard_workers(flags.usize("shard-workers"))
        .series_interval(Some(interval))
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
    for flag in ["regions", "peers", "horizon-secs"] {
        flags.refuse_given(flag, "only `psim profile churn` reads it");
    }
    let (cfg, harness) = named_scenario_or_exit(flags);
    let result = cfg
        .run_with(harness.series_interval(Some(interval)), seed)
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

    let csv = series.to_csv();
    print!("{csv}");
    print!("{}", run.metrics.render_prometheus("psim_profile"));

    if let Some(path) = flags.get("series-csv") {
        write_or_exit(path, &csv);
    }
    if let Some(path) = flags.get("chrome-trace") {
        write_or_exit(path, &run.profile.chrome_trace_json());
    }

    let registry_bytes = gauge_prefix_sum(&run.metrics, "registry.bytes.");
    let registry_peers = gauge_prefix_sum(&run.metrics, "registry.peers.");
    let bytes_per_peer = if registry_peers > 0.0 {
        registry_bytes / registry_peers
    } else {
        0.0
    };
    let components: Vec<String> = FootprintBreakdown::default()
        .components()
        .iter()
        .map(|(c, _)| {
            format!(
                "\"{c}\": {}",
                gauge_prefix_sum(&run.metrics, &format!("registry.{c}_bytes."))
            )
        })
        .collect();
    let (rss, peak_rss) = rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"profile\",\n  \"workload\": \"{}\",\n  \"peers\": {},\n  \
         \"regions\": {},\n  \"num_shards\": {},\n  \"shard_workers\": {},\n  \
         \"horizon_secs\": {},\n  \"interval_secs\": {},\n  \"seed\": {},\n  \
         \"events\": {},\n  \"elapsed_secs\": {},\n  \"rss_bytes\": {},\n  \
         \"peak_rss_bytes\": {},\n  \
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
        rss,
        peak_rss,
        registry_bytes,
        registry_peers,
        bytes_per_peer,
        components.join(", "),
        series.len(),
        run.profile.summary_json(),
    );
    if let Some(path) = flags.get("out") {
        write_or_exit(path, &json);
    }

    eprintln!(
        "profile: {} — {} events to t={:.1}s, {} series rows, registry {:.0} bytes \
         over {:.0} peers ({:.1} B/peer), rss {} MiB (peak {} MiB)",
        profiled.workload,
        run.events_processed,
        run.elapsed.as_secs_f64(),
        series.len(),
        registry_bytes,
        registry_peers,
        bytes_per_peer,
        rss >> 20,
        peak_rss >> 20,
    );
}

#[cfg(test)]
mod tests {
    use super::status_bytes;

    #[test]
    fn rss_is_read_from_vm_rss_in_kilobytes() {
        let status = "Name:\tpsim\nVmPeak:\t  9000 kB\nVmRSS:\t    1664 kB\nThreads:\t1\n";
        assert_eq!(status_bytes(status, "VmRSS"), Some(1664 * 1024));
        assert_eq!(status_bytes("Name:\tpsim\n", "VmRSS"), None);
    }

    #[test]
    fn peak_rss_is_read_from_vm_hwm_in_kilobytes() {
        let status = "VmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1664 kB\n";
        assert_eq!(status_bytes(status, "VmHWM"), Some(2048 * 1024));
        // `VmHWM` is neither `VmPeak` (virtual) nor a prefix match.
        assert_eq!(status_bytes("VmHWMx:\t 1 kB\n", "VmHWM"), None);
    }
}
