//! The `psim` binary at its surface: usage errors take the typed-error →
//! stderr → exit 2 path, and rendered artifacts are well-formed.

use std::process::{Command, Output};

use netsim::trace::fnv1a;

fn psim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psim"))
        .args(args)
        .output()
        .expect("psim runs")
}

#[test]
fn zero_shards_is_a_usage_error_on_every_scenario_command() {
    let out_file = std::env::temp_dir().join(format!("psim-cli-{}.json", std::process::id()));
    let out_file = out_file.to_str().expect("utf-8 temp path");
    for args in [
        vec!["trace", "smoke", "--shards", "0"],
        vec!["report", "smoke", "--shards", "0"],
        vec!["attribute", "smoke", "--shards", "0"],
        vec!["profile", "smoke", "--shards", "0", "--out", out_file],
    ] {
        let out = psim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("shards must be at least 1"),
            "{args:?} stderr: {stderr}"
        );
    }
    assert!(
        !std::path::Path::new(out_file).exists(),
        "a rejected profile run must not write its summary"
    );
}

/// `report` and `attribute` read the run log and keep no trace ring, so
/// there is nothing for `--strict` to refuse: the flag is unknown there
/// (exit 2, no artifact). `trace` keeps it, since its ring can overflow.
#[test]
fn strict_is_a_usage_error_where_no_trace_is_kept() {
    for command in ["report", "attribute"] {
        let out = psim(&[command, "smoke", "--strict"]);
        assert_eq!(out.status.code(), Some(2), "{command} --strict must exit 2");
        assert!(out.stdout.is_empty(), "{command} must print no artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --strict"), "{stderr}");
    }
    let out = psim(&["trace", "smoke", "--strict"]);
    assert!(
        out.status.success(),
        "trace --strict of a whole trace: {out:?}"
    );
}

#[test]
fn profile_of_a_run_without_registry_gauges_prints_no_negative_zero() {
    let out_file = std::env::temp_dir().join(format!("psim-cli-{}-ok.json", std::process::id()));
    let out = psim(&[
        "profile",
        "smoke",
        "--out",
        out_file.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "profile smoke failed: {out:?}");
    let json = std::fs::read_to_string(&out_file).expect("summary written");
    std::fs::remove_file(&out_file).ok();
    assert!(
        json.contains("\"registry\": {\"bytes\": 0, \"peers\": 0,"),
        "{json}"
    );
    assert!(!json.contains("-0"), "negative zero in {json}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("registry 0 bytes over 0 peers"), "{stderr}");
}

/// The `psim bench-*` commands are retired (`benchmark/` is the one place
/// that times the simulator): each old name is an ordinary unknown command,
/// and an unknown command's help goes to stderr — stdout is the artifact.
#[test]
fn retired_bench_commands_are_unknown_and_keep_stdout_clean() {
    for name in [
        "bench-engine",
        "bench-sweep",
        "bench-parallel-engine",
        "bench-churn",
        "bench-federation",
        "bench-streaming",
    ] {
        let out = psim(&[name]);
        assert_eq!(out.status.code(), Some(2), "{name} must exit 2");
        assert!(out.stdout.is_empty(), "{name} must print nothing on stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command: {name}")),
            "{name} stderr: {stderr}"
        );
        assert!(stderr.contains("commands:"), "{name} stderr lacks the help");
    }
}

#[test]
fn help_goes_to_stdout_and_mentions_no_retired_bench_surface() {
    let out = psim(&["help"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty(), "plain help keeps stderr empty");
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("commands:") && help.contains("exit codes:"));
    assert!(!help.contains("bench-"), "{help}");
    assert!(!help.contains("BENCH_"), "{help}");
}

#[test]
fn profile_without_out_writes_no_file() {
    let cwd = std::env::temp_dir().join(format!("psim-cli-{}-cwd", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_psim"))
        .args(["profile", "smoke"])
        .current_dir(&cwd)
        .output()
        .expect("psim runs");
    let left_behind: Vec<_> = std::fs::read_dir(&cwd)
        .expect("temp cwd readable")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&cwd).ok();
    assert!(out.status.success(), "profile smoke failed: {out:?}");
    assert!(!out.stdout.is_empty(), "series CSV + exposition on stdout");
    assert!(left_behind.is_empty(), "files left in cwd: {left_behind:?}");
}

/// `--shards` is `profile`'s one shard flag, read by the churn path too;
/// `--num-shards` is not a `profile` flag.
#[test]
fn profile_churn_takes_its_shard_count_from_shards() {
    let out_file =
        std::env::temp_dir().join(format!("psim-cli-{}-shards.json", std::process::id()));
    let out = psim(&[
        "profile",
        "churn",
        "--shards",
        "2",
        "--peers",
        "40",
        "--horizon-secs",
        "60",
        "--out",
        out_file.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "profile churn failed: {out:?}");
    let json = std::fs::read_to_string(&out_file).expect("summary written");
    std::fs::remove_file(&out_file).ok();
    assert!(json.contains("\"num_shards\": 2,"), "{json}");

    let out = psim(&["profile", "smoke", "--num-shards", "2"]);
    assert_eq!(out.status.code(), Some(2), "--num-shards must be unknown");
    assert!(out.stdout.is_empty());
}

/// The number after `"key": ` (or `"key":`) at its first occurrence in
/// `json`: enough of a reader for the flat artifacts `psim` writes.
fn json_number(json: &str, key: &str) -> f64 {
    let at = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key:?} in {json}"));
    let rest = json[at + key.len() + 3..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key:?} is not a number in {json}"))
}

/// The smallest churn profile that publishes registry gauges: its Chrome
/// trace is one sorted track per shard with one complete event per
/// shard-round, and its wall-clock summary carries every field, inside
/// the per-peer memory budget (ROADMAP 5(c): under 2 000 B per
/// registered peer, never zero).
#[test]
fn profile_churn_writes_a_sorted_chrome_trace_and_a_complete_summary() {
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!("psim-cli-{}-{tag}.json", std::process::id()))
    };
    let (trace_file, out_file) = (tmp("chrome"), tmp("summary"));
    let out = psim(&[
        "profile",
        "churn",
        "--regions",
        "2",
        "--shards",
        "2",
        "--peers",
        "8",
        "--horizon-secs",
        "60",
        "--chrome-trace",
        trace_file.to_str().expect("utf-8 temp path"),
        "--out",
        out_file.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "profile churn failed: {out:?}");
    let trace = std::fs::read_to_string(&trace_file).expect("chrome trace written");
    let summary = std::fs::read_to_string(&out_file).expect("summary written");
    std::fs::remove_file(&trace_file).ok();
    std::fs::remove_file(&out_file).ok();

    let body = trace
        .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
        .and_then(|b| b.strip_suffix("]}"))
        .unwrap_or_else(|| panic!("not a trace_event document: {trace}"));
    let events: Vec<&str> = body.split("},{\"name\":").collect();
    let (meta, spans): (Vec<&str>, Vec<&str>) =
        events.iter().partition(|e| e.contains("\"ph\":\"M\""));
    assert!(!spans.is_empty(), "trace has no span events");
    assert!(
        spans.iter().all(|e| e.contains("\"ph\":\"X\"")),
        "expected complete events only"
    );
    for key in ["pid", "tid", "ts", "dur"] {
        for e in &spans {
            json_number(e, key);
        }
    }
    let ts: Vec<f64> = spans.iter().map(|e| json_number(e, "ts")).collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "events not sorted by ts"
    );
    let mut tids: Vec<u64> = spans.iter().map(|e| json_number(e, "tid") as u64).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(meta.len(), tids.len(), "one thread_name per shard track");
    assert_eq!(meta.len(), 2, "one track per shard");

    for key in [
        "bench",
        "workload",
        "peers",
        "regions",
        "num_shards",
        "shard_workers",
        "horizon_secs",
        "interval_secs",
        "seed",
        "events",
        "elapsed_secs",
        "rss_bytes",
        "peak_rss_bytes",
        "registry",
        "series_rows",
        "profiler",
    ] {
        assert!(
            summary.contains(&format!("\"{key}\": ")),
            "no {key:?} in {summary}"
        );
    }
    assert!(summary.contains("\"bench\": \"profile\""), "{summary}");
    assert!(summary.contains("\"workload\": \"churn\""), "{summary}");
    // The profile: `rounds` first, then one wall-clock `busy_secs` total,
    // then per-shard rows of deterministic counts only.
    let profiler = &summary[summary.find("\"profiler\": ").expect("profiler")..];
    assert!(
        profiler.starts_with("\"profiler\": {\"rounds\":"),
        "{summary}"
    );
    let busy_at = profiler.find("\"busy_secs\":").expect("busy_secs");
    assert!(busy_at < profiler.find("\"shards\":[").expect("shards"));
    assert_eq!(profiler.matches("_secs").count(), 1, "one wall-clock total");
    let rounds = json_number(profiler, "rounds") as usize;
    assert_eq!(
        spans.len(),
        rounds * 2,
        "one complete event per shard-round"
    );
    json_number(profiler, "busy_secs");
    for shard in 0..2 {
        let row = &profiler[profiler
            .find(&format!("{{\"shard\":{shard},"))
            .unwrap_or_else(|| panic!("no row for shard {shard}: {profiler}"))..];
        let row = &row[..=row.find('}').expect("row ends")];
        let keys: Vec<&str> = row.split('"').skip(1).step_by(2).collect();
        assert_eq!(
            keys,
            ["shard", "events", "envelopes_out", "idle_windows", "stalls"],
            "{row}"
        );
    }
    for gone in [
        "stored_records",
        "truncated_records",
        "barrier_wait_secs",
        "\"windows\"",
    ] {
        assert!(!profiler.contains(gone), "{gone} in {profiler}");
    }
    assert!(json_number(&summary, "events") > 0.0);
    assert!(json_number(&summary, "series_rows") > 0.0);
    assert!(
        json_number(&summary, "rss_bytes") > 0.0,
        "RSS proxy must be readable on Linux"
    );
    assert!(
        json_number(&summary, "peak_rss_bytes") >= json_number(&summary, "rss_bytes"),
        "the peak is at least the end-of-run reading"
    );
    let registry = &summary[summary.find("\"registry\": ").expect("registry")..];
    assert!(json_number(registry, "bytes") > 0.0 && json_number(registry, "peers") > 0.0);
    let per_peer = json_number(registry, "bytes_per_peer");
    assert!((100.0..=2_000.0).contains(&per_peer), "{per_peer} B/peer");
    for c in ["roster", "stats", "content", "gossip", "scripts"] {
        json_number(registry, c);
    }
}

/// A run over fewer than four regions or brokers shards one per domain
/// unless `--num-shards` says otherwise.
#[test]
fn default_shard_count_fits_a_small_testbed() {
    for args in [
        &["federate", "--brokers", "2"][..],
        &["churn", "--regions", "2", "--peers", "100"],
    ] {
        let out = psim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?} stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\"num_shards\":2,"), "{args:?}");
    }
}

/// The harness commands hand a bad `--num-shards` / `--shard-workers` to
/// the harness's own validation instead of clamping it: exit 2, nothing
/// on stdout, and the scenario commands follow the same rule.
#[test]
fn zero_or_oversized_parallelism_is_a_usage_error() {
    let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
    for cmd in ["churn", "federate", "stream", "multiregion"] {
        cases.push((
            vec![cmd, "--shard-workers", "0"],
            "shard_workers must be at least 1",
        ));
    }
    for (cmd, regions_flag) in [
        ("churn", "--regions"),
        ("federate", "--brokers"),
        ("stream", "--regions"),
    ] {
        cases.push((
            vec![cmd, "--num-shards", "0"],
            "num_shards 0 cannot partition",
        ));
        cases.push((
            vec![cmd, regions_flag, "4", "--num-shards", "9"],
            "num_shards 9 cannot partition a 4-region testbed",
        ));
    }
    cases.push((
        vec!["profile", "churn", "--peers", "40", "--shards", "0"],
        "num_shards 0 cannot partition",
    ));
    cases.push((
        vec!["trace", "smoke", "--shard-workers", "0"],
        "shard_workers must be at least 1",
    ));
    for (args, message) in cases {
        let out = psim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?} stderr: {stderr}");
    }
}

/// Counts and durations the workload commands and `profile` used to clamp
/// up to 1 (and `--peers` up to the region count), wrap when narrowed to
/// `u32`, or fire at t=0 are usage errors: the run the user asked for
/// does not exist, and a different one is not an answer. So are flags
/// the run would ignore.
#[test]
fn zero_counts_and_durations_are_usage_errors_not_clamped() {
    let cases: [(&[&str], &str); 30] = [
        (&["churn", "--regions", "0"], "--regions"),
        (&["churn", "--horizon-secs", "0"], "--horizon-secs"),
        (&["churn", "--regions", "4", "--peers", "3"], "--peers"),
        (&["profile", "churn", "--peers", "0"], "--peers"),
        (&["federate", "--brokers", "0"], "--brokers"),
        (&["federate", "--brokers", "4", "--peers", "3"], "--peers"),
        (&["federate", "--gossip-ms", "0"], "--gossip-ms"),
        (&["federate", "--staleness-ms", "0"], "--staleness-ms"),
        (&["federate", "--horizon-secs", "0"], "--horizon-secs"),
        (&["stream", "--regions", "0"], "--regions"),
        (&["stream", "--regions", "4", "--peers", "0"], "--peers"),
        (&["stream", "--window", "0"], "--window"),
        (&["stream", "--pieces", "0"], "--pieces"),
        (&["stream", "--horizon-secs", "0"], "--horizon-secs"),
        // Counts that would wrap to 0 (or off) when narrowed to u32.
        (&["stream", "--pieces", "4294967296"], "--pieces"),
        (&["stream", "--window", "4294967296"], "--window"),
        (
            &["federate", "--forward-hops", "4294967296"],
            "--forward-hops",
        ),
        // Instants before the run (or none at all) that used to fire at t=0.
        (&["federate", "--kill-broker-at", "-5"], "--kill-broker-at"),
        (&["federate", "--kill-broker-at", "nan"], "--kill-broker-at"),
        (
            &[
                "federate",
                "--kill-broker-at",
                "300",
                "--restart-broker-at",
                "-5",
            ],
            "--restart-broker-at",
        ),
        (
            &[
                "federate",
                "--kill-broker-at",
                "300",
                "--restart-broker-at",
                "nan",
            ],
            "--restart-broker-at",
        ),
        (&["multiregion", "--regions", "0"], "--regions"),
        (&["multiregion", "--clients", "0"], "--clients"),
        (
            &["profile", "churn", "--interval-secs", "0"],
            "--interval-secs",
        ),
        (
            &["profile", "smoke", "--interval-secs", "0"],
            "--interval-secs",
        ),
        // Flags that change nothing: no crash to restart or place, and
        // churn-only sizes on a scenario profile.
        (
            &[
                "federate",
                "--brokers",
                "2",
                "--peers",
                "4",
                "--num-shards",
                "2",
                "--restart-broker-at",
                "10",
            ],
            "--restart-broker-at",
        ),
        (&["federate", "--kill-region", "1"], "--kill-region"),
        (
            &["profile", "smoke", "--horizon-secs", "5"],
            "--horizon-secs",
        ),
        (&["profile", "smoke", "--peers", "5"], "--peers"),
        (&["profile", "smoke", "--regions", "5"], "--regions"),
    ];
    for (args, flag) in cases {
        let out = psim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid value") && stderr.contains(flag),
            "{args:?} stderr: {stderr}"
        );
    }
}

/// `transfer` and `task` refuse the sizes they used to clamp: `--parts 0`
/// ran one part, `--parts 2.5` two, `--parts 2^32` 2^32 - 1,
/// `--size-mb NaN` about 1 KB, `--size-mb 1e-9` zero bytes and
/// `--size-mb 1e30` u64::MAX bytes.
#[test]
fn transfer_and_task_sizes_are_usage_errors_not_clamped() {
    let cases: [(&[&str], &str); 17] = [
        (&["transfer", "--parts", "0"], "--parts"),
        (&["transfer", "--parts", "2.5"], "--parts"),
        (&["transfer", "--size-mb", "NaN"], "--size-mb"),
        (&["transfer", "--size-mb", "inf"], "--size-mb"),
        (&["transfer", "--size-mb", "0"], "--size-mb"),
        (&["transfer", "--size-mb", "-1"], "--size-mb"),
        (&["task", "--work", "NaN"], "--work"),
        (&["task", "--work", "inf"], "--work"),
        (&["task", "--work", "0"], "--work"),
        (&["task", "--work", "-2"], "--work"),
        (&["task", "--input-mb", "NaN"], "--input-mb"),
        (&["task", "--input-mb", "-1"], "--input-mb"),
        // Truncated to zero bytes, or saturated to u64::MAX bytes.
        (&["transfer", "--size-mb", "1e-9"], "--size-mb"),
        (&["transfer", "--size-mb", "1e30"], "--size-mb"),
        (&["task", "--input-mb", "1e-9"], "--input-mb"),
        (&["task", "--input-mb", "1e40"], "--input-mb"),
        // Last: clamped rather than refused, it would run u32::MAX parts.
        (&["transfer", "--parts", "4294967296"], "--parts"),
    ];
    for (args, flag) in cases {
        let out = psim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid value") && stderr.contains(flag),
            "{args:?} stderr: {stderr}"
        );
    }
}

/// The bounds are not stricter than the run: a fractional size and a
/// whole part count still make one blind distribution to all eight SCs.
#[test]
fn transfer_runs_a_fractional_size_in_whole_parts() {
    let out = psim(&[
        "transfer",
        "--size-mb",
        "0.5",
        "--parts",
        "2",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "transfer failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ok_rows = stdout.lines().filter(|l| l.ends_with(" ok")).count();
    assert_eq!(ok_rows, 8, "one completed transfer per SC:\n{stdout}");
}

/// A part count above the byte count runs one part, as `--parts 1` does,
/// even at the largest count the flag takes.
#[test]
fn transfer_with_more_parts_than_bytes_runs_one_part() {
    let run = |parts: &str| psim(&["transfer", "--size-mb", "1", "--parts", parts]);
    let (huge, one) = (run("4294967295"), run("1"));
    assert!(huge.status.success(), "transfer failed: {huge:?}");
    assert_eq!(huge.stdout, one.stdout);
}

/// `psim sweep` names every grid it knows when it is given none or a wrong
/// one, and `psim help` lists the same names.
#[test]
fn sweep_without_a_known_grid_lists_all_four() {
    let grids = ["fig345", "fig67", "federation", "streaming"];
    for args in [vec!["sweep"], vec!["sweep", "nope"]] {
        let out = psim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for grid in grids {
            assert!(stderr.contains(grid), "{args:?} stderr: {stderr}");
        }
    }
    let help = String::from_utf8_lossy(&psim(&["help"]).stdout).into_owned();
    let listed = help
        .lines()
        .find(|l| l.starts_with("grids:"))
        .expect("help has a grids line");
    for grid in grids {
        assert!(listed.contains(grid), "{listed}");
    }
}

/// A sweep campaign's numbers must not depend on the worker count: the
/// same grid run serially and on four workers emits byte-identical CSV
/// and JSON. Guards the seed-derivation scheme (per-cell streams), the
/// seed-ordered merge, and the deterministic renderers, at the surface.
#[test]
fn sweep_output_does_not_depend_on_the_worker_count() {
    let run = |workers: &str| {
        let file = std::env::temp_dir().join(format!(
            "psim-cli-{}-sweep-{workers}.json",
            std::process::id()
        ));
        let out = psim(&[
            "sweep",
            "fig67",
            "--quick",
            "--workers",
            workers,
            "--json",
            file.to_str().expect("utf-8 temp path"),
        ]);
        assert!(out.status.success(), "sweep fig67 failed: {out:?}");
        let json = std::fs::read_to_string(&file).expect("campaign JSON written");
        std::fs::remove_file(&file).ok();
        (out.stdout, json)
    };
    let (serial_csv, serial_json) = run("1");
    let (pooled_csv, pooled_json) = run("4");
    assert!(!serial_csv.is_empty() && !serial_json.is_empty());
    assert_eq!(serial_csv, pooled_csv);
    assert_eq!(serial_json, pooled_json);
}

#[test]
fn sweep_fig345_covers_all_24_paper_cells() {
    let out = psim(&["sweep", "fig345", "--quick"]);
    assert!(out.status.success(), "sweep fig345 failed: {out:?}");
    let csv = String::from_utf8_lossy(&out.stdout);
    assert_eq!(csv.lines().skip(1).count(), 24, "8 SCs x 3 splits:\n{csv}");
}

/// `--horizon-secs` is a churn flag; a profiled scenario reports the
/// horizon it ran to, not that flag's default.
#[test]
fn profile_scenario_reports_its_own_horizon() {
    let horizon_of = |args: &[&str], tag: &str| {
        let file = std::env::temp_dir().join(format!("psim-cli-{}-{tag}.json", std::process::id()));
        let mut args = args.to_vec();
        args.extend(["--out", file.to_str().expect("utf-8 temp path")]);
        let out = psim(&args);
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        let json = std::fs::read_to_string(&file).expect("summary written");
        std::fs::remove_file(&file).ok();
        let line = json
            .lines()
            .find(|l| l.contains("\"horizon_secs\""))
            .unwrap_or_else(|| panic!("no horizon_secs in {json}"));
        line.trim().trim_end_matches(',').to_string()
    };
    assert_eq!(
        horizon_of(&["profile", "fig5"], "fig5"),
        "\"horizon_secs\": 36000"
    );
    assert_eq!(
        horizon_of(
            &["profile", "churn", "--peers", "40", "--horizon-secs", "300"],
            "churn"
        ),
        "\"horizon_secs\": 300"
    );
}

/// An output directory that cannot be created is an I/O error (exit 1,
/// message on stderr), not a panic — and it is found before any figure
/// is computed.
#[test]
fn csv_to_an_unwritable_dir_exits_1() {
    let blocker = std::env::temp_dir().join(format!("psim-cli-{}-blocker", std::process::id()));
    std::fs::write(&blocker, "a file, not a directory").expect("temp file");
    let out_dir = blocker.join("figures");
    let out = psim(&["csv", "--quick", "--out", out_dir.to_str().expect("utf-8")]);
    std::fs::remove_file(&blocker).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing was written: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: cannot create"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `psim ablation` is the one shipped command built from `TransportConfig`
/// variants, so a change to the transport model's switches shows here
/// byte for byte.
#[test]
fn ablation_stdout_is_pinned() {
    let out = psim(&["ablation"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(fnv1a(&out.stdout), 0x8047_a621_fe68_d3d0);
}
