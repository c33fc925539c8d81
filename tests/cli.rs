//! The `psim` binary at its surface: usage errors take the typed-error →
//! stderr → exit 2 path, and rendered artifacts are well-formed.

use std::process::{Command, Output};

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
