//! What the numbers were measured on: cores, a calibration score, the
//! compiler, the commit — and this process's peak resident set.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Value;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host ns per step of a fixed, dependent integer loop (an xorshift
/// chain: no memory traffic, nothing to vectorise). Numbers from two
/// hosts can be compared after dividing by their calibration scores.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 50_000_000;
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let start = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / STEPS as f64
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit of the checkout the benchmark sits in, or `unknown` (an
/// exported tree is not a repository). The search stops at the checkout's
/// parent so a repository further up is never mistaken for this one.
fn git_commit(repo_root: &Path) -> String {
    let ceiling = repo_root.parent().unwrap_or(repo_root);
    Command::new("git")
        .arg("-C")
        .arg(repo_root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The `host` object of a result file.
pub fn describe(repo_root: &Path, calib_ns: f64) -> Value {
    Value::obj([
        ("nproc", Value::from(nproc() as u64)),
        ("calib_ns", Value::from(calib_ns)),
        ("rustc", Value::from(env!("BENCH_RUSTC_VERSION"))),
        ("commit", Value::from(git_commit(repo_root))),
    ])
}
