//! The parent side of a measurement: spawn repetitions as fresh child
//! processes (so each one's `VmHWM` is that repetition's peak and no
//! allocator state carries over), bracket each with readings of the
//! reference kernel, fold them, and check that they agree.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::{self, Value};
use crate::reference::{self, Reference};
use crate::stats::{median, quartiles};
use crate::workloads::{Mode, Rep, Size};

/// Fewest timed repetitions a measurement reports a median of. On a noisy
/// shared host single repetitions spread 15–20 % even after scaling, and
/// medians of three spread more than a 25 % bound in the worst ten-run
/// windows observed; medians of five stayed inside it. Only `churn-20k`
/// (5.6 s a repetition) needs more than `--seconds 20` for that.
pub const MIN_REPS: usize = 5;

/// The metrics a user of the simulator sees, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 3] = ["run_s", "peak_rss_mb", "setup_s"];

/// Every mode with the `--mode` flag that selects it in a child.
const MODE_FLAGS: [(Mode, &str); 5] = [
    (Mode::Timed, "timed"),
    (Mode::Traced, "traced"),
    (Mode::Workers2, "workers2"),
    (Mode::TraceRing, "trace-ring"),
    (Mode::SetupOnly, "setup-only"),
];

fn mode_flag(mode: Mode) -> &'static str {
    MODE_FLAGS
        .iter()
        .find(|(m, _)| *m == mode)
        .map_or("unknown", |(_, flag)| flag)
}

pub fn parse_mode(flag: &str) -> Option<Mode> {
    MODE_FLAGS.iter().find(|(_, f)| *f == flag).map(|(m, _)| *m)
}

/// Runs `bench <args>` as a child process and parses the single JSON line
/// it prints. The child's stderr passes through, so a panic is visible.
fn spawn(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn `bench {}`: {e}", args.join(" ")))?;
    if !output.status.success() {
        return Err(format!(
            "`bench {}` ended with {}",
            args.join(" "),
            output.status
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line)
}

/// One repetition of `workload` in a fresh process.
pub fn spawn_rep(workload: &str, size: Size, seed: u64, mode: Mode) -> Result<Rep, String> {
    let mut args: Vec<String> = ["child", "--workload", workload, "--seed"]
        .map(String::from)
        .to_vec();
    args.push(seed.to_string());
    args.extend(["--mode".to_string(), mode_flag(mode).to_string()]);
    if size == Size::Quick {
        args.push("--quick".to_string());
    }
    Rep::from_json(&spawn(&args)?)
}

/// The ladder rungs, measured in a fresh process.
pub fn spawn_ladder(size: Size) -> Result<BTreeMap<String, f64>, String> {
    let mut args = vec!["ladder".to_string()];
    if size == Size::Quick {
        args.push("--quick".to_string());
    }
    let doc = spawn(&args)?;
    Ok(doc
        .as_obj()
        .ok_or("ladder output is not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// One timed repetition with what was measured around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bracketed {
    pub rep: Rep,
    /// `setup_s` of the set-up-only repetition that followed: the median
    /// of its warm set-ups.
    pub warm_setup_s: f64,
    /// Scale to the nominal host speed, from the reference readings before
    /// the repetition and after its set-up-only companion.
    pub scale: f64,
}

/// Timed repetitions of one workload until `seconds` are used up: always
/// at least [`MIN_REPS`], then as many more as still fit. Every repetition
/// is followed by a set-up-only one, and the pair sits between two
/// readings of the reference kernel.
pub fn timed_reps(
    workload: &str,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<Vec<Bracketed>, String> {
    let start = Instant::now();
    let mut kernel = Reference::new();
    let mut before = kernel.read();
    let mut reps = Vec::new();
    loop {
        let rep_start = Instant::now();
        let rep = spawn_rep(workload, size, seed, Mode::Timed)?;
        let warm_setup_s = spawn_rep(workload, size, seed, Mode::SetupOnly)?.setup_s;
        let after = kernel.read();
        reps.push(Bracketed {
            rep,
            warm_setup_s,
            scale: reference::scale(before, after),
        });
        before = after;
        let rep_wall = rep_start.elapsed().as_secs_f64();
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() + rep_wall > seconds {
            return Ok(reps);
        }
    }
}

/// What the outputs of a set of repetitions of one workload say.
#[derive(Debug, Clone, PartialEq)]
pub struct Checks {
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub digest: u64,
    pub counts: BTreeMap<String, u64>,
    /// Every failed output check, and every disagreement between
    /// repetitions. Empty means the outputs are correct.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Folds the outputs of repetitions of one workload at one seed.
/// Simulated results must be bit-identical across them: a digest or count
/// that differs is a failure of the run, not noise.
pub fn check<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Checks {
    let reps: Vec<&Rep> = reps.into_iter().collect();
    let first = reps[0];
    let mut failures: Vec<String> = Vec::new();
    let mut ops_failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        failures.extend(rep.failures.iter().map(|f| format!("repetition {i}: {f}")));
        ops_failed += rep.ops_failed;
        if rep.digest != first.digest {
            failures.push(format!(
                "repetition {i}: digest {:016x} differs from {:016x}",
                rep.digest, first.digest
            ));
            ops_failed += 1;
        }
        if rep.counts != first.counts {
            failures.push(format!(
                "repetition {i}: simulated counts differ from repetition 0"
            ));
            ops_failed += 1;
        }
    }
    Checks {
        ops_attempted: reps.iter().map(|r| r.ops_attempted).sum(),
        ops_failed,
        digest: first.digest,
        counts: first.counts.clone(),
        failures,
    }
}

/// Samples of every end-to-end metric, in repetition order: times scaled
/// to the nominal host speed, memory as read.
pub fn end_to_end_samples(reps: &[Bracketed]) -> BTreeMap<&'static str, Vec<f64>> {
    let column = |get: fn(&Bracketed) -> f64| reps.iter().map(get).collect::<Vec<f64>>();
    BTreeMap::from([
        ("run_s", column(|b| b.rep.run_s * b.scale)),
        ("peak_rss_mb", column(|b| b.rep.peak_rss_mb)),
        ("setup_s", column(|b| b.warm_setup_s * b.scale)),
    ])
}

/// The untraced modes a workload's layer measurement adds to the timed
/// and the traced repetition.
pub fn extra_modes(workload: &str) -> &'static [Mode] {
    match workload {
        // How `psim churn` runs by default: with the program's trace ring.
        "churn-20k" => &[Mode::TraceRing],
        // Two workers are informational: medians of two sets of seven runs
        // were 13 % apart on a two-core host, wider than any bound.
        "failover-20k" | "paper-campaign" => &[Mode::Workers2],
        _ => &[],
    }
}

/// Per-layer metrics of one workload: a timed repetition, a traced one
/// right after it, and the workload's extra modes. Layer times are as
/// measured, not scaled; `host.ref_s`, the mean of a reference reading
/// before and after, says how fast the host was meanwhile. Returns the
/// metrics and the folded checks of every repetition made.
pub fn layers(
    workload: &str,
    size: Size,
    seed: u64,
) -> Result<(BTreeMap<String, f64>, Checks), String> {
    let mut kernel = Reference::new();
    let before = kernel.read();
    let timed = spawn_rep(workload, size, seed, Mode::Timed)?;
    let traced = spawn_rep(workload, size, seed, Mode::Traced)?;
    let extras = extra_modes(workload)
        .iter()
        .map(|&mode| Ok((mode, spawn_rep(workload, size, seed, mode)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let ref_s = (before + kernel.read()) / 2.0;
    Ok(combine(workload, timed, traced, extras, ref_s))
}

/// Folds the repetitions of a layer measurement into metrics and checks.
pub fn combine(
    workload: &str,
    timed: Rep,
    traced: Rep,
    extras: Vec<(Mode, Rep)>,
    ref_s: f64,
) -> (BTreeMap<String, f64>, Checks) {
    let mut metrics = traced.layers.clone();
    metrics.insert("host.ref_s".to_string(), ref_s);
    for (name, &count) in &traced.counts {
        metrics.insert(name.clone(), count as f64);
    }
    metrics.insert(
        "trace.wrapper_overhead_share".to_string(),
        (traced.run_s - timed.run_s) / timed.run_s,
    );
    metrics.insert("host.nproc".to_string(), crate::host::nproc() as f64);

    let mut same_digest = vec![timed.clone(), traced];
    for (mode, mut rep) in extras {
        match (mode, workload) {
            (Mode::TraceRing, _) => {
                metrics.insert(
                    "trace.ring_overhead_share".to_string(),
                    (rep.run_s - timed.run_s) / timed.run_s,
                );
                // The program's trace digest is part of the summary, so the
                // ring changes the digest by design; the counts must hold.
                rep.digest = timed.digest;
            }
            (_, "paper-campaign") => {
                metrics.insert("runner.w2_speedup".to_string(), timed.run_s / rep.run_s);
            }
            _ => {
                metrics.insert("parallel.w2_run_s".to_string(), rep.run_s);
                metrics.insert("parallel.w2_over_w1".to_string(), rep.run_s / timed.run_s);
            }
        }
        same_digest.push(rep);
    }
    (metrics, check(&same_digest))
}

/// `{"median", "q1", "q3", "n", "samples"}` of one end-to-end metric. With
/// the handful of repetitions a run makes no percentile above the median
/// has ten samples beyond it, so none is reported.
pub fn samples_json(samples: &[f64]) -> Value {
    let (q1, q3) = quartiles(samples);
    Value::obj([
        ("median", Value::from(median(samples))),
        ("q1", Value::from(q1)),
        ("q3", Value::from(q3)),
        ("n", Value::from(samples.len() as u64)),
        (
            "samples",
            Value::Arr(samples.iter().map(|&s| Value::from(s)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(run_s: f64, digest: u64, events: u64) -> Rep {
        Rep {
            setup_s: 0.02,
            run_s,
            peak_rss_mb: 100.0,
            ops_attempted: 10,
            ops_failed: 0,
            digest,
            counts: BTreeMap::from([("engine.events".to_string(), events)]),
            failures: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    #[test]
    fn agreeing_repetitions_pass_and_sum_their_ops() {
        let c = check(&[rep(2.0, 7, 5), rep(1.0, 7, 5), rep(3.0, 7, 5)]);
        assert!(c.correct());
        assert_eq!((c.ops_attempted, c.ops_failed), (30, 0));
    }

    #[test]
    fn a_differing_digest_or_count_is_a_failure() {
        let c = check(&[rep(1.0, 7, 5), rep(1.0, 8, 5)]);
        assert!(!c.correct());
        assert_eq!(c.ops_failed, 1);
        let c = check(&[rep(1.0, 7, 5), rep(1.0, 7, 6)]);
        assert!(!c.correct());
        assert_eq!(c.ops_failed, 1);
    }

    #[test]
    fn a_repetitions_own_failures_carry_over() {
        let mut bad = rep(1.0, 7, 5);
        bad.failures.push("sim.joins 3, expected 4".into());
        bad.ops_failed = 1;
        let c = check(&[rep(1.0, 7, 5), bad]);
        assert_eq!(c.failures, vec!["repetition 1: sim.joins 3, expected 4"]);
        assert_eq!(c.ops_failed, 1);
    }

    #[test]
    fn times_are_scaled_and_memory_is_not() {
        let reps = [
            Bracketed {
                rep: rep(2.0, 7, 5),
                warm_setup_s: 0.010,
                scale: 0.5,
            },
            Bracketed {
                rep: rep(3.0, 7, 5),
                warm_setup_s: 0.020,
                scale: 1.0,
            },
        ];
        let samples = end_to_end_samples(&reps);
        assert_eq!(samples["run_s"], vec![1.0, 3.0]);
        assert_eq!(samples["setup_s"], vec![0.005, 0.020]);
        assert_eq!(samples["peak_rss_mb"], vec![100.0, 100.0]);
    }

    #[test]
    fn mode_flags_round_trip() {
        for (mode, _) in MODE_FLAGS {
            assert_eq!(parse_mode(mode_flag(mode)), Some(mode));
        }
        assert_eq!(parse_mode("nope"), None);
    }
}
