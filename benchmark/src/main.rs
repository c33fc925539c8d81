//! `bench`: the one benchmark for the simulator.
//!
//! ```text
//! bench measure --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench run [--seed 1] [--seconds 20] [--out FILE] [--quick]
//! bench compare A.json B.json
//! ```
//!
//! `measure` is the form `BENCHMARK.json` names: one workload, and as its
//! last line of output one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `run` measures
//! every workload both ways plus the ladder, prints every metric by name
//! with its unit, writes a result file, and exits non-zero if an output
//! check fails. `compare` judges two result files by the bounds in
//! `BENCHMARK.json`. See the README for what each metric means.
//!
//! Two more commands exist for the benchmark itself: `child` runs one
//! repetition in this process and `ladder` the direct-call rungs; the
//! commands above spawn them so every repetition gets a fresh process.

mod compare;
mod host;
mod json;
mod ladder;
mod layers;
mod measure;
mod reference;
mod stats;
mod timed;
mod workloads;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Value;
use measure::{Checks, END_TO_END};
use workloads::{Mode, Size, NAMES};

/// Timed seconds per workload when `run` is given no `--seconds`; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `--flag value` pairs, the `--quick` switch, and positional arguments.
struct Args {
    flags: BTreeMap<String, String>,
    quick: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: BTreeMap::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => args.quick = true,
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.insert(name.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse `{v}`"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }

    fn workload(&self) -> Result<String, String> {
        let name: String = self.require("workload")?;
        if NAMES.contains(&name.as_str()) {
            Ok(name)
        } else {
            Err(format!(
                "unknown workload `{name}`; workloads: {}",
                NAMES.join(", ")
            ))
        }
    }
}

/// `name -> unit` of every metric `BENCHMARK.json` declares under `key`,
/// in file order.
fn declared(contract: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    contract
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks name or unit"))
        })
        .collect()
}

/// The `metrics` object of a `measure` result: exactly the declared
/// names, each with its declared unit. A per-layer metric the workload
/// does not exercise reads 0 there.
fn metrics_json(declared: &[(String, String)], values: &BTreeMap<String, f64>) -> Value {
    Value::obj(declared.iter().map(|(name, unit)| {
        let value = values.get(name).copied().unwrap_or(0.0);
        let entry = Value::obj([
            ("value", Value::from(value)),
            ("unit", Value::from(unit.as_str())),
        ]);
        (name.clone(), entry)
    }))
}

fn report_failures(workload: &str, checks: &Checks) {
    for failure in &checks.failures {
        eprintln!("bench: {workload}: CHECK FAILED: {failure}");
    }
}

/// `bench measure`: the contract form. Prints the result object as the
/// last line of stdout.
fn measure_cmd(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed: u64 = args.require("seed")?;
    let seconds: f64 = args.require("seconds")?;
    let trace: u8 = args.require("trace")?;
    let contract = read_json(&repo_root().join("BENCHMARK.json"))?;

    let (names, values, checks) = match trace {
        0 => {
            let reps = measure::timed_reps(&workload, args.size(), seed, seconds)?;
            let values = measure::end_to_end_samples(&reps)
                .into_iter()
                .map(|(metric, samples)| (metric.to_string(), stats::median(&samples)))
                .collect();
            let checks = measure::check(reps.iter().map(|b| &b.rep));
            eprintln!(
                "bench: {workload}: {} repetitions, host scale {}",
                reps.len(),
                reps.iter()
                    .map(|b| format!("{:.2}", b.scale))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            (declared(&contract, "end_to_end")?, values, checks)
        }
        1 => {
            let (mut values, checks) = measure::layers(&workload, args.size(), seed)?;
            values.extend(measure::spawn_ladder(args.size())?);
            (declared(&contract, "per_layer")?, values, checks)
        }
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    report_failures(&workload, &checks);
    let result = Value::obj([
        ("correct", Value::Bool(checks.correct())),
        ("attempted", Value::from(checks.ops_attempted)),
        ("failed", Value::from(checks.ops_failed)),
        ("metrics", metrics_json(&names, &values)),
    ]);
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// Unit of a metric: the declared one, or — for the raw per-handler
/// buckets the result file also carries — the one its suffix implies.
fn unit_of<'a>(name: &str, declared: &'a [(String, String)]) -> &'a str {
    declared
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, unit)| unit.as_str())
        .unwrap_or(if name.ends_with(".count") {
            "count"
        } else if name.ends_with("_s") {
            "s"
        } else if name.ends_with("_share") {
            "ratio"
        } else {
            "-"
        })
}

/// `bench run`: every workload, both ways, plus the ladder.
fn run_cmd(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.get("seed")?.unwrap_or(1);
    let seconds: f64 = args.get("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out: PathBuf = args
        .get::<String>("out")?
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    let size = args.size();
    let contract = read_json(&repo_root().join("BENCHMARK.json"))?;
    let e2e_units = declared(&contract, "end_to_end")?;
    let layer_units = declared(&contract, "per_layer")?;

    let ladder = measure::spawn_ladder(size)?;
    let calib_ns = ladder.get("host.calib_ns").copied().unwrap_or(f64::NAN);
    let host = host::describe(&repo_root(), calib_ns);
    println!("host: {host}");
    println!("seed {seed}, {seconds} s of timed repetitions per workload\n");

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for workload in NAMES {
        let reps = measure::timed_reps(workload, size, seed, seconds)?;
        let samples = measure::end_to_end_samples(&reps);
        let timed = measure::check(reps.iter().map(|b| &b.rep));
        let (layers, traced) = measure::layers(workload, size, seed)?;
        report_failures(workload, &timed);
        report_failures(workload, &traced);
        if traced.digest != timed.digest || traced.counts != timed.counts {
            eprintln!("bench: {workload}: CHECK FAILED: traced and timed repetitions disagree");
            all_correct = false;
        }
        all_correct &= timed.correct() && traced.correct();

        let n = reps.len();
        println!("== {workload} (n = {n}; median [q1 .. q3])");
        for (metric, unit) in &e2e_units {
            let values = &samples[metric.as_str()];
            let (q1, q3) = stats::quartiles(values);
            println!(
                "  {metric:<34} {:>14.6} {unit:<6} [{q1:.6} .. {q3:.6}]",
                stats::median(values)
            );
        }
        let failed_share = timed.ops_failed as f64 / timed.ops_attempted as f64;
        println!(
            "  {:<34} {failed_share:>14.6} {:<6} ({} of {} ops)",
            "failed_share", "ratio", timed.ops_failed, timed.ops_attempted
        );
        println!(
            "  {:<34} {:>14} {:016x}",
            "sim.result_digest", "", timed.digest
        );
        for (name, value) in &layers {
            println!("  {name:<34} {value:>14.6} {}", unit_of(name, &layer_units));
        }
        println!();

        workloads_json.push((
            workload,
            Value::obj([
                ("reps", Value::from(n as u64)),
                (
                    "end_to_end",
                    Value::obj(END_TO_END.map(|m| (m, measure::samples_json(&samples[m])))),
                ),
                (
                    "host_scale",
                    Value::Arr(reps.iter().map(|b| Value::from(b.scale)).collect()),
                ),
                ("ops_attempted", Value::from(timed.ops_attempted)),
                ("ops_failed", Value::from(timed.ops_failed)),
                ("failed_share", Value::from(failed_share)),
                ("digest", Value::from(format!("{:016x}", timed.digest))),
                ("counts", Value::map(&timed.counts)),
                (
                    "checks_failed",
                    Value::Arr(
                        timed
                            .failures
                            .iter()
                            .chain(&traced.failures)
                            .map(|f| Value::from(f.as_str()))
                            .collect(),
                    ),
                ),
                ("per_layer", Value::map(&layers)),
            ]),
        ));
    }

    println!("== ladder");
    for (name, value) in &ladder {
        println!("  {name:<34} {value:>14.6} {}", unit_of(name, &layer_units));
    }

    let result = Value::obj([
        ("schema", Value::from(1u64)),
        ("host", host),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        (
            "size",
            Value::from(if size == Size::Quick { "quick" } else { "full" }),
        ),
        ("workloads", Value::obj(workloads_json)),
        ("ladder", Value::map(&ladder)),
    ]);
    write_file(&out, &result.pretty())?;
    println!("\nwrote {}", out.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("bench: output checks failed");
        Ok(ExitCode::FAILURE)
    }
}

fn compare_cmd(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: bench compare A.json B.json".to_string());
    };
    let contract = read_json(&repo_root().join("BENCHMARK.json"))?;
    let (report, bad) = compare::compare(
        &contract,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    print!("{report}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `bench child`: one repetition in this process, one JSON line out.
fn child_cmd(args: &Args, entry: Instant) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed: u64 = args.require("seed")?;
    let mode_flag: String = args.require("mode")?;
    let mode: Mode =
        measure::parse_mode(&mode_flag).ok_or_else(|| format!("unknown --mode `{mode_flag}`"))?;
    let mut done = workloads::run_rep(&workload, args.size(), seed, mode, entry)?;
    done.rep.peak_rss_mb = host::peak_rss_mb()?;
    if let Some(spans) = &done.spans {
        write_file(&out_dir().join(format!("{workload}.spans.json")), spans)?;
    }
    println!("{}", done.rep.to_json());
    Ok(ExitCode::SUCCESS)
}

fn ladder_cmd(args: &Args) -> Result<ExitCode, String> {
    let scale = if args.size() == Size::Quick { 100 } else { 1 };
    let rungs = ladder::run(scale);
    println!("{}", Value::map(&rungs));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let entry = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!("bench: this is a debug build; measure with `cargo run --release`");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("usage: bench <measure|run|compare> ...; see benchmark/README.md");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "measure" => measure_cmd(&args),
        "run" => run_cmd(&args),
        "compare" => compare_cmd(&args),
        "child" => child_cmd(&args, entry),
        "ladder" => ladder_cmd(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
