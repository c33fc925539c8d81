//! `psim` — command-line front end to the peer-selection study.
//!
//! ```text
//! psim table1                               # the slice roster + testbed
//! psim fig all --quick                      # reproduce every figure
//! psim fig 5                                # one figure, paper settings
//! psim extensions --quick                   # future-work studies
//! psim transfer --size-mb 50 --parts 50     # one blind distribution
//! psim transfer --model economic ...        # one selected transfer
//! psim sweep fig345 --workers 4             # parallel grid campaign → CSV
//! psim sweep fig67 --quick --json out.json  # machine-readable campaign
//! psim csv --out target/figures --quick     # machine-readable series
//! psim churn --peers 100000 --regions 16    # churn run on a synthetic testbed
//! psim federate --brokers 4 --homing hash   # multi-broker federated run
//! psim federate --kill-broker-at 300        # broker crash + client re-homing
//! psim profile churn --peers 100000         # windowed series + Chrome trace
//! ```
//!
//! Every subcommand is described by one row of [`COMMANDS`]: the parser,
//! the `--help` text, and the flag validation all derive from that table,
//! so a flag cannot exist without documentation or vice versa.

mod churn;
mod commands;
mod federate;
mod profile;
mod stream;

use std::collections::HashMap;

use commands::{CommandDef, COMMANDS};

use netsim::node::NodeId;
use netsim::time::SimDuration;
use netsim::trace::Trace;
use overlay::broker::{BrokerCommand, TargetSpec};
use workloads::attribution::{
    aggregate_metrics, attribute_trace, breakdown_by_peer, phase_table_csv, render_phase_table,
};
use workloads::experiments::{
    self, ablation, adaptation, extensions, fig5, fig6, fig7, table1, transfer_study,
};
use workloads::harness::{defaults, HarnessError, HarnessRun, Workload, WorkloadBuilder};
use workloads::report::{metrics_snapshot_json, render_timelines, transfer_timelines};
use workloads::runner::{default_workers, run_traced, TracedRun};
use workloads::scenario::{named_scenario_list, run_scenario, ScenarioConfig};
use workloads::spec::{ExperimentSpec, MB, PAPER_REPETITIONS};
use workloads::sweep::{named_grid, named_grid_list, run_campaign};

/// Parsed arguments for one subcommand: the table-validated flags plus the
/// positional argument, with typed accessors that exit 2 on malformed input.
struct Flags {
    values: HashMap<&'static str, String>,
    positional: Option<String>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn f64(&self, name: &str) -> f64 {
        self.parse(name)
    }

    fn u64(&self, name: &str) -> u64 {
        self.parse(name)
    }

    fn usize(&self, name: &str) -> usize {
        self.parse(name)
    }

    /// A flag without a table default: its value, or `default` when absent.
    fn usize_or(&self, name: &str, default: usize) -> usize {
        if self.has(name) {
            self.usize(name)
        } else {
            default
        }
    }

    /// A count or duration that must be at least `min`: anything smaller
    /// is a usage error, not a value to clamp into something the user did
    /// not ask for.
    fn at_least(&self, name: &str, min: u64) -> u64 {
        let value = self.u64(name);
        if value < min {
            eprintln!("invalid value `{value}` for --{name} (must be at least {min})");
            std::process::exit(2);
        }
        value
    }

    /// A finite amount that must exceed zero (or, with `zero_ok`, may also
    /// be zero): NaN, infinities and smaller values are usage errors.
    fn amount(&self, name: &str, zero_ok: bool) -> f64 {
        let value = self.f64(name);
        if !(value.is_finite() && (value > 0.0 || zero_ok && value == 0.0)) {
            let bound = if zero_ok { "at least 0" } else { "above 0" };
            eprintln!("invalid value `{value}` for --{name} (must be finite and {bound})");
            std::process::exit(2);
        }
        value
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> T {
        let raw = self.values.get(name).unwrap_or_else(|| {
            panic!("flag --{name} read without a table default");
        });
        match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("invalid value `{raw}` for --{name}");
                std::process::exit(2);
            }
        }
    }
}

/// Parses `args` against the command's flag table. Unknown flags, missing
/// values, and stray extra positionals are usage errors (exit 2).
fn parse_flags(cmd: &CommandDef, args: &[String]) -> Flags {
    let mut values: HashMap<&'static str, String> = HashMap::new();
    for f in cmd.flags {
        if let Some(d) = f.default {
            values.insert(f.name, d.to_string());
        }
    }
    let mut positional = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            let Some(def) = cmd.flags.iter().find(|f| f.name == name) else {
                let valid: Vec<String> =
                    cmd.flags.iter().map(|f| format!("--{}", f.name)).collect();
                eprintln!(
                    "unknown flag --{name} for `psim {}`; valid flags: {}",
                    cmd.name,
                    if valid.is_empty() {
                        "(none)".to_string()
                    } else {
                        valid.join(", ")
                    }
                );
                std::process::exit(2);
            };
            if def.takes_value {
                match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(v) => {
                        values.insert(def.name, v.clone());
                        i += 1;
                    }
                    None => {
                        eprintln!("flag --{name} requires a value");
                        std::process::exit(2);
                    }
                }
            } else {
                values.insert(def.name, "true".to_string());
            }
        } else if cmd.positional.is_some() && positional.is_none() {
            positional = Some(arg.clone());
        } else {
            eprintln!("unexpected argument `{arg}` for `psim {}`", cmd.name);
            std::process::exit(2);
        }
        i += 1;
    }
    Flags { values, positional }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            print!("{}", usage());
            return;
        }
    };
    if matches!(command, "help" | "--help" | "-h") {
        print!("{}", usage());
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == command) else {
        // A usage error's help is a diagnostic, not an artifact: stderr.
        eprint!("unknown command: {command}\n\n{}", usage());
        std::process::exit(2);
    };
    let flags = parse_flags(cmd, rest);
    let spec = if flags.has("quick") {
        ExperimentSpec::quick()
    } else {
        ExperimentSpec::paper_defaults()
    };
    match cmd.name {
        "table1" => println!("{}", table1::run()),
        "fig" => cmd_fig(flags.positional.as_deref().unwrap_or("all"), &spec),
        "extensions" => cmd_extensions(&spec),
        "ablation" => println!("{}", ablation::run(&spec).render()),
        "transfer" => cmd_transfer(&flags),
        "task" => cmd_task(&flags),
        "sweep" => cmd_sweep(&flags),
        "csv" => cmd_csv(&flags, &spec),
        "multiregion" => cmd_multiregion(&flags),
        "churn" => churn::cmd_churn(&flags),
        "federate" => federate::cmd_federate(&flags),
        "stream" => stream::cmd_stream(&flags),
        "profile" => profile::cmd_profile(&flags),
        "trace" => cmd_trace(&flags),
        "report" => cmd_report(&flags),
        "attribute" => cmd_attribute(&flags),
        _ => unreachable!("every table row is dispatched"),
    }
}

/// `--help` is generated from [`COMMANDS`], so it cannot drift from the
/// parser: every command, flag, default, and the exit-code contract.
/// Returned rather than printed so the caller picks the stream: stdout
/// for `psim help`, stderr after a usage error.
fn usage() -> String {
    use std::fmt::Write;

    let mut out =
        String::from("psim — peer selection study (ICPPW'07 reproduction)\n\ncommands:\n");
    for cmd in COMMANDS {
        let head = match cmd.positional {
            Some(p) => format!("{} {}", cmd.name, p),
            None => cmd.name.to_string(),
        };
        let _ = writeln!(out, "  {head:<27} {}", cmd.help);
        for f in cmd.flags {
            let flag = if f.takes_value {
                format!("--{} <v>", f.name)
            } else {
                format!("--{}", f.name)
            };
            let default = match f.default {
                Some(d) => format!(" (default: {d})"),
                None => String::new(),
            };
            let _ = writeln!(out, "     {flag:<24} {}{default}", f.help);
        }
    }
    let _ = writeln!(out, "  {:<27} this text", "help");
    let _ = writeln!(
        out,
        "\nscenarios: {}\ngrids:     {}",
        named_scenario_list().join(", "),
        named_grid_list().join(", ")
    );
    out.push_str(
        "\nexit codes:\n\
         \x20 0  success\n\
         \x20 1  I/O error (cannot write an output file)\n\
         \x20 2  usage error (unknown command, flag, figure, model, scenario, or grid)\n\
         \x20 3  --strict violation (truncated trace)\n",
    );
    out
}

/// Writes `content` to `path`, honouring the exit-code contract (1 = I/O).
/// The confirmation goes to stderr: stdout is reserved for the artifact
/// itself, so two runs' stdout can be diffed byte-for-byte.
fn write_or_exit(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// Seed salt for the CLI's stochastic selectors: zero, because the CLI
/// predates salting and its historical random streams mix nothing in.
const CLI_SEED_SALT: u64 = 0;

/// Resolves `--model` for the one-shot commands through the shared
/// [`peer_selection::service`] table, exiting with the valid list when
/// the spelling is unknown (silently running blind instead would
/// misattribute the numbers).
fn selector_or_exit(model: Option<&str>) -> Option<overlay::selector::SelectorFactory> {
    let name = model?;
    match peer_selection::service::try_factory_for(name, CLI_SEED_SALT) {
        Ok(factory) => Some(factory),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Unwraps a fig6 run, reporting unknown-model errors (with the valid
/// model list) instead of panicking.
fn fig6_or_exit(
    result: Result<workloads::report::FigureReport, fig6::UnknownModelError>,
) -> workloads::report::FigureReport {
    match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_fig(which: &str, spec: &ExperimentSpec) {
    // Figures 2–4 read off the same shared study; run it inside the arm
    // that needs it so every dispatch path is total — no Option to unwrap,
    // and unknown figures take the error path below instead of panicking.
    match which {
        "2" | "3" | "4" => {
            let study = transfer_study::run(spec);
            let report = match which {
                "2" => experiments::fig2::report(&study),
                "3" => experiments::fig3::report(&study),
                _ => experiments::fig4::report(&study),
            };
            println!("{}", report.render());
        }
        "5" => println!("{}", fig5::run(spec).render()),
        "6" => println!("{}", fig6_or_exit(fig6::run(spec)).render()),
        "7" => println!("{}", fig7::run(spec).render()),
        "all" => {
            let study = transfer_study::run(spec);
            println!("{}", experiments::fig2::report(&study).render());
            println!("{}", experiments::fig3::report(&study).render());
            println!("{}", experiments::fig4::report(&study).render());
            println!("{}", fig5::run(spec).render());
            println!("{}", fig6_or_exit(fig6::run(spec)).render());
            println!("{}", fig7::run(spec).render());
        }
        other => {
            eprintln!("unknown figure: {other} (expected 2..7 or all)");
            std::process::exit(2);
        }
    }
}

fn cmd_extensions(spec: &ExperimentSpec) {
    println!("{}", extensions::scaling::run(spec).render());
    println!("{}", extensions::request::run(spec).render());
    println!("{}", extensions::profiles::run(spec).render());
    println!("{}", adaptation::run(spec).render());
    let churn = extensions::churn::run_experiment(1);
    println!("== Extension: churn ==");
    println!(
        "selected transfers: {}/{} completed; departed peer re-selected: {}",
        churn.completed, churn.started, churn.leaver_chosen_after_departure
    );
}

/// The 4 MB broadcast one minute in that gives a selecting `transfer` or
/// `task` run the statistics its model reads.
fn warmup() -> (SimDuration, BrokerCommand) {
    let cmd = BrokerCommand::DistributeFile {
        target: TargetSpec::AllClients,
        size_bytes: 4 * MB,
        num_parts: 4,
        label: "warmup".into(),
    };
    (SimDuration::from_secs(60), cmd)
}

fn cmd_transfer(flags: &Flags) {
    let size = (flags.amount("size-mb", false) * MB as f64) as u64;
    let parts = flags.at_least("parts", 1);
    let parts = u32::try_from(parts).unwrap_or_else(|_| {
        eprintln!(
            "invalid value `{parts}` for --parts (must be at most {})",
            u32::MAX
        );
        std::process::exit(2);
    });
    let seed = flags.u64("seed");

    let mut cfg = ScenarioConfig::default();
    let (target, at) = match selector_or_exit(flags.get("model")) {
        Some(factory) => {
            cfg.selector = Some(factory);
            cfg.commands.push(warmup());
            (TargetSpec::Selected, SimDuration::from_secs(400))
        }
        None => (TargetSpec::AllClients, SimDuration::from_secs(60)),
    };
    cfg.commands.push((
        at,
        BrokerCommand::DistributeFile {
            target,
            size_bytes: size,
            num_parts: parts,
            label: "cli".into(),
        },
    ));
    let result = run_scenario(&cfg, seed);
    println!(
        "{:<28} {:>12} {:>12} {:>10} {:>9}",
        "peer", "petition(s)", "total(s)", "MB/s", "status"
    );
    for t in result.run.log.transfers.iter().filter(|t| t.label == "cli") {
        println!(
            "{:<28} {:>12.2} {:>12.2} {:>10.2} {:>9}",
            t.to_name,
            t.petition_latency_secs().unwrap_or(f64::NAN),
            t.total_secs().unwrap_or(f64::NAN),
            t.throughput_bytes_per_sec().unwrap_or(0.0) / 1e6,
            if t.cancelled {
                "cancelled"
            } else if t.completed_at.is_some() {
                "ok"
            } else {
                "pending"
            }
        );
    }
    for s in &result.run.log.selections {
        println!("selected by {}: {}", s.model, s.chosen_name);
    }
}

fn cmd_task(flags: &Flags) {
    let work = flags.amount("work", false);
    let input = (flags.amount("input-mb", true) * MB as f64) as u64;
    let seed = flags.u64("seed");

    let mut cfg = ScenarioConfig::default();
    let target = match selector_or_exit(flags.get("model")) {
        Some(factory) => {
            cfg.selector = Some(factory);
            cfg.commands.push(warmup());
            TargetSpec::Selected
        }
        None => TargetSpec::AllClients,
    };
    cfg.commands.push((
        SimDuration::from_secs(400),
        BrokerCommand::SubmitTask {
            target,
            work_gops: work,
            input_bytes: input,
            input_parts: 16,
            label: "cli-task".into(),
        },
    ));
    let result = run_scenario(&cfg, seed);
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>8}",
        "peer", "exec(min)", "total(min)", "xfer(min)", "ok"
    );
    for t in result
        .run
        .log
        .tasks
        .iter()
        .filter(|t| t.label == "cli-task")
    {
        let xfer = t
            .input_done_at
            .map(|d| d.duration_since(t.submitted_at).as_secs_f64() / 60.0);
        println!(
            "{:<28} {:>10.2} {:>12.2} {:>12} {:>8}",
            t.on_name,
            t.exec_secs.unwrap_or(f64::NAN) / 60.0,
            t.total_secs().unwrap_or(f64::NAN) / 60.0,
            xfer.map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            t.success
        );
    }
}

/// `psim sweep <grid>`: expand a named grid, run every cell × replication
/// on the worker pool, and print the deterministic CSV on stdout — two runs
/// with different `--workers` must emit identical bytes.
fn cmd_sweep(flags: &Flags) {
    let valid = named_grid_list().join(", ");
    let Some(name) = flags.positional.as_deref() else {
        eprintln!("missing grid name; valid grids: {valid}");
        std::process::exit(2);
    };
    let seed = flags.u64("seed");
    let replications = if flags.has("quick") {
        2
    } else {
        PAPER_REPETITIONS
    };
    let Some(spec) = named_grid(name, seed, replications) else {
        eprintln!("unknown grid `{name}`; valid grids: {valid}");
        std::process::exit(2);
    };
    let workers = match flags.usize("workers") {
        0 => default_workers(),
        w => w,
    };
    let campaign = match run_campaign(&spec, workers) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: invalid grid: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", campaign.to_csv());
    eprint!("{}", campaign.render());
    if let Some(path) = flags.get("csv") {
        write_or_exit(path, &campaign.to_csv());
    }
    if let Some(path) = flags.get("json") {
        write_or_exit(path, &campaign.to_json());
    }
    if let Some(path) = flags.get("prom") {
        write_or_exit(
            path,
            &campaign.merged_metrics().render_prometheus("psim_sweep"),
        );
    }
}

/// The typed-error exit of the harness commands: message on stderr, 2.
fn harness_error_exit(name: &str, e: &HarnessError) -> ! {
    eprintln!("{name}: {e}");
    std::process::exit(2);
}

/// Where `churn`, `federate`, `stream` and `multiregion` all end: one run
/// of `workload` on `harness` at `--seed` / `--shard-workers`, the
/// harness-rendered determinism artifact (trace JSONL, metrics snapshot,
/// the workload's summary tail) on stdout — byte-identical at any worker
/// count, which the CI workload-determinism job diffs — and the shared
/// human summary line on stderr. A rejected configuration is a usage
/// error with stdout left empty.
fn workload_artifact_or_exit(
    flags: &Flags,
    harness: WorkloadBuilder,
    workload: &dyn Workload,
) -> HarnessRun {
    let name = workload.name();
    let workers = flags.usize("shard-workers");
    let (run, artifact) = harness
        .shard_workers(workers)
        .build()
        .and_then(|h| h.run_with_artifact(workload, flags.u64("seed")))
        .unwrap_or_else(|e| harness_error_exit(name, &e));
    print!("{artifact}");
    eprintln!(
        "{name}: {:?} at t={:.1}s, {} events in {} windows, {} trace events ({} dropped), \
         digest {:016x}, {workers} workers",
        run.outcome,
        run.elapsed.as_secs_f64(),
        run.events_processed,
        run.profile.rounds,
        run.trace.len(),
        run.trace.dropped(),
        run.trace.digest(),
    );
    run
}

/// `psim multiregion`: one traced multi-region run on the sharded engine;
/// the artifact's tail is the attribution phase CSV.
fn cmd_multiregion(flags: &Flags) {
    use workloads::multiregion::{MultiRegionConfig, MultiRegionWorkload};

    let cfg = MultiRegionConfig {
        regions: flags.at_least("regions", 1) as usize,
        clients_per_region: flags.at_least("clients", 1) as usize,
        trace_capacity: Some(defaults::CLI_TRACE_CAPACITY),
        ..MultiRegionConfig::default()
    };
    workload_artifact_or_exit(flags, cfg.harness(), &MultiRegionWorkload { cfg: &cfg });
}

/// Resolves the positional scenario-name argument for `trace`/`report`/
/// `attribute`/`profile`, exiting with the valid list when missing or
/// unknown, and applies the shared `--shards`/`--shard-workers` axis: the
/// scenario takes the shard count, its harness the worker count, and the
/// harness refuses either when zero. Any worker count yields
/// byte-identical output for a fixed shard count and seed — the CI
/// `workload-determinism` matrix diffs exactly that.
fn named_scenario_or_exit(flags: &Flags) -> (ScenarioConfig, WorkloadBuilder) {
    let valid = named_scenario_list().join(", ");
    let Some(name) = flags.positional.as_deref() else {
        eprintln!("missing scenario name; valid scenarios: {valid}");
        std::process::exit(2);
    };
    let Some(cfg) = ScenarioConfig::named(name) else {
        eprintln!("unknown scenario `{name}`; valid scenarios: {valid}");
        std::process::exit(2);
    };
    let cfg = ScenarioConfig {
        shards: flags.usize_or("shards", cfg.shards),
        ..cfg
    };
    let harness = cfg.harness().shard_workers(flags.usize("shard-workers"));
    (cfg, harness)
}

/// One traced replication of the named scenario the flags select.
fn traced_scenario_or_exit(flags: &Flags) -> TracedRun {
    let (cfg, harness) = named_scenario_or_exit(flags);
    run_traced(&cfg, harness, flags.u64("seed"))
        .unwrap_or_else(|e| harness_error_exit(cfg.name(), &e))
}

/// Surfaces trace-ring drops: anything derived from a truncated trace
/// (timelines, attribution) is silently missing the evicted events. Always
/// warns on stderr; exits 3 under `--strict`.
fn check_trace_drops(trace: &Trace, strict: bool) {
    let dropped = trace.dropped();
    if dropped == 0 {
        return;
    }
    eprintln!(
        "warning: trace ring dropped {dropped} events; derived output is incomplete \
         (raise the trace capacity to keep the full history)"
    );
    if strict {
        eprintln!("error: --strict refuses a truncated trace");
        std::process::exit(3);
    }
}

fn cmd_trace(flags: &Flags) {
    let run = traced_scenario_or_exit(flags);
    let trace = &run.result.run.trace;
    match flags.get("out") {
        Some(path) => write_or_exit(path, &run.jsonl),
        None => print!("{}", run.jsonl),
    }
    eprintln!(
        "trace: {} events ({} dropped), digest {:016x}, elapsed {:.1}s virtual",
        trace.len(),
        trace.dropped(),
        run.digest,
        run.result.run.elapsed.as_secs_f64(),
    );
    check_trace_drops(trace, flags.has("strict"));
}

fn cmd_report(flags: &Flags) {
    let run = traced_scenario_or_exit(flags);
    let trace = &run.result.run.trace;
    let timelines = transfer_timelines(trace);
    println!("{}", metrics_snapshot_json(&run.result.run.metrics));
    println!();
    print!("{}", render_timelines(&timelines));
    eprintln!(
        "report: {} transfers reconstructed from {} trace events, digest {:016x}",
        timelines.len(),
        trace.len(),
        run.digest,
    );
    check_trace_drops(trace, flags.has("strict"));
}

fn cmd_attribute(flags: &Flags) {
    let run = traced_scenario_or_exit(flags);
    let trace = &run.result.run.trace;
    check_trace_drops(trace, flags.has("strict"));

    let attrs = attribute_trace(trace);
    let scs = run.result.testbed.scs;
    let label_of = |node: NodeId| {
        scs.iter()
            .position(|&sc| sc == node)
            .map(|i| format!("SC{}", i + 1))
            .unwrap_or_else(|| format!("n{}", node.0))
    };
    let breakdowns = breakdown_by_peer(&attrs, label_of);
    print!("{}", render_phase_table(&breakdowns));

    if let Some(path) = flags.get("csv") {
        write_or_exit(path, &phase_table_csv(&breakdowns));
    }
    if let Some(path) = flags.get("prom") {
        // The exposition carries the run's engine metrics plus the
        // attribution histograms, one deterministic text artifact.
        let mut metrics = run.result.run.metrics.clone();
        metrics.merge(&aggregate_metrics(&attrs, label_of));
        write_or_exit(path, &metrics.render_prometheus("psim"));
    }
    eprintln!(
        "attribute: {} transfers attributed from {} trace events, digest {:016x}",
        attrs.len(),
        trace.len(),
        run.digest,
    );
}

fn cmd_csv(flags: &Flags, spec: &ExperimentSpec) {
    let out = flags.get("out").expect("table default");
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("error: cannot create {out}: {e}");
        std::process::exit(1);
    }
    let study = transfer_study::run(spec);
    let reports = vec![
        ("fig2", experiments::fig2::report(&study)),
        ("fig3", experiments::fig3::report(&study)),
        ("fig4", experiments::fig4::report(&study)),
        ("fig5", fig5::run(spec)),
        ("fig6", fig6_or_exit(fig6::run(spec))),
        ("fig7", fig7::run(spec)),
    ];
    for (name, report) in reports {
        write_or_exit(&format!("{out}/{name}.csv"), &report.to_csv());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commands::{FlagDef, MODEL_FLAG_CHOICES};
    use overlay::selector::ModelKind;

    /// Satellite of the model-name unification: every spelling the CLI
    /// advertises round-trips through `ModelKind` and resolves through
    /// `peer_selection::service`, and every selectable `ModelKind` is
    /// advertised — the flag table cannot drift from the canonical list.
    #[test]
    fn cli_model_names_round_trip_through_model_kind() {
        let choices = MODEL_FLAG_CHOICES
            .split_once(" (")
            .map(|(names, _)| names)
            .unwrap_or(MODEL_FLAG_CHOICES);
        let advertised: Vec<&str> = choices.split('|').collect();
        assert!(!advertised.is_empty());
        for name in &advertised {
            let kind = ModelKind::parse(name)
                .unwrap_or_else(|| panic!("advertised model `{name}` must parse"));
            assert_eq!(kind.name(), *name, "advertised spellings are canonical");
            assert!(
                peer_selection::service::try_factory_for(name, CLI_SEED_SALT).is_ok(),
                "advertised model `{name}` must resolve to a selector"
            );
        }
        for name in peer_selection::service::selectable_model_names() {
            assert!(
                advertised.contains(&name.as_str()),
                "selectable model `{name}` missing from MODEL_FLAG_CHOICES"
            );
        }
        // The historical alias keeps working but is not canonical.
        assert_eq!(ModelKind::parse("evaluator"), Some(ModelKind::SamePriority));
        assert!(peer_selection::service::try_factory_for("evaluator", CLI_SEED_SALT).is_ok());
    }

    /// The flag table's `--model` entries all point at the shared help
    /// string, so there is exactly one list to keep in sync.
    #[test]
    fn model_flags_share_the_single_help_string() {
        let model_flags: Vec<&FlagDef> = COMMANDS
            .iter()
            .flat_map(|c| c.flags.iter())
            .filter(|f| f.name == "model")
            .collect();
        assert!(model_flags.len() >= 2, "transfer and task expose --model");
        for f in model_flags {
            assert_eq!(f.help, MODEL_FLAG_CHOICES);
        }
    }
}
