//! Reproducibility guarantees across the whole stack: a run is a pure
//! function of its seed.

use netsim::time::SimDuration;
use netsim::trace::fnv1a;
use overlay::broker::{BrokerCommand, TargetSpec};
use workloads::harness::defaults::CLI_TRACE_CAPACITY;
use workloads::scenario::{run_scenario, ScenarioConfig};
use workloads::spec::MB;

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        commands: vec![
            (
                SimDuration::from_secs(60),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: 12 * MB,
                    num_parts: 12,
                    label: "det".into(),
                },
            ),
            (
                SimDuration::from_secs(70),
                BrokerCommand::SubmitTask {
                    target: TargetSpec::AllClients,
                    work_gops: 30.0,
                    input_bytes: 0,
                    input_parts: 1,
                    label: "det-task".into(),
                },
            ),
        ],
        ..ScenarioConfig::default()
    }
}

fn fingerprint(seed: u64) -> Vec<u64> {
    let r = run_scenario(&scenario(), seed);
    let mut fp = vec![r.run.elapsed.as_nanos()];
    for t in &r.run.log.transfers {
        fp.push(t.completed_at.map(|x| x.as_nanos()).unwrap_or(0));
        fp.push(t.petition_acked_at.map(|x| x.as_nanos()).unwrap_or(0));
        for p in &t.parts {
            fp.push(p.confirmed_at.map(|x| x.as_nanos()).unwrap_or(0));
        }
    }
    for t in &r.run.log.tasks {
        fp.push(t.result_at.map(|x| x.as_nanos()).unwrap_or(0));
    }
    fp
}

#[test]
fn identical_seeds_identical_histories() {
    assert_eq!(fingerprint(1), fingerprint(1));
    assert_eq!(fingerprint(77), fingerprint(77));
}

#[test]
fn different_seeds_different_histories() {
    assert_ne!(fingerprint(1), fingerprint(2));
}

#[test]
fn parallel_replication_matches_sequential() {
    let seeds = [3u64, 4, 5];
    let parallel = workloads::runner::run_replications(&seeds, fingerprint);
    let sequential: Vec<Vec<u64>> = seeds.iter().map(|&s| fingerprint(s)).collect();
    assert_eq!(parallel, sequential);
}

#[test]
fn golden_metrics_render_is_reproducible() {
    // The full metrics report — every counter and stat the engine and
    // broker recorded through the interned-id fast path — must come out
    // byte-identical for the same seed.
    let a = run_scenario(&scenario(), 11);
    let b = run_scenario(&scenario(), 11);
    assert_eq!(a.run.metrics.render(), b.run.metrics.render());
    assert_eq!(a.run.events_processed, b.run.events_processed);
    assert_eq!(a.run.peak_queue_len, b.run.peak_queue_len);
}

#[test]
fn golden_metrics_interned_and_string_paths_agree() {
    // Replaying one run's counters/stats by name — read through the
    // by-name accessors, re-interned in a fresh registry — must render
    // byte-identically to the original: the id layer is an encoding, not
    // a semantic change.
    use netsim::metrics::Metrics;
    let run = run_scenario(&scenario(), 11);
    let counter_names: Vec<String> = run.run.metrics.counter_names().map(String::from).collect();
    let stat_names: Vec<String> = run.run.metrics.stat_names().map(String::from).collect();

    let mut via_strings = Metrics::new();
    for name in &counter_names {
        let id = via_strings.counter_id(name);
        via_strings.incr_id(id, run.run.metrics.counter(name));
    }
    for name in &stat_names {
        let id = via_strings.stat_id(name);
        via_strings
            .stat_by_id_mut(id)
            .merge(&run.run.metrics.stat(name));
    }
    assert_eq!(run.run.metrics.render(), via_strings.render());

    // And a fresh registry populated in reverse name order still renders
    // the same report: output ordering is by name, never by intern order.
    let mut reversed = Metrics::new();
    for name in counter_names.iter().rev() {
        let id = reversed.counter_id(name);
        reversed.incr_id(id, run.run.metrics.counter(name));
    }
    for name in stat_names.iter().rev() {
        let id = reversed.stat_id(name);
        reversed
            .stat_by_id_mut(id)
            .merge(&run.run.metrics.stat(name));
    }
    assert_eq!(run.run.metrics.render(), reversed.render());
}

#[test]
fn traced_lossy_runs_emit_byte_identical_jsonl() {
    // Two same-seed traced runs of the lossy Fig-5 scenario — drops,
    // retransmissions, watchdogs and all — must export byte-for-byte
    // identical JSONL and equal digests. This is the contract `psim trace`
    // (and the CI determinism job) rely on.
    let traced = |seed| {
        let cfg = ScenarioConfig::named("fig5-lossy").expect("known scenario");
        let harness = cfg.harness().trace_capacity(Some(CLI_TRACE_CAPACITY));
        cfg.run_with(harness, seed)
            .expect("one shard always runs")
            .run
            .trace
    };
    let (a, b) = (traced(7), traced(7));
    let jsonl = a.to_jsonl();
    assert!(!jsonl.is_empty(), "traced run produced no events");
    assert_eq!(
        jsonl,
        b.to_jsonl(),
        "same-seed JSONL must be byte-identical"
    );
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.len(), b.len());

    // Loss must actually have occurred for this to exercise anything.
    assert!(
        jsonl.contains("\"ev\":\"message_lost\""),
        "lossy scenario lost no messages"
    );
    assert!(
        jsonl.contains("\"ev\":\"retransmission\""),
        "lossy scenario retransmitted nothing"
    );

    // A different seed must produce a different history.
    assert_ne!(
        a.digest(),
        traced(8).digest(),
        "different seeds, same trace digest"
    );
}

#[test]
fn experiment_aggregates_are_reproducible() {
    use workloads::experiments::fig5;
    use workloads::spec::ExperimentSpec;
    let spec = ExperimentSpec { seeds: vec![2] };
    let a = fig5::run_experiment(&spec);
    let b = fig5::run_experiment(&spec);
    for (sa, sb) in a.per_granularity.iter().zip(&b.per_granularity) {
        assert_eq!(sa.means(), sb.means());
    }
}

/// `(scenario, shards, trace digest, FNV-1a of metrics.render())` at seed
/// 7; the trace digests are the ones `psim trace <scenario> --seed 7
/// [--shards 3]` prints. First recorded on the hand-rolled pipeline that
/// preceded the harness, then re-blessed once when the transfer span rows
/// and the `overlay.jobs_unplaced` counter went and the digests took
/// FNV-1a's published prime. That re-bless moved no simulated event: with
/// those rows and that counter deleted, the old and new outputs are equal
/// byte for byte.
const NAMED_SCENARIO_PINS: [(&str, usize, u64, u64); 12] = [
    ("smoke", 1, 0x6506005844c83860, 0x2dd60e0668e37465),
    ("smoke", 3, 0x66e724a1dc09a8cf, 0x7f1b07ac19a7ba9e),
    ("fig2", 1, 0x9f454305283341d8, 0x489fcb458bc5fe60),
    ("fig2", 3, 0x3ee4a9bf7d9f1e37, 0x2cfb850517f0d698),
    ("fig234", 1, 0x26780470baf251f3, 0xb8b374c65ba59a02),
    ("fig234", 3, 0x2cb459558dbe1481, 0xc1ab0ec878f0fe0a),
    ("fig5", 1, 0x3db116d0105b52c8, 0x338cd42f5c1cd636),
    ("fig5", 3, 0x2b807bf1d6752adc, 0x76c2e8adbe3d9684),
    ("fig5-lossy", 1, 0xa03c9b2d3ef511e0, 0xf52bc5f324278e61),
    ("fig5-lossy", 3, 0xd38038f0f24c1155, 0x1e63708a82d88bb5),
    ("churn", 1, 0x01e5624e30979450, 0x762028a3d41a630d),
    ("churn", 3, 0xa153ae72db2df8f0, 0xcd084328268f9c1c),
];

/// FNV-1a of the `overlay_series` CSV (60 s interval) of `smoke` at seed
/// 7, by shard count. Re-blessed with [`NAMED_SCENARIO_PINS`] for the
/// prime alone: the CSV bytes did not change.
const SMOKE_SERIES_PINS: [(usize, u64); 2] = [(1, 0x563073468eb01055), (3, 0x4c49c17064a2b21f)];

#[test]
fn named_scenarios_match_their_pre_harness_digests() {
    use workloads::scenario::named_scenario_list;

    let pinned: Vec<&str> = NAMED_SCENARIO_PINS.iter().map(|p| p.0).collect();
    for name in named_scenario_list() {
        assert!(pinned.contains(&name), "named scenario {name} has no pin");
    }
    for (name, shards, trace, metrics) in NAMED_SCENARIO_PINS {
        let cfg = ScenarioConfig {
            shards,
            ..ScenarioConfig::named(name).expect("pinned scenario is named")
        };
        let harness = cfg.harness().trace_capacity(Some(CLI_TRACE_CAPACITY));
        let run = cfg
            .run_with(harness, 7)
            .expect("the measurement testbed shards")
            .run;
        assert_eq!(
            run.trace.digest(),
            trace,
            "{name} trace at {shards} shard(s)"
        );
        assert_eq!(
            fnv1a(run.metrics.render().as_bytes()),
            metrics,
            "{name} metrics at {shards} shard(s)"
        );
    }
}

#[test]
fn smoke_series_matches_its_pre_harness_digest() {
    for (shards, pinned) in SMOKE_SERIES_PINS {
        let cfg = ScenarioConfig {
            shards,
            ..ScenarioConfig::named("smoke").expect("smoke is named")
        };
        let harness = cfg
            .harness()
            .series_interval(Some(SimDuration::from_secs(60)));
        let result = cfg.run_with(harness, 7).expect("smoke runs");
        let csv = result.run.series.expect("interval was set").to_csv();
        assert_eq!(
            fnv1a(csv.as_bytes()),
            pinned,
            "smoke series at {shards} shard(s)"
        );
    }
}
