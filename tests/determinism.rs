//! Reproducibility guarantees across the whole stack: a run is a pure
//! function of its seed.

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
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
    use workloads::runner::run_traced;

    let traced = |seed| {
        let cfg = ScenarioConfig::named("fig5-lossy").expect("known scenario");
        run_traced(&cfg, cfg.harness(), seed).expect("one shard always runs")
    };
    let a = traced(7);
    let b = traced(7);
    assert!(!a.jsonl.is_empty(), "traced run produced no events");
    assert_eq!(a.jsonl, b.jsonl, "same-seed JSONL must be byte-identical");
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.result.run.trace.len(), b.result.run.trace.len());

    // Loss must actually have occurred for this to exercise anything.
    assert!(
        a.jsonl.contains("\"ev\":\"message_lost\""),
        "lossy scenario lost no messages"
    );
    assert!(
        a.jsonl.contains("\"ev\":\"retransmission\""),
        "lossy scenario retransmitted nothing"
    );

    // A different seed must produce a different history.
    let c = traced(8);
    assert_ne!(a.digest, c.digest, "different seeds, same trace digest");

    // The reconstructed timelines agree with the sender-side records:
    // every completed transfer's last part lands at the recorded instant.
    let timelines = workloads::report::transfer_timelines(&a.result.run.trace);
    assert_eq!(timelines.len(), 8, "one timeline per SC");
    for tl in &timelines {
        assert_eq!(tl.ok, Some(true));
        let rec = a
            .result
            .run
            .log
            .transfers
            .iter()
            .find(|t| t.id.raw() == tl.transfer)
            .expect("timeline matches a recorded transfer");
        let rec_last = rec
            .parts
            .iter()
            .max_by_key(|p| p.index)
            .and_then(|p| p.confirmed_at);
        let tl_last = tl
            .parts
            .iter()
            .max_by_key(|p| p.index)
            .and_then(|p| p.confirmed_at);
        assert_eq!(rec_last, tl_last, "last-part confirm instant diverged");
    }
}

#[test]
fn experiment_aggregates_are_reproducible() {
    use workloads::experiments::fig5;
    use workloads::spec::ExperimentSpec;
    let spec = ExperimentSpec {
        seeds: vec![2],
        ..ExperimentSpec::quick()
    };
    let a = fig5::run_experiment(&spec);
    let b = fig5::run_experiment(&spec);
    for (sa, sb) in a.per_granularity.iter().zip(&b.per_granularity) {
        assert_eq!(sa.means(), sb.means());
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// `(scenario, shards, trace digest, FNV-1a of metrics.render())` at seed
/// 7, recorded on the hand-rolled `scenario.rs` pipeline (serial `Engine`
/// at one shard, `ShardedEngine` at three) before it moved onto the
/// harness. The digests are the ones `psim trace <scenario> --seed 7
/// [--shards 3]` prints.
const NAMED_SCENARIO_PINS: [(&str, usize, u64, u64); 12] = [
    ("smoke", 1, 0xa349f999ba740e36, 0x2f736de3615cde9d),
    ("smoke", 3, 0x31c23715b42a6cc8, 0xc8269fecad38e0f6),
    ("fig2", 1, 0x10422c7c46f7cb7e, 0x4906501af2daa808),
    ("fig2", 3, 0x5b569ac7090725cf, 0x7caea02b51a78e80),
    ("fig234", 1, 0xdef3536eb1a40eab, 0x1349914a756f8ac2),
    ("fig234", 3, 0xb6a3e64dc317f404, 0x686bd5eb60710962),
    ("fig5", 1, 0xcf5408eb7a2f6a67, 0x573d09b2ee16318e),
    ("fig5", 3, 0x6e44c230c7f45e40, 0x96d79fdf5f453c0c),
    ("fig5-lossy", 1, 0xbecf6fb7410d8854, 0x3215d4032b00bd21),
    ("fig5-lossy", 3, 0x67150597c0b39446, 0x9c80ce63f5c9b60d),
    ("churn", 1, 0x4ec2ad17558cc2df, 0xcc521550f89563fd),
    ("churn", 3, 0xf79ac47fa00750b9, 0x3fac67677d360d0c),
];

/// FNV-1a of the `overlay_series` CSV (60 s interval) of `smoke` at seed
/// 7, by shard count; same provenance as [`NAMED_SCENARIO_PINS`].
const SMOKE_SERIES_PINS: [(usize, u64); 2] = [(1, 0x760a52468eb01055), (3, 0x1f74857064a2b21f)];

#[test]
fn named_scenarios_match_their_pre_harness_digests() {
    use workloads::runner::run_traced;
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
        let run = run_traced(&cfg, cfg.harness(), 7).expect("the measurement testbed shards");
        assert_eq!(run.digest, trace, "{name} trace at {shards} shard(s)");
        assert_eq!(
            fnv1a(&run.result.run.metrics.render()),
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
        assert_eq!(fnv1a(&csv), pinned, "smoke series at {shards} shard(s)");
    }
}
