//! Property-based tests for the experiment harness.

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, RetryPolicy, TargetSpec};
use proptest::prelude::*;
use workloads::attribution::{attribute_trace, breakdown_by_peer, phase_table_csv};
use workloads::multiregion::{MultiRegionConfig, MultiRegionWorkload};
use workloads::report::{argmax, argmin, metrics_snapshot_json, spearman, FigureReport, SeriesRow};
use workloads::runner::{run_replications, run_traced, SeriesAggregate};
use workloads::scenario::{run_scenario, ScenarioConfig};
use workloads::spec::MB;

/// An 8 MB broadcast to every SC over a transport dropping `drop_p` of
/// its messages, with retries, bounded by the horizon rather than
/// idle-stop so in-flight receiver-side messages land.
fn lossy_broadcast(drop_p: f64, label: &str) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        commands: vec![(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 8 * MB,
                num_parts: 8,
                label: label.into(),
            },
        )],
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_secs(60),
            max_attempts: 8,
        }),
        stop_when_idle: false,
        horizon: SimDuration::from_mins(120),
        ..ScenarioConfig::default()
    };
    cfg.transport.message_drop_probability = drop_p;
    cfg
}

proptest! {
    /// Aggregating rows one-by-one equals bulk aggregation; means lie
    /// inside the per-label [min, max] envelope.
    #[test]
    fn aggregation_is_consistent(rows in prop::collection::vec(
        prop::collection::vec(-1e6f64..1e6, 4), 1..30,
    )) {
        let bulk = SeriesAggregate::from_replications(&rows);
        let mut incremental = SeriesAggregate::new(4);
        for r in &rows {
            incremental.add(r);
        }
        prop_assert_eq!(bulk.means(), incremental.means());
        for (i, mean) in bulk.means().into_iter().enumerate() {
            let lo = rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min);
            let hi = rows.iter().map(|r| r[i]).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }

    /// The parallel runner preserves order and purity for arbitrary seeds.
    #[test]
    fn runner_order_and_purity(seeds in prop::collection::vec(any::<u64>(), 0..24)) {
        let results = run_replications(&seeds, |s| s.wrapping_mul(0x9E3779B97F4A7C15));
        prop_assert_eq!(results.len(), seeds.len());
        for (r, s) in results.iter().zip(&seeds) {
            prop_assert_eq!(*r, s.wrapping_mul(0x9E3779B97F4A7C15));
        }
    }

    /// Spearman is always in [-1, 1], symmetric, and 1 for a series against
    /// itself (when not constant).
    #[test]
    fn spearman_properties(values in prop::collection::vec(-1e3f64..1e3, 2..30)) {
        let other: Vec<f64> = values.iter().rev().copied().collect();
        let rho = spearman(&values, &other);
        prop_assert!((-1.0..=1.0).contains(&rho), "rho {rho}");
        let sym = spearman(&other, &values);
        prop_assert!((rho - sym).abs() < 1e-9);
        let distinct = values.windows(2).any(|w| w[0] != w[1]);
        if distinct {
            let self_rho = spearman(&values, &values);
            prop_assert!((self_rho - 1.0).abs() < 1e-9);
        }
    }

    /// argmax/argmin point at actual extremes.
    #[test]
    fn arg_extremes_correct(values in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let imax = argmax(&values).unwrap();
        let imin = argmin(&values).unwrap();
        for v in &values {
            prop_assert!(values[imax] >= *v);
            prop_assert!(values[imin] <= *v);
        }
    }

    /// Sweeping the transport drop probability: every transfer the sender
    /// records as completed keeps its stop-and-wait invariants, no matter
    /// how lossy the network was.
    #[test]
    fn lossy_completed_transfers_keep_invariants(
        drop_p in 0.0f64..0.30,
        seed in any::<u64>(),
    ) {
        let cfg = lossy_broadcast(drop_p, "prop");

        let result = run_scenario(&cfg, seed);
        for t in result
            .run.log
            .transfers
            .iter()
            .filter(|t| t.completed_at.is_some() && !t.cancelled)
        {
            for p in &t.parts {
                let confirmed = p.confirmed_at.expect("completed transfer confirms every part");
                prop_assert!(
                    confirmed >= p.sent_at,
                    "part {} confirmed {:?} before send {:?} (drop_p {drop_p}, seed {seed})",
                    p.index, confirmed, p.sent_at,
                );
            }
            for w in t.parts.windows(2) {
                prop_assert!(
                    w[1].index > w[0].index,
                    "part indices not strictly increasing: {} then {}",
                    w[0].index, w[1].index,
                );
            }
            let throughput = t
                .throughput_bytes_per_sec()
                .expect("completed transfer has a throughput");
            prop_assert!(
                throughput.is_finite() && throughput > 0.0,
                "non-finite throughput {throughput}",
            );
            prop_assert_eq!(
                t.receiver_bytes,
                Some(t.file_size),
                "receiver tally disagrees with file size (drop_p {}, seed {})",
                drop_p, seed,
            );
        }
    }

    /// Reports render and round-trip their own shape through CSV.
    #[test]
    fn report_rendering_total(values in prop::collection::vec(0.0f64..1e4, 1..8)) {
        let labels: Vec<String> = (0..values.len()).map(|i| format!("L{i}")).collect();
        let mut f = FigureReport::new("T", "title", "unit", labels);
        f.push(SeriesRow::new("a", values.clone()));
        f.push(SeriesRow::with_sd("b", values.clone(), vec![0.1; values.len()]));
        let rendered = f.render();
        prop_assert!(rendered.contains("T"));
        prop_assert!(rendered.contains("L0"));
        let csv = f.to_csv();
        prop_assert_eq!(csv.lines().count(), 3);
        for line in csv.lines().skip(1) {
            prop_assert_eq!(line.split(',').count(), values.len() + 1);
        }
    }
}

proptest! {
    /// Sweep campaigns are worker-count invariant: the CSV and JSON a
    /// campaign emits are byte-identical whether one worker runs every
    /// cell or four workers steal them — parallelism never changes
    /// numbers, only wall-clock time.
    #[test]
    fn sweep_output_is_worker_count_invariant(
        campaign_seed in any::<u64>(),
        size_mb in 2u64..5,
    ) {
        use workloads::sweep::{run_campaign, Axis, CellWorkload, SeedScheme, SweepSpec};
        let spec = SweepSpec {
            name: "prop-grid".into(),
            workload: CellWorkload::Distribute {
                size_bytes: size_mb * MB,
            },
            axes: vec![Axis::Parts(vec![1, 4])],
            seeds: SeedScheme::Derived {
                campaign_seed,
                replications: 2,
            },
            warmup: SimDuration::from_secs(60),
        };
        let serial = run_campaign(&spec, 1).expect("valid grid");
        let parallel = run_campaign(&spec, 4).expect("valid grid");
        prop_assert_eq!(serial.to_csv(), parallel.to_csv());
        prop_assert_eq!(serial.to_json(), parallel.to_json());
    }

    /// The sharded engine is worker-count invariant on *arbitrary*
    /// multi-region scenarios: the traced event stream, the metrics
    /// snapshot, and the per-peer attribution CSV are byte-identical
    /// whether 1, 2, or 4 threads drive the shards. This is the
    /// headline determinism guarantee of the parallel engine, checked
    /// over random region counts, fan-outs, delays, and seeds rather
    /// than one hand-picked topology.
    #[test]
    fn multiregion_outputs_are_worker_count_invariant(
        regions in 2usize..5,
        clients in 2usize..5,
        inter_owd_ms in 20.0f64..80.0,
        file_mb in 1u64..3,
        seed in any::<u64>(),
    ) {
        let base = MultiRegionConfig {
            regions,
            clients_per_region: clients,
            inter_owd_ms,
            file_bytes: file_mb * MB,
            rounds: 1,
            horizon: SimDuration::from_secs(300),
            trace_capacity: Some(1 << 14),
            ..MultiRegionConfig::default()
        };
        let artifacts: Vec<(String, String, String, u64)> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let run = base
                    .harness()
                    .shard_workers(w)
                    .build()
                    .and_then(|h| h.run(&MultiRegionWorkload { cfg: &base }, seed))
                    .expect("generated config is valid");
                let names = run.node_names.clone();
                let rows = breakdown_by_peer(
                    &attribute_trace(&run.trace),
                    |node| names[node.index()].to_string(),
                );
                (
                    run.trace.to_jsonl(),
                    metrics_snapshot_json(&run.metrics),
                    phase_table_csv(&rows),
                    run.events_processed,
                )
            })
            .collect();
        let (jsonl, metrics, csv, events) = &artifacts[0];
        prop_assert!(!jsonl.is_empty(), "trace must not be empty (seed {seed})");
        for (w, (j, m, c, e)) in [2usize, 4].iter().zip(&artifacts[1..]) {
            prop_assert_eq!(j, jsonl, "trace diverged at {} workers (seed {})", w, seed);
            prop_assert_eq!(m, metrics, "metrics diverged at {} workers (seed {})", w, seed);
            prop_assert_eq!(c, csv, "attribution diverged at {} workers (seed {})", w, seed);
            prop_assert_eq!(e, events, "event count diverged at {} workers (seed {})", w, seed);
        }
    }

    /// The windowed time-series artifact is worker-count invariant on
    /// arbitrary multi-region scenarios: the CSV and JSONL a recorder
    /// emits are byte-identical whether 1, 2, or 4 threads drive the
    /// shards. Sampling happens at barrier rounds, whose schedule is a
    /// pure function of shard promises — never of thread timing.
    #[test]
    fn multiregion_series_is_worker_count_invariant(
        regions in 2usize..5,
        clients in 2usize..4,
        inter_owd_ms in 20.0f64..80.0,
        seed in any::<u64>(),
    ) {
        let base = MultiRegionConfig {
            regions,
            clients_per_region: clients,
            inter_owd_ms,
            rounds: 1,
            horizon: SimDuration::from_secs(300),
            trace_capacity: None,
            ..MultiRegionConfig::default()
        };
        let harness = base.harness().series_interval(Some(SimDuration::from_secs(30)));
        let exports: Vec<(String, String)> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let run = harness
                    .clone()
                    .shard_workers(w)
                    .build()
                    .and_then(|h| h.run(&MultiRegionWorkload { cfg: &base }, seed))
                    .expect("generated config is valid");
                let series = run.series.expect("series_interval was set");
                (series.to_csv(), series.to_jsonl())
            })
            .collect();
        let (csv, jsonl) = &exports[0];
        prop_assert!(csv.lines().count() > 1, "series must have rows (seed {seed})");
        for (w, (c, j)) in [2usize, 4].iter().zip(&exports[1..]) {
            prop_assert_eq!(c, csv, "series CSV diverged at {} workers (seed {})", w, seed);
            prop_assert_eq!(j, jsonl, "series JSONL diverged at {} workers (seed {})", w, seed);
        }
    }

    /// The same invariance over random churn scenarios: population curves,
    /// swap-dynamics rates, and registry memory accounting all ride the
    /// same barrier-sampled recorder, so the whole artifact must be
    /// byte-identical at any worker count.
    #[test]
    fn churn_series_is_worker_count_invariant(
        regions in 2usize..5,
        peers in 12usize..32,
        seed in any::<u64>(),
    ) {
        use workloads::churn::{ChurnConfig, ChurnWorkload};
        use workloads::synthtopo::SynthTopoConfig;
        let base = ChurnConfig {
            topo: SynthTopoConfig {
                regions,
                peers,
                ..SynthTopoConfig::default()
            },
            num_shards: regions,
            rounds: 1,
            horizon: SimDuration::from_secs(900),
            trace_capacity: None,
            ..ChurnConfig::default()
        };
        let harness = base.harness().series_interval(Some(SimDuration::from_secs(60)));
        let exports: Vec<(String, String)> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let run = harness
                    .clone()
                    .shard_workers(w)
                    .build()
                    .and_then(|h| h.run(&ChurnWorkload { cfg: &base }, seed))
                    .expect("generated config is valid");
                let series = run.series.expect("series_interval was set");
                (series.to_csv(), series.to_jsonl())
            })
            .collect();
        let (csv, jsonl) = &exports[0];
        prop_assert!(csv.lines().count() > 1, "series must have rows (seed {seed})");
        for (w, (c, j)) in [2usize, 4].iter().zip(&exports[1..]) {
            prop_assert_eq!(c, csv, "series CSV diverged at {} workers (seed {})", w, seed);
            prop_assert_eq!(j, jsonl, "series JSONL diverged at {} workers (seed {})", w, seed);
        }
    }

    /// The streaming workload is worker-count invariant on arbitrary
    /// valid configs: the full stdout artifact (trace JSONL + metrics
    /// snapshot + summary JSON) is byte-identical whether 1, 2, or 4
    /// threads drive the shards — playback clocks and rebuffer
    /// accounting ride virtual time, never thread timing.
    #[test]
    fn streaming_artifact_is_worker_count_invariant(
        regions in 2usize..5,
        viewers in 8usize..20,
        policy_ix in 0usize..3,
        window in 1u32..6,
        seed in any::<u64>(),
    ) {
        use overlay::streaming::PiecePolicy;
        use workloads::streaming::{StreamingConfig, StreamingWorkload};
        use workloads::synthtopo::SynthTopoConfig;
        let base = StreamingConfig {
            topo: SynthTopoConfig {
                regions,
                peers: viewers,
                ..SynthTopoConfig::default()
            },
            policy: PiecePolicy::ALL[policy_ix],
            window,
            num_shards: regions,
            total_pieces: 16,
            horizon: SimDuration::from_secs(420),
            trace_capacity: Some(1 << 14),
            ..StreamingConfig::default()
        };
        let artifacts: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                base.harness()
                    .shard_workers(w)
                    .build()
                    .and_then(|h| h.run_with_artifact(&StreamingWorkload { cfg: &base }, seed))
                    .expect("generated config is valid")
                    .1
            })
            .collect();
        prop_assert!(!artifacts[0].is_empty(), "artifact must not be empty (seed {seed})");
        for (w, a) in [2usize, 4].iter().zip(&artifacts[1..]) {
            prop_assert_eq!(a, &artifacts[0], "artifact diverged at {} workers (seed {})", w, seed);
        }
    }

    /// Latency attribution partitions the timeline: under an arbitrary
    /// drop probability, every attributed transfer's five phases sum
    /// *exactly* (integer nanoseconds) to its end-to-end latency.
    #[test]
    fn attribution_phases_partition_under_loss(
        drop_p in 0.0f64..0.30,
        seed in any::<u64>(),
    ) {
        let cfg = lossy_broadcast(drop_p, "attr-prop");
        let run = run_traced(&cfg, cfg.harness(), seed).expect("one shard always runs");
        prop_assert_eq!(run.result.run.trace.dropped(), 0);
        for a in attribute_trace(&run.result.run.trace) {
            let sum: SimDuration = a.phases.iter().copied().sum();
            prop_assert_eq!(
                sum,
                a.end_to_end(),
                "phase residue on {:#x} (drop_p {}, seed {})",
                a.transfer, drop_p, seed,
            );
            for p in &a.phases {
                prop_assert!(*p <= a.end_to_end());
            }
        }
    }
}
