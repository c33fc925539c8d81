//! Ablation benches for the design choices DESIGN.md calls out: transport
//! model knobs, selection models, and transfer granularity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::time::SimDuration;
use netsim::transport::TransportConfig;
use overlay::broker::{BrokerCommand, TargetSpec};
use overlay::selector::{PeerSelector, RandomSelector};
use peer_selection::prelude::*;
use std::time::Duration;
use workloads::scenario::{run_scenario, ScenarioConfig, SelectorFactory};
use workloads::spec::MB;

fn blind_transfer_cfg(transport: TransportConfig) -> ScenarioConfig {
    ScenarioConfig::builder()
        .transport(transport)
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 20 * MB,
                num_parts: 20,
                label: "ablate".into(),
            },
        )
        .build()
        .expect("valid scenario")
}

fn mean_transfer_secs(cfg: &ScenarioConfig, seed: u64) -> f64 {
    let r = run_scenario(cfg, seed);
    let ts: Vec<f64> = r
        .run
        .log
        .transfers
        .iter()
        .filter_map(|t| t.total_secs())
        .collect();
    ts.iter().sum::<f64>() / ts.len().max(1) as f64
}

/// Transport-model ablation: how each penalty shapes transfer time.
fn ablation_transport(c: &mut Criterion) {
    let variants: Vec<(&str, TransportConfig)> = vec![
        ("full", TransportConfig::default()),
        (
            "no_tcp_bound",
            TransportConfig {
                enable_tcp_bound: false,
                ..TransportConfig::default()
            },
        ),
        (
            "no_slow_start",
            TransportConfig {
                enable_slow_start: false,
                ..TransportConfig::default()
            },
        ),
        (
            "no_large_msg_penalty",
            TransportConfig {
                enable_large_msg_penalty: false,
                ..TransportConfig::default()
            },
        ),
        ("ideal", TransportConfig::ideal()),
    ];
    // Print the ablation table once: the headline effect sizes.
    println!("== Ablation: transport model knobs (mean blind 20 MB transfer) ==");
    for (name, t) in &variants {
        let secs = mean_transfer_secs(&blind_transfer_cfg(t.clone()), 1);
        println!("  {name:<22} {secs:>8.2} s");
    }
    let mut g = c.benchmark_group("ablation_transport");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for (name, t) in variants {
        let cfg = blind_transfer_cfg(t);
        let mut seed = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                seed += 1;
                mean_transfer_secs(cfg, seed)
            })
        });
    }
    g.finish();
}

fn selected_transfer_cfg(factory: SelectorFactory) -> ScenarioConfig {
    ScenarioConfig::measurement_setup()
        .at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 4 * MB,
                num_parts: 4,
                label: "warmup".into(),
            },
        )
        .at(
            SimDuration::from_secs(400),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: 10 * MB,
                num_parts: 10,
                label: "measured".into(),
            },
        )
        .with_selector(factory)
}

/// Selection-model sweep including the bandit extensions.
fn ablation_selection_models(c: &mut Criterion) {
    #[allow(clippy::type_complexity)]
    let factories: Vec<(&str, fn() -> SelectorFactory)> = vec![
        ("economic", || {
            Box::new(|_| -> Box<dyn PeerSelector> { Box::new(Scored::new(EconomicModel::new())) })
        }),
        ("evaluator", || {
            Box::new(|_| -> Box<dyn PeerSelector> {
                Box::new(Scored::new(DataEvaluatorModel::same_priority()))
            })
        }),
        ("quick_peer", || {
            Box::new(|_| -> Box<dyn PeerSelector> {
                Box::new(Scored::new(UserPreferenceModel::quick_peer()))
            })
        }),
        ("ucb1", || {
            Box::new(|_| -> Box<dyn PeerSelector> {
                Box::new(Ucb1Selector::new(std::f64::consts::SQRT_2, 2e6))
            })
        }),
        ("random", || {
            Box::new(|seed| -> Box<dyn PeerSelector> { Box::new(RandomSelector::new(seed)) })
        }),
    ];
    println!("== Ablation: selected 10 MB transfer time by model ==");
    for (name, mk) in &factories {
        let cfg = selected_transfer_cfg(mk());
        let r = run_scenario(&cfg, 1);
        let secs = r
            .run
            .log
            .transfers
            .iter()
            .find(|t| t.label == "measured")
            .and_then(|t| t.total_secs())
            .unwrap_or(f64::NAN);
        println!("  {name:<12} {secs:>8.2} s");
    }
    let mut g = c.benchmark_group("ablation_selection");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for (name, mk) in factories {
        let mut seed = 0u64;
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                seed += 1;
                let cfg = selected_transfer_cfg(mk());
                run_scenario(&cfg, seed).run.elapsed.as_nanos()
            })
        });
    }
    g.finish();
}

/// Granularity sweep beyond the paper's {1, 4, 16}.
fn ablation_granularity(c: &mut Criterion) {
    println!("== Ablation: 100 MB transfer time vs part count (SC4) ==");
    for parts in [1u32, 2, 4, 8, 16, 32, 64] {
        let cfg = ScenarioConfig::measurement_setup().at(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::Node(netsim::node::NodeId(4)),
                size_bytes: 100 * MB,
                num_parts: parts,
                label: "gran".into(),
            },
        );
        let r = run_scenario(&cfg, 1);
        let secs = r.run.log.transfers[0].total_secs().unwrap_or(f64::NAN);
        println!("  {parts:>3} parts  {:>8.2} min", secs / 60.0);
    }
    let mut g = c.benchmark_group("ablation_granularity");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for parts in [1u32, 16, 64] {
        let mut seed = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &parts| {
            b.iter(|| {
                seed += 1;
                let cfg = ScenarioConfig::measurement_setup().at(
                    SimDuration::from_secs(60),
                    BrokerCommand::DistributeFile {
                        target: TargetSpec::Node(netsim::node::NodeId(4)),
                        size_bytes: 100 * MB,
                        num_parts: parts,
                        label: "gran".into(),
                    },
                );
                run_scenario(&cfg, seed).run.elapsed.as_nanos()
            })
        });
    }
    g.finish();
}

/// Receiver-discipline ablation: FIFO vs processor-sharing under the Fig 6
/// contention scenario — shows the quick-peer contention penalty is a
/// property of sharing a bottleneck, not of the queueing discipline.
fn ablation_receiver_discipline(c: &mut Criterion) {
    use netsim::transport::ReceiverDiscipline;
    println!("== Ablation: receiver discipline (two concurrent 10 MB transfers to SC4) ==");
    for (name, discipline) in [
        ("fifo", ReceiverDiscipline::Fifo),
        ("processor_sharing", ReceiverDiscipline::ProcessorSharing),
    ] {
        let cfg = ScenarioConfig::builder()
            .transport(TransportConfig {
                receiver_discipline: discipline,
                ..TransportConfig::default()
            })
            .at(
                SimDuration::from_secs(60),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Node(netsim::node::NodeId(4)),
                    size_bytes: 10 * MB,
                    num_parts: 10,
                    label: "first".into(),
                },
            )
            .at(
                SimDuration::from_secs(61),
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Node(netsim::node::NodeId(4)),
                    size_bytes: 10 * MB,
                    num_parts: 10,
                    label: "second".into(),
                },
            )
            .build()
            .expect("valid scenario");
        let r = run_scenario(&cfg, 1);
        let secs = |label: &str| {
            r.run
                .log
                .transfers
                .iter()
                .find(|t| t.label == label)
                .and_then(|t| t.total_secs())
                .unwrap_or(f64::NAN)
        };
        println!(
            "  {name:<18} first {:>6.2} s, second {:>6.2} s",
            secs("first"),
            secs("second")
        );
    }
    let mut g = c.benchmark_group("ablation_receiver_discipline");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(6));
    for (name, discipline) in [
        ("fifo", ReceiverDiscipline::Fifo),
        ("processor_sharing", ReceiverDiscipline::ProcessorSharing),
    ] {
        let mut seed = 0u64;
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                seed += 1;
                let cfg = blind_transfer_cfg(TransportConfig {
                    receiver_discipline: discipline,
                    ..TransportConfig::default()
                });
                mean_transfer_secs(&cfg, seed)
            })
        });
    }
    g.finish();
}

/// Stats-window ablation: the "last k hours" criterion with different k.
/// With stationary peers the window barely matters; the bench quantifies
/// that design insensitivity.
fn ablation_history_window(c: &mut Criterion) {
    use overlay::stats::{PeerStats, WindowedRatio};
    let mut g = c.benchmark_group("ablation_history_window");
    for k in [1usize, 6, 24, 48] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            // Pre-populate 48 hours of message history, then time snapshots.
            let mut stats = PeerStats::new(netsim::time::SimTime::ZERO, 1.0);
            let mut rng = rand::rngs::mock::StepRng::new(1, 7);
            use rand::RngCore;
            for h in 0..48u64 {
                for m in 0..20u64 {
                    let t = netsim::time::SimTime::ZERO
                        + netsim::time::SimDuration::from_secs(h * 3600 + m * 60);
                    stats.record_message(t, !rng.next_u32().is_multiple_of(10));
                }
            }
            let now = netsim::time::SimTime::ZERO + netsim::time::SimDuration::from_secs(48 * 3600);
            b.iter(|| stats.snapshot(now, k).msg_success_last_k)
        });
    }
    // Window arithmetic microbench.
    g.bench_function("windowed_record_and_query", |b| {
        b.iter(|| {
            let mut w = WindowedRatio::new(48);
            for i in 0..1000u64 {
                let t = netsim::time::SimTime::ZERO + netsim::time::SimDuration::from_secs(i * 180);
                w.record(t, i % 7 != 0);
            }
            w.percent_last_hours(
                netsim::time::SimTime::ZERO + netsim::time::SimDuration::from_secs(180_000),
                24,
            )
        })
    });
    g.finish();
}

criterion_group!(
    ablations,
    ablation_transport,
    ablation_selection_models,
    ablation_granularity,
    ablation_receiver_discipline,
    ablation_history_window
);
criterion_main!(ablations);
