//! Attribution-layer benches: what the latency-attribution pass costs on
//! top of a traced run, split into trace replay (pure decomposition) and
//! the full pipeline (run + attribute + aggregate + export).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::node::NodeId;
use std::time::Duration;
use workloads::attribution::{
    aggregate_metrics, attribute_trace, breakdown_by_peer, phase_table_csv,
};
use workloads::runner::run_traced;
use workloads::scenario::ScenarioConfig;

/// Pure decomposition cost: replay a captured trace through
/// `attribute_trace` without re-running the simulation.
fn bench_attribute_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("attribution/decompose");
    group.measurement_time(Duration::from_secs(5));
    for name in ["fig2", "fig234", "fig5-lossy"] {
        let cfg = ScenarioConfig::named(name).expect("known scenario");
        let run = run_traced(&cfg, 1).expect("one shard always runs");
        assert_eq!(run.result.run.trace.dropped(), 0);
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &run.result.run.trace,
            |b, trace| {
                b.iter(|| attribute_trace(trace).len());
            },
        );
    }
    group.finish();
}

/// End-to-end exposition cost: breakdown + metrics aggregation + both
/// export formats, from an already-attributed transfer set.
fn bench_exposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("attribution/export");
    group.measurement_time(Duration::from_secs(5));
    let cfg = ScenarioConfig::named("fig5").expect("known scenario");
    let run = run_traced(&cfg, 1).expect("one shard always runs");
    let attrs = attribute_trace(&run.result.run.trace);
    let label = |node: NodeId| format!("n{}", node.0);
    group.bench_function("csv", |b| {
        b.iter(|| phase_table_csv(&breakdown_by_peer(&attrs, &label)).len());
    });
    group.bench_function("prometheus", |b| {
        b.iter(|| {
            aggregate_metrics(&attrs, &label)
                .render_prometheus("psim")
                .len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_attribute_trace, bench_exposition);
criterion_main!(benches);
