//! Unit tests for [`super`] (statistics, histograms and the metrics
//! registry), kept in a child module.

use super::*;

#[test]
fn running_stat_basic_moments() {
    let mut s = RunningStat::new();
    for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
        s.record(x);
    }
    assert_eq!(s.count(), 8);
    assert!((s.mean() - 5.0).abs() < 1e-12);
    assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    assert_eq!(s.min(), 2.0);
    assert_eq!(s.max(), 9.0);
    assert!((s.sum() - 40.0).abs() < 1e-9);
}

#[test]
fn running_stat_empty_is_zero() {
    let s = RunningStat::new();
    assert_eq!(s.mean(), 0.0);
    assert_eq!(s.std_dev(), 0.0);
    assert_eq!(s.min(), 0.0);
    assert_eq!(s.max(), 0.0);
}

#[test]
fn running_stat_ignores_non_finite() {
    let mut s = RunningStat::new();
    s.record(f64::NAN);
    s.record(f64::INFINITY);
    s.record(3.0);
    assert_eq!(s.count(), 1);
    assert_eq!(s.mean(), 3.0);
}

#[test]
fn merge_equals_sequential() {
    let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
    let mut whole = RunningStat::new();
    for &x in &xs {
        whole.record(x);
    }
    let mut a = RunningStat::new();
    let mut b = RunningStat::new();
    for &x in &xs[..37] {
        a.record(x);
    }
    for &x in &xs[37..] {
        b.record(x);
    }
    a.merge(&b);
    assert_eq!(a.count(), whole.count());
    assert!((a.mean() - whole.mean()).abs() < 1e-9);
    assert!((a.variance() - whole.variance()).abs() < 1e-9);
    assert_eq!(a.min(), whole.min());
    assert_eq!(a.max(), whole.max());
}

#[test]
fn merge_with_empty_sides() {
    let mut a = RunningStat::new();
    let mut b = RunningStat::new();
    b.record(5.0);
    a.merge(&b);
    assert_eq!(a.count(), 1);
    let empty = RunningStat::new();
    a.merge(&empty);
    assert_eq!(a.count(), 1);
}

#[test]
fn merge_tagged_namespaces_instead_of_summing() {
    let mut cell = Metrics::new();
    let events = cell.counter_id("events");
    cell.incr_id(events, 3);
    let latency = cell.stat_id("latency");
    cell.observe_id(latency, 2.0);
    let hid = cell.histogram_id("owd", 1.0, 4);
    cell.record_id(hid, 1.5);

    let mut campaign = Metrics::new();
    campaign.merge_tagged(&cell, "cell0");
    campaign.merge_tagged(&cell, "cell1");
    // Distinct tags keep cells apart where plain merge would sum them.
    assert_eq!(campaign.counter("cell0.events"), 3);
    assert_eq!(campaign.counter("cell1.events"), 3);
    assert_eq!(campaign.counter("events"), 0);
    assert_eq!(campaign.stat("cell0.latency").count(), 1);
    assert_eq!(campaign.histogram("cell1.owd").unwrap().count(), 1);
    // Re-merging the same tag accumulates, like merge does.
    campaign.merge_tagged(&cell, "cell0");
    assert_eq!(campaign.counter("cell0.events"), 6);
    assert_eq!(campaign.stat("cell0.latency").count(), 2);
}

#[test]
fn histogram_buckets_values() {
    let mut h = Histogram::new(1.0, 8);
    h.record(0.5); // below base → bucket 0
    h.record(1.5); // [1,2) → bucket 0
    h.record(3.0); // [2,4) → bucket 1
    h.record(1000.0); // off the top → last bucket
    assert_eq!(h.buckets()[0], 2);
    assert_eq!(h.buckets()[1], 1);
    assert_eq!(h.buckets()[7], 1);
    assert_eq!(h.count(), 4);
}

#[test]
fn histogram_quantiles_monotone() {
    let mut h = Histogram::new(0.001, 24);
    let mut rng = crate::rng::SimRng::new(99);
    for _ in 0..10_000 {
        h.record(rng.exponential(0.1));
    }
    let p50 = h.quantile_upper_bound(0.5);
    let p99 = h.quantile_upper_bound(0.99);
    assert!(p50 <= p99);
    assert!(p50 > 0.01 && p50 < 0.5, "p50 {p50}");
}

#[test]
fn histogram_rejects_bad_values() {
    let mut h = Histogram::new(1.0, 4);
    h.record(-1.0);
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    h.record(f64::NEG_INFINITY);
    assert_eq!(h.count(), 0);
    assert_eq!(h.rejected(), 4);
    assert_eq!(h.quantile_upper_bound(0.5), 0.0);
    h.record(2.0);
    assert_eq!(h.count(), 1, "good samples still recorded");
    assert_eq!(h.rejected(), 4);
}

#[test]
fn quantile_of_empty_histogram_is_zero() {
    let h = Histogram::new(1.0, 8);
    assert_eq!(h.quantile_upper_bound(0.0), 0.0);
    assert_eq!(h.quantile_upper_bound(0.5), 0.0);
    assert_eq!(h.quantile_upper_bound(1.0), 0.0);
}

#[test]
fn quantile_extremes_hit_first_and_last_occupied_bucket() {
    let mut h = Histogram::new(1.0, 8);
    h.record(1.5); // bucket 0, upper bound 2
    h.record(5.0); // bucket 2, upper bound 8
    h.record(40.0); // bucket 5, upper bound 64
                    // q=0 clamps to the first observation: the first occupied bucket.
    assert_eq!(h.quantile_upper_bound(0.0), 2.0);
    // q=1 must cover every observation: the last occupied bucket.
    assert_eq!(h.quantile_upper_bound(1.0), 64.0);
    // Out-of-range q is clamped, not propagated.
    assert_eq!(h.quantile_upper_bound(-3.0), 2.0);
    assert_eq!(h.quantile_upper_bound(7.0), 64.0);
}

#[test]
fn quantile_with_all_mass_in_overflow_bucket() {
    let mut h = Histogram::new(1.0, 4);
    for _ in 0..10 {
        h.record(1e9); // far off the top → last (catch-all) bucket
    }
    let top = h.bucket_upper_bound(3); // base·2^4 = 16
    assert_eq!(h.quantile_upper_bound(0.0), top);
    assert_eq!(h.quantile_upper_bound(0.5), top);
    assert_eq!(h.quantile_upper_bound(1.0), top);
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut h = Histogram::new(0.001, 24);
    let mut rng = crate::rng::SimRng::new(7);
    for _ in 0..5_000 {
        h.record(rng.exponential(0.25));
    }
    let p50 = h.quantile_upper_bound(0.50);
    let p95 = h.quantile_upper_bound(0.95);
    let p99 = h.quantile_upper_bound(0.99);
    assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
    assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
}

#[test]
fn histogram_merge_sums_buckets_and_rejections() {
    let mut a = Histogram::new(1.0, 8);
    let mut b = Histogram::new(1.0, 8);
    a.record(1.5);
    a.record(-1.0);
    b.record(3.0);
    b.record(f64::NAN);
    b.record(1000.0);
    a.merge(&b);
    assert_eq!(a.count(), 3);
    assert_eq!(a.rejected(), 2);
    assert_eq!(a.buckets()[0], 1);
    assert_eq!(a.buckets()[1], 1);
    assert_eq!(a.buckets()[7], 1);
    assert_eq!(a.stat().max(), 1000.0);
}

#[test]
#[should_panic(expected = "bucket count mismatch")]
fn histogram_merge_rejects_layout_mismatch() {
    let mut a = Histogram::new(1.0, 8);
    let b = Histogram::new(1.0, 4);
    a.merge(&b);
}

#[test]
fn metrics_counters_and_stats() {
    let mut m = Metrics::new();
    let sent = m.counter_id("sent");
    m.incr_id(sent, 3);
    m.incr_id(sent, 2);
    let latency = m.stat_id("latency");
    m.observe_id(latency, 0.5);
    m.observe_id(latency, 1.5);
    assert_eq!(m.counter("sent"), 5);
    assert_eq!(m.counter("missing"), 0);
    assert_eq!(m.stat("latency").count(), 2);
    assert!((m.stat("latency").mean() - 1.0).abs() < 1e-12);
    assert_eq!(m.counter_names().collect::<Vec<_>>(), vec!["sent"]);
    assert_eq!(m.stat_names().collect::<Vec<_>>(), vec!["latency"]);
}

/// Writes go through handles; the by-name readers see the same storage,
/// and resolving a name again yields the same handle.
#[test]
fn interned_and_string_paths_share_storage() {
    let mut m = Metrics::new();
    let id = m.counter_id("net.messages_sent");
    m.incr_id(id, 3);
    let again = m.counter_id("net.messages_sent");
    assert_eq!(again, id, "resolution is stable");
    m.incr_id(again, 2);
    assert_eq!(m.counter("net.messages_sent"), 5);
    assert_eq!(m.counter_by_id(id), 5);

    let sid = m.stat_id("lat");
    m.observe_id(sid, 1.0);
    let again = m.stat_id("lat");
    assert_eq!(again, sid, "resolution is stable");
    m.observe_id(again, 3.0);
    assert_eq!(m.stat("lat").count(), 2);
    assert!((m.stat_by_id(sid).mean() - 2.0).abs() < 1e-12);
}

#[test]
fn resolution_creates_zeroed_entries() {
    let mut m = Metrics::new();
    let id = m.counter_id("never_bumped");
    m.stat_id("never_observed");
    assert_eq!(m.counter_by_id(id), 0);
    assert_eq!(m.counter_names().collect::<Vec<_>>(), vec!["never_bumped"]);
    assert_eq!(m.stat_names().collect::<Vec<_>>(), vec!["never_observed"]);
}

#[test]
fn set_max_only_raises() {
    let mut m = Metrics::new();
    let id = m.counter_id("hwm");
    m.set_max_id(id, 5);
    m.set_max_id(id, 3);
    assert_eq!(m.counter_by_id(id), 5);
    m.set_max_id(id, 9);
    assert_eq!(m.counter_by_id(id), 9);
}

#[test]
fn render_is_independent_of_interning_order() {
    let mut a = Metrics::new();
    let zeta = a.counter_id("zeta");
    a.counter_id("alpha");
    a.incr_id(zeta, 1);
    let s2 = a.stat_id("s2");
    a.observe_id(s2, 4.0);
    let s1 = a.stat_id("s1");
    a.observe_id(s1, 2.0);

    let mut b = Metrics::new();
    b.counter_id("alpha");
    let s1 = b.stat_id("s1");
    b.observe_id(s1, 2.0);
    let zeta = b.counter_id("zeta");
    b.incr_id(zeta, 1);
    let s2 = b.stat_id("s2");
    b.observe_id(s2, 4.0);

    assert_eq!(a.render(), b.render(), "name-sorted output, not slot order");
    assert!(a
        .render()
        .starts_with("counter alpha = 0\ncounter zeta = 1\n"));
}

#[test]
fn merge_is_id_order_agnostic() {
    // Registries interned in different orders must merge by name.
    let mut a = Metrics::new();
    let x = a.counter_id("x");
    a.counter_id("y");
    a.incr_id(x, 1);

    let mut b = Metrics::new();
    let y = b.counter_id("y"); // y gets slot 0 here, x had slot 0 in `a`
    let x = b.counter_id("x");
    b.incr_id(y, 10);
    b.incr_id(x, 2);

    a.merge(&b);
    assert_eq!(a.counter("x"), 3);
    assert_eq!(a.counter("y"), 10);
}

#[test]
fn histogram_tier_interned_and_rendered() {
    let mut m = Metrics::new();
    let id = m.histogram_id("attr.wakeup_seconds", 0.001, 24);
    m.record_id(id, 27.0);
    m.record_id(id, 27.5);
    m.record_id(id, -1.0);
    assert_eq!(
        m.histogram_id("attr.wakeup_seconds", 0.001, 24),
        id,
        "resolution is stable"
    );
    let h = m.histogram("attr.wakeup_seconds").expect("registered");
    assert_eq!(h.count(), 2);
    assert_eq!(h.rejected(), 1);
    assert!(m.histogram("missing").is_none());

    let rendered = m.render();
    assert!(
        rendered.contains("hist attr.wakeup_seconds: n=2"),
        "{rendered}"
    );
    assert!(rendered.contains("rejected=1"), "{rendered}");

    // Zero rejections stay out of the human-readable render.
    let mut clean = Metrics::new();
    let cid = clean.histogram_id("h", 1.0, 4);
    clean.record_id(cid, 1.0);
    assert!(!clean.render().contains("rejected"), "{}", clean.render());
}

#[test]
#[should_panic(expected = "different base")]
fn histogram_reregistration_layout_must_match() {
    let mut m = Metrics::new();
    m.histogram_id("h", 1.0, 8);
    m.histogram_id("h", 2.0, 8);
}

#[test]
fn metrics_merge_includes_histograms() {
    let mut a = Metrics::new();
    let ida = a.histogram_id("lat", 1.0, 8);
    a.record_id(ida, 1.5);
    let mut b = Metrics::new();
    // Different interning order on purpose: merge is keyed by name.
    b.histogram_id("other", 1.0, 4);
    let idb = b.histogram_id("lat", 1.0, 8);
    b.record_id(idb, 3.0);
    a.merge(&b);
    assert_eq!(a.histogram("lat").unwrap().count(), 2);
    assert_eq!(a.histogram("other").unwrap().count(), 0);
}

#[test]
fn prometheus_exposition_shape() {
    let mut m = Metrics::new();
    let sent = m.counter_id("net.messages_sent");
    m.incr_id(sent, 5);
    let owd = m.stat_id("broker.owd_seconds");
    m.observe_id(owd, 0.25);
    m.observe_id(owd, 0.75);
    let id = m.histogram_id("attr.phase_seconds", 1.0, 3);
    m.record_id(id, 1.5);
    m.record_id(id, 100.0);
    m.record_id(id, f64::NAN);
    let text = m.render_prometheus("psim");
    let expected = "\
# TYPE psim_net_messages_sent_total counter
psim_net_messages_sent_total 5
# TYPE psim_broker_owd_seconds summary
psim_broker_owd_seconds{quantile=\"0\"} 0.25
psim_broker_owd_seconds{quantile=\"1\"} 0.75
psim_broker_owd_seconds_sum 1
psim_broker_owd_seconds_count 2
# TYPE psim_attr_phase_seconds histogram
psim_attr_phase_seconds_bucket{le=\"2\"} 1
psim_attr_phase_seconds_bucket{le=\"4\"} 1
psim_attr_phase_seconds_bucket{le=\"+Inf\"} 2
psim_attr_phase_seconds_sum 101.5
psim_attr_phase_seconds_count 2
# TYPE psim_attr_phase_seconds_rejected_total counter
psim_attr_phase_seconds_rejected_total 1
";
    assert_eq!(text, expected);
}

#[test]
fn gauge_tier_sets_merges_and_renders() {
    let mut m = Metrics::new();
    let id = m.gauge_id("registry.bytes.3");
    m.set_gauge_id(id, 1024.0);
    m.set_gauge_id(id, 2048.0);
    assert_eq!(m.gauge_by_id(id), 2048.0, "last set wins");
    let seven = m.gauge_id("registry.bytes.7");
    m.set_gauge_id(seven, 512.0);
    assert_eq!(m.gauge("registry.bytes.7"), 512.0);
    assert_eq!(m.gauge("missing"), 0.0);
    assert_eq!(m.gauge_id("registry.bytes.3"), id, "resolution is stable");

    // Disjoint names merge by summation: the shard-merge reconstruction.
    let mut other = Metrics::new();
    let five = other.gauge_id("registry.bytes.5");
    other.set_gauge_id(five, 256.0);
    let three = other.gauge_id("registry.bytes.3");
    other.set_gauge_id(three, 2.0);
    m.merge(&other);
    assert_eq!(m.gauge("registry.bytes.5"), 256.0);
    assert_eq!(m.gauge("registry.bytes.3"), 2050.0, "same name sums");

    let rendered = m.render();
    assert!(
        rendered.contains("gauge registry.bytes.3 = 2050\n"),
        "{rendered}"
    );
    let prom = m.render_prometheus("psim");
    assert!(
        prom.contains("# TYPE psim_registry_bytes_3 gauge\npsim_registry_bytes_3 2050\n"),
        "{prom}"
    );

    let mut tagged = Metrics::new();
    tagged.merge_tagged(&m, "cell0");
    assert_eq!(tagged.gauge("cell0.registry.bytes.5"), 256.0);
    assert_eq!(tagged.gauge("registry.bytes.5"), 0.0);
}

#[test]
fn metrics_merge() {
    let mut a = Metrics::new();
    let x = a.counter_id("x");
    a.incr_id(x, 1);
    let sa = a.stat_id("s");
    a.observe_id(sa, 1.0);
    let mut b = Metrics::new();
    let x = b.counter_id("x");
    b.incr_id(x, 2);
    let y = b.counter_id("y");
    b.incr_id(y, 7);
    let sb = b.stat_id("s");
    b.observe_id(sb, 3.0);
    a.merge(&b);
    assert_eq!(a.counter("x"), 3);
    assert_eq!(a.counter("y"), 7);
    assert_eq!(a.stat("s").count(), 2);
    assert!((a.stat("s").mean() - 2.0).abs() < 1e-12);
}
