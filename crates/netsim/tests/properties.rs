//! Property-based tests for the simulator's core invariants.

use netsim::event::EventQueue;
use netsim::link::{AccessLink, PathSpec};
use netsim::metrics::RunningStat;
use netsim::node::NodeSpec;
use netsim::rng::{DelayDistribution, SimRng};
use netsim::time::{SimDuration, SimTime};
use netsim::topology::Topology;
use netsim::transport::{TransferPlanner, TransportConfig};
use proptest::prelude::*;

fn two_node_topo(mbps: f64, owd_ms: f64, loss: f64) -> Topology {
    let mut t = Topology::new();
    let a = t.add_node(
        NodeSpec::responsive("a"),
        AccessLink::symmetric_mbps(mbps, loss),
    );
    let b = t.add_node(
        NodeSpec::responsive("b"),
        AccessLink::symmetric_mbps(mbps, loss),
    );
    t.set_path_symmetric(a, b, PathSpec::from_owd_ms(owd_ms, 0.0));
    t
}

proptest! {
    /// Popping the event queue always yields non-decreasing timestamps, and
    /// events with equal timestamps come out in insertion order.
    #[test]
    fn event_queue_is_a_stable_total_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated for equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Interleaved schedule / cancel-in-place / pop agree with a `Vec` kept
    /// sorted by `(time, seq)`, stale handles reach nothing, and the slab
    /// reuses slots: it never holds more of them than `peak_len`.
    #[test]
    fn event_queue_matches_a_sorted_vec_under_schedule_cancel_pop(
        ops in prop::collection::vec((0u8..4, 0u64..50, 0usize..1000), 1..300),
    ) {
        let mut q = EventQueue::new();
        // (time, seq, payload); a cancelled event's payload is `None`.
        let mut model: Vec<(SimTime, u64, Option<u64>)> = Vec::new();
        let mut issued = Vec::new();
        for (op, t, pick) in ops {
            match op {
                0 | 1 => {
                    let time = SimTime::from_nanos(t);
                    let seq = q.scheduled_total();
                    issued.push((q.schedule(time, Some(seq)), seq));
                    let at = model.partition_point(|&(mt, ms, _)| (mt, ms) < (time, seq));
                    model.insert(at, (time, seq, Some(seq)));
                }
                // Cancel through any handle ever issued, stale ones included.
                2 if !issued.is_empty() => {
                    let (handle, seq) = issued[pick % issued.len()];
                    let pending = model.iter_mut().find(|e| e.1 == seq);
                    let reached = q.get_mut(handle);
                    prop_assert_eq!(reached.is_some(), pending.is_some());
                    if let (Some(payload), Some(entry)) = (reached, pending) {
                        *payload = None;
                        entry.2 = None;
                    }
                }
                _ => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(q.pop(), want.map(|(time, _, payload)| (time, payload)));
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.first().map(|e| e.0));
            prop_assert!(q.slots() <= q.peak_len());
        }
    }

    /// Transfer-time estimates grow monotonically with message size.
    #[test]
    fn transfer_estimate_monotone_in_size(
        s1 in 1u64..500_000_000,
        s2 in 1u64..500_000_000,
        mbps in 1.0f64..1000.0,
        owd in 1.0f64..300.0,
    ) {
        let topo = two_node_topo(mbps, owd, 0.001);
        let p = TransferPlanner::new(TransportConfig::default(), topo.len());
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let a = netsim::node::NodeId(0);
        let b = netsim::node::NodeId(1);
        prop_assert!(p.estimate_uncontended(&topo, a, b, lo) <= p.estimate_uncontended(&topo, a, b, hi));
    }

    /// More bandwidth never makes a transfer slower (same everything else).
    #[test]
    fn transfer_estimate_antitone_in_bandwidth(
        size in 1_000u64..200_000_000,
        m1 in 1.0f64..500.0,
        m2 in 1.0f64..500.0,
    ) {
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        let a = netsim::node::NodeId(0);
        let b = netsim::node::NodeId(1);
        let slow = TransferPlanner::new(TransportConfig::default(), 2)
            .estimate_uncontended(&two_node_topo(lo, 50.0, 0.0), a, b, size);
        let fast = TransferPlanner::new(TransportConfig::default(), 2)
            .estimate_uncontended(&two_node_topo(hi, 50.0, 0.0), a, b, size);
        prop_assert!(fast <= slow);
    }

    /// Planning with the same seed twice gives identical timings.
    #[test]
    fn planner_is_deterministic(seed in any::<u64>(), sizes in prop::collection::vec(1u64..10_000_000, 1..20)) {
        let topo = two_node_topo(100.0, 40.0, 0.002);
        let a = netsim::node::NodeId(0);
        let b = netsim::node::NodeId(1);
        let run = |seed: u64| {
            let mut p = TransferPlanner::new(TransportConfig::default(), topo.len());
            let mut rng = SimRng::new(seed);
            sizes.iter()
                .map(|&s| p.plan(&topo, SimTime::ZERO, a, b, s, &mut rng).deliver)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// RunningStat::merge is equivalent to observing sequentially.
    #[test]
    fn running_stat_merge_matches_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 0..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = RunningStat::new();
        for &x in &xs { whole.record(x); }
        let mut a = RunningStat::new();
        let mut b = RunningStat::new();
        for &x in &xs[..split] { a.record(x); }
        for &x in &xs[split..] { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
            prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance().abs()));
        }
    }

    /// Delay distributions only ever produce finite, non-negative samples.
    #[test]
    fn delay_samples_nonnegative(
        seed in any::<u64>(),
        median in 0.0001f64..100.0,
        sigma in 0.0f64..3.0,
    ) {
        let mut rng = SimRng::new(seed);
        let d = DelayDistribution::Lognormal { median, sigma };
        for _ in 0..100 {
            let s = d.sample_secs(&mut rng);
            prop_assert!(s.is_finite() && s >= 0.0);
        }
    }

    /// Duration saturating arithmetic never panics and stays ordered.
    #[test]
    fn duration_arithmetic_total(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let sum = da + db;
        prop_assert!(sum >= da.max(db));
        let diff = da - db;
        prop_assert!(diff <= da);
    }

    /// SimRng::below(n) is always < n.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }
}
