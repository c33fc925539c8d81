//! Property-based tests for the overlay's protocol invariants.

use netsim::time::{SimDuration, SimTime};
use overlay::filetransfer::{split_parts, FileMeta, OutboundTransfer, TransferPhase};
use overlay::id::{ContentId, IdGenerator, TransferId};
use overlay::stats::{PeerStats, QueueGauge, RatioCounter, WindowedRatio};
use proptest::prelude::*;

fn outbound(size: u64, parts: u32) -> OutboundTransfer {
    let mut g = IdGenerator::new(1);
    OutboundTransfer::new(
        TransferId::generate(&mut g),
        FileMeta {
            content: ContentId::generate(&mut g),
            name: "f".into(),
            size_bytes: size,
        },
        netsim::node::NodeId(1),
        parts,
        SimTime::ZERO,
    )
}

/// The hour window as it was before its ring became lazy: every bucket
/// allocated at construction. Kept as the oracle the lazy ring must match.
struct EagerRing {
    buckets: Vec<RatioCounter>,
    head_hour: u64,
    head: usize,
}

impl EagerRing {
    fn new(capacity_hours: usize) -> Self {
        EagerRing {
            buckets: vec![RatioCounter::default(); capacity_hours.max(1)],
            head_hour: 0,
            head: 0,
        }
    }

    fn record(&mut self, now: SimTime, success: bool) {
        let hour = now.as_nanos() / SimDuration::from_secs(3600).as_nanos();
        while self.head_hour < hour {
            self.head_hour += 1;
            self.head = (self.head + 1) % self.buckets.len();
            self.buckets[self.head] = RatioCounter::default();
        }
        self.buckets[self.head].record(success);
    }

    fn percent_last_hours(&self, now: SimTime, k: usize) -> Option<f64> {
        let now_hour = now.as_nanos() / SimDuration::from_secs(3600).as_nanos();
        let mut total = RatioCounter::default();
        for back in 0..k.min(self.buckets.len()) {
            let Some(hour) = now_hour.checked_sub(back as u64) else {
                break;
            };
            if hour > self.head_hour {
                continue;
            }
            let behind = (self.head_hour - hour) as usize;
            if behind >= self.buckets.len() {
                break;
            }
            let idx = (self.head + self.buckets.len() - behind) % self.buckets.len();
            total.merge(&self.buckets[idx]);
        }
        total.percent()
    }
}

proptest! {
    /// Part splitting conserves every byte and never emits empty parts.
    #[test]
    fn split_parts_conserves_bytes(size in 0u64..1_000_000_000, parts in 0u32..200) {
        let split = split_parts(size, parts);
        prop_assert_eq!(split.iter().sum::<u64>(), size);
        if size > 0 {
            prop_assert!(split.iter().all(|&p| p > 0));
            prop_assert!(split.len() as u64 <= size.max(1));
            prop_assert!(split.len() <= parts.max(1) as usize);
        }
    }

    /// Part sizes are balanced: max − min ≤ the remainder bound.
    #[test]
    fn split_parts_balanced(size in 1u64..1_000_000_000, parts in 1u32..100) {
        let split = split_parts(size, parts);
        let min = *split.iter().min().unwrap();
        let max = *split.iter().max().unwrap();
        prop_assert!(max - min <= parts as u64, "min {min} max {max}");
    }

    /// The stop-and-wait sender walks every part exactly once no matter how
    /// confirms are interleaved with stale/duplicate ones.
    #[test]
    fn stop_and_wait_sender_is_robust(
        size in 1u64..100_000_000,
        parts in 1u32..64,
        noise in prop::collection::vec(0u32..64, 0..32),
    ) {
        let mut t = outbound(size, parts);
        let first = t.on_petition_ack(true).expect("accepted");
        let mut sent = vec![first];
        let mut confirmed = 0u32;
        let mut noise_iter = noise.into_iter();
        while !t.is_complete() {
            // Interleave a piece of noise (stale confirm) before the real one.
            if let Some(bogus) = noise_iter.next() {
                if bogus != confirmed {
                    prop_assert_eq!(t.on_part_confirm(bogus), None);
                }
            }
            match t.on_part_confirm(confirmed) {
                Some(next) => {
                    sent.push(next);
                    confirmed += 1;
                }
                None => {
                    prop_assert!(t.is_complete());
                    break;
                }
            }
        }
        // All parts sent once, in order, conserving bytes.
        let total: u64 = sent.iter().map(|(_, s)| s).sum();
        prop_assert_eq!(total, size);
        for (i, (idx, _)) in sent.iter().enumerate() {
            prop_assert_eq!(*idx, i as u32);
        }
        prop_assert_eq!(t.phase, TransferPhase::Complete);
    }

    /// Ratio counters stay within [0, 100].
    #[test]
    fn ratio_counter_bounded(outcomes in prop::collection::vec(any::<bool>(), 0..500)) {
        let mut r = RatioCounter::default();
        for o in &outcomes {
            r.record(*o);
        }
        match r.percent() {
            None => prop_assert!(outcomes.is_empty()),
            Some(p) => prop_assert!((0.0..=100.0).contains(&p)),
        }
    }

    /// The time-weighted queue average always lies between the minimum and
    /// maximum lengths ever set.
    #[test]
    fn queue_gauge_average_bounded(lens in prop::collection::vec(0u32..50, 1..50)) {
        let mut g = QueueGauge::new(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for &l in &lens {
            g.set(t, l);
            t += SimDuration::from_secs(10);
        }
        let avg = g.average(t);
        let lo = *lens.iter().min().unwrap() as f64;
        let hi = *lens.iter().max().unwrap() as f64;
        // The initial zero-length span counts too.
        prop_assert!(avg >= 0.0 && avg <= hi, "avg {avg} not in [0, {hi}] (lo {lo})");
    }

    /// Windowed ratios never report out-of-range percentages, regardless of
    /// how events scatter across hours.
    #[test]
    fn windowed_ratio_bounded(
        events in prop::collection::vec((0u64..200_000u64, any::<bool>()), 0..200),
        k in 1usize..48,
    ) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.0);
        let mut w = WindowedRatio::new(48);
        let mut last = 0;
        for (secs, ok) in &sorted {
            w.record(SimTime::ZERO + SimDuration::from_secs(*secs), *ok);
            last = *secs;
        }
        if let Some(p) = w.percent_last_hours(SimTime::ZERO + SimDuration::from_secs(last), k) {
            prop_assert!((0.0..=100.0).contains(&p));
        }
    }

    /// The ring allocated on first record answers every query bit for bit
    /// as the ring allocated up front: queries before any record, clock
    /// steps longer than the whole window, and `k` beyond the capacity.
    #[test]
    fn windowed_ratio_matches_the_eager_ring(
        capacity in 1usize..8,
        start_hours in 0u64..5,
        ops in prop::collection::vec((any::<bool>(), 0u64..12 * 3600, any::<bool>(), 0usize..12), 0..60),
    ) {
        let mut lazy = WindowedRatio::new(capacity);
        let mut eager = EagerRing::new(capacity);
        let mut now = SimTime::ZERO + SimDuration::from_secs(start_hours * 3600);
        let mut recorded = false;
        for k in 0..12 {
            prop_assert_eq!(lazy.percent_last_hours(now, k), None);
        }
        for (record, step, ok, k) in ops {
            now += SimDuration::from_secs(step);
            if record {
                lazy.record(now, ok);
                eager.record(now, ok);
                recorded = true;
            }
            prop_assert_eq!(
                lazy.percent_last_hours(now, k).map(f64::to_bits),
                eager.percent_last_hours(now, k).map(f64::to_bits)
            );
        }
        prop_assert_eq!(lazy.heap_bytes() > 0, recorded);
        if !recorded {
            prop_assert_eq!(lazy, WindowedRatio::new(capacity));
        }
    }

    /// Snapshots never panic and every criterion is readable for arbitrary
    /// interleavings of stat events.
    #[test]
    fn snapshots_always_complete(
        msgs in prop::collection::vec(any::<bool>(), 0..50),
        offers in prop::collection::vec(any::<bool>(), 0..50),
        files in prop::collection::vec(any::<bool>(), 0..50),
    ) {
        let mut s = PeerStats::new(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for &m in &msgs {
            t += SimDuration::from_secs(30);
            s.record_message(t, m);
        }
        for &o in &offers {
            s.record_task_offer(o);
        }
        for &f in &files {
            s.record_file_send(f);
        }
        let snap = s.snapshot(t, 24);
        for c in overlay::stats::Criterion::ALL {
            if let Some(v) = snap.value(c) {
                prop_assert!(v.is_finite());
            }
        }
    }
}
