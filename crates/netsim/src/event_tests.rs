//! Unit tests for [`super`] (the event queue), kept in a child module.

use std::collections::BTreeMap;

use super::*;
use crate::rng::SimRng;
use crate::time::SimDuration;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.schedule(t(3), "c");
    q.schedule(t(1), "a");
    q.schedule(t(2), "b");
    assert_eq!(q.pop(), Some((t(1), "a")));
    assert_eq!(q.pop(), Some((t(2), "b")));
    assert_eq!(q.pop(), Some((t(3), "c")));
    assert_eq!(q.pop(), None);
}

#[test]
fn equal_times_fire_fifo() {
    let mut q = EventQueue::new();
    for i in 0..100 {
        q.schedule(t(5), i);
    }
    for i in 0..100 {
        assert_eq!(q.pop(), Some((t(5), i)));
    }
}

#[test]
fn interleaved_schedule_and_pop_keeps_order() {
    let mut q = EventQueue::new();
    q.schedule(t(10), "late");
    q.schedule(t(1), "first");
    assert_eq!(q.pop().unwrap().1, "first");
    q.schedule(t(5), "mid");
    assert_eq!(q.pop().unwrap().1, "mid");
    assert_eq!(q.pop().unwrap().1, "late");
}

#[test]
fn peek_does_not_remove() {
    let mut q = EventQueue::new();
    q.schedule(t(2), ());
    assert_eq!(q.peek_time(), Some(t(2)));
    assert_eq!(q.len(), 1);
    assert!(!q.is_empty());
}

#[test]
fn counters_and_clear() {
    let mut q = EventQueue::new();
    q.schedule(t(1), 1);
    q.schedule(t(2), 2);
    assert_eq!(q.scheduled_total(), 2);
    q.clear();
    assert!(q.is_empty());
    assert_eq!(q.scheduled_total(), 2, "total is monotone, not reset");
}

#[test]
fn clear_preserves_lifetime_counters_and_queue_still_works() {
    let mut q = EventQueue::new();
    for i in 0..5 {
        q.schedule(t(i), i);
    }
    q.pop();
    q.clear();
    assert_eq!(q.scheduled_total(), 5);
    assert_eq!(q.peak_len(), 5);
    // Scheduling after clear keeps counting from where it left off.
    q.schedule(t(9), 9);
    assert_eq!(q.scheduled_total(), 6);
    assert_eq!(q.peak_len(), 5, "peak not beaten by a single event");
    assert_eq!(q.pop(), Some((t(9), 9)));
}

#[test]
fn peak_len_tracks_maximum_occupancy() {
    let mut q = EventQueue::new();
    assert_eq!(q.peak_len(), 0);
    q.schedule(t(1), 1);
    q.schedule(t(2), 2);
    q.schedule(t(3), 3);
    assert_eq!(q.peak_len(), 3);
    q.pop();
    q.pop();
    assert_eq!(q.peak_len(), 3, "peak is monotone");
    q.schedule(t(4), 4);
    assert_eq!(q.peak_len(), 3, "occupancy 2 does not beat peak 3");
    q.schedule(t(5), 5);
    q.schedule(t(6), 6);
    assert_eq!(q.peak_len(), 4, "new maximum recorded");
}

#[test]
fn handle_reaches_the_payload_only_while_the_event_is_pending() {
    let mut q = EventQueue::new();
    let a = q.schedule(t(1), "a");
    let b = q.schedule(t(2), "b");
    *q.get_mut(b).expect("b is pending") = "B";
    assert_eq!(q.pop_with_handle(), Some((t(1), a, "a")));
    assert_eq!(q.get_mut(a), None, "a has popped");
    // c takes over a's slot; a's handle must not reach it.
    let c = q.schedule(t(3), "c");
    assert_eq!((q.slots(), slot_of(c.0)), (2, slot_of(a.0)));
    assert_eq!(q.get_mut(a), None);
    assert_eq!(q.get_mut(c), Some(&mut "c"));
    // Forged handles: a sequence number never issued, a slot never allocated.
    assert_eq!(q.get_mut(EventHandle(pack(99, slot_of(c.0)))), None);
    assert_eq!(q.get_mut(EventHandle(pack(2, 99))), None);
    assert_eq!(q.pop(), Some((t(2), "B")));
    q.clear();
    assert_eq!((q.slots(), q.get_mut(c)), (0, None));
    let d = q.schedule(t(4), "d");
    assert_eq!(slot_of(d.0), slot_of(c.0));
    assert_eq!(q.get_mut(c), None, "sequence numbers survive clear");
}

#[test]
fn zero_time_events_allowed() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::ZERO, "boot");
    assert_eq!(q.pop(), Some((SimTime::ZERO, "boot")));
}

#[test]
fn a_key_is_sixteen_bytes() {
    assert_eq!(std::mem::size_of::<Key>(), 16);
}

#[test]
fn packing_round_trips_at_the_largest_slot_and_sequence_number() {
    let order = pack(MAX_SEQ - 1, MAX_SLOTS - 1);
    assert_eq!(order, u64::MAX);
    assert_eq!(slot_of(order), MAX_SLOTS - 1);
    assert_eq!(order >> SLOT_BITS, MAX_SEQ - 1);
    // The sequence number orders keys; the slot never does.
    assert!(pack(1, 0) > pack(0, MAX_SLOTS - 1));
}

#[test]
#[should_panic(expected = "more than 2^26 events pending")]
fn one_slot_past_the_limit_panics() {
    pack(0, MAX_SLOTS);
}

#[test]
#[should_panic(expected = "more than 2^38 events scheduled")]
fn one_sequence_number_past_the_limit_panics() {
    pack(MAX_SEQ, 0);
}

#[test]
#[should_panic(expected = "more than 2^38 events scheduled")]
fn a_queue_refuses_its_2_pow_38th_event() {
    let mut q = EventQueue::new();
    q.scheduled_total = MAX_SEQ - 1;
    q.schedule(t(1), "last");
    q.schedule(t(1), "one too many");
}

/// A queue and its reference: an ordered map from `(time, seq)` to the
/// payload, which is `None` once cancelled through its handle.
struct Differential {
    queue: EventQueue<Option<u64>>,
    model: BTreeMap<(SimTime, u64), Option<u64>>,
    /// Every handle ever issued, with its time, indexed by sequence number.
    issued: Vec<(EventHandle, SimTime)>,
    now: SimTime,
}

impl Differential {
    fn schedule(&mut self, time: SimTime) {
        let seq = self.issued.len() as u64;
        let handle = self.queue.schedule(time, Some(seq));
        self.model.insert((time, seq), Some(seq));
        self.issued.push((handle, time));
    }

    fn pop(&mut self) {
        let ((time, seq), payload) = self.model.pop_first().expect("model non-empty");
        let (handle, _) = self.issued[seq as usize];
        assert_eq!(self.queue.pop_with_handle(), Some((time, handle, payload)));
        self.now = time;
    }
}

#[test]
fn a_deep_queue_matches_an_ordered_map_model() {
    // Depth between 20k and 30k keeps the 4-ary heap eight levels deep;
    // times are drawn from 64 values a millisecond apart, so thousands of
    // keys tie on time and only the sequence number orders them.
    let mut rng = SimRng::new(0xDEE9_0E0E);
    let mut d = Differential {
        queue: EventQueue::new(),
        model: BTreeMap::new(),
        issued: Vec::new(),
        now: SimTime::ZERO,
    };
    let (mut ops, mut cancels, mut stale_cancels) = (0u64, 0u64, 0u64);
    while d.queue.len() < 25_000 {
        d.schedule(d.now + SimDuration::from_millis(rng.below(64)));
        ops += 1;
    }
    for _ in 0..150_000 {
        let roll = rng.below(10);
        let depth = d.queue.len();
        if depth <= 20_000 || (roll < 4 && depth < 30_000) {
            d.schedule(d.now + SimDuration::from_millis(rng.below(64)));
        } else if roll < 8 {
            d.pop();
        } else {
            // Any handle ever issued: most have popped, and their slots
            // have been taken over since.
            let seq = rng.below(d.issued.len() as u64);
            let (handle, time) = d.issued[seq as usize];
            let live = d.model.get_mut(&(time, seq));
            match (d.queue.get_mut(handle), live) {
                (Some(payload), Some(modelled)) => {
                    assert_eq!(*payload, *modelled, "seq {seq}");
                    *payload = None;
                    *modelled = None;
                    cancels += 1;
                }
                (None, None) => stale_cancels += 1,
                (got, want) => panic!("seq {seq}: queue {got:?}, model {want:?}"),
            }
        }
        ops += 1;
        assert_eq!(d.queue.len(), d.model.len());
        assert!(d.queue.len() >= 20_000);
        let head = d.model.first_key_value().map(|(key, _)| key.0);
        assert_eq!(d.queue.peek_time(), head);
    }
    while !d.model.is_empty() {
        d.pop();
        ops += 1;
    }
    assert_eq!(d.queue.pop(), None);
    assert!(ops >= 100_000, "{ops} operations");
    assert!(
        cancels > 1_000 && stale_cancels > 1_000,
        "{cancels} / {stale_cancels}"
    );
    assert!(d.queue.slots() <= d.queue.peak_len() && d.queue.peak_len() <= 30_000);
}
