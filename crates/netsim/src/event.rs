//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is assigned
//! at insertion, so two events scheduled for the same instant fire in
//! insertion order (FIFO). This tie-breaking rule is what makes the engine
//! deterministic — `BinaryHeap` alone gives an arbitrary order for equal
//! keys, which would leak nondeterminism into every simultaneous delivery.
//!
//! The heap holds 24-byte keys only; payloads sit still in a slab, so the
//! cost of a push or pop does not depend on what the event carries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Heap entry: `(time, seq, slot)`. `seq` is unique, so `slot` never decides
/// an order; `Reverse` makes the max-heap pop the *earliest* `(time, seq)`.
type Key = Reverse<(SimTime, u64, u32)>;

/// One slab cell. The free list runs through the vacant cells.
enum Slot<E> {
    Occupied { seq: u64, payload: E },
    Vacant { next_free: Option<u32> },
}

/// Names one scheduled event: its slab slot and its sequence number.
/// Sequence numbers are never reused, so a handle goes stale for good once
/// its event pops, even after a later event takes over the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// A deterministic min-priority queue of timestamped events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    slab: Vec<Slot<E>>,
    free_head: Option<u32>,
    /// Events ever scheduled; doubles as the next sequence number.
    scheduled_total: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free_head: None,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Events at equal times fire in
    /// the order they were scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        let cell = Slot::Occupied { seq, payload };
        let slot = match self.free_head {
            Some(slot) => {
                match std::mem::replace(&mut self.slab[slot as usize], cell) {
                    Slot::Vacant { next_free } => self.free_head = next_free,
                    Slot::Occupied { .. } => unreachable!("the free list names vacant slots only"),
                }
                slot
            }
            None => {
                self.slab.push(cell);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
        self.peak_len = self.peak_len.max(self.heap.len());
        EventHandle { slot, seq }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_handle()
            .map(|(time, _, payload)| (time, payload))
    }

    /// [`EventQueue::pop`], also returning the handle `schedule` gave the
    /// event.
    pub fn pop_with_handle(&mut self) -> Option<(SimTime, EventHandle, E)> {
        let Reverse((time, seq, slot)) = self.heap.pop()?;
        let next_free = self.free_head.replace(slot);
        match std::mem::replace(&mut self.slab[slot as usize], Slot::Vacant { next_free }) {
            Slot::Occupied { payload, .. } => Some((time, EventHandle { slot, seq }, payload)),
            Slot::Vacant { .. } => unreachable!("a heap key names an occupied slot"),
        }
    }

    /// The payload of a still-pending event, to be edited where it sits
    /// (its firing time and order are fixed). `None` once the event has
    /// popped, whatever has reused its slot since.
    pub fn get_mut(&mut self, handle: EventHandle) -> Option<&mut E> {
        match self.slab.get_mut(handle.slot as usize) {
            Some(Slot::Occupied { seq, payload }) if *seq == handle.seq => Some(payload),
            _ => None,
        }
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|key| key.0 .0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (a cheap progress/health metric).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Largest number of events that were ever pending at once. Like
    /// [`EventQueue::scheduled_total`], monotone over the queue's lifetime
    /// and not reset by [`EventQueue::clear`].
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Payload slots allocated, vacant ones included. Slots are reused, so
    /// this never exceeds [`EventQueue::peak_len`].
    pub fn slots(&self) -> usize {
        self.slab.len()
    }

    /// Drops all pending events. Lifetime counters
    /// ([`EventQueue::scheduled_total`], [`EventQueue::peak_len`]) are
    /// preserved, so handles issued before the call stay stale.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free_head = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!((q.slots(), c.slot), (2, a.slot));
        assert_eq!(q.get_mut(a), None);
        assert_eq!(q.get_mut(c), Some(&mut "c"));
        // Forged handles: a sequence number never issued, a slot never allocated.
        assert_eq!(q.get_mut(EventHandle { seq: 99, ..c }), None);
        assert_eq!(q.get_mut(EventHandle { slot: 99, ..c }), None);
        assert_eq!(q.pop(), Some((t(2), "B")));
        q.clear();
        assert_eq!((q.slots(), q.get_mut(c)), (0, None));
        let d = q.schedule(t(4), "d");
        assert_eq!(d.slot, c.slot);
        assert_eq!(q.get_mut(c), None, "sequence numbers survive clear");
    }

    #[test]
    fn zero_time_events_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, "boot");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "boot")));
    }
}
