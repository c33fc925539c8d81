//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is assigned
//! at insertion, so two events scheduled for the same instant fire in
//! insertion order (FIFO). This tie-breaking rule is what makes the engine
//! deterministic — a heap alone gives an arbitrary order for equal keys,
//! which would leak nondeterminism into every simultaneous delivery.
//!
//! The 4-ary heap holds 16-byte keys only: the time, and one word packing
//! the sequence number above the payload's slab slot. Payloads sit still in the
//! slab, so the cost of a push or pop does not depend on what the event
//! carries, and the sequence numbers that validate handles sit in a column
//! of their own rather than widening every payload cell.

use crate::time::SimTime;

/// Bits of a key's order word that name the slab slot: at most 2^26
/// events pending on one queue.
const SLOT_BITS: u32 = 26;
/// Slots a queue may hold at once.
const MAX_SLOTS: usize = 1 << SLOT_BITS;
/// Sequence numbers a queue may issue in its lifetime: 2^38.
const MAX_SEQ: u64 = 1 << (u64::BITS - SLOT_BITS);
const SLOT_MASK: u64 = MAX_SLOTS as u64 - 1;
const _: () = assert!(
    MAX_SLOTS >= 1 << 26 && MAX_SEQ >= 1 << 38,
    "the documented limits"
);
/// A vacant slot's free-list link when it is the last vacant slot.
const NO_SLOT: u64 = u64::MAX;

/// `seq` above `slot`: ordering by this word orders by `seq`, because
/// sequence numbers are unique, and the slot is its low bits.
fn pack(seq: u64, slot: usize) -> u64 {
    assert!(
        slot < MAX_SLOTS,
        "more than 2^26 events pending on one queue"
    );
    assert!(
        seq < MAX_SEQ,
        "more than 2^38 events scheduled on one queue"
    );
    (seq << SLOT_BITS) | slot as u64
}

fn slot_of(order: u64) -> usize {
    (order & SLOT_MASK) as usize
}

/// Heap entry: the time in the high word and the order word below it, so
/// one integer comparison orders by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(time: SimTime, order: u64) -> Self {
        Key((u128::from(time.as_nanos()) << 64) | u128::from(order))
    }

    fn time(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }

    fn order(self) -> u64 {
        self.0 as u64
    }
}

/// A 4-ary min-heap of keys: half the levels of a binary heap, and a
/// node's four children are 64 adjacent bytes.
#[derive(Default)]
struct QuadHeap {
    keys: Vec<Key>,
}

impl QuadHeap {
    fn push(&mut self, key: Key) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1, key);
    }

    /// Floyd's pop: the hole left by the root sinks along the smaller
    /// children to a leaf, and the last key fills it from below. A key
    /// taken from the bottom nearly always belongs near the bottom, so
    /// this skips the comparisons a top-down sift would spend on it.
    fn pop(&mut self) -> Option<Key> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            return Some(last);
        };
        let keys = &mut self.keys[..];
        let mut hole = 0;
        loop {
            let first = 4 * hole + 1;
            let best = if let Some(c) = keys.get(first..first + 4) {
                let (i, low) = if c[1] < c[0] { (1, c[1]) } else { (0, c[0]) };
                let (j, high) = if c[3] < c[2] { (3, c[3]) } else { (2, c[2]) };
                first + if high < low { j } else { i }
            } else if first < keys.len() {
                (first..keys.len())
                    .min_by_key(|&c| keys[c])
                    .expect("a child")
            } else {
                break;
            };
            keys[hole] = keys[best];
            hole = best;
        }
        self.sift_up(hole, last);
        Some(top)
    }

    /// Moves the hole at `i` up past every parent greater than `key`, then
    /// stores `key` there.
    fn sift_up(&mut self, mut i: usize, key: Key) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if key >= self.keys[parent] {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    fn peek(&self) -> Option<Key> {
        self.keys.first().copied()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Names one scheduled event: its sequence number and slab slot, packed
/// as in its heap key. Sequence numbers are never reused, so a handle goes
/// stale for good once its event pops, even after a later event takes
/// over the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

/// A deterministic min-priority queue of timestamped events.
pub struct EventQueue<E> {
    heap: QuadHeap,
    /// The payload of each slot; `None` while the slot is vacant.
    cells: Vec<Option<E>>,
    /// Per slot: the order word of the event it holds, or, while vacant,
    /// the next vacant slot (`NO_SLOT` at the end of the free list).
    tags: Vec<u64>,
    free_head: u64,
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
    /// Host bytes one pending event occupies: its heap key, its payload
    /// cell and its tag.
    #[cfg(test)]
    pub(crate) const BYTES_PER_PENDING: usize =
        size_of::<Key>() + size_of::<Option<E>>() + size_of::<u64>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: QuadHeap::default(),
            cells: Vec::new(),
            tags: Vec::new(),
            free_head: NO_SLOT,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Events at equal times fire in
    /// the order they were scheduled.
    ///
    /// # Panics
    ///
    /// When 2^26 events are already pending, or 2^38 have been scheduled
    /// over the queue's lifetime.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.scheduled_total;
        let slot = if self.free_head == NO_SLOT {
            self.cells.len()
        } else {
            self.free_head as usize
        };
        let order = pack(seq, slot);
        self.scheduled_total += 1;
        if slot == self.cells.len() {
            self.cells.push(Some(payload));
            self.tags.push(order);
        } else {
            self.free_head = std::mem::replace(&mut self.tags[slot], order);
            self.cells[slot] = Some(payload);
        }
        self.heap.push(Key::new(time, order));
        self.peak_len = self.peak_len.max(self.heap.len());
        EventHandle(order)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_handle()
            .map(|(time, _, payload)| (time, payload))
    }

    /// [`EventQueue::pop`], also returning the handle `schedule` gave the
    /// event.
    pub fn pop_with_handle(&mut self) -> Option<(SimTime, EventHandle, E)> {
        let key = self.heap.pop()?;
        let (time, order) = (key.time(), key.order());
        let slot = slot_of(order);
        let payload = self.cells[slot]
            .take()
            .expect("a heap key names an occupied slot");
        self.tags[slot] = std::mem::replace(&mut self.free_head, slot as u64);
        Some((time, EventHandle(order), payload))
    }

    /// The payload of a still-pending event, to be edited where it sits
    /// (its firing time and order are fixed). `None` once the event has
    /// popped, whatever has reused its slot since.
    pub fn get_mut(&mut self, handle: EventHandle) -> Option<&mut E> {
        let slot = slot_of(handle.0);
        if self.tags.get(slot) != Some(&handle.0) {
            return None;
        }
        self.cells[slot].as_mut()
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Key::time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress/health metric).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Largest number of events that were ever stored at once. Like
    /// [`EventQueue::scheduled_total`], monotone over the queue's lifetime
    /// and not reset by [`EventQueue::clear`].
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Payload slots allocated, vacant ones included. Slots are reused, so
    /// this never exceeds [`EventQueue::peak_len`].
    pub fn slots(&self) -> usize {
        self.cells.len()
    }

    /// Drops all pending events. Lifetime counters
    /// ([`EventQueue::scheduled_total`], [`EventQueue::peak_len`]) are
    /// preserved, so handles issued before the call stay stale.
    pub fn clear(&mut self) {
        self.heap.keys.clear();
        self.cells.clear();
        self.tags.clear();
        self.free_head = NO_SLOT;
    }
}

#[cfg(test)]
#[path = "event_tests.rs"]
mod tests;
