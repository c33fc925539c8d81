//! The reference kernel: how fast is this host right now?
//!
//! The sandboxes this benchmark runs in share their host. Measured over
//! twenty-five minutes, the same `engine-mesh` repetition took between
//! 3.7 s and 11.2 s, in phases lasting from seconds to minutes, and no
//! number of repetitions inside a twenty-second run averages a
//! minutes-long phase away: medians of four consecutive repetitions
//! spread 25 % between their quartiles, wider than any regression bound
//! the benchmark may set.
//!
//! So every timed repetition is bracketed by two readings of a fixed
//! kernel, and the end-to-end times are reported scaled to a nominal host
//! speed: `seconds × NOMINAL_S / reference seconds around the repetition`.
//! On the same twenty-five minutes that brought the spread of
//! `engine-mesh` from 25 % to 9 % and of `failover-20k` from 19 % to 6 %.
//! It is ROADMAP item 1's "calibration score" applied per repetition
//! instead of per host.
//!
//! The kernel is a miniature event loop — a binary heap at depth 8192,
//! random reads and writes over 4 MiB of node state, a hash set that
//! grows and shrinks, an xorshift generator and a few floating-point
//! operations per step — because a dependent integer chain (the
//! `host.calib_ns` rung) does not feel a busy sibling hyperthread or a
//! thrashed cache at all, and those are what slow the simulator down. It
//! shares no code with the program, so no change to the program can move
//! it; it uses only `std` collections, so a toolchain change moves it and
//! the program alike.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Seconds one slice takes in the measuring process on the host the
/// committed numbers were sized on, in a quiet phase. Only a scale: it
/// turns the ratio to the reference back into seconds of the magnitude a
/// user would see.
pub const NOMINAL_S: f64 = 0.073;

const HEAP_DEPTH: u32 = 8192;
const STATE_NODES: usize = 1 << 16;
const PENDING_CAP: usize = 4096;
const SLICE_STEPS: u64 = 600_000;
/// Slices per reading; the reading is their median.
const SLICES: usize = 5;

pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    state: Vec<[u64; 8]>,
    pending: HashSet<u64>,
    rng: u64,
    seq: u64,
}

impl Reference {
    /// Allocates the kernel's state and runs one slice to fault it in.
    pub fn new() -> Reference {
        let mut kernel = Reference {
            heap: BinaryHeap::new(),
            state: vec![[0; 8]; STATE_NODES],
            pending: HashSet::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            seq: 0,
        };
        for node in 0..HEAP_DEPTH {
            let time = kernel.next() >> 24;
            kernel.seq += 1;
            kernel.heap.push(Reverse((time, kernel.seq, node)));
        }
        kernel.slice();
        kernel
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// [`SLICE_STEPS`] steps; returns the seconds they took.
    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..SLICE_STEPS {
            let Reverse((time, _, node)) = self.heap.pop().expect("heap depth is constant");
            let r = self.next();
            let to = r as usize % STATE_NODES;
            let slot = (r >> 16) as usize % 8;
            self.state[to][slot] = self.state[to][slot].wrapping_add(time);
            let size = 256.0 + ((r >> 20) & 1023) as f64;
            let bandwidth = 1e5 + (self.state[to][0] & 0xF_FFFF) as f64;
            acc += (1.0 + size / 5840.0).log2().ceil() * 0.01 + size / bandwidth;
            match r & 7 {
                0 => {
                    self.pending.insert(r >> 40);
                }
                1 => {
                    self.pending.remove(&(r >> 40));
                }
                _ => {}
            }
            if self.pending.len() > PENDING_CAP {
                self.pending.clear();
            }
            self.seq += 1;
            let later = time + 1 + (r >> 44);
            self.heap
                .push(Reverse((later, self.seq, node ^ (to as u32 & 0xFF))));
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// One reading: the median of [`SLICES`] slices, in seconds.
    pub fn read(&mut self) -> f64 {
        let slices: Vec<f64> = (0..SLICES).map(|_| self.slice()).collect();
        median(&slices)
    }
}

/// The factor that scales a time measured between two readings to the
/// nominal host speed.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_the_state_stays_bounded() {
        let mut kernel = Reference::new();
        let reading = kernel.read();
        assert!(reading > 0.0);
        assert_eq!(kernel.heap.len(), HEAP_DEPTH as usize);
        assert!(kernel.pending.len() <= PENDING_CAP);
    }

    #[test]
    fn a_host_at_nominal_speed_scales_by_one() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
    }
}
