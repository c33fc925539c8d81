//! A steady-state barrier round allocates nothing: a one-worker sharded
//! run to `2T` makes no more heap allocations than the same run to `T`.
//!
//! The counting allocator is global to this test binary, so the file holds
//! exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::prelude::*;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[derive(Debug)]
struct Token;

impl Payload for Token {
    fn wire_size(&self) -> u64 {
        128
    }
}

/// Forwards every token to the next node of a fixed ring, forever.
struct Relay {
    next: NodeId,
    kick_off: bool,
}

impl Actor<Token> for Relay {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if self.kick_off {
            ctx.send(self.next, Token);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, _: NodeId, msg: Token) {
        ctx.send(self.next, msg);
    }
}

/// Two regions of three nodes, one shard each: 2 ms inside a region, 40 ms
/// across. The ring 0 → 3 → 1 → 4 → 2 → 5 → 0 crosses shards on every hop,
/// and two tokens circle it, so every round exchanges envelopes.
fn sharded() -> ShardedEngine<Token> {
    let mut t = Topology::new();
    for i in 0..6 {
        t.add_node(NodeSpec::responsive(format!("n{i}")), AccessLink::default());
    }
    for a in 0..6u32 {
        for b in (0..6u32).filter(|&b| b != a) {
            let ms = if (a < 3) == (b < 3) { 2.0 } else { 40.0 };
            t.set_path(NodeId(a), NodeId(b), PathSpec::from_owd_ms(ms, 0.0));
        }
    }
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).expect("valid assignment");
    let mut e = ShardedEngine::new(t, TransportConfig::default(), 3, map, 1)
        .expect("positive cross-shard lookahead");
    let ring = [0, 3, 1, 4, 2, 5].map(NodeId);
    for (i, &node) in ring.iter().enumerate() {
        let next = ring[(i + 1) % ring.len()];
        let kick_off = i % 3 == 0;
        e.register(node, Box::new(Relay { next, kick_off }));
    }
    e
}

/// Allocations made by `run_until(horizon)` alone, with its round count.
fn run_allocations(horizon_secs: f64) -> (u64, u64) {
    let mut e = sharded();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    e.run_until(SimTime::from_secs_f64(horizon_secs));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, e.profile().rounds)
}

#[test]
fn a_steady_state_round_allocates_nothing() {
    let (short, short_rounds) = run_allocations(20.0);
    let (long, long_rounds) = run_allocations(40.0);
    assert!(
        long_rounds > short_rounds + 100,
        "the longer run must take many more rounds: {short_rounds} vs {long_rounds}"
    );
    assert!(
        long <= short,
        "{long} allocations over {long_rounds} rounds, {short} over {short_rounds}"
    );
}
