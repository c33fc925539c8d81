//! A steady-state barrier round allocates nothing: a one-worker sharded
//! run to `2T` makes no more heap allocations than the same run to `T`.
//!
//! The counting allocator is global to this test binary, so the file holds
//! exactly one test.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use netsim::prelude::*;

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
    let before = allocations();
    e.run_until(SimTime::from_secs_f64(horizon_secs));
    (allocations() - before, e.profile().rounds)
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
