//! Deterministic parallel-in-run simulation: the sharded engine.
//!
//! [`ShardedEngine`] partitions the topology into shard domains (a fixed
//! [`ShardMap`]), gives each shard its own [`Engine`] — local event queue,
//! clock, and RNG streams seeded per shard via [`shard_seed`] — and
//! advances all shards in bounded conservative-lookahead windows. Within a
//! window a shard runs events below its safe horizon
//! `min over other shards s of (clock(s) + min_owd(s → me))`; at the
//! barrier between windows, boundary-crossing messages are handed off as
//! [`RemoteEnvelope`]s and incorporated into their destination shards in a
//! fixed total order.
//!
//! # Determinism
//!
//! The headline guarantee: with a fixed shard map and fixed seeds, the
//! merged trace, metrics, and outcome are **byte-identical at any worker
//! count**. The argument:
//!
//! 1. The window schedule is a pure function of shard clocks and the
//!    lookahead table — worker threads never influence *which* events fall
//!    into a window, only who executes them.
//! 2. Within a window each shard is sequential and touches only its own
//!    state (queue, clock, RNGs, metrics, trace).
//! 3. All cross-shard effects flow through envelopes that are collected,
//!    sorted by `(first_byte, source shard, source index)`, and
//!    incorporated by the coordinator alone at the barrier — identical
//!    regardless of which thread produced them or in what real-time order.
//!
//! A run over two or more shards is its own model, not a bit-replay of the
//! serial engine: shards draw from per-shard RNG streams and receiver-side
//! queueing for cross-shard messages is applied at the barrier. What is
//! invariant is the run given `(topology, config, seed, map)` — the same
//! contract the sweep layer offers at the cell level, pushed inside one run.
//!
//! A **lone shard is the serial engine**: it runs on the master seed itself
//! (not `shard_seed(seed, 0)`), its single inclusive window is
//! [`Engine::run_until`], and an installed recorder is sampled inside that
//! event loop — trace, metrics, outcome and series are bit-identical to a
//! plain [`Engine`], so no caller ever picks between two engine types.
//! Only its queue is smaller: like every shard, it stores no delivery due
//! after the horizon of its one run.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::{Actor, Engine, Payload, RemoteEnvelope, RunOutcome};
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::owners::Owners;
use crate::profile::{ExecutionProfile, ShardRound};
use crate::shard::{shard_seed, LookaheadTable, ShardMap};
use crate::time::{SimDuration, SimTime};
use crate::timeseries::TimeSeriesRecorder;
use crate::topology::Topology;
use crate::trace::Trace;
use crate::transport::TransportConfig;

/// Why a [`ShardedEngine`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// The shard map covers a different number of nodes than the topology.
    MapSizeMismatch {
        /// Nodes covered by the map.
        map: usize,
        /// Nodes in the topology.
        topology: usize,
    },
    /// Some cross-shard link has zero one-way delay, so no positive
    /// lookahead window exists: shards could exchange messages
    /// instantaneously and conservative windows would never advance.
    ZeroLookahead,
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::MapSizeMismatch { map, topology } => write!(
                f,
                "shard map covers {map} nodes but the topology has {topology}"
            ),
            ParallelError::ZeroLookahead => write!(
                f,
                "minimum cross-shard one-way delay is zero: conservative \
                 lookahead needs every cross-shard link to carry positive delay"
            ),
        }
    }
}

impl std::error::Error for ParallelError {}

/// Wall-clock accounting of a sharded run.
///
/// Workers time the span they spend executing each window
/// (`std::time::Instant`, outside the simulation's virtual clock), and the
/// coordinator sums those spans across shards and rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelProfile {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Sum of per-window execution spans across all shards (what one
    /// worker would do alone).
    pub busy: Duration,
}

/// One window of work for one shard, shipped to a worker thread.
struct RoundJob<M: Payload> {
    shard: usize,
    engine: Engine<M>,
    end: SimTime,
    exclusive: bool,
}

/// The worker's answer: the engine comes back with its outcome and the
/// wall-clock span the window took to execute.
struct RoundResult<M: Payload> {
    shard: usize,
    engine: Engine<M>,
    outcome: RunOutcome,
    busy: Duration,
}

impl<M: Payload> RoundJob<M> {
    /// Executes the window on the calling thread, timing it.
    #[allow(
        clippy::disallowed_methods,
        reason = "the quarantined wall-clock profiler: spans feed ParallelProfile, never the run"
    )]
    fn execute(mut self) -> RoundResult<M> {
        let t0 = Instant::now();
        let outcome = self.engine.run_window(self.end, self.exclusive);
        RoundResult {
            shard: self.shard,
            engine: self.engine,
            outcome,
            busy: t0.elapsed(),
        }
    }
}

/// The parallel discrete-event engine: a fixed shard map over one
/// topology, one [`Engine`] per shard, conservative-lookahead windows.
///
/// Mirrors the serial [`Engine`] surface (`register`, `enable_trace`,
/// `run_until`, `metrics`, `trace`, …); results are merged across shards
/// in shard order, deterministically.
pub struct ShardedEngine<M: Payload + Send> {
    engines: Vec<Option<Engine<M>>>,
    map: ShardMap,
    table: LookaheadTable,
    workers: usize,
    profile: ParallelProfile,
    profiler: Option<ExecutionProfile>,
    recorder: Option<TimeSeriesRecorder>,
}

impl<M: Payload + Send> ShardedEngine<M> {
    /// Creates a sharded engine over `topo` with `map.num_shards()` shard
    /// domains run by up to `workers` threads (clamped to the shard count;
    /// 0 means 1). Shard `s` runs on `shard_seed(seed, s)`, a lone shard on `seed`.
    pub fn new(
        topo: Topology,
        config: TransportConfig,
        seed: u64,
        map: ShardMap,
        workers: usize,
    ) -> Result<Self, ParallelError> {
        if map.len() != topo.len() {
            return Err(ParallelError::MapSizeMismatch {
                map: map.len(),
                topology: topo.len(),
            });
        }
        let table = map.lookahead(&topo);
        if table.min_cross_delay() == Some(SimDuration::ZERO) {
            return Err(ParallelError::ZeroLookahead);
        }
        let owners = Owners::from_assignment(map.assignment());
        let topo = Arc::new(topo);
        let mut engines = Vec::with_capacity(map.num_shards());
        let lone = map.num_shards() == 1;
        for s in 0..map.num_shards() as u32 {
            let seed = if lone {
                seed
            } else {
                shard_seed(seed, s.into())
            };
            let e = Engine::for_shard(topo.clone(), config.clone(), seed, owners.clone(), s);
            engines.push(Some(e));
        }
        Ok(ShardedEngine {
            workers: workers.clamp(1, engines.len()),
            engines,
            map,
            table,
            profile: ParallelProfile::default(),
            profiler: None,
            recorder: None,
        })
    }

    /// Enables per-shard, per-barrier-round execution profiling (see
    /// [`ExecutionProfile`]).
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(ExecutionProfile::new(self.engines.len()));
    }

    /// The execution profile of the run, if profiling was enabled.
    pub fn execution_profile(&self) -> Option<&ExecutionProfile> {
        self.profiler.as_ref()
    }

    /// Installs a windowed time-series recorder. Two or more shards sample
    /// at barrier rounds: a boundary is emitted at the first barrier whose
    /// minimum shard clock passes it, from metrics merged in shard order —
    /// deterministic at any worker count because the barrier schedule is.
    pub fn install_recorder(&mut self, recorder: TimeSeriesRecorder) {
        self.recorder = Some(recorder);
    }

    /// Removes and returns the installed recorder, if any.
    pub fn take_recorder(&mut self) -> Option<TimeSeriesRecorder> {
        self.recorder.take()
    }

    /// The shard map this engine runs over.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The topology every shard shares.
    pub fn topology(&self) -> &Topology {
        self.engine(0).topology()
    }

    /// Number of worker threads a run will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn engine(&self, shard: usize) -> &Engine<M> {
        self.engines[shard].as_ref().expect("engine at rest")
    }

    fn engine_mut(&mut self, shard: usize) -> &mut Engine<M> {
        self.engines[shard].as_mut().expect("engine at rest")
    }

    /// Installs the actor for `node` on the shard that owns it.
    pub fn register(&mut self, node: NodeId, actor: Box<dyn Actor<M> + Send>) {
        let shard = self.map.shard_of(node);
        self.engine_mut(shard).register(node, actor);
    }

    /// Enables tracing on every shard with the given per-shard capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        for s in 0..self.engines.len() {
            self.engine_mut(s).enable_trace(capacity);
        }
    }

    /// Caps processed events *per shard* (runaway protection).
    pub fn set_event_limit(&mut self, limit: u64) {
        for s in 0..self.engines.len() {
            self.engine_mut(s).set_event_limit(limit);
        }
    }

    /// The most advanced shard clock (all clocks coincide at the horizon
    /// after a completed run).
    pub fn now(&self) -> SimTime {
        (0..self.engines.len())
            .map(|s| self.engine(s).now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        (0..self.engines.len())
            .map(|s| self.engine(s).events_processed())
            .sum()
    }

    /// Largest number of events one shard ever stored at once. No shard
    /// stores a delivery due after the run's horizon (see
    /// [`ShardedEngine::run_until`]), so this counts events that could pop.
    pub fn peak_queue_len(&self) -> usize {
        (0..self.engines.len())
            .map(|s| self.engine(s).peak_queue_len())
            .max()
            .unwrap_or(0)
    }

    /// Wall-clock accounting of the last run (see [`ParallelProfile`]).
    pub fn profile(&self) -> ParallelProfile {
        self.profile
    }

    /// Merged metrics across shards, in shard order.
    pub fn metrics(&self) -> Metrics {
        let mut merged = self.engine(0).metrics().clone();
        for s in 1..self.engines.len() {
            merged.merge(self.engine(s).metrics());
        }
        merged
    }

    /// Merged trace: per-shard histories stably sorted by timestamp, shard
    /// order breaking ties.
    pub fn trace(&self) -> Trace {
        let parts: Vec<&Trace> = (0..self.engines.len())
            .map(|s| self.engine(s).trace())
            .collect();
        Trace::merged(&parts)
    }

    /// Applies `f` to the actor installed for `node`, if any.
    pub fn with_actor<R>(&self, node: NodeId, f: impl FnOnce(&dyn Actor<M>) -> R) -> Option<R> {
        let shard = self.map.shard_of(node);
        self.engine(shard).with_actor(node, f)
    }

    /// Runs all shards until every clock reaches `horizon`, all queues
    /// drain, an actor stops the run, or a per-shard event limit trips.
    /// Precedence at the barrier mirrors the serial engine: stop, then
    /// event limit, then queue-empty, then horizon.
    ///
    /// A sharded engine runs once: no shard stores a delivery due after
    /// `horizon`, as none could pop, so a later call past it panics.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        for s in 0..self.engines.len() {
            self.engine_mut(s).set_cutoff(horizon);
        }
        // A lone shard samples in its own event loop (see the module docs).
        let lone = self.engines.len() == 1;
        if let Some(rec) = self.recorder.take_if(|_| lone) {
            self.engine_mut(0).install_recorder(rec);
        }
        let workers = self.workers;
        let outcome = if workers == 1 {
            self.window_loop(horizon, &mut |jobs: Vec<RoundJob<M>>| {
                jobs.into_iter().map(RoundJob::execute).collect()
            })
        } else {
            std::thread::scope(|scope| {
                let (result_tx, result_rx) = mpsc::channel::<RoundResult<M>>();
                let mut job_txs: Vec<mpsc::Sender<RoundJob<M>>> = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let (tx, rx) = mpsc::channel::<RoundJob<M>>();
                    let result_tx = result_tx.clone();
                    scope.spawn(move || {
                        while let Ok(job) = rx.recv() {
                            if result_tx.send(job.execute()).is_err() {
                                break;
                            }
                        }
                    });
                    job_txs.push(tx);
                }
                drop(result_tx);
                self.window_loop(horizon, &mut |jobs: Vec<RoundJob<M>>| {
                    let n = jobs.len();
                    for job in jobs {
                        // Static shard→worker routing: irrelevant for
                        // determinism (the coordinator reorders results),
                        // it only balances load.
                        let w = job.shard % workers;
                        job_txs[w].send(job).expect("worker alive");
                    }
                    (0..n)
                        .map(|_| result_rx.recv().expect("worker alive"))
                        .collect()
                })
                // job_txs drop here; workers see a closed channel and exit,
                // then the scope joins them.
            })
        };
        if lone {
            self.recorder = self.engine_mut(0).take_recorder();
        }
        if let Some(mut rec) = self.recorder.take() {
            // The run is over: every event at or before the final clock has
            // been processed, so boundaries up to it (inclusive) are done.
            rec.sample_up_to(self.now().min(horizon), &self.metrics());
            self.recorder = Some(rec);
        }
        outcome
    }

    /// Barrier-time series sampling: boundaries strictly below the minimum
    /// shard clock are complete (a shard parked by an exclusive window may
    /// still hold an unprocessed event exactly at its clock). Merging the
    /// per-shard metrics is paid only when a boundary is actually due.
    fn sample_at_barrier(&mut self) {
        let min = (0..self.engines.len())
            .map(|s| self.engine(s).now())
            .min()
            .unwrap_or(SimTime::ZERO);
        if let Some(mut rec) = self.recorder.take_if(|r| r.due(min)) {
            rec.sample_before(min, &self.metrics());
            self.recorder = Some(rec);
        }
    }

    /// The barrier loop: computes each shard's safe window, executes the
    /// round through `exec` (inline or on worker threads), then drains,
    /// sorts, and incorporates cross-shard envelopes — all coordinator-side
    /// and in a fixed order, which is what makes the run worker-count
    /// invariant.
    fn window_loop(
        &mut self,
        horizon: SimTime,
        exec: &mut dyn FnMut(Vec<RoundJob<M>>) -> Vec<RoundResult<M>>,
    ) -> RunOutcome {
        let k = self.engines.len();
        // Start hooks run once, in shard order, before the first window so
        // the initial envelope exchange (sends at t = 0) is on the books.
        for s in 0..k {
            self.engine_mut(s).start();
        }
        let init_counts = self.exchange_envelopes();
        if let Some(p) = &mut self.profiler {
            p.note_initial_exchange(&init_counts);
        }
        self.sample_at_barrier();
        loop {
            if (0..k).any(|s| self.engine(s).stop_requested()) {
                return RunOutcome::Stopped;
            }
            if (0..k).all(|s| self.engine(s).next_event_time().is_none()) {
                return RunOutcome::QueueEmpty;
            }
            // Done only when nothing at or below the horizon is pending —
            // the final envelope exchange can land deliveries exactly at
            // it, and the serial engine's horizon is inclusive — and every
            // shard with anything pending has its clock there. An idle
            // shard is parked here instead: an inclusive window leaves its
            // clock at its last event, and waiting for it would spin.
            let done = (0..k).all(|s| {
                let e = self.engine(s);
                e.next_event_time()
                    .is_none_or(|t| t > horizon && e.now() >= horizon)
            });
            if done {
                for s in 0..k {
                    self.engine_mut(s).park_at(horizon);
                }
                return RunOutcome::HorizonReached;
            }
            // Each shard's *promise*: the earliest instant it could still
            // produce a cross-shard send. At a barrier every envelope is
            // already incorporated, so a shard cannot send before its next
            // pending event — promising `max(clock, next_event)` instead of
            // the bare clock lets neighbours leap over idle stretches in
            // one window rather than marching through them in lookahead
            // increments. An empty queue promises FAR_FUTURE: with nothing
            // pending, the shard cannot initiate anything until an envelope
            // (exchanged at a barrier) wakes it. Promises are pure barrier
            // state, so the window schedule — and with it the whole run —
            // stays a deterministic function of shard states, independent
            // of the worker count.
            let promises: Vec<SimTime> = (0..k)
                .map(|s| {
                    let e = self.engine(s);
                    match e.next_event_time() {
                        Some(t) => t.max(e.now()),
                        None => SimTime::FAR_FUTURE,
                    }
                })
                .collect();
            // Pre-window observations the profiler needs (clock, queue
            // occupancy, event count); skipped entirely when disabled.
            let pre: Vec<(SimTime, bool, u64)> = if self.profiler.is_some() {
                (0..k)
                    .map(|s| {
                        let e = self.engine(s);
                        (e.now(), e.next_event_time().is_some(), e.events_processed())
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut ends = Vec::new();
            let mut jobs = Vec::with_capacity(k);
            for (s, engine) in self.engines.iter_mut().enumerate() {
                let bound = self.table.horizon_for(s, &promises);
                // Final window: the run horizon is within this shard's safe
                // bound, so events *at* the horizon are safe too (any
                // envelope produced this round lands at ≥ bound ≥ horizon).
                // Intermediate windows stop strictly below the bound:
                // events exactly at it could race the envelopes.
                let (end, exclusive) = if horizon <= bound {
                    (horizon, false)
                } else {
                    (bound, true)
                };
                if self.profiler.is_some() {
                    ends.push((end, exclusive));
                }
                jobs.push(RoundJob {
                    shard: s,
                    engine: engine.take().expect("engine at rest"),
                    end,
                    exclusive,
                });
            }
            let mut results = exec(jobs);
            results.sort_by_key(|r| r.shard);
            let mut shard_busy = vec![Duration::ZERO; k];
            let mut round_outcome = None;
            for r in results {
                self.profile.busy += r.busy;
                shard_busy[r.shard] = r.busy;
                if matches!(r.outcome, RunOutcome::Stopped | RunOutcome::EventLimit) {
                    round_outcome = Some(r.outcome);
                }
                self.engines[r.shard] = Some(r.engine);
            }
            self.profile.rounds += 1;
            let env_counts = self.exchange_envelopes();
            if let Some(profiler) = &mut self.profiler {
                let round = self.profile.rounds - 1;
                let max_busy = shard_busy.iter().max().copied().unwrap_or_default();
                let records = (0..k)
                    .map(|s| {
                        let e = self.engines[s].as_ref().expect("engine at rest");
                        ShardRound {
                            round,
                            shard: s as u32,
                            start: pre[s].0,
                            end: ends[s].0,
                            exclusive: ends[s].1,
                            events: e.events_processed() - pre[s].2,
                            envelopes_out: env_counts[s],
                            pending: pre[s].1,
                            busy: shard_busy[s],
                            barrier_wait: max_busy - shard_busy[s],
                        }
                    })
                    .collect();
                profiler.push_round(records);
            }
            self.sample_at_barrier();
            if let Some(outcome) = round_outcome {
                return outcome;
            }
        }
    }

    /// Drains every shard's outbox, sorts the envelopes into a fixed total
    /// order, and incorporates each into its destination shard. Called
    /// only between windows, from the coordinator. Returns the number of
    /// envelopes each source shard contributed (profiler fodder).
    fn exchange_envelopes(&mut self) -> Vec<u64> {
        let k = self.engines.len();
        let mut envelopes: Vec<RemoteEnvelope<M>> = Vec::new();
        for s in 0..k {
            envelopes.append(&mut self.engine_mut(s).take_outbox());
        }
        let mut counts = vec![0u64; k];
        for env in &envelopes {
            counts[env.src_shard] += 1;
        }
        envelopes.sort_by_key(|e| (e.plan.first_byte, e.src_shard, e.src_index));
        for env in envelopes {
            let dest = self.map.shard_of(env.to);
            self.engine_mut(dest).incorporate_remote(env);
        }
        counts
    }
}

#[cfg(test)]
#[path = "parallel_tests.rs"]
mod tests;
