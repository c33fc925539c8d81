//! Deterministic parallel-in-run simulation: the sharded engine.
//!
//! [`ShardedEngine`] partitions the topology into shard domains (a fixed
//! [`ShardMap`]), gives each shard its own [`Engine`] — local event queue,
//! clock, and RNG streams seeded per shard via `shard_seed` — and
//! advances all shards in bounded conservative-lookahead windows. Within a
//! window a shard runs events below its safe horizon
//! `min over other shards s of (clock(s) + min_owd(s → me))`; at the
//! barrier between windows, boundary-crossing messages are handed off as
//! `RemoteEnvelope`s and incorporated into their destination shards in a
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
//! # What a round costs
//!
//! Each shard's engine sits in its own [`Mutex`] for the whole run, and
//! its windows run on it where it sits. Nothing is moved or allocated per
//! round: the coordinator's per-shard buffers (barrier reads, promises,
//! windows, outcomes, envelope counts) and its envelope buffer keep their
//! capacity across rounds, and outboxes are drained with `append`, keeping
//! theirs. The barrier logic is written once for every worker count, and
//! so is the [`ParallelProfile`] it keeps.
//!
//! At one worker the coordinator runs every window itself. It borrows the
//! engines outright, so it takes no lock, and it times a round's windows
//! as one span (a clock read costs about as much as a light window). With
//! `W ≥ 2` workers, `W` threads are spawned once per run and shard `s` is
//! pinned to worker `s % W`. Only a window's `(end, exclusive)` goes to a
//! worker, and only its outcome and busy span come back. Each touch of an
//! engine takes its lock, which is never contended: a shard is touched by
//! its worker during a window and by the coordinator between windows. A
//! window that panics on a worker is caught there and re-raised by the
//! coordinator, so a panicking shard fails the run rather than hanging it.
//!
//! A **lone shard is the serial engine**: it runs on the master seed itself
//! (not `shard_seed(seed, 0)`), and its one round is [`Engine::run_until`]
//! to the horizon with the recorder installed on the engine, so series
//! are sampled inside that event loop. Trace, metrics, outcome and series
//! are bit-identical to a plain [`Engine`], so no caller ever picks between
//! two engine types. Only its queue is smaller: like every shard, it stores
//! no event — delivery or timer — due after the horizon of its one run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

use crate::engine::{Actor, Engine, Payload, RemoteEnvelope, RunOutcome};
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::owners::Owners;
use crate::profile::{ParallelProfile, ShardRound};
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

const POISONED: &str = "a shard engine is poisoned only by a panicked run";

/// Locks a shard engine. A shard is touched by the one thread running its
/// window or by the coordinator between windows, never both, so the lock
/// is never contended.
fn lock<M: Payload>(shard: &Mutex<Engine<M>>) -> MutexGuard<'_, Engine<M>> {
    shard.lock().expect(POISONED)
}

/// How the coordinator reaches a shard engine between windows.
trait Shards<M: Payload> {
    fn with<R>(&mut self, shard: usize, f: impl FnOnce(&mut Engine<M>) -> R) -> R;
}

/// Running every window itself, the coordinator borrows the engines
/// outright and takes no lock.
impl<M: Payload> Shards<M> for [Mutex<Engine<M>>] {
    fn with<R>(&mut self, shard: usize, f: impl FnOnce(&mut Engine<M>) -> R) -> R {
        f(self[shard].get_mut().expect(POISONED))
    }
}

/// Engines shared with pinned workers: each touch takes the shard's lock.
struct Shared<'a, M: Payload>(&'a [Mutex<Engine<M>>]);

impl<M: Payload> Shards<M> for Shared<'_, M> {
    fn with<R>(&mut self, shard: usize, f: impl FnOnce(&mut Engine<M>) -> R) -> R {
        f(&mut lock(&self.0[shard]))
    }
}

/// Runs `f`, timing it on the wall clock.
#[allow(
    clippy::disallowed_methods,
    reason = "the quarantined wall-clock total: spans feed ParallelProfile::busy, never the run"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// A shard as the coordinator reads it at a barrier.
#[derive(Debug, Clone, Copy, Default)]
struct ShardState {
    now: SimTime,
    next: Option<SimTime>,
    events: u64,
    stopped: bool,
}

impl ShardState {
    fn of<M: Payload>(e: &Engine<M>) -> Self {
        ShardState {
            now: e.now(),
            next: e.next_event_time(),
            events: e.events_processed(),
            stopped: e.stop_requested(),
        }
    }

    /// The earliest instant the shard could still produce a cross-shard
    /// send. At a barrier every envelope is already incorporated, so a
    /// shard cannot send before its next pending event: promising
    /// `max(clock, next_event)` instead of the bare clock lets neighbours
    /// leap over idle stretches in one window rather than marching through
    /// them in lookahead increments. An empty queue promises `FAR_FUTURE`:
    /// the shard cannot initiate anything until an envelope wakes it.
    /// Promises are pure barrier state, so the window schedule — and with
    /// it the whole run — is independent of the worker count.
    fn promise(&self) -> SimTime {
        match self.next {
            Some(t) => t.max(self.now),
            None => SimTime::FAR_FUTURE,
        }
    }
}

/// One shard's window in the current round, with the barrier read that
/// opened it, which the profile reads.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    opened: ShardState,
    end: SimTime,
    exclusive: bool,
}

/// A window's bounds, sent to the worker its shard is pinned to.
type Job = (usize, SimTime, bool);
/// A window's answer: its outcome and busy span, or the panic it raised.
type Done = (usize, thread::Result<(RunOutcome, Duration)>);

/// The pinned workers of one run: shard `s` runs on worker `s % W` for the
/// whole run, and no engine ever crosses a channel.
struct Crew {
    jobs: Vec<SyncSender<Job>>,
    done: Receiver<Done>,
}

impl Crew {
    fn spawn<'scope, M: Payload + Send>(
        scope: &'scope Scope<'scope, '_>,
        shards: &'scope [Mutex<Engine<M>>],
        workers: usize,
    ) -> Self {
        // At most one job per shard is ever outstanding, so neither kind of
        // channel blocks or allocates after it is built.
        let (done_tx, done) = mpsc::sync_channel(shards.len());
        let jobs = (0..workers)
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel::<Job>(shards.len());
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    for (s, end, exclusive) in rx {
                        // Caught so that the coordinator re-raises it
                        // instead of waiting for an answer forever.
                        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                            timed(|| lock(&shards[s]).run_window(end, exclusive))
                        }));
                        if done_tx.send((s, ran)).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        Crew { jobs, done }
    }

    /// Runs one round's windows on the pinned workers and waits for all of
    /// them, re-raising the first panic a window reports. Returns the sum
    /// of their busy spans.
    fn run(&self, windows: &[Window], ran: &mut [RunOutcome]) -> Duration {
        for (s, w) in windows.iter().enumerate() {
            self.jobs[s % self.jobs.len()]
                .send((s, w.end, w.exclusive))
                .expect("pinned workers live as long as the run");
        }
        let mut busy = Duration::ZERO;
        for _ in windows {
            let (s, result) = self.done.recv().expect("every window is answered");
            let (outcome, span) = result.unwrap_or_else(|payload| panic::resume_unwind(payload));
            ran[s] = outcome;
            busy += span;
        }
        busy
    }
}

/// Everything the barrier touches besides the shard engines. Its per-shard
/// slots and envelope buffer keep their capacity across rounds.
struct Coordinator<M: Payload> {
    map: ShardMap,
    table: LookaheadTable,
    workers: usize,
    profile: ParallelProfile,
    recorder: Option<TimeSeriesRecorder>,
    /// Each shard as read at the last barrier.
    at: Vec<ShardState>,
    promises: Vec<SimTime>,
    windows: Vec<Window>,
    ran: Vec<RunOutcome>,
    /// Envelopes each shard emitted into the last exchange.
    sent: Vec<u64>,
    envelopes: Vec<RemoteEnvelope<M>>,
}

/// The parallel discrete-event engine: a fixed shard map over one
/// topology, one [`Engine`] per shard, conservative-lookahead windows.
///
/// Mirrors the serial [`Engine`] surface (`register`, `enable_trace`,
/// `run_until`, `metrics`, `trace`, …); results are merged across shards
/// in shard order, deterministically.
pub struct ShardedEngine<M: Payload + Send> {
    shards: Vec<Mutex<Engine<M>>>,
    coord: Coordinator<M>,
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
        let k = map.num_shards();
        let shards = (0..k as u32)
            .map(|s| {
                let seed = if k == 1 {
                    seed
                } else {
                    shard_seed(seed, s.into())
                };
                let e = Engine::for_shard(topo.clone(), config.clone(), seed, owners.clone(), s);
                Mutex::new(e)
            })
            .collect();
        Ok(ShardedEngine {
            shards,
            coord: Coordinator {
                map,
                table,
                workers: workers.clamp(1, k),
                profile: ParallelProfile::new(k),
                recorder: None,
                at: vec![ShardState::default(); k],
                promises: vec![SimTime::ZERO; k],
                windows: vec![Window::default(); k],
                ran: vec![RunOutcome::HorizonReached; k],
                sent: vec![0; k],
                envelopes: Vec::new(),
            },
        })
    }

    /// Installs a windowed time-series recorder, which makes the run a
    /// telemetry run: its profile also keeps the whole round schedule
    /// ([`ParallelProfile::schedule`]). Two or more shards sample at
    /// barrier rounds: a boundary is emitted at the first barrier whose
    /// minimum shard clock passes it, from metrics merged in shard order —
    /// deterministic at any worker count because the barrier schedule is.
    pub fn install_recorder(&mut self, recorder: TimeSeriesRecorder) {
        self.coord.recorder = Some(recorder);
    }

    /// Removes and returns the installed recorder, if any.
    pub fn take_recorder(&mut self) -> Option<TimeSeriesRecorder> {
        self.coord.recorder.take()
    }

    fn engine_mut(&mut self, shard: usize) -> &mut Engine<M> {
        self.shards[shard].get_mut().expect(POISONED)
    }

    /// Installs the actor for `node` on the shard that owns it.
    pub fn register(&mut self, node: NodeId, actor: Box<dyn Actor<M> + Send>) {
        let shard = self.coord.map.shard_of(node);
        self.engine_mut(shard).register(node, actor);
    }

    /// Enables tracing on every shard with the given per-shard capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        for s in 0..self.shards.len() {
            self.engine_mut(s).enable_trace(capacity);
        }
    }

    /// Caps processed events *per shard* (runaway protection).
    #[cfg(test)]
    pub(crate) fn set_event_limit(&mut self, limit: u64) {
        for s in 0..self.shards.len() {
            self.engine_mut(s).set_event_limit(limit);
        }
    }

    /// The most advanced shard clock (all clocks coincide at the horizon
    /// after a completed run).
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| lock(s).now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).events_processed()).sum()
    }

    /// Largest number of events one shard ever stored at once. No shard
    /// stores a delivery or a timer due after the run's horizon (see
    /// [`ShardedEngine::run_until`]), so this counts events that could pop;
    /// a timer armed past it still counts in `engine.timers_pending_hwm`.
    pub fn peak_queue_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).peak_queue_len())
            .max()
            .unwrap_or(0)
    }

    /// The round account of the last run (see [`ParallelProfile`]).
    pub fn profile(&self) -> &ParallelProfile {
        &self.coord.profile
    }

    /// Merged metrics across shards, in shard order.
    pub fn metrics(&self) -> Metrics {
        merged_metrics(&mut Shared(&self.shards), self.shards.len())
    }

    /// Merged trace: per-shard histories stably sorted by timestamp, shard
    /// order breaking ties.
    pub fn trace(&self) -> Trace {
        let engines: Vec<_> = self.shards.iter().map(lock).collect();
        let parts: Vec<&Trace> = engines.iter().map(|e| e.trace()).collect();
        Trace::merged(&parts)
    }

    /// Runs all shards until every clock reaches `horizon`, all queues
    /// drain, an actor stops the run, or a per-shard event limit trips.
    /// Precedence at the barrier mirrors the serial engine: stop, then
    /// event limit, then queue-empty, then horizon.
    ///
    /// A sharded engine runs once: no shard stores a delivery or a timer
    /// due after `horizon`, as none could pop, so a later call past it
    /// panics. A window that panics fails this call with the window's
    /// panic.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        for s in 0..self.shards.len() {
            self.engine_mut(s).set_cutoff(horizon);
        }
        let k = self.shards.len();
        let (shards, coord) = (&mut self.shards[..], &mut self.coord);
        let outcome = match (k, coord.workers) {
            (1, _) => coord.run_lone(shards, horizon),
            (_, 1) => coord.window_loop(shards, horizon, None),
            (_, workers) => thread::scope(|scope| {
                let shards = &*shards;
                let crew = Crew::spawn(scope, shards, workers);
                coord.window_loop(&mut Shared(shards), horizon, Some(&crew))
            }),
        };
        let end = self.now().min(horizon);
        if let Some(rec) = &mut self.coord.recorder {
            // The run is over: every event at or before the final clock has
            // been processed, so boundaries up to it (inclusive) are done.
            rec.sample_up_to(end, &merged_metrics(&mut self.shards[..], k));
        }
        outcome
    }
}

/// Metrics of the `k` shards, merged in shard order.
fn merged_metrics<M: Payload, S: Shards<M> + ?Sized>(shards: &mut S, k: usize) -> Metrics {
    let mut merged = shards.with(0, |e| e.metrics().clone());
    for s in 1..k {
        shards.with(s, |e| merged.merge(e.metrics()));
    }
    merged
}

impl<M: Payload + Send> Coordinator<M> {
    /// A lone shard's one round: [`Engine::run_until`] with the recorder
    /// installed on the engine (see the module docs).
    fn run_lone(&mut self, shards: &mut [Mutex<Engine<M>>], horizon: SimTime) -> RunOutcome {
        let outcome = shards.with(0, |engine| {
            engine.start();
            self.at[0] = ShardState::of(engine);
            self.plan_windows(horizon);
            if let Some(rec) = self.recorder.take() {
                engine.install_recorder(rec);
            }
            let (outcome, busy) = timed(|| engine.run_until(horizon));
            self.recorder = engine.take_recorder();
            self.profile.busy += busy;
            self.ran[0] = outcome;
            outcome
        });
        self.close_round(shards);
        outcome
    }

    /// The barrier loop over two or more shards: computes each shard's
    /// safe window, runs the round (on the pinned `crew`, or here when
    /// there is none), then closes it at the barrier. Everything but the
    /// windows themselves happens here, in a fixed order, which is what
    /// makes the run worker-count invariant.
    fn window_loop<S: Shards<M> + ?Sized>(
        &mut self,
        shards: &mut S,
        horizon: SimTime,
        crew: Option<&Crew>,
    ) -> RunOutcome {
        let k = self.at.len();
        // Start hooks run once, in shard order, before the first window so
        // the initial envelope exchange (sends at t = 0) is on the books.
        for s in 0..k {
            shards.with(s, |e| e.start());
        }
        self.exchange(shards);
        self.profile.note_initial_exchange(&self.sent);
        self.read_barrier(shards);
        self.sample_at_barrier(shards);
        loop {
            if self.at.iter().any(|a| a.stopped) {
                return RunOutcome::Stopped;
            }
            if self.at.iter().all(|a| a.next.is_none()) {
                return RunOutcome::QueueEmpty;
            }
            // Done only when nothing at or below the horizon is pending —
            // the final envelope exchange can land deliveries exactly at
            // it, and the serial engine's horizon is inclusive — and every
            // shard with anything pending has its clock there. An idle
            // shard is parked here instead: an inclusive window leaves its
            // clock at its last event, and waiting for it would spin.
            let done = self
                .at
                .iter()
                .all(|a| a.next.is_none_or(|t| t > horizon && a.now >= horizon));
            if done {
                for s in 0..k {
                    shards.with(s, |e| e.park_at(horizon));
                }
                return RunOutcome::HorizonReached;
            }
            self.plan_windows(horizon);
            self.profile.busy += match crew {
                Some(crew) => crew.run(&self.windows, &mut self.ran),
                // The coordinator runs every window itself, timed as one
                // span: a clock read costs about as much as a light window.
                None => {
                    let windows = self.windows.iter().zip(&mut self.ran).enumerate();
                    let ((), span) = timed(|| {
                        for (s, (w, ran)) in windows {
                            *ran = shards.with(s, |e| e.run_window(w.end, w.exclusive));
                        }
                    });
                    span
                }
            };
            if let Some(outcome) = self.close_round(shards) {
                return outcome;
            }
        }
    }

    /// Each shard's window from the last barrier read: up to the safe
    /// bound its neighbours' promises allow.
    fn plan_windows(&mut self, horizon: SimTime) {
        for (p, a) in self.promises.iter_mut().zip(&self.at) {
            *p = a.promise();
        }
        for (s, w) in self.windows.iter_mut().enumerate() {
            let bound = self.table.horizon_for(s, &self.promises);
            // Final window: the run horizon is within this shard's safe
            // bound, so events *at* the horizon are safe too (any envelope
            // produced this round lands at ≥ bound ≥ horizon). Intermediate
            // windows stop strictly below the bound: events exactly at it
            // could race the envelopes.
            let (end, exclusive) = if horizon <= bound {
                (horizon, false)
            } else {
                (bound, true)
            };
            *w = Window {
                opened: self.at[s],
                end,
                exclusive,
            };
        }
    }

    /// Closes a round at the barrier: exchanges envelopes, reads every
    /// shard, records the round in the profile (in its schedule too on a
    /// telemetry run) and samples the series. Returns `Stopped` if any
    /// shard stopped, else `EventLimit` if any shard hit its limit.
    fn close_round<S: Shards<M> + ?Sized>(&mut self, shards: &mut S) -> Option<RunOutcome> {
        let round = self.profile.rounds;
        self.profile.rounds += 1;
        self.exchange(shards);
        self.read_barrier(shards);
        let keep = self.recorder.is_some();
        for (s, w) in self.windows.iter().enumerate() {
            let rec = ShardRound {
                round,
                shard: s as u32,
                start: w.opened.now,
                end: w.end,
                exclusive: w.exclusive,
                events: self.at[s].events - w.opened.events,
                envelopes_out: self.sent[s],
                pending: w.opened.next.is_some(),
            };
            self.profile.record(rec, keep);
        }
        self.sample_at_barrier(shards);
        let tripped = |o: RunOutcome| self.ran.contains(&o);
        [RunOutcome::Stopped, RunOutcome::EventLimit]
            .into_iter()
            .find(|&o| tripped(o))
    }

    fn read_barrier<S: Shards<M> + ?Sized>(&mut self, shards: &mut S) {
        for (s, a) in self.at.iter_mut().enumerate() {
            *a = shards.with(s, |e| ShardState::of(e));
        }
    }

    /// Barrier-time series sampling: boundaries strictly below the minimum
    /// shard clock are complete (a shard parked by an exclusive window may
    /// still hold an unprocessed event exactly at its clock). Merging the
    /// per-shard metrics is paid only when a boundary is actually due.
    fn sample_at_barrier<S: Shards<M> + ?Sized>(&mut self, shards: &mut S) {
        let min = self.at.iter().map(|a| a.now).min().unwrap_or(SimTime::ZERO);
        if let Some(rec) = self.recorder.as_mut().filter(|r| r.due(min)) {
            rec.sample_before(min, &merged_metrics(shards, self.at.len()));
        }
    }

    /// Drains every shard's outbox, sorts the envelopes into a fixed total
    /// order, and incorporates each into its destination shard. Called
    /// only between windows, from the coordinator; `sent` gets the number
    /// of envelopes each shard contributed, which the profile reads.
    fn exchange<S: Shards<M> + ?Sized>(&mut self, shards: &mut S) {
        for (s, sent) in self.sent.iter_mut().enumerate() {
            let before = self.envelopes.len();
            shards.with(s, |e| e.drain_outbox_into(&mut self.envelopes));
            *sent = (self.envelopes.len() - before) as u64;
        }
        // `(src_shard, src_index)` is unique, so an unstable sort gives the
        // one total order without a scratch allocation.
        self.envelopes
            .sort_unstable_by_key(|e| (e.plan.first_byte, e.src_shard, e.src_index));
        for env in self.envelopes.drain(..) {
            let dest = self.map.shard_of(env.to);
            shards.with(dest, |e| e.incorporate_remote(env));
        }
    }
}

#[cfg(test)]
#[path = "parallel_tests.rs"]
mod tests;
