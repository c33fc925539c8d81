//! The actor-based discrete-event engine.
//!
//! Each simulated host runs one [`Actor`]. Actors exchange typed messages;
//! delivery times come from the [`TransferPlanner`] (network physics) plus
//! the destination node's service-delay distribution (host physics). All
//! randomness flows through per-node split streams of one master seed, so a
//! run is a pure function of `(topology, config, seed, actors)`.

use std::sync::Arc;

use crate::event::{EventHandle, EventQueue};
use crate::metrics::{MetricId, Metrics, StatId};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timeseries::TimeSeriesRecorder;
use crate::topology::Topology;
use crate::trace::{Trace, TraceEventKind};
use crate::transport::{TransferPlanner, TransportConfig};

/// How a message interacts with the destination host's scheduler.
///
/// On a contended PlanetLab sliver, a message that must *wake* the
/// application (a new petition, a job assignment) pays the full service
/// delay; messages handled on an already-hot path (streamed file parts,
/// acks) pay only a small fraction; pure data-plane traffic pays none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Wakes the application: full service-delay sample.
    Wakeup,
    /// Hot-path handling: service-delay sample scaled by
    /// [`TransportConfig::fast_service_factor`].
    Fast,
    /// Data plane only: no service delay.
    Bulk,
}

/// A message that can travel between actors: it must know its wire size so
/// the transport model can time it.
pub trait Payload: std::fmt::Debug {
    /// Serialized size in bytes (payload only; framing overhead is added by
    /// the transport config).
    fn wire_size(&self) -> u64;
    /// Short label for traces.
    fn kind(&self) -> &'static str {
        "msg"
    }
    /// Scheduler interaction at the destination (default: full wake-up).
    fn service_class(&self) -> ServiceClass {
        ServiceClass::Wakeup
    }
}

/// Handle identifying a scheduled timer, for cancellation: the counter
/// value traces print, plus where the timer sits in the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    id: u64,
    handle: EventHandle,
}

/// The behaviour of one simulated host.
pub trait Actor<M: Payload> {
    /// Called once at simulation start (time 0), in node-id order.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}
    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);
    /// Called when a timer scheduled by this node fires.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _timer: TimerId, _tag: u64) {}
}

/// A queued event. `Cancelled` is what [`Context::cancel_timer`] leaves in a
/// timer's slot: it dispatches nothing, but its pop still moves the clock and
/// counts in `events_processed` — event limits and digests always counted it.
enum Ev<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: u64, tag: u64 },
    Cancelled,
}

/// A cross-shard message caught at the shard boundary: the sender-side
/// plan is done (uplink FIFO, propagation, service — all from sender-shard
/// state and RNG); the destination shard applies its receiver-side
/// queueing at incorporation time.
pub(crate) struct RemoteEnvelope<M> {
    pub(crate) to: NodeId,
    pub(crate) from: NodeId,
    pub(crate) msg: M,
    pub(crate) bytes: u64,
    pub(crate) sent_at: SimTime,
    pub(crate) tx_start: SimTime,
    pub(crate) first_byte: SimTime,
    pub(crate) service: SimDuration,
    /// Destination-host service delay (already sampled, sender-side RNG).
    pub(crate) service_extra: SimDuration,
    pub(crate) src_shard: usize,
    /// Position in the source shard's outbox, for deterministic tie-breaks.
    pub(crate) src_index: u64,
}

/// Shard membership of an engine acting as one shard of a
/// [`crate::parallel::ShardedEngine`]: the fixed node→shard assignment and
/// the outbox of boundary-crossing messages produced since the last drain.
struct ShardState<M> {
    assignment: Arc<Vec<usize>>,
    shard_id: usize,
    outbox: Vec<RemoteEnvelope<M>>,
}

/// Why [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// Virtual time reached the given horizon.
    HorizonReached,
    /// An actor called [`Context::stop`].
    Stopped,
    /// The event-count safety valve tripped (runaway simulation).
    EventLimit,
}

/// Metric handles the per-event path needs, resolved once at engine
/// construction so sends/deliveries never walk the name maps.
struct HotIds {
    messages_sent: MetricId,
    bytes_sent: MetricId,
    messages_lost: MetricId,
    messages_delivered: MetricId,
    messages_dropped_no_actor: MetricId,
    timers_pending_hwm: MetricId,
    delivery_secs: StatId,
}

impl HotIds {
    fn resolve(metrics: &mut Metrics) -> Self {
        HotIds {
            messages_sent: metrics.counter_id("net.messages_sent"),
            bytes_sent: metrics.counter_id("net.bytes_sent"),
            messages_lost: metrics.counter_id("net.messages_lost"),
            messages_delivered: metrics.counter_id("net.messages_delivered"),
            messages_dropped_no_actor: metrics.counter_id("net.messages_dropped_no_actor"),
            timers_pending_hwm: metrics.counter_id("engine.timers_pending_hwm"),
            delivery_secs: metrics.stat_id("net.delivery_secs"),
        }
    }
}

struct EngineCore<M> {
    topo: Arc<Topology>,
    queue: EventQueue<Ev<M>>,
    clock: SimTime,
    planner: TransferPlanner,
    node_rngs: Vec<SimRng>,
    net_rng: SimRng,
    /// Timers scheduled but not yet fired or cancelled; its high-water mark
    /// is the `engine.timers_pending_hwm` counter.
    timers_pending: usize,
    next_timer: u64,
    metrics: Metrics,
    ids: HotIds,
    trace: Trace,
    stop_requested: bool,
    current: NodeId,
    /// `Some` only when this engine is one shard of a sharded run; `None`
    /// keeps the serial engine on its original, bit-identical path.
    shard: Option<ShardState<M>>,
}

/// The API an actor sees while handling an event.
pub struct Context<'a, M: Payload> {
    core: &'a mut EngineCore<M>,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// The node this actor runs on.
    pub fn self_id(&self) -> NodeId {
        self.core.current
    }

    /// Number of nodes in the topology.
    pub fn num_nodes(&self) -> usize {
        self.core.topo.len()
    }

    /// Hostname of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.core.topo.node(id).name
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// This node's private random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.node_rngs[self.core.current.index()]
    }

    /// Sends `msg` to `to`. Delivery is scheduled through the transport
    /// model plus the destination's service delay; the send itself is
    /// instantaneous from the caller's perspective (fire and forget).
    pub fn send(&mut self, to: NodeId, msg: M) {
        let from = self.core.current;
        let size = msg.wire_size();
        // Whole-message loss (overlay-visible; protocols must retransmit).
        let drop_p = self.core.planner.config().message_drop_probability;
        if drop_p > 0.0 && from != to && self.core.net_rng.bernoulli(drop_p) {
            self.core.metrics.incr_id(self.core.ids.messages_lost, 1);
            if self.core.trace.is_enabled() {
                self.core.trace.record(
                    self.core.clock,
                    from,
                    TraceEventKind::MessageLost {
                        to,
                        msg: msg.kind(),
                        bytes: size,
                    },
                );
            }
            return;
        }
        if let Some(shard) = &self.core.shard {
            if shard.assignment[to.index()] != shard.shard_id {
                self.send_remote(to, size, msg);
                return;
            }
        }
        let timing = self.core.planner.plan(
            &self.core.topo,
            self.core.clock,
            from,
            to,
            size,
            &mut self.core.net_rng,
        );
        let service = self.sample_service(to, &msg);
        let deliver = timing.deliver + SimDuration::from_secs_f64(service);
        self.core.metrics.incr_id(self.core.ids.messages_sent, 1);
        self.core.metrics.incr_id(self.core.ids.bytes_sent, size);
        self.core.metrics.observe_id(
            self.core.ids.delivery_secs,
            deliver.duration_since(self.core.clock).as_secs_f64(),
        );
        if self.core.trace.is_enabled() {
            self.core.trace.record(
                self.core.clock,
                from,
                TraceEventKind::MessageSent {
                    to,
                    msg: msg.kind(),
                    bytes: size,
                    tx_start: timing.tx_start,
                    deliver_at: deliver,
                },
            );
        }
        self.core
            .queue
            .schedule(deliver, Ev::Deliver { to, from, msg });
    }

    /// Samples `to`'s service delay for `msg`, in seconds, from the network
    /// stream. Both send paths draw it right after their transfer plan.
    fn sample_service(&mut self, to: NodeId, msg: &M) -> f64 {
        let core = &mut *self.core;
        let delay = &core.topo.node(to).service_delay;
        match msg.service_class() {
            ServiceClass::Wakeup => delay.sample_secs(&mut core.net_rng),
            ServiceClass::Fast => {
                delay.sample_secs(&mut core.net_rng) * core.planner.config().fast_service_factor
            }
            ServiceClass::Bulk => 0.0,
        }
    }

    /// Sends a message across a shard boundary: completes the sender-side
    /// half (uplink FIFO, propagation and service samples from this
    /// shard's planner state and RNG) and parks the envelope in the shard
    /// outbox; the destination shard finishes the plan at incorporation.
    /// Mirrors the arithmetic and RNG draw order of the local path in
    /// [`Context::send`] exactly.
    fn send_remote(&mut self, to: NodeId, size: u64, msg: M) {
        let from = self.core.current;
        let plan = self.core.planner.plan_remote_send(
            &self.core.topo,
            self.core.clock,
            from,
            to,
            size,
            &mut self.core.net_rng,
        );
        let service = self.sample_service(to, &msg);
        self.core.metrics.incr_id(self.core.ids.messages_sent, 1);
        self.core.metrics.incr_id(self.core.ids.bytes_sent, size);
        let shard = self
            .core
            .shard
            .as_mut()
            .expect("send_remote requires shard state");
        let src_index = shard.outbox.len() as u64;
        shard.outbox.push(RemoteEnvelope {
            to,
            from,
            msg,
            bytes: size,
            sent_at: self.core.clock,
            tx_start: plan.tx_start,
            first_byte: plan.first_byte,
            service: plan.service,
            service_extra: SimDuration::from_secs_f64(service),
            src_shard: shard.shard_id,
            src_index,
        });
    }

    /// Schedules a timer on the current node after `delay`, carrying `tag`.
    pub fn schedule_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.core.next_timer;
        self.core.next_timer += 1;
        let node = self.core.current;
        self.core.timers_pending += 1;
        self.core.metrics.set_max_id(
            self.core.ids.timers_pending_hwm,
            self.core.timers_pending as u64,
        );
        let fire_at = self.core.clock + delay;
        if self.core.trace.is_enabled() {
            self.core.trace.record(
                self.core.clock,
                node,
                TraceEventKind::TimerArmed {
                    timer: id,
                    tag,
                    fire_at,
                },
            );
        }
        let handle = self
            .core
            .queue
            .schedule(fire_at, Ev::Timer { node, id, tag });
        TimerId { id, handle }
    }

    /// Cancels a previously scheduled timer where it sits in the queue. A
    /// no-op when the timer already fired, was already cancelled or was
    /// never scheduled — a stale handle matches nothing, so cancelling one
    /// cannot touch a later event or grow engine state.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        match self.core.queue.get_mut(timer.handle) {
            Some(ev) if matches!(*ev, Ev::Timer { id, .. } if id == timer.id) => {
                *ev = Ev::Cancelled;
            }
            _ => return,
        }
        self.core.timers_pending -= 1;
        if self.core.trace.is_enabled() {
            self.core.trace.record(
                self.core.clock,
                self.core.current,
                TraceEventKind::TimerCancelled { timer: timer.id },
            );
        }
    }

    /// Samples the wall time this node needs to execute `work_gops`
    /// giga-operations, under its CPU/contention model.
    pub fn execution_time(&mut self, work_gops: f64) -> SimDuration {
        let node = self.core.current;
        let now = self.core.clock;
        let cpu = self.core.topo.node(node).cpu.clone();
        cpu.execution_time_at(work_gops, now, &mut self.core.node_rngs[node.index()])
    }

    /// Uncontended estimate of shipping `bytes` from this node to `to`
    /// (for planning; does not reserve capacity).
    pub fn estimate_transfer(&self, to: NodeId, bytes: u64) -> SimDuration {
        self.core
            .planner
            .estimate_uncontended(&self.core.topo, self.core.current, to, bytes)
    }

    /// Mutable access to the run's metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Whether structured tracing is enabled. Callers building non-trivial
    /// events (anything that allocates) should branch on this first so the
    /// disabled path stays allocation-free.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace.is_enabled()
    }

    /// Appends a typed trace event at the current time on the current node
    /// (no-op when tracing is disabled).
    pub fn trace_event(&mut self, kind: TraceEventKind) {
        let t = self.core.clock;
        let n = self.core.current;
        self.core.trace.record(t, n, kind);
    }

    /// Asks the engine to stop after the current event.
    pub fn stop(&mut self) {
        self.core.stop_requested = true;
    }
}

/// The simulation engine: topology + planner + actors + event loop.
pub struct Engine<M: Payload> {
    core: EngineCore<M>,
    actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    started: bool,
    event_limit: u64,
    events_processed: u64,
    recorder: Option<TimeSeriesRecorder>,
}

impl<M: Payload> Engine<M> {
    /// Creates an engine over `topo` with the given transport config and
    /// master seed.
    pub fn new(topo: Topology, config: TransportConfig, seed: u64) -> Self {
        Self::new_shared(Arc::new(topo), config, seed)
    }

    /// Like [`Engine::new`], but shares an existing topology. A sharded run
    /// builds one engine per shard over the *same* million-node topology;
    /// sharing the `Arc` keeps that O(n) total instead of O(n × shards).
    pub fn new_shared(topo: Arc<Topology>, config: TransportConfig, seed: u64) -> Self {
        let n = topo.len();
        let master = SimRng::new(seed);
        let node_rngs = (0..n).map(|i| master.split(i as u64)).collect();
        let net_rng = master.split(u64::MAX);
        let actors = (0..n).map(|_| None).collect();
        let mut metrics = Metrics::new();
        let ids = HotIds::resolve(&mut metrics);
        Engine {
            core: EngineCore {
                planner: TransferPlanner::new(config, n),
                topo,
                queue: EventQueue::new(),
                clock: SimTime::ZERO,
                node_rngs,
                net_rng,
                timers_pending: 0,
                next_timer: 0,
                ids,
                metrics,
                trace: Trace::disabled(),
                stop_requested: false,
                current: NodeId(0),
                shard: None,
            },
            actors,
            started: false,
            event_limit: 200_000_000,
            events_processed: 0,
            recorder: None,
        }
    }

    /// Installs the actor for `node`. Replacing an existing actor is allowed
    /// before the first run step. Actors must be `Send` so a sharded run
    /// can execute shards on worker threads.
    pub fn register(&mut self, node: NodeId, actor: Box<dyn Actor<M> + Send>) {
        self.actors[node.index()] = Some(actor);
    }

    /// Enables tracing with the given ring capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = Trace::with_capacity(capacity);
    }

    /// Caps the total number of processed events (runaway protection).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.clock
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The run's trace.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// Applies `f` to the actor installed for `node`, if any (for post-run
    /// inspection).
    pub fn with_actor<R>(&self, node: NodeId, f: impl FnOnce(&dyn Actor<M>) -> R) -> Option<R> {
        self.actors[node.index()].as_deref().map(|a| f(a))
    }

    /// Runs `on_start` hooks now (idempotent). A sharded run starts every
    /// shard before computing the first window from the seeded queues.
    pub(crate) fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            if let Some(actor) = &mut self.actors[i] {
                self.core.current = NodeId(i as u32);
                actor.on_start(&mut Context {
                    core: &mut self.core,
                });
            }
        }
    }

    /// Number of timers currently scheduled and neither fired nor
    /// cancelled.
    pub fn pending_timer_count(&self) -> usize {
        self.core.timers_pending
    }

    /// Total events processed so far across all run calls.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Largest number of events ever pending at once in the queue.
    pub fn peak_queue_len(&self) -> usize {
        self.core.queue.peak_len()
    }

    /// Installs a windowed time-series recorder: the run emits each sample
    /// boundary as soon as every event at or before it has been processed
    /// (so a row is exactly "the metrics after time ≤ boundary"), and
    /// flushes the remaining boundaries up to the final clock when
    /// [`Engine::run_until`] returns.
    pub fn install_recorder(&mut self, recorder: TimeSeriesRecorder) {
        self.recorder = Some(recorder);
    }

    /// Removes and returns the installed time-series recorder, if any.
    pub fn take_recorder(&mut self) -> Option<TimeSeriesRecorder> {
        self.recorder.take()
    }

    /// Runs until the queue drains, a stop is requested, the event limit
    /// trips, or virtual time would pass `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let outcome = self.run_bounded(horizon, false);
        if let Some(rec) = &mut self.recorder {
            // The run is over: every event at or before the final clock has
            // run, so boundaries up to and including it are complete.
            rec.sample_up_to(self.core.clock, &self.core.metrics);
        }
        outcome
    }

    /// Marks this engine as shard `shard_id` of a sharded run: sends to
    /// nodes owned by other shards divert into the shard outbox instead of
    /// the local queue.
    pub(crate) fn set_shard(&mut self, assignment: Arc<Vec<usize>>, shard_id: usize) {
        self.core.shard = Some(ShardState {
            assignment,
            shard_id,
            outbox: Vec::new(),
        });
    }

    /// Offsets timer-id allocation so shards mint non-overlapping ids
    /// (purely cosmetic for merged traces; ids never cross shards).
    pub(crate) fn set_timer_base(&mut self, base: u64) {
        self.core.next_timer = base;
    }

    /// Drains the cross-shard outbox accumulated since the last call.
    pub(crate) fn take_outbox(&mut self) -> Vec<RemoteEnvelope<M>> {
        match &mut self.core.shard {
            Some(shard) => std::mem::take(&mut shard.outbox),
            None => Vec::new(),
        }
    }

    /// Whether an actor requested a stop.
    pub(crate) fn stop_requested(&self) -> bool {
        self.core.stop_requested
    }

    /// Timestamp of the earliest pending local event.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.core.queue.peek_time()
    }

    /// Completes a cross-shard delivery on the destination shard: applies
    /// this shard's receiver-side queueing to the sender-side plan,
    /// records the send in this shard's trace/metrics (the delivery time
    /// is only known here), and schedules the local delivery event.
    pub(crate) fn incorporate_remote(&mut self, env: RemoteEnvelope<M>) {
        let deliver = self
            .core
            .planner
            .admit_remote(env.to, env.first_byte, env.service)
            + env.service_extra;
        self.core.metrics.observe_id(
            self.core.ids.delivery_secs,
            deliver.duration_since(env.sent_at).as_secs_f64(),
        );
        if self.core.trace.is_enabled() {
            self.core.trace.record(
                env.sent_at,
                env.from,
                TraceEventKind::MessageSent {
                    to: env.to,
                    msg: env.msg.kind(),
                    bytes: env.bytes,
                    tx_start: env.tx_start,
                    deliver_at: deliver,
                },
            );
        }
        self.core.queue.schedule(
            deliver,
            Ev::Deliver {
                to: env.to,
                from: env.from,
                msg: env.msg,
            },
        );
    }

    /// Runs one conservative-lookahead window: processes events strictly
    /// below `end` (`exclusive`) or up to and including it, then parks the
    /// clock at `end`. An idle shard (empty queue) still parks its clock in
    /// an exclusive window — neighbor horizons must keep advancing.
    pub(crate) fn run_window(&mut self, end: SimTime, exclusive: bool) -> RunOutcome {
        let outcome = self.run_bounded(end, exclusive);
        if exclusive && outcome == RunOutcome::QueueEmpty && self.core.clock < end {
            self.core.clock = end;
        }
        outcome
    }

    fn run_bounded(&mut self, horizon: SimTime, exclusive: bool) -> RunOutcome {
        self.start();
        loop {
            if self.core.stop_requested {
                return RunOutcome::Stopped;
            }
            if self.events_processed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            let Some(next_time) = self.core.queue.peek_time() else {
                return RunOutcome::QueueEmpty;
            };
            if let Some(rec) = &mut self.recorder {
                // Every queued event is at or after `next_time`, so any
                // boundary strictly below it is complete.
                rec.sample_before(next_time, &self.core.metrics);
            }
            if next_time > horizon || (exclusive && next_time >= horizon) {
                self.core.clock = horizon;
                return RunOutcome::HorizonReached;
            }
            let (time, handle, ev) = self.core.queue.pop_with_handle().expect("peeked");
            debug_assert!(time >= self.core.clock, "time must be monotone");
            self.core.clock = time;
            self.events_processed += 1;
            match ev {
                Ev::Deliver { to, from, msg } => {
                    self.core
                        .metrics
                        .incr_id(self.core.ids.messages_delivered, 1);
                    if self.core.trace.is_enabled() {
                        self.core.trace.record(
                            time,
                            to,
                            TraceEventKind::MessageDelivered {
                                from,
                                msg: msg.kind(),
                            },
                        );
                    }
                    if let Some(actor) = &mut self.actors[to.index()] {
                        self.core.current = to;
                        actor.on_message(
                            &mut Context {
                                core: &mut self.core,
                            },
                            from,
                            msg,
                        );
                    } else {
                        self.core
                            .metrics
                            .incr_id(self.core.ids.messages_dropped_no_actor, 1);
                    }
                }
                Ev::Timer { node, id, tag } => {
                    self.core.timers_pending -= 1;
                    if self.core.trace.is_enabled() {
                        self.core.trace.record(
                            time,
                            node,
                            TraceEventKind::TimerFired { timer: id, tag },
                        );
                    }
                    if let Some(actor) = &mut self.actors[node.index()] {
                        self.core.current = node;
                        let timer = TimerId { id, handle };
                        actor.on_timer(
                            &mut Context {
                                core: &mut self.core,
                            },
                            timer,
                            tag,
                        );
                    }
                }
                Ev::Cancelled => {}
            }
        }
    }

    /// Runs until the queue drains (or stop/limit).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::FAR_FUTURE)
    }
}

#[cfg(test)]
#[path = "engine_tests.rs"]
mod tests;
