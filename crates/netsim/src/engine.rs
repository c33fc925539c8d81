//! The actor-based discrete-event engine.
//!
//! Each simulated host runs one [`Actor`]. Actors exchange typed messages;
//! delivery times come from the [`TransferPlanner`] (network physics) plus
//! the destination node's service-delay distribution (host physics). All
//! randomness flows through per-node split streams of one master seed, so a
//! run is a pure function of `(topology, config, seed, actors)`.

use std::sync::Arc;

use crate::event::EventQueue;
use crate::idmap::IdSet;
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

/// Handle identifying a scheduled timer, for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// The behaviour of one simulated host.
pub trait Actor<M: Payload> {
    /// Called once at simulation start (time 0), in node-id order.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}
    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);
    /// Called when a timer scheduled by this node fires.
    fn on_timer(&mut self, _ctx: &mut Context<M>, _timer: TimerId, _tag: u64) {}
}

enum Ev<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, tag: u64 },
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
    /// Timers scheduled but not yet fired or cancelled. A timer fires only
    /// while its id is in this set, so cancellation is `remove` and firing
    /// purges as it goes — no tombstones, bounded by in-flight timers.
    pending_timers: IdSet<u64>,
    /// High-water mark of `pending_timers.len()`, flushed to the
    /// `engine.timers_pending_hwm` counter when a run step returns.
    timers_pending_hwm: usize,
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
        let service = match msg.service_class() {
            ServiceClass::Wakeup => self
                .core
                .topo
                .node(to)
                .service_delay
                .sample_secs(&mut self.core.net_rng),
            ServiceClass::Fast => {
                self.core
                    .topo
                    .node(to)
                    .service_delay
                    .sample_secs(&mut self.core.net_rng)
                    * self.core.planner.config().fast_service_factor
            }
            ServiceClass::Bulk => 0.0,
        };
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
        let service = match msg.service_class() {
            ServiceClass::Wakeup => self
                .core
                .topo
                .node(to)
                .service_delay
                .sample_secs(&mut self.core.net_rng),
            ServiceClass::Fast => {
                self.core
                    .topo
                    .node(to)
                    .service_delay
                    .sample_secs(&mut self.core.net_rng)
                    * self.core.planner.config().fast_service_factor
            }
            ServiceClass::Bulk => 0.0,
        };
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
        let id = TimerId(self.core.next_timer);
        self.core.next_timer += 1;
        let node = self.core.current;
        self.core.pending_timers.insert(id.0);
        if self.core.pending_timers.len() > self.core.timers_pending_hwm {
            self.core.timers_pending_hwm = self.core.pending_timers.len();
        }
        let fire_at = self.core.clock + delay;
        if self.core.trace.is_enabled() {
            self.core.trace.record(
                self.core.clock,
                node,
                TraceEventKind::TimerArmed {
                    timer: id.0,
                    tag,
                    fire_at,
                },
            );
        }
        self.core
            .queue
            .schedule(fire_at, Ev::Timer { node, id, tag });
        id
    }

    /// Cancels a previously scheduled timer. A no-op when the timer already
    /// fired or was never scheduled — in particular it leaves no
    /// bookkeeping behind, so cancelling stale handles cannot grow engine
    /// state.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.core.pending_timers.remove(&id.0) && self.core.trace.is_enabled() {
            self.core.trace.record(
                self.core.clock,
                self.core.current,
                TraceEventKind::TimerCancelled { timer: id.0 },
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

    /// Appends a free-form trace row (no-op when tracing is disabled).
    /// Prefer [`Context::trace_event`] with a typed kind; this is the
    /// escape hatch for ad-hoc instrumentation.
    pub fn trace(&mut self, kind: &'static str, detail: String) {
        self.trace_event(TraceEventKind::Custom { kind, detail });
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
                pending_timers: IdSet::default(),
                timers_pending_hwm: 0,
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

    /// Immutable access to an installed actor (for post-run inspection).
    pub fn actor(&self, node: NodeId) -> Option<&dyn Actor<M>> {
        self.actors[node.index()]
            .as_deref()
            .map(|a| a as &dyn Actor<M>)
    }

    /// Downcast-style accessor: applies `f` to the actor if installed.
    pub fn with_actor<R>(&self, node: NodeId, f: impl FnOnce(&dyn Actor<M>) -> R) -> Option<R> {
        self.actor(node).map(f)
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            if let Some(mut actor) = self.actors[i].take() {
                self.core.current = NodeId(i as u32);
                let mut ctx = Context {
                    core: &mut self.core,
                };
                actor.on_start(&mut ctx);
                self.actors[i] = Some(actor);
            }
        }
    }

    /// Number of timers currently scheduled and neither fired nor
    /// cancelled. Engine timer bookkeeping is bounded by this count — a
    /// cancelled or fired timer leaves nothing behind.
    pub fn pending_timer_count(&self) -> usize {
        self.core.pending_timers.len()
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
        self.flush_run_metrics();
        if let Some(rec) = &mut self.recorder {
            // The run is over: every event at or before the final clock has
            // run, so boundaries up to and including it are complete.
            rec.sample_up_to(self.core.clock, &self.core.metrics);
        }
        outcome
    }

    /// Flushes run-scoped gauges (the timer high-water mark) so post-run
    /// metric readers see them. `run_until` does this after every step; a
    /// sharded run does it once per shard when the whole run ends.
    pub(crate) fn flush_run_metrics(&mut self) {
        self.core.metrics.set_max_id(
            self.core.ids.timers_pending_hwm,
            self.core.timers_pending_hwm as u64,
        );
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

    /// Runs `on_start` hooks now (idempotent). A sharded run starts every
    /// shard before computing the first window from the seeded queues.
    pub(crate) fn start(&mut self) {
        self.start_if_needed();
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
    /// an exclusive window — neighbor horizons must keep advancing. Unlike
    /// [`Engine::run_until`] this does not flush run-scoped gauges — a
    /// sharded run does that once at the end.
    pub(crate) fn run_window(&mut self, end: SimTime, exclusive: bool) -> RunOutcome {
        let outcome = self.run_bounded(end, exclusive);
        if exclusive && outcome == RunOutcome::QueueEmpty && self.core.clock < end {
            self.core.clock = end;
        }
        outcome
    }

    fn run_bounded(&mut self, horizon: SimTime, exclusive: bool) -> RunOutcome {
        self.start_if_needed();
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
            let (time, ev) = self.core.queue.pop().expect("peeked");
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
                    if let Some(mut actor) = self.actors[to.index()].take() {
                        self.core.current = to;
                        let mut ctx = Context {
                            core: &mut self.core,
                        };
                        actor.on_message(&mut ctx, from, msg);
                        self.actors[to.index()] = Some(actor);
                    } else {
                        self.core
                            .metrics
                            .incr_id(self.core.ids.messages_dropped_no_actor, 1);
                    }
                }
                Ev::Timer { node, id, tag } => {
                    // Fire only if still pending; removal doubles as the
                    // tombstone purge (cancelled timers were removed at
                    // cancel time, fired timers are removed here).
                    if !self.core.pending_timers.remove(&id.0) {
                        continue;
                    }
                    if self.core.trace.is_enabled() {
                        self.core.trace.record(
                            time,
                            node,
                            TraceEventKind::TimerFired { timer: id.0, tag },
                        );
                    }
                    if let Some(mut actor) = self.actors[node.index()].take() {
                        self.core.current = node;
                        let mut ctx = Context {
                            core: &mut self.core,
                        };
                        actor.on_timer(&mut ctx, id, tag);
                        self.actors[node.index()] = Some(actor);
                    }
                }
            }
        }
    }

    /// Runs until the queue drains (or stop/limit).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::FAR_FUTURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{AccessLink, PathSpec};
    use crate::node::NodeSpec;
    use crate::rng::DelayDistribution;

    #[derive(Debug, Clone, PartialEq)]
    enum Ping {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for Ping {
        fn wire_size(&self) -> u64 {
            64
        }
        fn kind(&self) -> &'static str {
            match self {
                Ping::Ping(_) => "ping",
                Ping::Pong(_) => "pong",
            }
        }
    }

    struct Pinger {
        peer: NodeId,
        rounds: u32,
        completed_at: Option<SimTime>,
    }

    impl Actor<Ping> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.send(self.peer, Ping::Ping(0));
        }
        fn on_message(&mut self, ctx: &mut Context<Ping>, _from: NodeId, msg: Ping) {
            if let Ping::Pong(n) = msg {
                if n + 1 < self.rounds {
                    ctx.send(self.peer, Ping::Ping(n + 1));
                } else {
                    self.completed_at = Some(ctx.now());
                }
            }
        }
    }

    struct Ponger;

    impl Actor<Ping> for Ponger {
        fn on_message(&mut self, ctx: &mut Context<Ping>, from: NodeId, msg: Ping) {
            if let Ping::Ping(n) = msg {
                ctx.send(from, Ping::Pong(n));
            }
        }
    }

    fn topo(owd_ms: f64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
        t.set_path_symmetric(a, b, PathSpec::from_owd_ms(owd_ms, 0.0));
        (t, a, b)
    }

    fn build_pingpong(seed: u64) -> (Engine<Ping>, NodeId) {
        let (t, a, b) = topo(25.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), seed);
        e.register(
            a,
            Box::new(Pinger {
                peer: b,
                rounds: 10,
                completed_at: None,
            }),
        );
        e.register(b, Box::new(Ponger));
        (e, a)
    }

    #[test]
    fn pingpong_completes_and_time_advances() {
        let (mut e, _a) = build_pingpong(1);
        assert_eq!(e.run(), RunOutcome::QueueEmpty);
        // 10 rounds × 2 × (25 ms + service) ≈ 0.5 s + ε
        let secs = e.now().as_secs_f64();
        assert!(secs > 0.5 && secs < 1.0, "elapsed {secs}");
        assert_eq!(e.metrics().counter("net.messages_sent"), 20);
        assert_eq!(e.metrics().counter("net.messages_delivered"), 20);
    }

    #[test]
    fn same_seed_same_history() {
        let (mut e1, _) = build_pingpong(7);
        let (mut e2, _) = build_pingpong(7);
        e1.enable_trace(1024);
        e2.enable_trace(1024);
        e1.run();
        e2.run();
        assert_eq!(e1.trace().digest(), e2.trace().digest());
        assert_eq!(e1.now(), e2.now());
    }

    #[test]
    fn different_seed_different_history_with_jitter() {
        let make = |seed| {
            let mut t = Topology::new();
            let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
            let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
            t.set_path_symmetric(a, b, PathSpec::from_owd_ms(25.0, 0.5));
            let mut e = Engine::new(t, TransportConfig::default(), seed);
            e.register(
                a,
                Box::new(Pinger {
                    peer: b,
                    rounds: 10,
                    completed_at: None,
                }),
            );
            e.register(b, Box::new(Ponger));
            e.run();
            e.now()
        };
        assert_ne!(make(1), make(2));
    }

    #[test]
    fn horizon_stops_the_clock_exactly() {
        let (mut e, _) = build_pingpong(3);
        let horizon = SimTime::from_secs_f64(0.1);
        assert_eq!(e.run_until(horizon), RunOutcome::HorizonReached);
        assert_eq!(e.now(), horizon);
        // Can resume afterwards.
        assert_eq!(e.run(), RunOutcome::QueueEmpty);
    }

    #[test]
    fn event_limit_trips() {
        let (mut e, _) = build_pingpong(4);
        e.set_event_limit(3);
        assert_eq!(e.run(), RunOutcome::EventLimit);
    }

    #[test]
    fn service_delay_inflates_delivery() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
        let slow = NodeSpec::responsive("b").with_service_delay(DelayDistribution::Constant(5.0));
        let b = t.add_node(slow, AccessLink::default());
        t.set_path_symmetric(a, b, PathSpec::from_owd_ms(1.0, 0.0));
        let mut e = Engine::new(t, TransportConfig::ideal(), 5);
        e.register(
            a,
            Box::new(Pinger {
                peer: b,
                rounds: 1,
                completed_at: None,
            }),
        );
        e.register(b, Box::new(Ponger));
        e.run();
        // One round trip dominated by b's 5 s service delay.
        assert!(e.now().as_secs_f64() > 5.0);
        assert!(e.now().as_secs_f64() < 6.0);
    }

    struct TimerActor {
        fired: Vec<u64>,
        cancel_second: bool,
    }

    impl Actor<Ping> for TimerActor {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.schedule_timer(SimDuration::from_secs(1), 1);
            let second = ctx.schedule_timer(SimDuration::from_secs(2), 2);
            ctx.schedule_timer(SimDuration::from_secs(3), 3);
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<Ping>, _from: NodeId, _msg: Ping) {}
        fn on_timer(&mut self, _ctx: &mut Context<Ping>, _timer: TimerId, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let (t, a, _b) = topo(10.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), 6);
        e.register(
            a,
            Box::new(TimerActor {
                fired: vec![],
                cancel_second: true,
            }),
        );
        e.run();
        // Inspect the actor through the trait-object accessor by re-boxing:
        // simplest is to re-run without cancel and compare times.
        assert_eq!(e.now().as_secs_f64(), 3.0);
    }

    #[test]
    fn cancel_after_fire_leaves_no_tombstone() {
        // Regression: cancelling a timer that already fired used to insert
        // its id into a tombstone set that was never purged, growing
        // engine state forever under schedule/fire/cancel churn.
        struct LateCanceller {
            first: Option<TimerId>,
        }
        impl Actor<Ping> for LateCanceller {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                self.first = Some(ctx.schedule_timer(SimDuration::from_secs(1), 1));
                ctx.schedule_timer(SimDuration::from_secs(2), 2);
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, tag: u64) {
                if tag == 2 {
                    // The 1 s timer fired long ago; cancelling it now must
                    // be a no-op that records nothing.
                    ctx.cancel_timer(self.first.expect("scheduled at start"));
                    // Cancelling a handle that was never scheduled (forged
                    // id) must also record nothing.
                    ctx.cancel_timer(TimerId(u64::MAX));
                }
            }
        }
        let (t, a, _b) = topo(10.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), 11);
        e.register(a, Box::new(LateCanceller { first: None }));
        e.run();
        assert_eq!(
            e.pending_timer_count(),
            0,
            "fired + cancelled timers must leave no bookkeeping behind"
        );
        assert_eq!(e.metrics().counter("engine.timers_pending_hwm"), 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire_and_is_purged() {
        struct CancelImmediately {
            fired: bool,
        }
        impl Actor<Ping> for CancelImmediately {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                let id = ctx.schedule_timer(SimDuration::from_secs(1), 7);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, _: u64) {
                self.fired = true;
                ctx.metrics().incr("test.timer_fired", 1);
            }
        }
        let (t, a, _b) = topo(10.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), 12);
        e.register(a, Box::new(CancelImmediately { fired: false }));
        e.run();
        assert_eq!(e.pending_timer_count(), 0);
        assert_eq!(
            e.metrics().counter("test.timer_fired"),
            0,
            "cancelled timer must not fire"
        );
    }

    #[test]
    fn pending_timer_set_stays_bounded_under_churn() {
        // Schedule-and-fire many timers one after another; in-flight count
        // never exceeds the overlap, and the high-water metric records it.
        struct Chain {
            remaining: u32,
        }
        impl Actor<Ping> for Chain {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.schedule_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, _: u64) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.schedule_timer(SimDuration::from_millis(1), 0);
                }
            }
        }
        let (t, a, _b) = topo(10.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), 13);
        e.register(a, Box::new(Chain { remaining: 10_000 }));
        e.run();
        assert_eq!(e.pending_timer_count(), 0);
        assert_eq!(
            e.metrics().counter("engine.timers_pending_hwm"),
            1,
            "chained timers never overlap"
        );
    }

    #[test]
    fn stop_request_halts_promptly() {
        struct Stopper;
        impl Actor<Ping> for Stopper {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.schedule_timer(SimDuration::from_secs(1), 0);
                ctx.schedule_timer(SimDuration::from_secs(100), 1);
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut Context<Ping>, _: TimerId, tag: u64) {
                if tag == 0 {
                    ctx.stop();
                }
            }
        }
        let (t, a, _b) = topo(10.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), 8);
        e.register(a, Box::new(Stopper));
        assert_eq!(e.run(), RunOutcome::Stopped);
        assert_eq!(e.now().as_secs_f64(), 1.0);
    }

    #[test]
    fn messages_to_actorless_nodes_are_counted() {
        let (t, a, _b) = topo(10.0);
        struct Blind {
            peer: NodeId,
        }
        impl Actor<Ping> for Blind {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.send(self.peer, Ping::Ping(0));
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        }
        let mut e = Engine::new(t, TransportConfig::ideal(), 9);
        let b = NodeId(1);
        e.register(a, Box::new(Blind { peer: b }));
        e.run();
        assert_eq!(e.metrics().counter("net.messages_dropped_no_actor"), 1);
    }

    #[test]
    fn context_estimates_and_names() {
        struct Probe {
            peer: NodeId,
            est: Option<SimDuration>,
        }
        impl Actor<Ping> for Probe {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                assert_eq!(ctx.node_name(ctx.self_id()), "a");
                assert_eq!(ctx.num_nodes(), 2);
                self.est = Some(ctx.estimate_transfer(self.peer, 1_000_000));
            }
            fn on_message(&mut self, _: &mut Context<Ping>, _: NodeId, _: Ping) {}
        }
        let (t, a, b) = topo(10.0);
        let mut e = Engine::new(t, TransportConfig::ideal(), 10);
        e.register(a, Box::new(Probe { peer: b, est: None }));
        e.run();
    }
}
