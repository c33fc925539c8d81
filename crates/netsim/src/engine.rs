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
use crate::owners::Owners;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timeseries::TimeSeriesRecorder;
use crate::topology::Topology;
use crate::trace::{Trace, TraceEventKind};
use crate::transport::{RemoteSendPlan, TransferPlanner, TransferTiming, TransportConfig};

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
    pub(crate) plan: RemoteSendPlan,
    /// Destination-host service delay (already sampled, sender-side RNG).
    pub(crate) service_extra: SimDuration,
    pub(crate) src_shard: usize,
    /// Position in the source shard's outbox, for deterministic tie-breaks.
    pub(crate) src_index: u64,
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
    /// The run's node → owner table; this engine runs the nodes of `shard`.
    owners: Owners,
    shard: u32,
    /// The RNG stream of each owned node, by slot.
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
    /// Boundary-crossing messages produced since the last drain; always
    /// empty on an engine that owns every node.
    outbox: Vec<RemoteEnvelope<M>>,
    /// Deliveries due after this instant are never stored, since nothing
    /// past it ever pops: a sharded run's horizon, `FAR_FUTURE` on the
    /// serial engine (which may be run again, further). Timers are always
    /// stored — cancelling one must find it.
    cutoff: SimTime,
    /// The earliest delivery left unstored by `cutoff`: where the queue
    /// head would be had it been stored.
    beyond: Option<SimTime>,
}

impl<M: Payload> EngineCore<M> {
    /// Where this engine keeps `node`'s state, if it owns `node`.
    fn owned_slot(&self, node: NodeId) -> Option<usize> {
        let owner = self.owners.of(node);
        (owner.shard == self.shard).then_some(owner.slot as usize)
    }

    /// The RNG stream of the node whose handler is running.
    fn current_rng(&mut self) -> &mut SimRng {
        let slot = self.owners.of(self.current).slot as usize;
        &mut self.node_rngs[slot]
    }

    /// Finishes a send whose delivery time is known on the shard that
    /// owns `to`: samples `net.delivery_secs`, records `MessageSent` and
    /// schedules the delivery.
    fn finish_send(
        &mut self,
        sent_at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: u64,
        timing: TransferTiming,
    ) {
        let deliver = timing.deliver;
        self.metrics.observe_id(
            self.ids.delivery_secs,
            deliver.duration_since(sent_at).as_secs_f64(),
        );
        if self.trace.is_enabled() {
            self.trace.record(
                sent_at,
                from,
                TraceEventKind::MessageSent {
                    to,
                    msg: msg.kind(),
                    bytes,
                    tx_start: timing.tx_start,
                    deliver_at: deliver,
                },
            );
        }
        self.schedule_delivery(deliver, to, from, msg);
    }

    /// Queues a fully planned delivery, or, when it is due after the
    /// cutoff, keeps only its time in `beyond`. Every send-side effect
    /// (FIFO state, RNG draws, metrics, trace) has happened by now.
    fn schedule_delivery(&mut self, at: SimTime, to: NodeId, from: NodeId, msg: M) {
        if at > self.cutoff {
            self.beyond = Some(self.beyond.map_or(at, |b| b.min(at)));
        } else {
            self.queue.schedule(at, Ev::Deliver { to, from, msg });
        }
    }
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
        self.core.current_rng()
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
        self.core.metrics.incr_id(self.core.ids.messages_sent, 1);
        self.core.metrics.incr_id(self.core.ids.bytes_sent, size);
        if self.core.owners.of(to).shard != self.core.shard {
            self.send_remote(to, size, msg);
            return;
        }
        let now = self.core.clock;
        let mut timing =
            self.core
                .planner
                .plan(&self.core.topo, now, from, to, size, &mut self.core.net_rng);
        timing.deliver += SimDuration::from_secs_f64(self.sample_service(to, &msg));
        self.core.finish_send(now, from, to, msg, size, timing);
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

    /// Sends a message across a shard boundary: plans the sender-side half
    /// from this shard's planner state and RNG, in the local path's draw
    /// order, and parks the envelope in the shard outbox; the destination
    /// shard finishes the plan at incorporation.
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
        let core = &mut *self.core;
        core.outbox.push(RemoteEnvelope {
            to,
            from,
            msg,
            bytes: size,
            sent_at: core.clock,
            plan,
            service_extra: SimDuration::from_secs_f64(service),
            src_shard: core.shard as usize,
            src_index: core.outbox.len() as u64,
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
        cpu.execution_time_at(work_gops, now, self.core.current_rng())
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
    /// The actor of each owned node, by slot.
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
        let owners = Owners::single(topo.len());
        Self::for_shard(topo, config, seed, owners, 0)
    }

    /// An engine running, and holding per-node state for, the nodes `owners`
    /// gives to `shard`. A node's stream is `master.split(node)` under any
    /// partition; timer ids start at `shard << 48` (cosmetic: merged traces).
    pub(crate) fn for_shard(
        topo: Arc<Topology>,
        config: TransportConfig,
        seed: u64,
        owners: Owners,
        shard: u32,
    ) -> Self {
        let master = SimRng::new(seed);
        let node_rngs: Vec<SimRng> = (owners.nodes_of(shard))
            .map(|node| master.split(node.index() as u64))
            .collect();
        let net_rng = master.split(u64::MAX);
        let actors = (0..node_rngs.len()).map(|_| None).collect();
        let mut metrics = Metrics::new();
        let ids = HotIds::resolve(&mut metrics);
        Engine {
            core: EngineCore {
                planner: TransferPlanner::new(config, topo.len()),
                topo,
                queue: EventQueue::new(),
                clock: SimTime::ZERO,
                owners,
                shard,
                node_rngs,
                net_rng,
                timers_pending: 0,
                next_timer: u64::from(shard) << 48,
                ids,
                metrics,
                trace: Trace::disabled(),
                stop_requested: false,
                current: NodeId(0),
                outbox: Vec::new(),
                cutoff: SimTime::FAR_FUTURE,
                beyond: None,
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
        let slot = self.core.owned_slot(node).expect("an owned node");
        self.actors[slot] = Some(actor);
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
        let slot = self.core.owned_slot(node)?;
        self.actors[slot].as_deref().map(|a| f(a))
    }

    /// Runs `on_start` hooks now (idempotent). A sharded run starts every
    /// shard before computing the first window from the seeded queues.
    pub(crate) fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let owners = self.core.owners.clone();
        for (actor, node) in self.actors.iter_mut().zip(owners.nodes_of(self.core.shard)) {
            if let Some(actor) = actor {
                self.core.current = node;
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

    /// Lengths of the per-node tables this engine holds: RNG streams, actor
    /// slots, and the planner's in-flight lists.
    #[cfg(test)]
    pub(crate) fn node_table_lens(&self) -> [usize; 3] {
        let core = &self.core;
        [
            core.node_rngs.len(),
            self.actors.len(),
            core.planner.inflight_lists(),
        ]
    }

    /// Total events processed so far across all run calls.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Largest number of events ever stored at once in the queue (a shard
    /// of a sharded run stores no delivery due after its horizon).
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

    /// Makes the first run's `horizon` the cutoff: no delivery due after
    /// it is stored. Panics if a later run would pass it, since the
    /// deliveries left unstored would be missing.
    pub(crate) fn set_cutoff(&mut self, horizon: SimTime) {
        if self.core.cutoff == SimTime::FAR_FUTURE {
            self.core.cutoff = horizon;
        }
        assert!(
            horizon <= self.core.cutoff,
            "a sharded run cannot be extended past its first horizon"
        );
    }

    /// Moves the cross-shard outbox accumulated since the last call onto
    /// the end of `into`; the outbox keeps its capacity.
    pub(crate) fn drain_outbox_into(&mut self, into: &mut Vec<RemoteEnvelope<M>>) {
        into.append(&mut self.core.outbox);
    }

    /// Whether an actor requested a stop.
    pub(crate) fn stop_requested(&self) -> bool {
        self.core.stop_requested
    }

    /// Timestamp of the earliest pending local event, an unstored delivery
    /// included: the head the queue would show had it stored everything.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        let core = &self.core;
        core.queue.peek_time().into_iter().chain(core.beyond).min()
    }

    /// Completes a cross-shard delivery on the destination shard: applies
    /// this shard's receiver-side queueing to the sender-side plan and
    /// finishes the send here, where its delivery time is known.
    pub(crate) fn incorporate_remote(&mut self, env: RemoteEnvelope<M>) {
        let deliver = self.core.planner.admit_remote(env.to, env.plan) + env.service_extra;
        let timing = TransferTiming {
            tx_start: env.plan.tx_start,
            deliver,
        };
        self.core
            .finish_send(env.sent_at, env.from, env.to, env.msg, env.bytes, timing);
    }

    /// Runs one conservative-lookahead window: processes events strictly
    /// below `end` (`exclusive`) or up to and including it, then parks the
    /// clock at `end`. An idle shard (empty queue) still parks its clock in
    /// an exclusive window — neighbor horizons must keep advancing.
    pub(crate) fn run_window(&mut self, end: SimTime, exclusive: bool) -> RunOutcome {
        let outcome = self.run_bounded(end, exclusive);
        if exclusive && outcome == RunOutcome::QueueEmpty {
            self.park_at(end);
        }
        outcome
    }

    /// Moves an idle shard's clock up to `t`; never moves it back.
    pub(crate) fn park_at(&mut self, t: SimTime) {
        self.core.clock = self.core.clock.max(t);
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
            let next_time = match self.core.queue.peek_time() {
                Some(t) if t <= horizon => t,
                // Nothing stored inside the window: an unstored delivery
                // may be the true head (outcome, clock and sampling read it).
                _ => match self.next_event_time() {
                    Some(t) => t,
                    None => return RunOutcome::QueueEmpty,
                },
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
                    let slot = self.core.owners.of(to).slot as usize;
                    if let Some(actor) = &mut self.actors[slot] {
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
                    let slot = self.core.owners.of(node).slot as usize;
                    if let Some(actor) = &mut self.actors[slot] {
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
