//! Outside-in tracing: wall-clock spans and per-handler buckets recorded
//! around the program's public boundaries, with no change to the program.
//!
//! [`Traced`] wraps any harness [`Workload`]: it times `topology` and
//! `actors`, and wraps every actor the workload returns in a
//! [`TimedActor`]. A `TimedActor` delegates the three [`Actor`] callbacks
//! and — when the profile is enabled — adds each call's wall time to a
//! bucket keyed by the actor's role and the handler (`start`, `timer`, or
//! the delivered message's `Payload::kind()`). Calls of at least
//! [`SPAN_FLOOR`] also leave a span; shorter ones only add to their bucket,
//! which keeps a million-event run's span list in the thousands.
//!
//! The untraced repetitions run through the same adapter with the profile
//! disabled. Then only the brokers are wrapped, and a wrapped actor does
//! nothing but note the instant of the first `on_start` (the `setup_s` /
//! `run_s` boundary) and delegate. Peers stay bare because the wrapper is
//! not free: one more object per actor is one more cache miss per event,
//! measured at 8 % of `failover-20k` with the profile off — so the
//! end-to-end numbers are the program's own, and what the traced run adds
//! (wrapper, two clock reads and a bucket update per event) is reported as
//! `trace.wrapper_overhead_share`.
//!
//! A handler's time includes the `Context` calls it makes (`send` plans the
//! transfer and pushes the event); `engine.self_s` is what remains of the
//! run once every handler bucket is subtracted.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use netsim::engine::{Actor, Context, Payload, TimerId};
use netsim::node::NodeId;
use netsim::time::SimDuration;
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use workloads::harness::{
    BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload,
};

/// Handler calls at least this long are kept as spans.
pub const SPAN_FLOOR: Duration = Duration::from_micros(100);

/// Most spans one run keeps; further ones are counted in
/// [`Collected::spans_dropped`] (their time still lands in the buckets).
const MAX_SPANS: usize = 200_000;

/// Which callback a bucket counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Handler {
    Start,
    Timer,
    /// A delivered message, by `Payload::kind()`.
    Msg(&'static str),
}

impl Handler {
    /// `start`, `timer`, or `msg.<kind>` — the middle of a metric name.
    pub fn label(self) -> String {
        match self {
            Handler::Start => "start".into(),
            Handler::Timer => "timer".into(),
            Handler::Msg(kind) => format!("msg.{kind}"),
        }
    }
}

/// Calls and wall time of one (role, handler) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    pub count: u64,
    pub busy: Duration,
}

/// One recorded interval, in nanoseconds since the profile's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything a run's actors and phases reported.
#[derive(Debug, Default)]
pub struct Collected {
    pub buckets: BTreeMap<(&'static str, Handler), Bucket>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    /// End of the latest handler call: what follows it until the run
    /// returns is the drain (final windows, merging, teardown).
    pub last_handler_end: Option<Instant>,
}

impl Collected {
    /// Summed wall time of every bucket.
    pub fn handler_busy(&self) -> Duration {
        self.buckets.values().map(|b| b.busy).sum()
    }

    /// The spans file of one repetition: a root span over the whole
    /// repetition, `setup` and `run` under it, and every phase and long
    /// handler call under whichever of the two it falls in. One span per
    /// line, so the file greps and diffs.
    pub fn spans_json(&self, workload: &str, seed: u64, run_start_ns: u64, end_ns: u64) -> String {
        let root = [
            ("repetition", 0, end_ns),
            ("setup", 0, run_start_ns),
            ("run", run_start_ns, end_ns),
        ];
        let all = root
            .iter()
            .map(|&(name, start, end)| (name, start, end))
            .chain(
                self.spans
                    .iter()
                    .map(|s| (s.name.as_str(), s.start_ns, s.end_ns)),
            );
        let mut out = format!(
            "{{\"run_id\":\"{workload}-seed{seed}\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"span_floor_ns\":{},\"dropped\":{},\"spans\":[\n",
            SPAN_FLOOR.as_nanos(),
            self.spans_dropped
        );
        for (id, (name, start, end)) in all.enumerate() {
            let parent = match id {
                0 => "null",
                1 | 2 => "0",
                _ if end <= run_start_ns => "1",
                _ => "2",
            };
            let comma = if id == 0 { "" } else { ",\n" };
            out.push_str(&format!(
                "{comma}{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\
                 \"start_ns\":{start},\"end_ns\":{end}}}"
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Seconds of the phase span called `name`; 0 if there is none.
    pub fn phase_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Summed calls of the message and timer buckets — one per event the
    /// engine dispatched to an actor.
    #[cfg(test)]
    pub fn dispatched(&self) -> u64 {
        self.buckets
            .iter()
            .filter(|((_, h), _)| *h != Handler::Start)
            .map(|(_, b)| b.count)
            .sum()
    }
}

/// The shared recorder of one run.
pub struct Profile {
    enabled: bool,
    origin: Instant,
    first_start: OnceLock<Instant>,
    collected: Mutex<Collected>,
}

impl Profile {
    /// `origin` is the instant span timestamps count from (process entry).
    pub fn new(enabled: bool, origin: Instant) -> Arc<Profile> {
        Arc::new(Profile {
            enabled,
            origin,
            first_start: OnceLock::new(),
            collected: Mutex::new(Collected::default()),
        })
    }

    /// The instant the first actor's `on_start` began, once one has.
    pub fn first_start(&self) -> Option<Instant> {
        self.first_start.get().copied()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a named phase span (kept whatever its length).
    pub fn phase(&self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            let mut c = self.collected.lock().expect("profile lock");
            c.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Takes what was collected so far.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.collected.lock().expect("profile lock"))
    }
}

/// An actor wrapped for timing; see the module docs. It holds no state of
/// its own — buckets live in the shared profile — so that wrapping adds
/// one cache line per actor and not three.
pub struct TimedActor<M: Payload> {
    inner: Box<dyn Actor<M> + Send>,
    role: &'static str,
    profile: Arc<Profile>,
}

impl<M: Payload> TimedActor<M> {
    pub fn new(inner: Box<dyn Actor<M> + Send>, role: &'static str, profile: Arc<Profile>) -> Self {
        TimedActor {
            inner,
            role,
            profile,
        }
    }

    fn record(&self, handler: Handler, start: Instant) {
        let end = Instant::now();
        let busy = end - start;
        let mut c = self.profile.collected.lock().expect("profile lock");
        let bucket = c.buckets.entry((self.role, handler)).or_default();
        bucket.count += 1;
        bucket.busy += busy;
        c.last_handler_end = Some(end);
        if busy >= SPAN_FLOOR {
            if c.spans.len() < MAX_SPANS {
                c.spans.push(Span {
                    name: format!("{}.{}", self.role, handler.label()),
                    start_ns: self.profile.ns(start),
                    end_ns: self.profile.ns(end),
                });
            } else {
                c.spans_dropped += 1;
            }
        }
    }
}

impl<M: Payload> Actor<M> for TimedActor<M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        // The first actor's bucket starts at the boundary instant itself, so
        // no sliver of the run falls between `setup_s` and the buckets.
        let t0 = Instant::now();
        self.profile.first_start.get_or_init(|| t0);
        if !self.profile.enabled {
            return self.inner.on_start(ctx);
        }
        self.inner.on_start(ctx);
        self.record(Handler::Start, t0);
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        if !self.profile.enabled {
            return self.inner.on_message(ctx, from, msg);
        }
        let handler = Handler::Msg(msg.kind());
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.record(handler, t0);
    }

    fn on_timer(&mut self, ctx: &mut Context<M>, timer: TimerId, tag: u64) {
        if !self.profile.enabled {
            return self.inner.on_timer(ctx, timer, tag);
        }
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer, tag);
        self.record(Handler::Timer, t0);
    }
}

/// Role names [`Traced`] assigns: a node on the broker roster, or not.
pub const BROKER: &str = "broker";
pub const PEER: &str = "peer";

/// Span names of the two phases [`Traced`] times.
pub const TOPOLOGY_PHASE: &str = "harness.topology";
pub const ACTORS_PHASE: &str = "harness.actors";

/// A harness workload with its phases timed and its actors wrapped.
pub struct Traced<'a, W: Workload + ?Sized> {
    inner: &'a W,
    profile: Arc<Profile>,
}

impl<'a, W: Workload + ?Sized> Traced<'a, W> {
    pub fn new(inner: &'a W, profile: Arc<Profile>) -> Self {
        Traced { inner, profile }
    }
}

impl<W: Workload + ?Sized> Workload for Traced<'_, W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError> {
        let t0 = Instant::now();
        let plan = self.inner.topology(seed);
        self.profile.phase(TOPOLOGY_PHASE, t0, Instant::now());
        plan
    }

    fn federation(&self) -> FederationSpec {
        self.inner.federation()
    }

    fn actors(
        &self,
        cx: &BuildCtx<'_>,
    ) -> Vec<(NodeId, Box<dyn Actor<overlay::message::OverlayMsg> + Send>)> {
        let t0 = Instant::now();
        let wrapped = self
            .inner
            .actors(cx)
            .into_iter()
            .map(|(node, actor)| {
                let role = if cx.brokers.contains(&node) {
                    BROKER
                } else if self.profile.enabled {
                    PEER
                } else {
                    // Untraced: peers stay bare (module docs). The first
                    // `on_start` is still seen, because on the broker-first
                    // synthetic testbeds every shard's lowest node — the
                    // one the engine starts first — is a broker.
                    return (node, actor);
                };
                let timed = TimedActor::new(actor, role, self.profile.clone());
                (node, Box::new(timed) as Box<dyn Actor<_> + Send>)
            })
            .collect();
        self.profile.phase(ACTORS_PHASE, t0, Instant::now());
        wrapped
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        self.inner.series_schema(interval)
    }

    fn summarize(&self, seed: u64, run: &HarnessRun) -> String {
        self.inner.summarize(seed, run)
    }
}
