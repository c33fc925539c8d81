//! Scripted peer lifecycle: the churn actor.
//!
//! A [`LifecyclePeer`] walks the canonical membership state machine
//! (`Unknown → Identified → Connected → Departed`, with `Departed →
//! Identified` on rejoin) under a **pre-built script** of sessions: the
//! peer joins after its arrival delay, stays connected for a session
//! length, leaves, sits out an off-time, and rejoins — possibly
//! advertising a different capacity each session, which is exactly the
//! path that exercises the registry's refresh-on-rejoin semantics.
//!
//! Scripts are sampled *before* the run from a dedicated RNG stream
//! ([`LifecycleScript::sample`]), never from per-event randomness, so a
//! sharded run's join/leave schedule is a pure function of the master
//! seed — byte-identical at any worker count. All session timers are
//! armed absolutely at `on_start`.
//!
//! While `Connected` the peer behaves like a minimal receiver: it accepts
//! petitions, confirms parts, executes offered tasks. In any other state
//! it *refuses* new work (petition NAK / task reject) rather than
//! black-holing it — the overlay analogue of a TCP RST from a host whose
//! application has exited — so churn runs wind down through refusal paths
//! instead of hour-long watchdog timeouts. Parts already in flight when
//! the peer departs are silently dropped and left to the sender's retry
//! policy, like a real mid-transfer crash.

use netsim::idmap::IdMap;

use netsim::engine::{Actor, Context, TimerId};
use netsim::metrics::{MetricId, Metrics};
use netsim::node::NodeId;
use netsim::rng::{DelayDistribution, SimRng};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::TraceEventKind;

use crate::advertisement::{PeerAdvertisement, DEFAULT_LIFETIME};
use crate::federation::FailoverPolicy;
use crate::filetransfer::{InboundTransfer, PartReceipt};
use crate::footprint::{map_estimate, slots_estimate, FootprintBreakdown, MemoryFootprint};
use crate::id::{IdGenerator, PeerId, TransferId};
use crate::message::OverlayMsg;

/// Timer tags `2*i` / `2*i + 1` mark session `i`'s join / leave.
const SESSION_TAG_SPAN: u64 = 1 << 32;
/// Task-execution timers live above every session tag.
const TASK_TAG_BASE: u64 = SESSION_TAG_SPAN;
/// Failover-probe timers live above every task tag (tasks allocate
/// upward from [`TASK_TAG_BASE`] one at a time; a run would need 2^32
/// tasks on one peer to collide).
const PROBE_TAG_BASE: u64 = 1 << 33;

/// Where a peer stands in its membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Not yet arrived: the overlay has never heard of this peer.
    Unknown,
    /// Join sent, acknowledgement outstanding.
    Identified,
    /// Registered member, serving work.
    Connected,
    /// Left the overlay (possibly until the next scripted session).
    Departed,
}

/// One scripted connected period.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// How long the peer stays connected.
    pub length: SimDuration,
    /// Idle gap after leaving, before the next session (ignored for the
    /// final session).
    pub off_time: SimDuration,
    /// Capacity advertised for this session (rejoins may differ — churn
    /// is how stale-capacity bugs surface).
    pub cpu_gops: f64,
}

/// A peer's whole scripted life: arrival, then alternating sessions and
/// off-times.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleScript {
    /// Delay from run start to the first Join.
    pub arrival: SimDuration,
    /// The connected sessions, in order. Never empty.
    pub sessions: Vec<SessionPlan>,
}

/// Distributions a [`LifecycleScript`] is sampled from.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnProfile {
    /// Arrival delay of the first join.
    pub arrival: DelayDistribution,
    /// Connected-session length.
    pub session: DelayDistribution,
    /// Off-time between sessions.
    pub off_time: DelayDistribution,
    /// Pareto scale (minimum) for per-session advertised capacity, gops.
    pub cpu_xm: f64,
    /// Pareto shape for per-session capacity (heavier tail when smaller).
    pub cpu_alpha: f64,
}

impl Default for ChurnProfile {
    fn default() -> Self {
        // Medians in the tens-of-minutes band observed in P2P session
        // studies: most sessions are short, a heavy tail stays for hours.
        ChurnProfile {
            arrival: DelayDistribution::Uniform { lo: 0.0, hi: 600.0 },
            session: DelayDistribution::Lognormal {
                median: 1800.0,
                sigma: 1.0,
            },
            off_time: DelayDistribution::Lognormal {
                median: 600.0,
                sigma: 0.8,
            },
            cpu_xm: 0.5,
            cpu_alpha: 1.8,
        }
    }
}

impl LifecycleScript {
    /// Samples a script from `profile`, packing sessions until `horizon`
    /// (at least one). All randomness comes from `rng`, so the schedule
    /// is fixed before the simulation starts.
    pub fn sample(rng: &mut SimRng, profile: &ChurnProfile, horizon: SimDuration) -> Self {
        let arrival = SimDuration::from_secs_f64(
            profile
                .arrival
                .sample_secs(rng)
                .min(horizon.as_secs_f64() * 0.5),
        );
        let mut sessions = Vec::new();
        let mut t = arrival;
        loop {
            let length = SimDuration::from_secs_f64(profile.session.sample_secs(rng));
            let off_time = SimDuration::from_secs_f64(profile.off_time.sample_secs(rng));
            let cpu_gops = rng.pareto(profile.cpu_xm, profile.cpu_alpha);
            sessions.push(SessionPlan {
                length,
                off_time,
                cpu_gops,
            });
            t = t + length + off_time;
            if t >= horizon {
                break;
            }
        }
        LifecycleScript { arrival, sessions }
    }

    /// Absolute `(join, leave)` instants of session `i`, from run start.
    pub fn session_bounds(&self, i: usize) -> (SimDuration, SimDuration) {
        let mut start = self.arrival;
        for s in &self.sessions[..i] {
            start = start + s.length + s.off_time;
        }
        (start, start + self.sessions[i].length)
    }
}

/// Pre-resolved churn counters (swap-dynamics accounting).
struct LifecycleCounters {
    joins: MetricId,
    rejoins: MetricId,
    leaves: MetricId,
    refused_petitions: MetricId,
    refused_tasks: MetricId,
    rehomes: MetricId,
    script_bytes: MetricId,
}

impl LifecycleCounters {
    fn resolve(metrics: &mut Metrics) -> Self {
        LifecycleCounters {
            joins: metrics.counter_id("churn.joins"),
            rejoins: metrics.counter_id("churn.rejoins"),
            leaves: metrics.counter_id("churn.leaves"),
            refused_petitions: metrics.counter_id("churn.refused_petitions"),
            refused_tasks: metrics.counter_id("churn.refused_tasks"),
            rehomes: metrics.counter_id("churn.rehomes"),
            script_bytes: metrics.counter_id("churn.script_bytes"),
        }
    }
}

/// Behaviour knobs for a [`LifecyclePeer`].
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Broker hosts in home-preference order: the peer lives through the
    /// first, and — when `failover` is set — walks down the list each
    /// time its current home stops answering probes (wrapping around).
    /// Never empty.
    pub brokers: Vec<NodeId>,
    /// The pre-built join/leave schedule.
    pub script: LifecycleScript,
    /// Whether to accept executable tasks while connected.
    pub accepts_tasks: bool,
    /// When set, the peer pings its home every `probe_interval` and
    /// re-homes to the next broker on the list after `probe_timeout`
    /// of silence. `None` = trust the home forever (single-broker runs).
    pub failover: Option<FailoverPolicy>,
}

struct RunningTask {
    id: crate::id::TaskId,
    exec_secs: f64,
}

/// The churn actor: a peer that follows its [`LifecycleScript`].
pub struct LifecyclePeer {
    cfg: LifecycleConfig,
    peer_id: PeerId,
    state: LifecycleState,
    /// Index of the session the next join/leave timer belongs to.
    session: usize,
    /// Position on `cfg.brokers` (mod its length) of the current home.
    home_idx: usize,
    /// Last instant the current home answered anything (ack or pong).
    last_ok: SimTime,
    /// Monotone epoch: bumped at every join and leave so probe timers
    /// armed for an earlier connected period die as stale tags.
    probe_epoch: u64,
    inbound: IdMap<TransferId, InboundTransfer>,
    running: IdMap<u64, RunningTask>,
    next_task_tag: u64,
    counters: Option<LifecycleCounters>,
}

impl LifecyclePeer {
    /// Creates a lifecycle peer; `id_seed` fixes its [`PeerId`] (stable
    /// across every session of its life).
    pub fn new(cfg: LifecycleConfig, id_seed: u64) -> Self {
        assert!(!cfg.script.sessions.is_empty(), "a life needs a session");
        assert!(!cfg.brokers.is_empty(), "a peer needs a home broker");
        let mut ids = IdGenerator::new(id_seed);
        LifecyclePeer {
            peer_id: PeerId::generate(&mut ids),
            cfg,
            state: LifecycleState::Unknown,
            session: 0,
            home_idx: 0,
            last_ok: SimTime::ZERO,
            probe_epoch: 0,
            inbound: IdMap::default(),
            running: IdMap::default(),
            next_task_tag: TASK_TAG_BASE,
            counters: None,
        }
    }

    /// This peer's stable identity.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// The broker this peer currently calls home.
    pub fn broker(&self) -> NodeId {
        self.cfg.brokers[self.home_idx % self.cfg.brokers.len()]
    }

    fn bump(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        which: fn(&LifecycleCounters) -> MetricId,
        delta: u64,
    ) {
        let ids = self
            .counters
            .get_or_insert_with(|| LifecycleCounters::resolve(ctx.metrics()));
        let id = which(ids);
        ctx.metrics().incr_id(id, delta);
    }

    /// Sends this session's advertisement to the current home and awaits
    /// the ack. Shared by scripted joins and failover re-homes — only the
    /// former count as joins/rejoins.
    fn send_advert(&mut self, ctx: &mut Context<OverlayMsg>, session: usize) {
        let adv = PeerAdvertisement {
            peer: self.peer_id,
            node: ctx.self_id(),
            name: ctx.node_name(ctx.self_id()).to_string(),
            cpu_gops: self.cfg.script.sessions[session].cpu_gops,
            accepts_tasks: self.cfg.accepts_tasks,
            published: ctx.now(),
            lifetime: DEFAULT_LIFETIME,
        };
        ctx.send(self.broker(), OverlayMsg::Join(Box::new(adv)));
        self.state = LifecycleState::Identified;
    }

    fn send_join(&mut self, ctx: &mut Context<OverlayMsg>, session: usize) {
        self.send_advert(ctx, session);
        if session == 0 {
            self.bump(ctx, |c| c.joins, 1);
        } else {
            self.bump(ctx, |c| c.rejoins, 1);
        }
    }

    /// A fired failover probe: give up on a silent home, then keep
    /// probing whichever broker is current.
    fn on_probe(&mut self, ctx: &mut Context<OverlayMsg>, tag: u64) {
        if tag != PROBE_TAG_BASE + self.probe_epoch {
            return; // probe armed for an earlier connected period
        }
        if matches!(
            self.state,
            LifecycleState::Unknown | LifecycleState::Departed
        ) {
            return;
        }
        let Some(policy) = self.cfg.failover else {
            return;
        };
        let now = ctx.now();
        if now - self.last_ok > policy.probe_timeout {
            let from = self.broker();
            self.home_idx += 1;
            let to = self.broker();
            ctx.trace_event(TraceEventKind::PeerRehomed { from, to });
            self.bump(ctx, |c| c.rehomes, 1);
            // Grace: the new home gets a full timeout before judgment.
            self.last_ok = now;
            // In-flight receive state belonged to transfers the dead
            // broker drove; its retry engine is gone, so drop them and
            // let the new home re-petition.
            self.inbound.clear();
            self.send_advert(ctx, self.session);
        }
        ctx.send(
            self.broker(),
            OverlayMsg::Ping {
                nonce: self.probe_epoch,
                sent_at: now,
            },
        );
        ctx.schedule_timer(policy.probe_interval, tag);
    }
}

impl MemoryFootprint for LifecyclePeer {
    /// Length-based heap estimate: the pre-sampled session plan under
    /// `scripts`, in-flight receive state under `content`, running tasks
    /// under `stats`.
    fn memory_footprint(&self) -> FootprintBreakdown {
        FootprintBreakdown {
            scripts: slots_estimate::<SessionPlan>(self.cfg.script.sessions.len()),
            content: map_estimate::<TransferId, InboundTransfer>(self.inbound.len()),
            stats: map_estimate::<u64, RunningTask>(self.running.len()),
            ..FootprintBreakdown::default()
        }
    }
}

impl Actor<OverlayMsg> for LifecyclePeer {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        // Scripts are immutable for the whole run, so their cost is
        // counted once, up front; summed across peers by the metrics
        // merge, this is the fleet's script-storage bill.
        let script_bytes = self.memory_footprint().scripts;
        self.bump(ctx, |c| c.script_bytes, script_bytes);
        // Arm every session's join and leave absolutely, up front: the
        // whole life is decided before the first event fires.
        for i in 0..self.cfg.script.sessions.len() {
            let (join_at, leave_at) = self.cfg.script.session_bounds(i);
            ctx.schedule_timer(join_at, 2 * i as u64);
            ctx.schedule_timer(leave_at, 2 * i as u64 + 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        let now = ctx.now();
        let connected = self.state == LifecycleState::Connected;
        match msg {
            OverlayMsg::JoinAck { .. } if self.state == LifecycleState::Identified => {
                self.state = LifecycleState::Connected;
                self.last_ok = now;
            }
            OverlayMsg::JoinAck { .. } => {}
            // Any sign of life from the current home resets the failover
            // clock (stale pongs from an abandoned broker are filtered by
            // sender).
            OverlayMsg::Pong { .. } if from == self.broker() => {
                self.last_ok = now;
            }
            OverlayMsg::Pong { .. } => {}
            OverlayMsg::FilePetition {
                transfer,
                num_parts,
                sent_at,
                ..
            } => {
                // Same duplicate discipline as SimpleClient: a retransmitted
                // petition for a known transfer must not reset its state.
                let already_known = self.inbound.contains_key(&transfer);
                let accepted = connected || already_known;
                if accepted && !already_known {
                    self.inbound
                        .insert(transfer, InboundTransfer::new(transfer, num_parts, now));
                }
                if !accepted {
                    self.bump(ctx, |c| c.refused_petitions, 1);
                }
                ctx.send(
                    from,
                    OverlayMsg::PetitionAck {
                        transfer,
                        accepted,
                        petition_sent_at: sent_at,
                        handled_at: now,
                    },
                );
            }
            OverlayMsg::FilePart {
                transfer,
                index,
                size,
            } => {
                // Parts for unknown transfers (including everything after a
                // mid-transfer departure) are dropped: the sender's retry
                // policy owns the failure.
                if let Some(inb) = self.inbound.get_mut(&transfer) {
                    if inb.on_part(index, size) != PartReceipt::Gap {
                        ctx.send(from, OverlayMsg::PartConfirm { transfer, index });
                    }
                }
            }
            OverlayMsg::TransferComplete { transfer } | OverlayMsg::TransferCancel { transfer } => {
                self.inbound.remove(&transfer);
            }
            OverlayMsg::TaskOffer { task, .. } => {
                if connected && self.cfg.accepts_tasks {
                    ctx.send(from, OverlayMsg::TaskAccept { task: task.id });
                    let exec = ctx.execution_time(task.work_gops);
                    let tag = self.next_task_tag;
                    self.next_task_tag += 1;
                    self.running.insert(
                        tag,
                        RunningTask {
                            id: task.id,
                            exec_secs: exec.as_secs_f64(),
                        },
                    );
                    ctx.schedule_timer(exec, tag);
                } else {
                    self.bump(ctx, |c| c.refused_tasks, 1);
                    ctx.send(from, OverlayMsg::TaskReject { task: task.id });
                }
            }
            OverlayMsg::Ping { nonce, sent_at } => {
                ctx.send(from, OverlayMsg::Pong { nonce, sent_at });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, _timer: TimerId, tag: u64) {
        if tag >= PROBE_TAG_BASE {
            self.on_probe(ctx, tag);
            return;
        }
        if tag >= TASK_TAG_BASE {
            if let Some(done) = self.running.remove(&tag) {
                ctx.send(
                    self.broker(),
                    OverlayMsg::TaskResult {
                        task: done.id,
                        success: true,
                        exec_secs: done.exec_secs,
                    },
                );
            }
            return;
        }
        let session = (tag / 2) as usize;
        if tag.is_multiple_of(2) {
            // Join of session `session`.
            self.session = session;
            self.send_join(ctx, session);
            self.probe_epoch += 1;
            self.last_ok = ctx.now();
            if let Some(policy) = self.cfg.failover {
                ctx.schedule_timer(policy.probe_interval, PROBE_TAG_BASE + self.probe_epoch);
            }
        } else {
            // Leave of session `session`: drop receive state mid-flight.
            if self.state == LifecycleState::Connected || self.state == LifecycleState::Identified {
                ctx.send(self.broker(), OverlayMsg::Leave { peer: self.peer_id });
                self.bump(ctx, |c| c.leaves, 1);
            }
            self.state = LifecycleState::Departed;
            self.inbound.clear();
            // Outstanding probe timers die as stale tags.
            self.probe_epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_scripts_are_deterministic_and_cover_horizon() {
        let profile = ChurnProfile::default();
        let horizon = SimDuration::from_secs(7200);
        let a = LifecycleScript::sample(&mut SimRng::new(9), &profile, horizon);
        let b = LifecycleScript::sample(&mut SimRng::new(9), &profile, horizon);
        assert_eq!(a, b, "same seed, same life");
        assert!(!a.sessions.is_empty());
        let (last_join, last_leave) = a.session_bounds(a.sessions.len() - 1);
        assert!(last_leave > last_join);
        // The final session's span reaches past (or the loop would have
        // packed another one before) the horizon minus one off-time.
        let end = last_leave + a.sessions.last().unwrap().off_time;
        assert!(end >= horizon || a.sessions.len() == 1);
    }

    #[test]
    fn session_bounds_accumulate_lengths_and_off_times() {
        let script = LifecycleScript {
            arrival: SimDuration::from_secs(10),
            sessions: vec![
                SessionPlan {
                    length: SimDuration::from_secs(100),
                    off_time: SimDuration::from_secs(50),
                    cpu_gops: 1.0,
                },
                SessionPlan {
                    length: SimDuration::from_secs(200),
                    off_time: SimDuration::from_secs(9),
                    cpu_gops: 2.0,
                },
            ],
        };
        assert_eq!(
            script.session_bounds(0),
            (SimDuration::from_secs(10), SimDuration::from_secs(110))
        );
        assert_eq!(
            script.session_bounds(1),
            (SimDuration::from_secs(160), SimDuration::from_secs(360))
        );
    }

    #[test]
    fn peer_starts_unknown_with_a_stable_identity() {
        let cfg = LifecycleConfig {
            brokers: vec![NodeId(0)],
            script: LifecycleScript {
                arrival: SimDuration::ZERO,
                sessions: vec![SessionPlan {
                    length: SimDuration::from_secs(60),
                    off_time: SimDuration::ZERO,
                    cpu_gops: 1.0,
                }],
            },
            accepts_tasks: true,
            failover: None,
        };
        let p = LifecyclePeer::new(cfg.clone(), 7);
        let q = LifecyclePeer::new(cfg, 7);
        assert_eq!(p.state(), LifecycleState::Unknown);
        assert_eq!(p.peer_id(), q.peer_id(), "identity is seed-derived");
        assert_eq!(p.broker(), NodeId(0));
    }

    #[test]
    fn home_preference_walks_and_wraps() {
        let cfg = LifecycleConfig {
            brokers: vec![NodeId(4), NodeId(9), NodeId(2)],
            script: LifecycleScript {
                arrival: SimDuration::ZERO,
                sessions: vec![SessionPlan {
                    length: SimDuration::from_secs(60),
                    off_time: SimDuration::ZERO,
                    cpu_gops: 1.0,
                }],
            },
            accepts_tasks: false,
            failover: Some(FailoverPolicy::default()),
        };
        let mut p = LifecyclePeer::new(cfg, 3);
        assert_eq!(p.broker(), NodeId(4));
        p.home_idx += 1;
        assert_eq!(p.broker(), NodeId(9));
        p.home_idx += 2;
        assert_eq!(p.broker(), NodeId(4), "preference list wraps");
    }
}
