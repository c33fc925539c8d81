//! The Broker peer: governor of the P2P network (paper §3).
//!
//! The broker admits clients, aggregates per-peer statistics, coordinates
//! chunked file transfers (petition → ack → stop-and-wait parts), manages
//! executable tasks (ship input → offer → accept → result), and — crucially
//! for this study — consults a pluggable [`PeerSelector`] whenever a command
//! says "send this to the *selected* peer".
//!
//! Experiments drive the broker through a command script: a list of
//! `(delay, command)` pairs executed at the scheduled times.
//!
//! The broker is a layered subsystem; the [`Broker`] actor itself is only a
//! message/timer dispatcher over per-concern layers, each in its own
//! submodule:
//!
//! * `registry` — `PeerRegistry`: peer entries, statistics snapshots,
//!   published content, federation roster, interned host names.
//! * `schedule` — `CommandSchedule`: deferred scripted commands, their
//!   retry budget, and first-due instants.
//! * `selection` — `SelectionService`: the single place a [`PeerSelector`]
//!   is consulted, its decision recorded and traced, and outcome feedback
//!   delivered.
//! * `transfer` — `TransferOrchestrator`: outbound transfers sent through
//!   the crate's one sending end (`sendflow`), plus the data pipe id and
//!   traffic count each one reports in its trace rows.
//! * `retry` — `RetryEngine`: retransmission probes and transfer/task
//!   watchdogs.
//! * `tasks` — `TaskBook`: task lifecycle.
//! * `counters` — `BrokerCounters`: pre-resolved protocol counter handles.

pub(crate) mod books;
pub(crate) mod counters;
pub(crate) mod hosts;
pub(crate) mod members;
pub(crate) mod registry;
pub(crate) mod remote;
pub(crate) mod retry;
pub(crate) mod roster;
pub(crate) mod schedule;
pub(crate) mod selection;
pub(crate) mod tasks;
pub(crate) mod transfer;

#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_lossy;

use netsim::engine::{Actor, Context, TimerId};
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::id::IdGenerator;
use crate::message::OverlayMsg;
use crate::records::RecordSink;
use crate::selector::{PeerSelector, Purpose};
use crate::task::TaskPhase;

use counters::{BrokerCounters, FootprintGauges};
use registry::PeerRegistry;
use retry::RetryEngine;
use schedule::CommandSchedule;
use selection::SelectionService;
use tasks::TaskBook;
use transfer::TransferOrchestrator;

pub(crate) const CMD_TAG_BASE: u64 = 1_000_000;
pub(crate) const WATCHDOG_TAG_BASE: u64 = 2_000_000;
pub(crate) const GOSSIP_TAG: u64 = 3_000_000;
pub(crate) const TASK_WATCHDOG_TAG_BASE: u64 = 4_000_000;
pub(crate) const RETRY_TAG_BASE: u64 = 5_000_000;
/// Scripted-outage timers: `+0` crashes the broker, `+1` restarts it.
pub(crate) const FEDERATION_TAG_BASE: u64 = 6_000_000;
pub(crate) const CMD_RETRY_DELAY: SimDuration = SimDuration::from_millis(500);
pub(crate) const CMD_MAX_RETRIES: u32 = 240;
/// EWMA smoothing for observed history.
pub(crate) const EWMA_ALPHA: f64 = 0.3;
/// `k` for the "last k hours" criterion when snapshotting stats.
pub(crate) const STATS_K_HOURS: usize = 24;

/// Retransmission policy for lossy networks: the sender re-sends the
/// petition or the in-flight part when no answer arrives within `timeout`,
/// up to `max_attempts` sends total, then cancels the transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How long to wait for the ack/confirm before retransmitting.
    pub timeout: SimDuration,
    /// Total send attempts per message (1 = no retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_secs(120),
            max_attempts: 4,
        }
    }
}

/// Who should receive a piece of work.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetSpec {
    /// A specific host.
    Node(NodeId),
    /// Every registered client (one work item per client).
    AllClients,
    /// Whichever peer the configured [`PeerSelector`] picks.
    Selected,
}

/// One scripted broker action.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerCommand {
    /// Transfer a synthetic file of `size_bytes`, split into `num_parts`.
    DistributeFile {
        /// Destination(s).
        target: TargetSpec,
        /// File size in bytes.
        size_bytes: u64,
        /// Number of parts (1 = send whole).
        num_parts: u32,
        /// Label recorded with the transfer (figures key on it).
        label: String,
    },
    /// Run a task of `work_gops`, optionally shipping `input_bytes` first.
    SubmitTask {
        /// Executor(s).
        target: TargetSpec,
        /// Compute demand in giga-ops.
        work_gops: f64,
        /// Input to ship before execution (0 = none).
        input_bytes: u64,
        /// Parts for the input shipment.
        input_parts: u32,
        /// Label recorded with the task.
        label: String,
    },
}

/// Broker construction parameters.
pub struct BrokerConfig {
    /// Scripted actions: `(delay from start, command)`.
    pub commands: Vec<(SimDuration, BrokerCommand)>,
    /// Selection model used for [`TargetSpec::Selected`].
    pub selector: Option<Box<dyn PeerSelector>>,
    /// Watchdog: cancel transfers that exceed this duration.
    pub transfer_timeout: SimDuration,
    /// Seed for id generation.
    pub(crate) id_seed: u64,
    /// Stop the whole simulation once all scripted work completes.
    pub stop_when_idle: bool,
    /// Fellow broker hosts to exchange rosters with. Crate-private: the
    /// federation knobs are wired together by
    /// [`crate::federation::Federation::configure`], whose
    /// [`crate::federation::Federation::new`] validates them as a set.
    pub(crate) peer_brokers: Vec<NodeId>,
    /// Roster-gossip period (set by the federation).
    pub(crate) gossip_interval: SimDuration,
    /// Stale-stat tolerance: gossiped candidate views older than this are
    /// invisible to selection, and a fellow broker silent longer than
    /// this is presumed dead. `None` disables both filters.
    pub(crate) staleness_bound: Option<SimDuration>,
    /// Broker-to-broker hop budget for petitions with no local candidate
    /// (0 = never forward).
    pub(crate) forward_hops: u32,
    /// Scripted outage: `(crash at, optional restart at)`, both measured
    /// from simulation start.
    pub(crate) outage: Option<(SimDuration, Option<SimDuration>)>,
    /// Optional retransmission policy (None = rely on watchdogs only;
    /// appropriate when the transport is loss-free, i.e. TCP-like).
    pub retry: Option<RetryPolicy>,
}

impl BrokerConfig {
    /// A broker with no scripted commands.
    pub fn new(id_seed: u64) -> Self {
        BrokerConfig {
            commands: Vec::new(),
            selector: None,
            transfer_timeout: SimDuration::from_mins(90),
            id_seed,
            stop_when_idle: true,
            peer_brokers: Vec::new(),
            gossip_interval: SimDuration::from_secs(60),
            staleness_bound: None,
            forward_hops: 0,
            outage: None,
            retry: None,
        }
    }

    /// Schedules a command `delay` after start.
    pub fn at(mut self, delay: SimDuration, cmd: BrokerCommand) -> Self {
        self.commands.push((delay, cmd));
        self
    }
}

/// The broker actor: a thin dispatcher over the per-concern layers.
pub struct Broker {
    pub(crate) cfg: BrokerConfig,
    pub(crate) ids: IdGenerator,
    pub(crate) registry: PeerRegistry,
    pub(crate) schedule: CommandSchedule,
    pub(crate) selection: SelectionService,
    pub(crate) transfers: TransferOrchestrator,
    pub(crate) retries: RetryEngine,
    pub(crate) tasks: TaskBook,
    pub(crate) counters: Option<BrokerCounters>,
    pub(crate) footprint_gauges: Option<FootprintGauges>,
    pub(crate) sink: RecordSink,
    /// Whether a scripted outage currently has this broker down: every
    /// inbound message is dropped and only the restart timer (plus the
    /// command-replay loop) is serviced.
    pub(crate) down: bool,
    /// Rotation cursor over live fellow brokers for petition forwarding.
    pub(crate) forward_rr: usize,
}

impl Broker {
    /// Creates a broker writing records into `sink`. The config's command
    /// script and selector are moved into their owning layers.
    pub fn new(mut cfg: BrokerConfig, sink: RecordSink) -> Self {
        let id_seed = cfg.id_seed;
        let commands = std::mem::take(&mut cfg.commands);
        let selector = cfg.selector.take();
        Broker {
            ids: IdGenerator::new(id_seed),
            registry: PeerRegistry::new(),
            schedule: CommandSchedule::new(commands),
            selection: SelectionService::new(selector),
            transfers: TransferOrchestrator::new(sink.clone()),
            retries: RetryEngine::new(),
            tasks: TaskBook::new(),
            counters: None,
            footprint_gauges: None,
            sink,
            down: false,
            forward_rr: 0,
            cfg,
        }
    }

    fn execute_command(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        cmd: BrokerCommand,
        enqueued_at: SimTime,
    ) {
        match cmd {
            BrokerCommand::DistributeFile {
                target,
                size_bytes,
                num_parts,
                label,
            } => {
                let purpose = Purpose::FileTransfer { bytes: size_bytes };
                let targets = self.resolve_targets(ctx, &target, purpose);
                if targets.is_empty()
                    && matches!(target, TargetSpec::Selected)
                    && self.cfg.forward_hops > 0
                {
                    // No viable local candidate: hand the petition to a
                    // fellow broker under the configured hop budget.
                    let me = ctx.self_id();
                    self.forward_petition(
                        ctx,
                        me,
                        None,
                        self.cfg.forward_hops,
                        size_bytes,
                        num_parts,
                        &label,
                        enqueued_at,
                    );
                    return;
                }
                for node in targets {
                    self.start_transfer(ctx, node, size_bytes, num_parts, &label, enqueued_at);
                }
            }
            BrokerCommand::SubmitTask {
                target,
                work_gops,
                input_bytes,
                input_parts,
                label,
            } => {
                let purpose = Purpose::TaskExecution {
                    work_gops: work_gops as u64,
                    input_bytes,
                };
                for node in self.resolve_targets(ctx, &target, purpose) {
                    self.submit_task(
                        ctx,
                        node,
                        work_gops,
                        input_bytes,
                        input_parts,
                        &label,
                        enqueued_at,
                    );
                }
            }
        }
    }

    pub(crate) fn work_outstanding(&self) -> bool {
        self.schedule.pending() > 0
            || self.transfers.instructed_pending > 0
            || !self.transfers.flows.is_empty()
            || self
                .tasks
                .tasks
                .values()
                .any(|t| !matches!(t.phase, TaskPhase::Completed | TaskPhase::Failed))
    }

    pub(crate) fn maybe_stop(&mut self, ctx: &mut Context<OverlayMsg>) {
        if self.cfg.stop_when_idle && !self.work_outstanding() {
            ctx.stop();
        }
    }

    /// Scripted crash: every piece of volatile state — registry, in-flight
    /// transfers, retransmission probes, tasks — dies with the process.
    /// The retry engine keeps its tag counters (a restarted process must
    /// not reissue timer tags that stale timers still carry).
    fn crash(&mut self, ctx: &mut Context<OverlayMsg>) {
        if self.down {
            return;
        }
        self.down = true;
        self.registry = PeerRegistry::new();
        self.transfers = TransferOrchestrator::new(self.sink.clone());
        self.retries.clear();
        self.tasks = TaskBook::new();
        ctx.trace_event(netsim::trace::TraceEventKind::BrokerDown);
    }

    /// Scripted restart: the broker comes back empty-handed — clients must
    /// re-join and gossip must repopulate the remote roster.
    fn restart(&mut self, ctx: &mut Context<OverlayMsg>) {
        if !self.down {
            return;
        }
        self.down = false;
        if !self.cfg.peer_brokers.is_empty() {
            // The gossip timer that fired while down was swallowed; re-arm.
            ctx.schedule_timer(self.cfg.gossip_interval, GOSSIP_TAG);
        }
        ctx.trace_event(netsim::trace::TraceEventKind::BrokerUp);
    }
}

impl Actor<OverlayMsg> for Broker {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        self.counters = Some(BrokerCounters::resolve(ctx.metrics()));
        for (i, delay) in self.schedule.delays() {
            ctx.schedule_timer(delay, CMD_TAG_BASE + i as u64);
        }
        if !self.cfg.peer_brokers.is_empty() {
            ctx.schedule_timer(self.cfg.gossip_interval, GOSSIP_TAG);
        }
        if let Some((down_at, restart_at)) = self.cfg.outage {
            ctx.schedule_timer(down_at, FEDERATION_TAG_BASE);
            if let Some(at) = restart_at {
                ctx.schedule_timer(at, FEDERATION_TAG_BASE + 1);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        if self.down {
            // A crashed broker answers nothing — not even Ping, which is
            // exactly how clients detect the outage and re-home.
            return;
        }
        match msg {
            OverlayMsg::Join(adv) => self.on_join(ctx, from, *adv),
            OverlayMsg::Leave { peer } => self.on_leave(ctx, peer),
            OverlayMsg::StatsReport(report) => self.on_stats_report(ctx, from, report),
            OverlayMsg::PetitionAck {
                transfer,
                accepted,
                petition_sent_at,
                handled_at,
            } => self.on_petition_ack(ctx, from, transfer, accepted, petition_sent_at, handled_at),
            OverlayMsg::PartConfirm { transfer, index } => {
                self.on_part_confirm(ctx, transfer, index)
            }
            OverlayMsg::TaskAccept { task } => self.on_task_accept(ctx, task),
            OverlayMsg::TaskReject { task } => self.on_task_reject(ctx, task),
            OverlayMsg::TaskResult {
                task,
                success,
                exec_secs,
            } => self.on_task_result(ctx, task, success, exec_secs),
            OverlayMsg::PublishContent(adv) if self.registry.has_peer(adv.owner) => {
                self.on_publish_content(ctx, from, *adv)
            }
            OverlayMsg::FileRequest { requester, name } => {
                self.on_file_request(ctx, requester, name)
            }
            OverlayMsg::TransferReport {
                ok,
                elapsed_secs,
                bytes,
                ..
            } => self.on_transfer_report(ctx, from, ok, elapsed_secs, bytes),
            OverlayMsg::BrokerGossip {
                from_broker,
                sent_at,
                recipients,
                roster,
            } => self.on_broker_gossip(ctx, from_broker, sent_at, recipients, roster),
            OverlayMsg::PetitionForward(fwd) => self.on_petition_forward(ctx, from, *fwd),
            OverlayMsg::Ping { nonce, sent_at } => {
                ctx.send(from, OverlayMsg::Pong { nonce, sent_at });
            }
            // Remaining messages are not addressed to brokers.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, _timer: TimerId, tag: u64) {
        if tag >= FEDERATION_TAG_BASE {
            match tag - FEDERATION_TAG_BASE {
                0 => self.crash(ctx),
                _ => self.restart(ctx),
            }
            return;
        }
        if self.down {
            // Scripted commands keep re-arming through the outage so they
            // replay after the restart; every other timer dies silently.
            if (CMD_TAG_BASE..WATCHDOG_TAG_BASE).contains(&tag) {
                ctx.schedule_timer(CMD_RETRY_DELAY, tag);
            }
            return;
        }
        if tag == GOSSIP_TAG {
            self.on_gossip_timer(ctx);
            return;
        }
        if tag >= RETRY_TAG_BASE {
            self.on_retry_timer(ctx, tag);
            return;
        }
        if tag >= TASK_WATCHDOG_TAG_BASE {
            self.on_task_watchdog(ctx, tag);
            return;
        }
        if tag >= WATCHDOG_TAG_BASE {
            self.on_transfer_watchdog(ctx, tag);
            return;
        }
        if tag >= CMD_TAG_BASE {
            self.on_command_due(ctx, tag);
        }
    }
}
