//! The scripted command schedule: deferred [`BrokerCommand`]s, their
//! wait-for-peers retry budget, and the instant each command first came
//! due (so queueing delay is attributed to the command, not the retries).

use netsim::idmap::IdMap;

use netsim::engine::Context;
use netsim::time::{SimDuration, SimTime};

use crate::message::OverlayMsg;

use netsim::node::NodeId;

use super::{Broker, BrokerCommand, TargetSpec, CMD_MAX_RETRIES, CMD_RETRY_DELAY, CMD_TAG_BASE};

/// The broker's command script plus the per-command deferral state.
pub(crate) struct CommandSchedule {
    commands: Vec<(SimDuration, BrokerCommand)>,
    /// Whether each command has executed (makes `mark_executed` idempotent
    /// under stale duplicate timers).
    executed: Vec<bool>,
    /// Commands withdrawn before execution (e.g. their target departed).
    cancelled: Vec<bool>,
    /// Wait-for-peers retries consumed, by command timer tag.
    retries: IdMap<u64, u32>,
    /// When each command first came due, by command timer tag. Kept across
    /// deferrals so the eventual execution knows its true enqueue instant.
    first_due: IdMap<u64, SimTime>,
    /// Commands not yet executed or cancelled (drives idle detection).
    pending: usize,
}

impl CommandSchedule {
    pub(crate) fn new(commands: Vec<(SimDuration, BrokerCommand)>) -> Self {
        CommandSchedule {
            pending: commands.len(),
            executed: vec![false; commands.len()],
            cancelled: vec![false; commands.len()],
            commands,
            retries: IdMap::default(),
            first_due: IdMap::default(),
        }
    }

    /// Commands that have not executed yet.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// The initial `(index, delay)` pairs to arm timers for at start-up.
    pub(crate) fn delays(&self) -> Vec<(usize, SimDuration)> {
        self.commands
            .iter()
            .enumerate()
            .map(|(i, (delay, _cmd))| (i, *delay))
            .collect()
    }

    /// The scheduled command at `idx`, if any.
    pub(crate) fn command(&self, idx: usize) -> Option<BrokerCommand> {
        self.commands.get(idx).map(|(_, cmd)| cmd.clone())
    }

    /// Records (idempotently) when the command behind `tag` first came due
    /// and returns that instant.
    pub(crate) fn note_first_due(&mut self, tag: u64, now: SimTime) -> SimTime {
        *self.first_due.entry(tag).or_insert(now)
    }

    /// Consumes one wait-for-peers retry for `tag`. Returns `true` while
    /// budget remains (caller reschedules), `false` once exhausted (caller
    /// executes regardless).
    pub(crate) fn defer(&mut self, tag: u64) -> bool {
        let retries = self.retries.entry(tag).or_insert(0);
        if *retries < CMD_MAX_RETRIES {
            *retries += 1;
            true
        } else {
            false
        }
    }

    /// Marks the command behind `tag` executed. Idempotent: a stale
    /// duplicate timer neither double-counts nor resurrects the command.
    pub(crate) fn mark_executed(&mut self, tag: u64) {
        let idx = (tag - CMD_TAG_BASE) as usize;
        if idx >= self.executed.len() || self.executed[idx] || self.cancelled[idx] {
            return;
        }
        self.executed[idx] = true;
        self.first_due.remove(&tag);
        self.pending = self.pending.saturating_sub(1);
    }

    /// Whether the command behind `tag` has been withdrawn.
    pub(crate) fn is_cancelled(&self, tag: u64) -> bool {
        let idx = (tag - CMD_TAG_BASE) as usize;
        self.cancelled.get(idx).copied().unwrap_or(false)
    }

    /// Withdraws every not-yet-executed command whose explicit target is
    /// `node` (a departed host must not receive deferred work). Returns
    /// how many commands were cancelled.
    pub(crate) fn cancel_for_node(&mut self, node: NodeId) -> usize {
        let mut cancelled = 0;
        for (idx, (_, cmd)) in self.commands.iter().enumerate() {
            if self.executed[idx] || self.cancelled[idx] {
                continue;
            }
            let target = match cmd {
                BrokerCommand::DistributeFile { target, .. }
                | BrokerCommand::SubmitTask { target, .. } => target,
            };
            if *target == TargetSpec::Node(node) {
                self.cancelled[idx] = true;
                self.first_due.remove(&(CMD_TAG_BASE + idx as u64));
                self.pending = self.pending.saturating_sub(1);
                cancelled += 1;
            }
        }
        cancelled
    }
}

impl Broker {
    pub(crate) fn on_command_due(&mut self, ctx: &mut Context<OverlayMsg>, tag: u64) {
        let idx = (tag - CMD_TAG_BASE) as usize;
        let Some(cmd) = self.schedule.command(idx) else {
            return;
        };
        if self.schedule.is_cancelled(tag) {
            // Withdrawn while deferred (its target departed): drop silently
            // and let idle detection account for the vanished command.
            self.maybe_stop(ctx);
            return;
        }
        let now = ctx.now();
        let enqueued_at = self.schedule.note_first_due(tag, now);
        // Every command needs clients, so it waits until someone has
        // joined — unless the federation can take the petition off this
        // broker's hands, in which case executing now forwards it instead.
        if self.registry.is_empty() && !self.can_forward(&cmd) && self.schedule.defer(tag) {
            ctx.schedule_timer(CMD_RETRY_DELAY, tag);
            return;
        }
        self.schedule.mark_executed(tag);
        self.execute_command(ctx, cmd, enqueued_at);
        self.maybe_stop(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::TargetSpec;

    fn distribute(target: TargetSpec, label: &str) -> BrokerCommand {
        BrokerCommand::DistributeFile {
            target,
            size_bytes: 1 << 20,
            num_parts: 2,
            label: label.to_string(),
        }
    }

    fn broadcast(label: &str) -> BrokerCommand {
        distribute(TargetSpec::AllClients, label)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn first_due_is_stamped_once_across_deferrals() {
        let mut s = CommandSchedule::new(vec![(SimDuration::from_secs(1), broadcast("a"))]);
        let tag = CMD_TAG_BASE;
        assert_eq!(s.note_first_due(tag, t(1)), t(1));
        // Later retries must keep reporting the original due instant.
        assert_eq!(s.note_first_due(tag, t(5)), t(1));
        s.mark_executed(tag);
        // After execution the slate is clean (a re-fired tag re-stamps).
        assert_eq!(s.note_first_due(tag, t(9)), t(9));
    }

    #[test]
    fn pending_counts_down_and_saturates() {
        let mut s = CommandSchedule::new(vec![
            (SimDuration::from_secs(1), broadcast("a")),
            (SimDuration::from_secs(2), broadcast("b")),
        ]);
        assert_eq!(s.pending(), 2);
        assert_eq!(
            s.delays(),
            vec![
                (0, SimDuration::from_secs(1)),
                (1, SimDuration::from_secs(2))
            ]
        );
        s.mark_executed(CMD_TAG_BASE);
        s.mark_executed(CMD_TAG_BASE + 1);
        s.mark_executed(CMD_TAG_BASE + 1); // stale duplicate
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn defer_budget_exhausts_at_cmd_max_retries() {
        let mut s = CommandSchedule::new(vec![(SimDuration::ZERO, broadcast("a"))]);
        let tag = CMD_TAG_BASE;
        for _ in 0..CMD_MAX_RETRIES {
            assert!(s.defer(tag), "budget remains");
        }
        assert!(!s.defer(tag), "budget exhausted: execute regardless");
        assert!(!s.defer(tag), "stays exhausted");
    }

    #[test]
    fn command_lookup_is_positional_and_cloned() {
        let s = CommandSchedule::new(vec![(SimDuration::ZERO, broadcast("a"))]);
        assert_eq!(s.command(0), Some(broadcast("a")));
        assert_eq!(s.command(1), None);
    }

    fn to_node(node: u32, label: &str) -> BrokerCommand {
        distribute(TargetSpec::Node(netsim::node::NodeId(node)), label)
    }

    #[test]
    fn cancel_for_node_withdraws_only_matching_pending_commands() {
        let mut s = CommandSchedule::new(vec![
            (SimDuration::ZERO, to_node(3, "a")),
            (SimDuration::ZERO, to_node(5, "b")),
            (SimDuration::ZERO, to_node(3, "c")),
            (SimDuration::ZERO, broadcast("broadcast")),
        ]);
        s.mark_executed(CMD_TAG_BASE); // "a" already ran
        assert_eq!(s.pending(), 3);
        assert_eq!(s.cancel_for_node(netsim::node::NodeId(3)), 1, "only c");
        assert!(s.is_cancelled(CMD_TAG_BASE + 2));
        assert!(!s.is_cancelled(CMD_TAG_BASE + 1));
        assert!(!s.is_cancelled(CMD_TAG_BASE + 3), "broadcasts survive");
        assert_eq!(s.pending(), 2);
        // A stale timer for the cancelled command cannot resurrect it.
        s.mark_executed(CMD_TAG_BASE + 2);
        assert_eq!(s.pending(), 2);
        // Cancelling again finds nothing.
        assert_eq!(s.cancel_for_node(netsim::node::NodeId(3)), 0);
    }
}
