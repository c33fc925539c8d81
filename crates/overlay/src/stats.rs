//! The resource-statistics interface of JXTA-Overlay (paper §2.2/§3).
//!
//! Brokers keep "historical and statistical data" per peer; the data
//! evaluator selection model turns these into a weighted cost. This module
//! implements every criterion the paper enumerates:
//!
//! * message criteria — % successfully sent messages (session / total /
//!   last k hours), inbox & outbox queue length (now / average);
//! * task criteria — % successfully executed and % accepted (session / total);
//! * file criteria — % sent files and % cancelled transfers (session /
//!   total), number of pending transfers.

use std::fmt;

use netsim::time::{SimDuration, SimTime};

/// Success/attempt ratio counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RatioCounter {
    /// Attempts recorded.
    pub attempts: u64,
    /// Successful attempts recorded.
    pub successes: u64,
}

impl RatioCounter {
    /// Records one attempt and its outcome.
    pub fn record(&mut self, success: bool) {
        self.attempts += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Success percentage in `[0, 100]`, or `None` with no history.
    pub fn percent(&self) -> Option<f64> {
        if self.attempts == 0 {
            None
        } else {
            Some(100.0 * self.successes as f64 / self.attempts as f64)
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &RatioCounter) {
        self.attempts += other.attempts;
        self.successes += other.successes;
    }
}

/// Time-weighted queue-length gauge: tracks the current length and the
/// exact time-weighted average since creation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueGauge {
    current: u32,
    integral: f64, // length × seconds
    started: SimTime,
    last_update: SimTime,
}

impl QueueGauge {
    /// Creates a gauge starting at time `now` with length zero.
    pub fn new(now: SimTime) -> Self {
        QueueGauge {
            current: 0,
            integral: 0.0,
            started: now,
            last_update: now,
        }
    }

    fn accumulate(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_update).as_secs_f64();
        self.integral += self.current as f64 * dt;
        self.last_update = now;
    }

    /// Sets the queue length at time `now`.
    pub fn set(&mut self, now: SimTime, len: u32) {
        self.accumulate(now);
        self.current = len;
    }

    /// Increments the length at time `now`.
    pub fn incr(&mut self, now: SimTime) {
        self.accumulate(now);
        self.current += 1;
    }

    /// Decrements the length at time `now` (saturating).
    pub fn decr(&mut self, now: SimTime) {
        self.accumulate(now);
        self.current = self.current.saturating_sub(1);
    }

    /// Current length.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Whether [`QueueGauge::average`] still depends on when it is asked:
    /// a gauge that is empty and always has been averages to zero at any
    /// instant.
    pub(crate) fn is_integrating(&self) -> bool {
        self.current != 0 || self.integral != 0.0
    }

    /// Time-weighted average length over the gauge's lifetime up to `now`.
    pub fn average(&self, now: SimTime) -> f64 {
        let total = now.duration_since(self.started).as_secs_f64();
        if total <= 0.0 {
            return self.current as f64;
        }
        let pending = now.duration_since(self.last_update).as_secs_f64();
        (self.integral + self.current as f64 * pending) / total
    }
}

/// Ratio counter bucketed by hour for "last k hours" criteria.
///
/// A fixed ring of hourly buckets; querying sums the buckets that fall
/// inside the window. Granularity of one hour matches the paper's phrasing
/// ("during the last k-hours").
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedRatio {
    buckets: Vec<RatioCounter>,
    /// Absolute hour index of the bucket at `head`.
    head_hour: u64,
    head: usize,
}

impl WindowedRatio {
    /// Creates a window able to answer queries up to `capacity_hours` back.
    pub fn new(capacity_hours: usize) -> Self {
        WindowedRatio {
            buckets: vec![RatioCounter::default(); capacity_hours.max(1)],
            head_hour: 0,
            head: 0,
        }
    }

    /// Estimated heap bytes held by the bucket ring (the window's only
    /// heap allocation), for [`MemoryFootprint`](crate::footprint)
    /// accounting.
    pub fn heap_bytes(&self) -> u64 {
        (self.buckets.len() * std::mem::size_of::<RatioCounter>()) as u64
    }

    /// The absolute hour index `t` falls in — all a "last k hours" query
    /// keeps of the instant it is asked at.
    pub(crate) fn hour_of(t: SimTime) -> u64 {
        t.as_nanos() / SimDuration::from_secs(3600).as_nanos()
    }

    fn advance_to(&mut self, hour: u64) {
        while self.head_hour < hour {
            self.head_hour += 1;
            self.head = (self.head + 1) % self.buckets.len();
            self.buckets[self.head] = RatioCounter::default();
        }
    }

    /// Records an attempt at time `now`.
    pub fn record(&mut self, now: SimTime, success: bool) {
        self.advance_to(Self::hour_of(now));
        self.buckets[self.head].record(success);
    }

    /// Success percentage over the last `k` hours ending at `now`.
    pub fn percent_last_hours(&self, now: SimTime, k: usize) -> Option<f64> {
        let now_hour = Self::hour_of(now);
        let mut total = RatioCounter::default();
        for back in 0..k.min(self.buckets.len()) {
            let Some(hour) = now_hour.checked_sub(back as u64) else {
                break;
            };
            if hour > self.head_hour {
                continue; // future bucket (none recorded yet)
            }
            let behind = (self.head_hour - hour) as usize;
            if behind >= self.buckets.len() {
                break;
            }
            let idx = (self.head + self.buckets.len() - behind) % self.buckets.len();
            total.merge(&self.buckets[idx]);
        }
        total.percent()
    }
}

/// The per-scope (session or all-time) counter block of §2.2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeCounters {
    /// Messages sent, and how many succeeded.
    pub messages: RatioCounter,
    /// Tasks offered, and how many the peer accepted.
    pub tasks_accepted: RatioCounter,
    /// Tasks started, and how many executed successfully.
    pub tasks_executed: RatioCounter,
    /// File sends attempted, and how many completed.
    pub files_sent: RatioCounter,
    /// File transfers started, and how many were cancelled
    /// (successes here count *cancellations*, so lower is better).
    pub transfers_cancelled: RatioCounter,
}

/// Live statistics record the broker keeps for one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerStats {
    /// Counters for the current session.
    pub session: ScopeCounters,
    /// Counters over all sessions.
    pub total: ScopeCounters,
    /// Hour-bucketed message-success window.
    pub message_window: WindowedRatio,
    /// Outbox queue gauge.
    pub outbox: QueueGauge,
    /// Inbox queue gauge.
    pub inbox: QueueGauge,
    /// File transfers currently in flight to/from this peer.
    pub pending_transfers: u32,
    /// Advertised CPU rate (gops), from the peer advertisement.
    pub cpu_gops: f64,
}

impl PeerStats {
    /// Fresh stats for a peer first seen at `now`.
    pub fn new(now: SimTime, cpu_gops: f64) -> Self {
        PeerStats {
            session: ScopeCounters::default(),
            total: ScopeCounters::default(),
            message_window: WindowedRatio::new(48),
            outbox: QueueGauge::new(now),
            inbox: QueueGauge::new(now),
            pending_transfers: 0,
            cpu_gops,
        }
    }

    /// Starts a new session: session counters reset, totals persist
    /// (the paper distinguishes "current session" from "all sessions").
    pub fn begin_session(&mut self) {
        self.session = ScopeCounters::default();
    }

    /// Records a message send outcome at `now`.
    pub fn record_message(&mut self, now: SimTime, success: bool) {
        self.session.messages.record(success);
        self.total.messages.record(success);
        self.message_window.record(now, success);
    }

    /// Records a task-offer outcome.
    pub fn record_task_offer(&mut self, accepted: bool) {
        self.session.tasks_accepted.record(accepted);
        self.total.tasks_accepted.record(accepted);
    }

    /// Records a task-execution outcome.
    pub fn record_task_execution(&mut self, success: bool) {
        self.session.tasks_executed.record(success);
        self.total.tasks_executed.record(success);
    }

    /// Records a file-send outcome.
    pub fn record_file_send(&mut self, completed: bool) {
        self.session.files_sent.record(completed);
        self.total.files_sent.record(completed);
        self.session.transfers_cancelled.record(!completed);
        self.total.transfers_cancelled.record(!completed);
    }

    /// Takes a point-in-time snapshot with every §2.2 criterion evaluated.
    pub fn snapshot(&self, now: SimTime, k_hours: usize) -> StatsSnapshot {
        StatsSnapshot {
            msg_success_session: self.session.messages.percent(),
            msg_success_total: self.total.messages.percent(),
            msg_success_last_k: self.message_window.percent_last_hours(now, k_hours),
            outbox_now: self.outbox.current() as f64,
            outbox_avg: self.outbox.average(now),
            inbox_now: self.inbox.current() as f64,
            inbox_avg: self.inbox.average(now),
            task_exec_session: self.session.tasks_executed.percent(),
            task_exec_total: self.total.tasks_executed.percent(),
            task_accept_session: self.session.tasks_accepted.percent(),
            task_accept_total: self.total.tasks_accepted.percent(),
            files_sent_session: self.session.files_sent.percent(),
            files_sent_total: self.total.files_sent.percent(),
            cancel_session: self.session.transfers_cancelled.percent(),
            cancel_total: self.total.transfers_cancelled.percent(),
            pending_transfers: self.pending_transfers as f64,
            cpu_gops: self.cpu_gops,
        }
    }
}

/// One §2.2 selection criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Criterion {
    /// % successfully sent messages, current session.
    MsgSuccessSession,
    /// % successfully sent messages, all sessions.
    MsgSuccessTotal,
    /// % successfully sent messages, last k hours.
    MsgSuccessLastK,
    /// Messages in the outbox queue now.
    OutboxNow,
    /// Average messages in the outbox queue.
    OutboxAvg,
    /// Messages in the inbox queue now.
    InboxNow,
    /// Average messages in the inbox queue.
    InboxAvg,
    /// % successfully executed tasks, current session.
    TaskExecSession,
    /// % successfully executed tasks, all sessions.
    TaskExecTotal,
    /// % tasks accepted, current session.
    TaskAcceptSession,
    /// % tasks accepted, all sessions.
    TaskAcceptTotal,
    /// % sent files, current session.
    FilesSentSession,
    /// % sent files, all sessions.
    FilesSentTotal,
    /// % cancelled transfers, current session.
    CancelSession,
    /// % cancelled transfers, all sessions.
    CancelTotal,
    /// Number of pending transfers.
    PendingTransfers,
}

impl Criterion {
    /// Every criterion, in the paper's order.
    pub const ALL: [Criterion; 16] = [
        Criterion::MsgSuccessSession,
        Criterion::MsgSuccessTotal,
        Criterion::MsgSuccessLastK,
        Criterion::OutboxNow,
        Criterion::OutboxAvg,
        Criterion::InboxNow,
        Criterion::InboxAvg,
        Criterion::TaskExecSession,
        Criterion::TaskExecTotal,
        Criterion::TaskAcceptSession,
        Criterion::TaskAcceptTotal,
        Criterion::FilesSentSession,
        Criterion::FilesSentTotal,
        Criterion::CancelSession,
        Criterion::CancelTotal,
        Criterion::PendingTransfers,
    ];

    /// Whether larger values of this criterion indicate a *better* peer.
    pub fn higher_is_better(self) -> bool {
        !matches!(
            self,
            Criterion::OutboxNow
                | Criterion::OutboxAvg
                | Criterion::InboxNow
                | Criterion::InboxAvg
                | Criterion::CancelSession
                | Criterion::CancelTotal
                | Criterion::PendingTransfers
        )
    }
}

impl fmt::Display for Criterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Criterion::MsgSuccessSession => "msg-success(session)",
            Criterion::MsgSuccessTotal => "msg-success(total)",
            Criterion::MsgSuccessLastK => "msg-success(last-k-hours)",
            Criterion::OutboxNow => "outbox(now)",
            Criterion::OutboxAvg => "outbox(avg)",
            Criterion::InboxNow => "inbox(now)",
            Criterion::InboxAvg => "inbox(avg)",
            Criterion::TaskExecSession => "task-exec(session)",
            Criterion::TaskExecTotal => "task-exec(total)",
            Criterion::TaskAcceptSession => "task-accept(session)",
            Criterion::TaskAcceptTotal => "task-accept(total)",
            Criterion::FilesSentSession => "files-sent(session)",
            Criterion::FilesSentTotal => "files-sent(total)",
            Criterion::CancelSession => "cancelled(session)",
            Criterion::CancelTotal => "cancelled(total)",
            Criterion::PendingTransfers => "pending-transfers",
        };
        f.write_str(s)
    }
}

/// A point-in-time evaluation of every criterion for one peer.
///
/// `None` means "no history for this criterion yet" — selection models treat
/// missing data neutrally rather than as zero.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// % successfully sent messages, current session.
    pub msg_success_session: Option<f64>,
    /// % successfully sent messages, all sessions.
    pub msg_success_total: Option<f64>,
    /// % successfully sent messages over the last k hours.
    pub msg_success_last_k: Option<f64>,
    /// Outbox length now.
    pub outbox_now: f64,
    /// Time-weighted average outbox length.
    pub outbox_avg: f64,
    /// Inbox length now.
    pub inbox_now: f64,
    /// Time-weighted average inbox length.
    pub inbox_avg: f64,
    /// % successfully executed tasks, current session.
    pub task_exec_session: Option<f64>,
    /// % successfully executed tasks, all sessions.
    pub task_exec_total: Option<f64>,
    /// % tasks accepted, current session.
    pub task_accept_session: Option<f64>,
    /// % tasks accepted, all sessions.
    pub task_accept_total: Option<f64>,
    /// % files sent, current session.
    pub files_sent_session: Option<f64>,
    /// % files sent, all sessions.
    pub files_sent_total: Option<f64>,
    /// % cancelled transfers, current session.
    pub cancel_session: Option<f64>,
    /// % cancelled transfers, all sessions.
    pub cancel_total: Option<f64>,
    /// File transfers currently pending.
    pub pending_transfers: f64,
    /// Advertised CPU rate, gops.
    pub cpu_gops: f64,
}

impl StatsSnapshot {
    /// The value of one criterion (`None` = no history).
    pub fn value(&self, c: Criterion) -> Option<f64> {
        match c {
            Criterion::MsgSuccessSession => self.msg_success_session,
            Criterion::MsgSuccessTotal => self.msg_success_total,
            Criterion::MsgSuccessLastK => self.msg_success_last_k,
            Criterion::OutboxNow => Some(self.outbox_now),
            Criterion::OutboxAvg => Some(self.outbox_avg),
            Criterion::InboxNow => Some(self.inbox_now),
            Criterion::InboxAvg => Some(self.inbox_avg),
            Criterion::TaskExecSession => self.task_exec_session,
            Criterion::TaskExecTotal => self.task_exec_total,
            Criterion::TaskAcceptSession => self.task_accept_session,
            Criterion::TaskAcceptTotal => self.task_accept_total,
            Criterion::FilesSentSession => self.files_sent_session,
            Criterion::FilesSentTotal => self.files_sent_total,
            Criterion::CancelSession => self.cancel_session,
            Criterion::CancelTotal => self.cancel_total,
            Criterion::PendingTransfers => Some(self.pending_transfers),
        }
    }

    /// Every criterion's value at once, indexed like [`Criterion::ALL`]
    /// (`values()[c as usize] == value(c)`).
    pub fn values(&self) -> [Option<f64>; Criterion::ALL.len()] {
        [
            self.msg_success_session,
            self.msg_success_total,
            self.msg_success_last_k,
            Some(self.outbox_now),
            Some(self.outbox_avg),
            Some(self.inbox_now),
            Some(self.inbox_avg),
            self.task_exec_session,
            self.task_exec_total,
            self.task_accept_session,
            self.task_accept_total,
            self.files_sent_session,
            self.files_sent_total,
            self.cancel_session,
            self.cancel_total,
            Some(self.pending_transfers),
        ]
    }

    /// A neutral snapshot for a peer with no history at all.
    pub fn empty(cpu_gops: f64) -> Self {
        StatsSnapshot {
            msg_success_session: None,
            msg_success_total: None,
            msg_success_last_k: None,
            outbox_now: 0.0,
            outbox_avg: 0.0,
            inbox_now: 0.0,
            inbox_avg: 0.0,
            task_exec_session: None,
            task_exec_total: None,
            task_accept_session: None,
            task_accept_total: None,
            files_sent_session: None,
            files_sent_total: None,
            cancel_session: None,
            cancel_total: None,
            pending_transfers: 0.0,
            cpu_gops,
        }
    }

    /// Approximate wire size of a snapshot when shipped in a stats report.
    pub fn wire_size(&self) -> u64 {
        17 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn ratio_counter_percent() {
        let mut r = RatioCounter::default();
        assert_eq!(r.percent(), None);
        r.record(true);
        r.record(true);
        r.record(false);
        r.record(true);
        assert_eq!(r.percent(), Some(75.0));
    }

    #[test]
    fn queue_gauge_time_weighted_average() {
        let mut g = QueueGauge::new(t(0));
        g.set(t(0), 2); // length 2 for 10 s
        g.set(t(10), 4); // length 4 for 10 s
                         // Average over [0, 20] = (2·10 + 4·10)/20 = 3.
        assert!((g.average(t(20)) - 3.0).abs() < 1e-12);
        assert_eq!(g.current(), 4);
    }

    #[test]
    fn queue_gauge_incr_decr() {
        let mut g = QueueGauge::new(t(0));
        g.incr(t(1));
        g.incr(t(2));
        g.decr(t(3));
        assert_eq!(g.current(), 1);
        g.decr(t(4));
        g.decr(t(5)); // saturates at 0
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn queue_gauge_average_at_birth() {
        let g = QueueGauge::new(t(5));
        assert_eq!(g.average(t(5)), 0.0);
    }

    #[test]
    fn windowed_ratio_respects_window() {
        let mut w = WindowedRatio::new(48);
        // Hour 0: all failures; hour 2: all successes.
        w.record(t(100), false);
        w.record(t(200), false);
        w.record(t(2 * 3600 + 10), true);
        w.record(t(2 * 3600 + 20), true);
        // Last 1 hour at t=2h+30: only successes.
        assert_eq!(w.percent_last_hours(t(2 * 3600 + 30), 1), Some(100.0));
        // Last 3 hours: 2 of 4.
        assert_eq!(w.percent_last_hours(t(2 * 3600 + 30), 3), Some(50.0));
        // Window beyond all data: same 50 %.
        assert_eq!(w.percent_last_hours(t(2 * 3600 + 30), 48), Some(50.0));
    }

    #[test]
    fn windowed_ratio_evicts_old_hours() {
        let mut w = WindowedRatio::new(4);
        w.record(t(0), false);
        // 10 hours later the failure has been evicted from the 4-bucket ring.
        w.record(t(10 * 3600), true);
        assert_eq!(w.percent_last_hours(t(10 * 3600), 4), Some(100.0));
    }

    #[test]
    fn windowed_ratio_empty_is_none() {
        let w = WindowedRatio::new(8);
        assert_eq!(w.percent_last_hours(t(1000), 4), None);
    }

    #[test]
    fn peer_stats_sessions_vs_totals() {
        let mut s = PeerStats::new(t(0), 1.5);
        s.record_message(t(1), true);
        s.record_message(t(2), false);
        s.begin_session();
        s.record_message(t(3), true);
        let snap = s.snapshot(t(4), 24);
        assert_eq!(snap.msg_success_session, Some(100.0));
        let total = snap.msg_success_total.unwrap();
        assert!((total - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn peer_stats_task_and_file_counters() {
        let mut s = PeerStats::new(t(0), 1.0);
        s.record_task_offer(true);
        s.record_task_offer(false);
        s.record_task_execution(true);
        s.record_file_send(true);
        s.record_file_send(false);
        let snap = s.snapshot(t(10), 24);
        assert_eq!(snap.task_accept_total, Some(50.0));
        assert_eq!(snap.task_exec_total, Some(100.0));
        assert_eq!(snap.files_sent_total, Some(50.0));
        assert_eq!(snap.cancel_total, Some(50.0));
    }

    #[test]
    fn snapshot_value_accessor_covers_all_criteria() {
        let mut s = PeerStats::new(t(0), 2.0);
        s.record_message(t(1), true);
        s.record_task_offer(true);
        s.record_task_execution(true);
        s.record_file_send(true);
        s.outbox.set(t(1), 3);
        s.inbox.set(t(1), 1);
        s.pending_transfers = 2;
        let snap = s.snapshot(t(2), 24);
        for (i, c) in Criterion::ALL.into_iter().enumerate() {
            // Every criterion is either a value or explicitly None, and
            // the all-at-once accessor agrees with the one-by-one one.
            assert_eq!(c as usize, i, "ALL is in declaration order");
            assert_eq!(snap.values()[i], snap.value(c));
        }
        assert_eq!(
            snap.values()[Criterion::TaskExecSession as usize],
            Some(100.0)
        );
        assert_eq!(snap.value(Criterion::OutboxNow), Some(3.0));
        assert_eq!(snap.value(Criterion::PendingTransfers), Some(2.0));
    }

    #[test]
    fn criterion_polarity() {
        assert!(Criterion::MsgSuccessTotal.higher_is_better());
        assert!(Criterion::TaskExecSession.higher_is_better());
        assert!(!Criterion::OutboxNow.higher_is_better());
        assert!(!Criterion::CancelTotal.higher_is_better());
        assert!(!Criterion::PendingTransfers.higher_is_better());
    }

    #[test]
    fn empty_snapshot_is_neutral() {
        let snap = StatsSnapshot::empty(1.0);
        assert_eq!(snap.value(Criterion::MsgSuccessTotal), None);
        assert_eq!(snap.value(Criterion::OutboxNow), Some(0.0));
        assert!(snap.wire_size() > 0);
    }

    #[test]
    fn criterion_display_unique() {
        let mut names: Vec<String> = Criterion::ALL.iter().map(|c| c.to_string()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
