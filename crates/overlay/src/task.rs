//! Executable-task management (paper §3: "an important place in the
//! primitives is given to functionalities related to the management of
//! executable tasks").

use netsim::time::SimTime;

use crate::id::{TaskId, TransferId};

/// Description of one executable task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task identity.
    pub(crate) id: TaskId,
    /// Human-readable label (used in experiment reports).
    pub(crate) label: String,
    /// Compute demand in giga-operations.
    pub(crate) work_gops: f64,
    /// Size of the input file that must be shipped to the executing peer
    /// before the task can run; 0 means the task carries its own tiny input.
    pub(crate) input_bytes: u64,
}

impl TaskSpec {
    /// Approximate wire size of the task description itself (the input file
    /// travels separately through the file-transfer primitives).
    pub(crate) fn wire_size(&self) -> u64 {
        64 + self.label.len() as u64
    }
}

/// Lifecycle state of a task as tracked by the broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskPhase {
    /// Waiting for its input file to reach the executing peer.
    ShippingInput,
    /// Offered to the peer; awaiting accept/reject.
    Offered,
    /// Accepted and executing.
    Running,
    /// Finished successfully.
    Completed,
    /// Rejected by the peer or failed during execution.
    Failed,
}

/// Broker-side tracking entry for one task.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaskTracking {
    /// The task.
    pub(crate) spec: TaskSpec,
    /// Executing peer's simulated host.
    pub(crate) node: netsim::node::NodeId,
    /// Current phase.
    pub(crate) phase: TaskPhase,
    /// When the broker decided to run this task (selection instant).
    pub(crate) submitted_at: SimTime,
    /// Input transfer session, when the task ships an input file.
    pub(crate) input_transfer: Option<TransferId>,
    /// When the input finished arriving at the peer.
    pub(crate) input_done_at: Option<SimTime>,
    /// When the offer was sent.
    pub(crate) offered_at: Option<SimTime>,
    /// When the peer accepted.
    pub(crate) accepted_at: Option<SimTime>,
    /// When the result arrived back at the broker.
    pub(crate) result_at: Option<SimTime>,
    /// Pure execution time reported by the peer, seconds.
    pub(crate) exec_secs: Option<f64>,
}

impl TaskTracking {
    /// Creates tracking for a freshly submitted task.
    pub(crate) fn new(spec: TaskSpec, node: netsim::node::NodeId, now: SimTime) -> Self {
        let phase = if spec.input_bytes > 0 {
            TaskPhase::ShippingInput
        } else {
            TaskPhase::Offered
        };
        TaskTracking {
            spec,
            node,
            phase,
            submitted_at: now,
            input_transfer: None,
            input_done_at: None,
            offered_at: None,
            accepted_at: None,
            result_at: None,
            exec_secs: None,
        }
    }

    /// End-to-end makespan (submission → result), if finished.
    pub(crate) fn total_secs(&self) -> Option<f64> {
        self.result_at
            .map(|r| r.duration_since(self.submitted_at).as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;
    use netsim::node::NodeId;
    use netsim::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn spec(input: u64) -> TaskSpec {
        let mut g = IdGenerator::new(1);
        TaskSpec {
            id: TaskId::generate(&mut g),
            label: "render".into(),
            work_gops: 120.0,
            input_bytes: input,
        }
    }

    #[test]
    fn initial_phase_depends_on_input() {
        let with_input = TaskTracking::new(spec(1 << 20), NodeId(1), t(0));
        assert_eq!(with_input.phase, TaskPhase::ShippingInput);
        let without = TaskTracking::new(spec(0), NodeId(1), t(0));
        assert_eq!(without.phase, TaskPhase::Offered);
    }

    #[test]
    fn durations_computed_from_timestamps() {
        let mut tr = TaskTracking::new(spec(1 << 20), NodeId(2), t(10));
        assert_eq!(tr.total_secs(), None);
        tr.input_done_at = Some(t(70));
        tr.result_at = Some(t(130));
        assert_eq!(tr.total_secs(), Some(120.0));
    }

    #[test]
    fn wire_size_reasonable() {
        assert!(spec(0).wire_size() < 1000);
    }
}
