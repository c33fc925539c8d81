//! The task layer: lifecycle of executable tasks (ship input → offer →
//! accept → result) and the client-submitted jobs they realise.

use netsim::idmap::IdMap;

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::time::SimTime;

use crate::id::{PeerId, TaskId, TransferId};
use crate::message::OverlayMsg;
use crate::records::{JobRecord, TaskRecord};
use crate::selector::{Purpose, SelectionOutcome};
use crate::task::{TaskPhase, TaskSpec, TaskTracking};

use super::Broker;

/// A client-submitted job realised by one broker task.
#[derive(Debug, Clone)]
pub(crate) struct JobInfo {
    pub(crate) submitter_node: NodeId,
    pub(crate) label: String,
    pub(crate) submitted_at: SimTime,
}

/// Tracking state for all tasks the broker has in flight.
#[derive(Default)]
pub(crate) struct TaskBook {
    pub(crate) tasks: IdMap<TaskId, TaskTracking>,
    /// Maps an input-shipment transfer back to the task awaiting it.
    pub(crate) input_transfer_to_task: IdMap<TransferId, TaskId>,
    /// Client-submitted jobs keyed by the task executing them.
    pub(crate) job_for_task: IdMap<TaskId, JobInfo>,
}

impl TaskBook {
    pub(crate) fn new() -> Self {
        TaskBook::default()
    }
}

impl Broker {
    pub(crate) fn offer_task(&mut self, ctx: &mut Context<OverlayMsg>, task_id: TaskId) {
        let now = ctx.now();
        let Some(tracking) = self.tasks.tasks.get_mut(&task_id) else {
            return;
        };
        tracking.phase = TaskPhase::Offered;
        tracking.offered_at = Some(now);
        if tracking.input_transfer.is_some() && tracking.input_done_at.is_none() {
            tracking.input_done_at = Some(now);
        }
        let node = tracking.node;
        let spec = tracking.spec.clone();
        self.sink.with(|log| {
            if let Some(rec) = log.task_mut(task_id) {
                rec.input_done_at = self.tasks.tasks.get(&task_id).and_then(|t| t.input_done_at);
            }
        });
        ctx.send(
            node,
            OverlayMsg::TaskOffer {
                task: spec,
                sent_at: now,
            },
        );
        let tag = self.retries.arm_task_watchdog(task_id);
        ctx.schedule_timer(self.cfg.task_timeout, tag);
    }

    pub(crate) fn fail_task(&mut self, ctx: &mut Context<OverlayMsg>, task_id: TaskId) {
        if let Some(tracking) = self.tasks.tasks.get_mut(&task_id) {
            tracking.phase = TaskPhase::Failed;
        }
        if let Some(job) = self.tasks.job_for_task.remove(&task_id) {
            let total_secs = ctx.now().duration_since(job.submitted_at).as_secs_f64();
            ctx.send(
                job.submitter_node,
                OverlayMsg::JobDone {
                    label: job.label.clone(),
                    success: false,
                    total_secs,
                },
            );
            self.sink.with(|log| {
                if let Some(rec) = log
                    .jobs
                    .iter_mut()
                    .rev()
                    .find(|j| j.label == job.label && j.done_at.is_none())
                {
                    rec.done_at = Some(ctx.now());
                    rec.success = false;
                }
            });
        }
        self.sink.with(|log| {
            if let Some(rec) = log.task_mut(task_id) {
                rec.success = false;
                rec.result_at = None;
            }
        });
        self.bump(ctx, |c| c.tasks_failed);
        self.maybe_stop(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit_task(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        node: NodeId,
        work_gops: f64,
        input_bytes: u64,
        input_parts: u32,
        label: &str,
        enqueued_at: SimTime,
    ) {
        let now = ctx.now();
        let spec = TaskSpec {
            id: TaskId::generate(&mut self.ids),
            label: label.to_string(),
            work_gops,
            input_bytes,
        };
        let task_id = spec.id;
        let mut tracking = TaskTracking::new(spec, node, now);
        let on_name = self.registry.display_name(ctx, node);
        self.sink.with(|log| {
            log.tasks.push(TaskRecord {
                id: task_id,
                on: node,
                on_name,
                label: label.to_string(),
                input_bytes,
                work_gops,
                submitted_at: now,
                input_done_at: None,
                accepted_at: None,
                result_at: None,
                exec_secs: None,
                success: false,
            })
        });
        if input_bytes > 0 {
            let transfer = self.start_transfer(
                ctx,
                node,
                input_bytes,
                input_parts,
                &format!("{label}.input"),
                enqueued_at,
            );
            tracking.input_transfer = Some(transfer);
            self.tasks.input_transfer_to_task.insert(transfer, task_id);
            self.tasks.tasks.insert(task_id, tracking);
        } else {
            self.tasks.tasks.insert(task_id, tracking);
            self.offer_task(ctx, task_id);
        }
        self.bump(ctx, |c| c.tasks_submitted);
    }

    pub(crate) fn on_task_accept(&mut self, ctx: &mut Context<OverlayMsg>, task: TaskId) {
        let now = ctx.now();
        if let Some(tracking) = self.tasks.tasks.get_mut(&task) {
            tracking.phase = TaskPhase::Running;
            tracking.accepted_at = Some(now);
            let node = tracking.node;
            self.sink.with(|log| {
                if let Some(rec) = log.task_mut(task) {
                    rec.accepted_at = Some(now);
                }
            });
            if let Some(peer) = self.registry.peer_of(node) {
                if let Some(entry) = self.registry.entry_mut(peer) {
                    entry.stats.record_task_offer(true);
                }
            }
        }
    }

    pub(crate) fn on_task_reject(&mut self, ctx: &mut Context<OverlayMsg>, task: TaskId) {
        if let Some(tracking) = self.tasks.tasks.get(&task) {
            let node = tracking.node;
            if let Some(peer) = self.registry.peer_of(node) {
                if let Some(entry) = self.registry.entry_mut(peer) {
                    entry.stats.record_task_offer(false);
                }
            }
        }
        self.fail_task(ctx, task);
    }

    pub(crate) fn on_task_result(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        task: TaskId,
        success: bool,
        exec_secs: f64,
    ) {
        let now = ctx.now();
        let work_gops;
        if let Some(tracking) = self.tasks.tasks.get_mut(&task) {
            tracking.phase = if success {
                TaskPhase::Completed
            } else {
                TaskPhase::Failed
            };
            tracking.result_at = Some(now);
            tracking.exec_secs = Some(exec_secs);
            work_gops = tracking.spec.work_gops;
            let node = tracking.node;
            if let Some(peer) = self.registry.peer_of(node) {
                if let Some(entry) = self.registry.entry_mut(peer) {
                    entry.stats.record_task_execution(success);
                    if success && exec_secs > 0.0 {
                        entry
                            .view
                            .history
                            .observe_exec_rate(work_gops / exec_secs, self.cfg.ewma_alpha);
                    }
                }
            }
        }
        self.sink.with(|log| {
            if let Some(rec) = log.task_mut(task) {
                rec.result_at = Some(now);
                rec.exec_secs = Some(exec_secs);
                rec.success = success;
            }
        });
        if let Some(tracking) = self.tasks.tasks.get(&task) {
            self.selection.on_outcome(&SelectionOutcome {
                node: tracking.node,
                success,
                elapsed_secs: tracking.total_secs().unwrap_or(0.0),
                bytes: tracking.spec.input_bytes,
            });
        }
        if let Some(job) = self.tasks.job_for_task.remove(&task) {
            let total_secs = now.duration_since(job.submitted_at).as_secs_f64();
            ctx.send(
                job.submitter_node,
                OverlayMsg::JobDone {
                    label: job.label.clone(),
                    success,
                    total_secs,
                },
            );
            self.sink.with(|log| {
                if let Some(rec) = log
                    .jobs
                    .iter_mut()
                    .rev()
                    .find(|j| j.label == job.label && j.done_at.is_none())
                {
                    rec.done_at = Some(now);
                    rec.success = success;
                }
            });
        }
        self.bump(ctx, |c| c.tasks_completed);
        self.maybe_stop(ctx);
    }

    pub(crate) fn on_job_submit(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        submitter: PeerId,
        work_gops: f64,
        input_bytes: u64,
        input_parts: u32,
        label: String,
    ) {
        let now = ctx.now();
        let Some(submitter_node) = self.registry.node_of(submitter) else {
            return;
        };
        // Execute anywhere except the submitter itself.
        let candidates: Vec<NodeId> = self
            .registry
            .registered_nodes()
            .into_iter()
            .filter(|&n| n != submitter_node)
            .collect();
        let purpose = Purpose::TaskExecution {
            work_gops: work_gops as u64,
            input_bytes,
        };
        let Some(executor) = self.select_among(ctx, &candidates, purpose) else {
            self.bump(ctx, |c| c.jobs_unplaced);
            return;
        };
        self.sink.with(|log| {
            log.jobs.push(JobRecord {
                label: label.clone(),
                submitter: submitter_node,
                executor,
                submitted_at: now,
                done_at: None,
                success: false,
            })
        });
        self.submit_task(
            ctx,
            executor,
            work_gops,
            input_bytes,
            input_parts,
            &label,
            now,
        );
        // Remember which task realises this job: it is the one just
        // inserted with this label and executor.
        if let Some((task_id, _)) = self
            .tasks
            .tasks
            .iter()
            .find(|(_, t)| t.spec.label == label && t.node == executor && t.result_at.is_none())
        {
            self.tasks.job_for_task.insert(
                *task_id,
                JobInfo {
                    submitter_node,
                    label,
                    submitted_at: now,
                },
            );
        }
    }
}
