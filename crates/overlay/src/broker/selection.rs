//! The selection layer: the single place where a [`PeerSelector`] is
//! consulted, its decision recorded (and traced when tracing is on), and
//! outcome feedback delivered back to the model.
//!
//! All broker-side peer choices flow through the two entry points here —
//! [`Broker::resolve_targets`] for scripted commands and
//! [`Broker::select_among`] for choices restricted to a candidate subset
//! (file requests with several owners, client-submitted jobs).

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::time::SimTime;
use netsim::trace::TraceEventKind;

use crate::message::OverlayMsg;
use crate::records::RecordSink;
use crate::records::SelectionRecord;
use crate::selector::{PeerSelector, Purpose, Roster, SelectionOutcome, SelectionRequest};

use super::{Broker, BrokerCommand, TargetSpec};

/// Owns the pluggable selection model and feeds outcomes back to it.
pub(crate) struct SelectionService {
    pub(crate) selector: Option<Box<dyn PeerSelector>>,
}

impl SelectionService {
    pub(crate) fn new(selector: Option<Box<dyn PeerSelector>>) -> Self {
        SelectionService { selector }
    }

    /// Delivers outcome feedback (transfer/task finished) to the model.
    pub(crate) fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        if let Some(selector) = self.selector.as_mut() {
            selector.on_outcome(outcome);
        }
    }
}

impl Broker {
    pub(crate) fn resolve_targets(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        target: &TargetSpec,
        purpose: Purpose,
    ) -> Vec<NodeId> {
        match target {
            TargetSpec::Node(n) => vec![*n],
            TargetSpec::AllClients => self.registry.registered_nodes(),
            TargetSpec::Selected => {
                let now = ctx.now();
                let roster =
                    self.registry
                        .roster(now, self.cfg.stats_k_hours, self.cfg.staleness_bound);
                let Some(selector) = self.selection.selector.as_mut() else {
                    return Vec::new();
                };
                consult(ctx, &self.sink, &mut **selector, now, purpose, &roster)
                    .into_iter()
                    .collect()
            }
        }
    }

    /// Selection restricted to `nodes` (used for file requests with several
    /// owners). Falls back to least-pending-transfers when no selector is
    /// installed. Records the decision when a selector was consulted.
    pub(crate) fn select_among(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        nodes: &[NodeId],
        purpose: Purpose,
    ) -> Option<NodeId> {
        let now = ctx.now();
        if nodes.is_empty() {
            return None;
        }
        if nodes.len() == 1 {
            return Some(nodes[0]);
        }
        let roster = self
            .registry
            .roster(now, self.cfg.stats_k_hours, self.cfg.staleness_bound);
        let candidates = roster.restricted_to(nodes);
        if let Some(selector) = self.selection.selector.as_mut() {
            let chosen = consult(ctx, &self.sink, &mut **selector, now, purpose, &candidates);
            if chosen.is_some() {
                return chosen;
            }
        }
        // Fallback: least currently-pending transfers, lowest node id.
        let candidates: &dyn Roster = &candidates;
        candidates
            .iter()
            .min_by(|a, b| {
                a.snapshot
                    .pending_transfers
                    .partial_cmp(&b.snapshot.pending_transfers)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.node.cmp(&b.node))
            })
            .map(|v| v.node)
            .or_else(|| nodes.first().copied())
    }
}

/// Puts `candidates` to the model and, when it picks one, records the
/// decision (and traces it when tracing is on). `None` when there is no
/// candidate or the model refuses.
fn consult(
    ctx: &mut Context<OverlayMsg>,
    sink: &RecordSink,
    selector: &mut dyn PeerSelector,
    now: SimTime,
    purpose: Purpose,
    candidates: &dyn Roster,
) -> Option<NodeId> {
    if candidates.is_empty() {
        return None;
    }
    let req = SelectionRequest {
        now,
        purpose,
        candidates,
    };
    let chosen = selector.select(&req).filter(|&i| i < candidates.len())?;
    let chosen = &candidates[chosen];
    sink.with(|log| {
        log.selections.push(SelectionRecord {
            at: now,
            model: selector.name().to_string(),
            chosen: chosen.node,
            chosen_name: chosen.name.clone(),
            candidates: candidates.len(),
        })
    });
    if ctx.trace_enabled() {
        trace_selection(ctx, selector, &req, chosen.node);
    }
    Some(chosen.node)
}

impl Broker {
    /// Whether this broker could hand a `Selected` file petition to a
    /// fellow broker instead of deferring it until a local peer joins.
    pub(crate) fn can_forward(&self, cmd: &BrokerCommand) -> bool {
        self.cfg.forward_hops > 0
            && !self.cfg.peer_brokers.is_empty()
            && matches!(
                cmd,
                BrokerCommand::DistributeFile {
                    target: TargetSpec::Selected,
                    ..
                }
            )
    }

    /// The silence bound after which a fellow broker is presumed dead:
    /// the staleness window when configured, otherwise three gossip
    /// rounds — the same tolerance selection applies to gossiped views.
    fn liveness_bound(&self) -> netsim::time::SimDuration {
        self.cfg
            .staleness_bound
            .unwrap_or(self.cfg.gossip_interval * 3)
    }

    /// Hands a `Selected` petition this broker could not place to a
    /// fellow broker believed alive, rotating over the roster so repeat
    /// forwards spread. `exclude` skips the broker a forward just came
    /// from; the origin is never a candidate (no boomerangs). Returns
    /// whether anyone was available to take it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_petition(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        origin: NodeId,
        exclude: Option<NodeId>,
        hops_left: u32,
        size_bytes: u64,
        num_parts: u32,
        label: &str,
        enqueued_at: SimTime,
    ) -> bool {
        let now = ctx.now();
        let bound = self.liveness_bound();
        let candidates: Vec<NodeId> = self
            .cfg
            .peer_brokers
            .iter()
            .copied()
            .filter(|&b| {
                b != origin && Some(b) != exclude && self.registry.broker_alive(b, now, bound)
            })
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let to = candidates[self.forward_rr % candidates.len()];
        self.forward_rr = self.forward_rr.wrapping_add(1);
        ctx.trace_event(TraceEventKind::PetitionForwarded { to, hops_left });
        ctx.send(
            to,
            OverlayMsg::PetitionForward {
                origin,
                hops_left,
                size_bytes,
                num_parts,
                label: label.to_string(),
                enqueued_at,
            },
        );
        self.bump(ctx, |c| c.petitions_forwarded);
        true
    }

    /// Handles a forwarded petition: serve it from the local registry if
    /// selection finds a candidate, otherwise pass it along while hop
    /// budget remains. The origin's enqueue instant rides along, so the
    /// eventual transfer's petition latency includes every hop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_petition_forward(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        origin: NodeId,
        hops_left: u32,
        size_bytes: u64,
        num_parts: u32,
        label: String,
        enqueued_at: SimTime,
    ) {
        // A broker that forwards work is alive by definition.
        self.registry.note_broker_alive(from, ctx.now());
        self.bump(ctx, |c| c.forwards_received);
        let purpose = Purpose::FileTransfer { bytes: size_bytes };
        let targets = self.resolve_targets(ctx, &TargetSpec::Selected, purpose);
        if !targets.is_empty() {
            for node in targets {
                self.start_transfer(ctx, node, size_bytes, num_parts, &label, enqueued_at);
            }
            self.bump(ctx, |c| c.forwards_served);
            return;
        }
        if hops_left > 1
            && self.forward_petition(
                ctx,
                origin,
                Some(from),
                hops_left - 1,
                size_bytes,
                num_parts,
                &label,
                enqueued_at,
            )
        {
            return;
        }
        self.bump(ctx, |c| c.forwards_exhausted);
    }
}

/// Emits a [`TraceEventKind::SelectionDecided`] event with per-candidate
/// costs. Callers must check `ctx.trace_enabled()` first — cost extraction
/// re-runs the model's scoring pass, which is fine for observability (the
/// pass is read-only w.r.t. the simulation) but wasted work when disabled.
fn trace_selection(
    ctx: &mut Context<OverlayMsg>,
    selector: &mut dyn PeerSelector,
    req: &SelectionRequest<'_>,
    chosen: NodeId,
) {
    let costs = selector
        .candidate_costs(req)
        .map(|cs| req.candidates.iter().map(|c| c.node).zip(cs).collect())
        .unwrap_or_default();
    ctx.trace_event(TraceEventKind::SelectionDecided {
        model: selector.name().to_string(),
        chosen,
        costs,
    });
}
