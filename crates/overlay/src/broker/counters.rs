//! Pre-resolved protocol counters (the broker's milestone accounting).

use netsim::engine::Context;
use netsim::metrics::{GaugeId, MetricId, Metrics};
use netsim::node::NodeId;

use crate::footprint::FootprintBreakdown;

use crate::message::OverlayMsg;

use super::Broker;

/// Pre-resolved handles for the broker's protocol counters, interned once
/// per run (see [`Metrics::counter_id`]) so milestone accounting on busy
/// paths never re-walks the metric name map.
pub(crate) struct BrokerCounters {
    pub(crate) transfers_started: MetricId,
    pub(crate) transfers_completed: MetricId,
    pub(crate) transfers_cancelled: MetricId,
    pub(crate) tasks_submitted: MetricId,
    pub(crate) tasks_completed: MetricId,
    pub(crate) tasks_failed: MetricId,
    pub(crate) tasks_timed_out: MetricId,
    pub(crate) joins: MetricId,
    pub(crate) content_published: MetricId,
    pub(crate) file_requests_served: MetricId,
    pub(crate) file_requests_unserved: MetricId,
    pub(crate) jobs_unplaced: MetricId,
    pub(crate) gossip_received: MetricId,
    pub(crate) retransmissions: MetricId,
    pub(crate) retries_exhausted: MetricId,
    /// Gossiped views rejected at admission: already first-hand, host
    /// shadowed, or a stale echo of a departed peer.
    pub(crate) stale_views_dropped: MetricId,
    /// Petitions this broker handed to a fellow broker (no local candidate).
    pub(crate) petitions_forwarded: MetricId,
    /// Forwarded petitions that arrived from fellow brokers.
    pub(crate) forwards_received: MetricId,
    /// Forwarded petitions this broker could serve from its own registry.
    pub(crate) forwards_served: MetricId,
    /// Forwarded petitions dropped with the hop budget exhausted.
    pub(crate) forwards_exhausted: MetricId,
}

impl BrokerCounters {
    pub(crate) fn resolve(metrics: &mut Metrics) -> Self {
        BrokerCounters {
            transfers_started: metrics.counter_id("overlay.transfers_started"),
            transfers_completed: metrics.counter_id("overlay.transfers_completed"),
            transfers_cancelled: metrics.counter_id("overlay.transfers_cancelled"),
            tasks_submitted: metrics.counter_id("overlay.tasks_submitted"),
            tasks_completed: metrics.counter_id("overlay.tasks_completed"),
            tasks_failed: metrics.counter_id("overlay.tasks_failed"),
            tasks_timed_out: metrics.counter_id("overlay.tasks_timed_out"),
            joins: metrics.counter_id("overlay.joins"),
            content_published: metrics.counter_id("overlay.content_published"),
            file_requests_served: metrics.counter_id("overlay.file_requests_served"),
            file_requests_unserved: metrics.counter_id("overlay.file_requests_unserved"),
            jobs_unplaced: metrics.counter_id("overlay.jobs_unplaced"),
            gossip_received: metrics.counter_id("overlay.gossip_received"),
            retransmissions: metrics.counter_id("overlay.retransmissions"),
            retries_exhausted: metrics.counter_id("overlay.retries_exhausted"),
            stale_views_dropped: metrics.counter_id("overlay.stale_views_dropped"),
            petitions_forwarded: metrics.counter_id("overlay.petitions_forwarded"),
            forwards_received: metrics.counter_id("overlay.forwards_received"),
            forwards_served: metrics.counter_id("overlay.forwards_served"),
            forwards_exhausted: metrics.counter_id("overlay.forwards_exhausted"),
        }
    }
}

/// Pre-resolved handles for the footprint gauges a federated broker
/// publishes on its gossip cadence. Gauge names carry the broker's node
/// index: gauges sum by name across shards, so unique-per-broker names
/// reconstruct each broker's last-set value in the merged metrics, and
/// the `registry.bytes.` prefix sums them fleet-wide. Resolved at the
/// first gossip tick rather than at start, because resolving creates the
/// gauge and a broker that never gossips must not grow zero-valued ones.
pub(crate) struct FootprintGauges {
    /// `registry.bytes.<node>`
    pub(crate) bytes: GaugeId,
    /// `registry.peers.<node>`
    pub(crate) peers: GaugeId,
    /// `registry.<component>_bytes.<node>`, in
    /// [`FootprintBreakdown::components`] order.
    pub(crate) components: [GaugeId; 6],
}

impl FootprintGauges {
    pub(crate) fn resolve(metrics: &mut Metrics, broker: NodeId) -> Self {
        let node = broker.index();
        FootprintGauges {
            bytes: metrics.gauge_id(&format!("registry.bytes.{node}")),
            peers: metrics.gauge_id(&format!("registry.peers.{node}")),
            components: FootprintBreakdown::default()
                .components()
                .map(|(component, _)| {
                    metrics.gauge_id(&format!("registry.{component}_bytes.{node}"))
                }),
        }
    }
}

impl Broker {
    /// Bumps the protocol counter picked by `which` by `n` at once.
    pub(crate) fn bump_by(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        which: fn(&BrokerCounters) -> MetricId,
        n: u64,
    ) {
        if n == 0 {
            return;
        }
        let ids = self
            .counters
            .get_or_insert_with(|| BrokerCounters::resolve(ctx.metrics()));
        let id = which(ids);
        ctx.metrics().incr_id(id, n);
    }
}

impl Broker {
    /// Bumps the protocol counter picked by `which`, resolving the handle
    /// set on first use.
    pub(crate) fn bump(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        which: fn(&BrokerCounters) -> MetricId,
    ) {
        let ids = self
            .counters
            .get_or_insert_with(|| BrokerCounters::resolve(ctx.metrics()));
        let id = which(ids);
        ctx.metrics().incr_id(id, 1);
    }
}
