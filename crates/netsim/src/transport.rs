//! Message-transfer timing: the analytic transport model.
//!
//! Rather than simulating individual packets, each message transfer is
//! planned analytically at send time — the standard fluid/bottleneck
//! approach for overlay-scale simulation. A transfer's completion time is
//! composed of:
//!
//! 1. **Uplink FIFO** — the sender serializes outgoing messages onto its
//!    access uplink, so concurrent sends from one host queue behind each
//!    other.
//! 2. **Propagation** — one-way delay plus uniform jitter from the path spec.
//! 3. **Bottleneck service** — the receiver's side is modelled as a FIFO
//!    server whose rate is `min(uplink, downlink, TCP bound)`, where the TCP
//!    bound is the Mathis model `MSS · C / (RTT · √p)`. Messages arriving at
//!    a busy receiver queue.
//! 4. **Slow-start penalty** — short TCP transfers never exit slow start;
//!    we charge `RTT · log2(1 + size/IW)` extra, capped.
//! 5. **Large-message penalty** — JXTA unicast pipes buffer entire messages
//!    in the JVM and collapse on multi-ten-MB payloads (the effect behind
//!    the paper's Fig 5 "sending the file whole is not worth it"). Modelled
//!    as a throughput divisor `1 + (size/threshold)^alpha` above a threshold.
//!    This knob is independently switchable for the ablation study.

use crate::link::AccessLink;
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// How concurrent arrivals share a receiver's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverDiscipline {
    /// Arrivals queue strictly: one transfer is serviced at a time
    /// (the default; matches TCP receive-side serialization closely for
    /// stop-and-wait overlay protocols).
    Fifo,
    /// Processor-sharing approximation: arrivals start immediately but each
    /// active transfer's service stretches with the number of concurrent
    /// transfers at plan time. Used by the ablation tests to show which
    /// findings depend on the queueing discipline.
    ProcessorSharing,
}

/// Tunable constants of the transport model.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// TCP maximum segment size in bytes (Mathis model input).
    pub mss_bytes: f64,
    /// Mathis constant `C` (≈1.22 for periodic loss).
    pub mathis_c: f64,
    /// Whether the TCP loss/RTT bound applies.
    pub enable_tcp_bound: bool,
    /// Initial congestion window in bytes for the slow-start penalty.
    pub initial_window_bytes: f64,
    /// Whether the slow-start penalty applies.
    pub enable_slow_start: bool,
    /// Message size above which the large-message penalty kicks in.
    pub large_msg_threshold_bytes: f64,
    /// Exponent of the large-message throughput divisor.
    pub large_msg_alpha: f64,
    /// Whether the large-message penalty applies.
    pub enable_large_msg_penalty: bool,
    /// Fixed per-message framing overhead added to the payload size.
    pub per_message_overhead_bytes: u64,
    /// Delivery delay for node-local (loopback) messages.
    pub loopback_delay: SimDuration,
    /// Fraction of the full service delay charged to
    /// [`crate::engine::ServiceClass::Fast`] messages.
    pub fast_service_factor: f64,
    /// Receiver-side capacity-sharing discipline.
    pub receiver_discipline: ReceiverDiscipline,
    /// Probability that a whole message is lost in the network and never
    /// delivered (overlay protocols must retransmit). Default 0: the
    /// transport behaves like TCP (loss only shapes throughput).
    pub message_drop_probability: f64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            mss_bytes: 1460.0,
            mathis_c: 1.22,
            enable_tcp_bound: true,
            initial_window_bytes: 4.0 * 1460.0,
            enable_slow_start: true,
            // JXTA pipes start degrading past ~8 MB payloads.
            large_msg_threshold_bytes: 8.0 * 1024.0 * 1024.0,
            large_msg_alpha: 1.0,
            enable_large_msg_penalty: true,
            per_message_overhead_bytes: 512,
            loopback_delay: SimDuration::from_micros(100),
            fast_service_factor: 0.02,
            receiver_discipline: ReceiverDiscipline::Fifo,
            message_drop_probability: 0.0,
        }
    }
}

impl TransportConfig {
    /// A configuration with every penalty disabled: pure
    /// `latency + size/bandwidth`. Useful for tests and ablations.
    pub fn ideal() -> Self {
        TransportConfig {
            enable_tcp_bound: false,
            enable_slow_start: false,
            enable_large_msg_penalty: false,
            per_message_overhead_bytes: 0,
            ..TransportConfig::default()
        }
    }
}

/// The planned timing of one message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// When the sender's uplink actually started serializing the message.
    pub tx_start: SimTime,
    /// When the last byte is available at the receiving host (before any
    /// application service delay).
    pub deliver: SimTime,
}

impl TransferTiming {
    /// End-to-end latency from the plan request to delivery.
    #[inline]
    pub fn total_from(&self, sent_at: SimTime) -> SimDuration {
        self.deliver.duration_since(sent_at)
    }
}

/// The sender-side half of a transfer plan (uplink FIFO, propagation,
/// service, slow start): everything decided on the sending shard. The
/// receiving shard turns it into a delivery time with
/// [`TransferPlanner::admit_remote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSendPlan {
    /// When the sender's uplink started serializing the message.
    pub tx_start: SimTime,
    /// When the first byte reaches the destination host.
    pub first_byte: SimTime,
    /// Bottleneck service time (incl. slow-start penalty) still to be
    /// applied under the receiver's queueing discipline.
    pub service: SimDuration,
}

/// Stateful planner: owns per-node uplink/downlink busy horizons.
///
/// A shard's planner is only ever asked about the nodes its shard owns, so
/// its tables cost memory only where it writes: the horizons are allocated
/// zeroed (untouched pages stay unmapped), and the in-flight lists exist
/// only under processor sharing, the one discipline that reads them.
#[derive(Debug, Clone)]
pub struct TransferPlanner {
    config: TransportConfig,
    /// Per sender: nanoseconds until which its uplink is busy.
    up_busy_until: Vec<u64>,
    /// Per receiver: nanoseconds until which its downlink is busy (FIFO).
    down_busy_until: Vec<u64>,
    /// Completion times of in-flight transfers per receiver
    /// (processor-sharing mode only; pruned lazily).
    down_inflight: Vec<Vec<SimTime>>,
}

impl TransferPlanner {
    /// Creates a planner for a topology of `n` nodes.
    pub fn new(config: TransportConfig, n: usize) -> Self {
        let down_inflight = match config.receiver_discipline {
            ReceiverDiscipline::Fifo => Vec::new(),
            ReceiverDiscipline::ProcessorSharing => vec![Vec::new(); n],
        };
        TransferPlanner {
            config,
            // Nanoseconds, not `SimTime`: `vec![0u64; n]` is a zeroed
            // allocation, while `vec![SimTime::ZERO; n]` writes every element.
            up_busy_until: vec![0; n],
            down_busy_until: vec![0; n],
            down_inflight,
        }
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Number of per-receiver in-flight lists held.
    #[cfg(test)]
    pub(crate) fn inflight_lists(&self) -> usize {
        self.down_inflight.len()
    }

    /// Combined loss probability of two access links in series.
    #[inline]
    fn path_loss(a: &AccessLink, b: &AccessLink) -> f64 {
        1.0 - (1.0 - a.loss) * (1.0 - b.loss)
    }

    /// The Mathis TCP throughput bound in bytes/second, or `+inf` when loss
    /// is zero or the bound is disabled.
    #[inline]
    fn tcp_bound(&self, rtt_secs: f64, loss: f64) -> f64 {
        if !self.config.enable_tcp_bound || loss <= 0.0 || rtt_secs <= 0.0 {
            return f64::INFINITY;
        }
        self.config.mss_bytes * self.config.mathis_c / (rtt_secs * loss.sqrt())
    }

    /// Effective path throughput for a message of `size` bytes.
    #[inline]
    pub fn effective_throughput(
        &self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        size: f64,
    ) -> f64 {
        let up = topo.access(from).up_bytes_per_sec;
        let down = topo.access(to).down_bytes_per_sec;
        let loss = Self::path_loss(topo.access(from), topo.access(to));
        let rtt = topo.path(from, to).rtt().as_secs_f64();
        let mut thr = up.min(down).min(self.tcp_bound(rtt, loss));
        if self.config.enable_large_msg_penalty && size > self.config.large_msg_threshold_bytes {
            let ratio = size / self.config.large_msg_threshold_bytes;
            thr /= 1.0 + (ratio - 1.0).powf(self.config.large_msg_alpha);
        }
        thr.max(1.0) // never fully stall
    }

    /// Extra time short transfers spend in TCP slow start.
    #[inline]
    fn slow_start_penalty(&self, rtt: SimDuration, size: f64) -> SimDuration {
        if !self.config.enable_slow_start || size <= 0.0 {
            return SimDuration::ZERO;
        }
        let rounds = (1.0 + size / self.config.initial_window_bytes)
            .log2()
            .ceil();
        rtt.mul_f64(rounds.clamp(0.0, 12.0))
    }

    /// Plans a transfer of `payload_bytes` from `from` to `to`, mutating the
    /// uplink/downlink busy horizons. `now` must be monotone per sender.
    /// A remote transfer is its two halves back to back: the sending
    /// shard's [`TransferPlanner::plan_remote_send`], then the receiving
    /// shard's [`TransferPlanner::admit_remote`].
    pub fn plan(
        &mut self,
        topo: &Topology,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        rng: &mut SimRng,
    ) -> TransferTiming {
        if from == to {
            let deliver = now + self.config.loopback_delay;
            return TransferTiming {
                tx_start: now,
                deliver,
            };
        }
        let half = self.plan_remote_send(topo, now, from, to, payload_bytes, rng);
        TransferTiming {
            tx_start: half.tx_start,
            deliver: self.admit_remote(to, half),
        }
    }

    /// Sender-side half of [`TransferPlanner::plan`]: uplink FIFO,
    /// propagation sample, and bottleneck/slow-start service — everything
    /// that depends only on sender-shard state and the sender's RNG stream.
    pub fn plan_remote_send(
        &mut self,
        topo: &Topology,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        rng: &mut SimRng,
    ) -> RemoteSendPlan {
        debug_assert_ne!(from, to, "loopback messages never cross shards");
        let size = (payload_bytes + self.config.per_message_overhead_bytes) as f64;

        // 1. Uplink FIFO at the sender.
        let up_bw = topo.access(from).up_bytes_per_sec.max(1.0);
        let up_busy = &mut self.up_busy_until[from.index()];
        let tx_start = now.max(SimTime::from_nanos(*up_busy));
        let serialize = SimDuration::from_secs_f64(size / up_bw);
        *up_busy = (tx_start + serialize).as_nanos();

        // 2. Propagation with jitter.
        let path = topo.path(from, to);
        let latency = path.sample_latency(rng);
        let first_byte = tx_start + latency;

        // 3. Bottleneck service.
        let thr = self.effective_throughput(topo, from, to, size);
        let mut service = SimDuration::from_secs_f64(size / thr);

        // 4. Slow-start penalty.
        service += self.slow_start_penalty(path.rtt(), size);

        RemoteSendPlan {
            tx_start,
            first_byte,
            service,
        }
    }

    /// Receiver-side half of [`TransferPlanner::plan`]: applies the
    /// destination's queueing discipline to a sender-side plan and returns
    /// the delivery time of the last byte.
    pub fn admit_remote(&mut self, to: NodeId, plan: RemoteSendPlan) -> SimTime {
        let RemoteSendPlan {
            first_byte,
            service,
            ..
        } = plan;
        match self.config.receiver_discipline {
            ReceiverDiscipline::Fifo => {
                let down_busy = &mut self.down_busy_until[to.index()];
                let deliver = first_byte.max(SimTime::from_nanos(*down_busy)) + service;
                *down_busy = deliver.as_nanos();
                deliver
            }
            ReceiverDiscipline::ProcessorSharing => {
                let inflight = &mut self.down_inflight[to.index()];
                inflight.retain(|&done| done > first_byte);
                let concurrency = inflight.len() as f64;
                let deliver = first_byte + service.mul_f64(1.0 + concurrency);
                inflight.push(deliver);
                deliver
            }
        }
    }

    /// Non-mutating estimate of an uncontended transfer's duration
    /// (no queueing, expected jitter). Used by planners/schedulers.
    pub fn estimate_uncontended(
        &self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
    ) -> SimDuration {
        if from == to {
            return self.config.loopback_delay;
        }
        let size = (payload_bytes + self.config.per_message_overhead_bytes) as f64;
        let path = topo.path(from, to);
        let latency = path.one_way_delay + path.jitter.mul_f64(0.5);
        let thr = self.effective_throughput(topo, from, to, size);
        latency + SimDuration::from_secs_f64(size / thr) + self.slow_start_penalty(path.rtt(), size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PathSpec;
    use crate::node::NodeSpec;

    fn two_node_topo(mbps: f64, owd_ms: f64, loss: f64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(
            NodeSpec::responsive("a"),
            AccessLink::symmetric_mbps(mbps, loss),
        );
        let b = t.add_node(
            NodeSpec::responsive("b"),
            AccessLink::symmetric_mbps(mbps, loss),
        );
        t.set_path_symmetric(a, b, PathSpec::from_owd_ms(owd_ms, 0.0));
        (t, a, b)
    }

    #[test]
    fn ideal_transfer_is_latency_plus_serialization() {
        let (t, a, b) = two_node_topo(8.0, 100.0, 0.0); // 1 MB/s, 100 ms OWD
        let mut p = TransferPlanner::new(TransportConfig::ideal(), t.len());
        let mut rng = SimRng::new(1);
        let timing = p.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        let total = timing.total_from(SimTime::ZERO).as_secs_f64();
        // 0.1 s latency + 1.0 s transfer
        assert!((total - 1.1).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn loopback_is_constant() {
        let (t, a, _) = two_node_topo(8.0, 100.0, 0.0);
        let mut p = TransferPlanner::new(TransportConfig::default(), t.len());
        let mut rng = SimRng::new(2);
        let timing = p.plan(&t, SimTime::ZERO, a, a, 1 << 30, &mut rng);
        assert_eq!(
            timing.deliver,
            SimTime::ZERO + TransportConfig::default().loopback_delay
        );
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let (t, a, b) = two_node_topo(100.0, 20.0, 0.001);
        let p = TransferPlanner::new(TransportConfig::default(), t.len());
        let mut last = SimDuration::ZERO;
        for size in [1_000u64, 100_000, 10_000_000, 100_000_000] {
            let est = p.estimate_uncontended(&t, a, b, size);
            assert!(est >= last, "estimate must grow with size");
            last = est;
        }
    }

    #[test]
    fn tcp_bound_limits_long_fat_lossy_paths() {
        // 100 Mbit/s links but 200 ms RTT and 1% loss → Mathis ≈ 89 KB/s.
        let (t, a, b) = two_node_topo(100.0, 100.0, 0.005);
        let p = TransferPlanner::new(TransportConfig::default(), t.len());
        let thr = p.effective_throughput(&t, a, b, 1000.0);
        assert!(thr < 200_000.0, "thr {thr} should be Mathis-limited");
        let ideal = TransferPlanner::new(TransportConfig::ideal(), t.len());
        let thr_ideal = ideal.effective_throughput(&t, a, b, 1000.0);
        assert!(thr_ideal > 10_000_000.0);
    }

    #[test]
    fn large_message_penalty_degrades_throughput_superlinearly() {
        let (t, a, b) = two_node_topo(100.0, 10.0, 0.0);
        let p = TransferPlanner::new(TransportConfig::default(), t.len());
        let small = p.effective_throughput(&t, a, b, 1024.0 * 1024.0);
        let big = p.effective_throughput(&t, a, b, 100.0 * 1024.0 * 1024.0);
        assert!(
            small / big > 5.0,
            "100 MB messages should be much slower per byte: {small} vs {big}"
        );
        // Per-byte cost: time(100MB)/time(4×25MB) should exceed 1.
        let t_whole = 100.0 * 1024.0 * 1024.0 / big;
        let t_quarter =
            25.0 * 1024.0 * 1024.0 / p.effective_throughput(&t, a, b, 25.0 * 1024.0 * 1024.0);
        assert!(t_whole > 4.0 * t_quarter);
    }

    #[test]
    fn uplink_fifo_serializes_concurrent_sends() {
        let (t, a, b) = two_node_topo(8.0, 10.0, 0.0); // 1 MB/s
        let mut p = TransferPlanner::new(TransportConfig::ideal(), t.len());
        let mut rng = SimRng::new(3);
        let t1 = p.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        let t2 = p.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        // Second message can't start serializing until the first is done.
        assert!(t2.tx_start >= t1.tx_start + SimDuration::from_secs_f64(0.999));
        assert!(t2.deliver > t1.deliver);
    }

    #[test]
    fn receiver_fifo_queues_concurrent_arrivals() {
        let mut t = Topology::new();
        let a = t.add_node(
            NodeSpec::responsive("a"),
            AccessLink::symmetric_mbps(8.0, 0.0),
        );
        let b = t.add_node(
            NodeSpec::responsive("b"),
            AccessLink::symmetric_mbps(8.0, 0.0),
        );
        let c = t.add_node(
            NodeSpec::responsive("c"),
            AccessLink::symmetric_mbps(8.0, 0.0),
        );
        t.set_path_symmetric(a, c, PathSpec::from_owd_ms(10.0, 0.0));
        t.set_path_symmetric(b, c, PathSpec::from_owd_ms(10.0, 0.0));
        let mut p = TransferPlanner::new(TransportConfig::ideal(), t.len());
        let mut rng = SimRng::new(4);
        let t1 = p.plan(&t, SimTime::ZERO, a, c, 1_000_000, &mut rng);
        let t2 = p.plan(&t, SimTime::ZERO, b, c, 1_000_000, &mut rng);
        // Both take ~1 s alone; the second queues behind the first at c.
        assert!(t2.deliver.duration_since(t1.deliver).as_secs_f64() > 0.9);
    }

    #[test]
    fn slow_start_charges_small_transfers() {
        let (t, a, b) = two_node_topo(1000.0, 50.0, 0.0);
        let cfg = TransportConfig {
            enable_tcp_bound: false,
            enable_large_msg_penalty: false,
            enable_slow_start: true,
            per_message_overhead_bytes: 0,
            ..TransportConfig::default()
        };
        let p = TransferPlanner::new(cfg, t.len());
        let est = p.estimate_uncontended(&t, a, b, 100_000).as_secs_f64();
        // ≥ latency + several RTT rounds of slow start.
        assert!(est > 0.3, "estimate {est}");
    }

    #[test]
    fn estimates_match_plan_without_contention() {
        let (t, a, b) = two_node_topo(100.0, 30.0, 0.001);
        let mut p = TransferPlanner::new(TransportConfig::default(), t.len());
        let est = p.estimate_uncontended(&t, a, b, 5_000_000);
        let mut rng = SimRng::new(5);
        let timing = p.plan(&t, SimTime::ZERO, a, b, 5_000_000, &mut rng);
        let actual = timing.total_from(SimTime::ZERO);
        let ratio = actual.as_secs_f64() / est.as_secs_f64();
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn processor_sharing_starts_immediately_but_stretches() {
        let (t, a, b) = two_node_topo(8.0, 10.0, 0.0); // 1 MB/s
        let mut fifo = TransferPlanner::new(TransportConfig::ideal(), t.len());
        let ps_cfg = TransportConfig {
            receiver_discipline: ReceiverDiscipline::ProcessorSharing,
            ..TransportConfig::ideal()
        };
        let mut ps = TransferPlanner::new(ps_cfg, t.len());
        let mut rng = SimRng::new(10);
        // Two concurrent 1 MB transfers to the same receiver.
        let f1 = fifo.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        let f2 = fifo.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        let mut rng = SimRng::new(10);
        let p1 = ps.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        let p2 = ps.plan(&t, SimTime::ZERO, a, b, 1_000_000, &mut rng);
        // FIFO: second completes ~2 s after start; first after ~1 s.
        assert!(f2.deliver > f1.deliver);
        // PS: the second is stretched 2×; the first unaffected (planned first).
        assert!(p1.deliver <= f1.deliver + SimDuration::from_millis(1));
        assert!(p2.deliver >= p1.deliver);
        // Sequential (non-overlapping) transfers behave identically in both.
        let mut fifo2 = TransferPlanner::new(TransportConfig::ideal(), t.len());
        let ps_cfg2 = TransportConfig {
            receiver_discipline: ReceiverDiscipline::ProcessorSharing,
            ..TransportConfig::ideal()
        };
        let mut ps2 = TransferPlanner::new(ps_cfg2, t.len());
        let mut rng = SimRng::new(11);
        let fa = fifo2.plan(&t, SimTime::ZERO, a, b, 100_000, &mut rng);
        let fb = fifo2.plan(
            &t,
            fa.deliver + SimDuration::from_secs(5),
            a,
            b,
            100_000,
            &mut rng,
        );
        let mut rng = SimRng::new(11);
        let pa = ps2.plan(&t, SimTime::ZERO, a, b, 100_000, &mut rng);
        let pb = ps2.plan(
            &t,
            pa.deliver + SimDuration::from_secs(5),
            a,
            b,
            100_000,
            &mut rng,
        );
        assert_eq!(fa.deliver, pa.deliver);
        assert_eq!(fb.deliver, pb.deliver);
    }

    #[test]
    fn throughput_never_zero() {
        let (t, a, b) = two_node_topo(0.000001, 500.0, 0.9);
        let p = TransferPlanner::new(TransportConfig::default(), t.len());
        assert!(p.effective_throughput(&t, a, b, 1e12) >= 1.0);
    }
}
