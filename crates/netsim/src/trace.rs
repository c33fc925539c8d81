//! Structured event tracing: the observability layer of the simulator.
//!
//! The trace is a bounded ring buffer of typed [`TraceEvent`] rows covering
//! the engine (message send/deliver/loss, timer arm/fire/cancel) and the
//! protocols built on top (petitions, parts, confirms, selections,
//! retransmissions, watchdogs, pipes — emitted by the overlay crate through
//! [`crate::engine::Context::trace_event`]). It is disabled by default and
//! costs exactly one branch per would-be event when off; tests enable it to
//! assert that two runs with the same seed produce identical histories, and
//! the `psim trace` command exports it as deterministic JSONL, whose
//! [`fnv1a`] digest [`Trace::digest`] returns.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

use crate::node::NodeId;
use crate::time::SimTime;

/// A typed trace event.
///
/// Engine events are emitted by `netsim` itself; protocol events use only
/// primitive fields (`u128` ids, node ids, indices) so this crate stays
/// ignorant of the overlay types that produce them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A message left this node for `to`.
    MessageSent {
        /// Destination host.
        to: NodeId,
        /// Payload kind label.
        msg: &'static str,
        /// Wire size in bytes.
        bytes: u64,
        /// When the transport starts transmitting (queueing excluded).
        tx_start: SimTime,
        /// When the destination will receive it (incl. service delay).
        deliver_at: SimTime,
    },
    /// A message from `from` was delivered to this node.
    MessageDelivered {
        /// Origin host.
        from: NodeId,
        /// Payload kind label.
        msg: &'static str,
    },
    /// A message to `to` was dropped by the lossy transport.
    MessageLost {
        /// Intended destination.
        to: NodeId,
        /// Payload kind label.
        msg: &'static str,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A timer was scheduled on this node.
    TimerArmed {
        /// Engine-unique timer id.
        timer: u64,
        /// Caller-supplied tag.
        tag: u64,
        /// When it will fire.
        fire_at: SimTime,
    },
    /// A pending timer fired on this node.
    TimerFired {
        /// Engine-unique timer id.
        timer: u64,
        /// Caller-supplied tag.
        tag: u64,
    },
    /// A pending timer was cancelled before firing.
    TimerCancelled {
        /// Engine-unique timer id.
        timer: u64,
    },
    /// A transfer request spent time queued (e.g. deferred by the broker
    /// until a peer joined) before its petition could go out. Emitted at
    /// petition time, pointing back at when the request was first enqueued.
    TransferQueued {
        /// Transfer id (raw 128-bit form).
        transfer: u128,
        /// When the request was first enqueued.
        enqueued_at: SimTime,
    },
    /// A file-transfer petition was sent.
    PetitionSent {
        /// Transfer id (raw 128-bit form).
        transfer: u128,
        /// Destination host.
        to: NodeId,
        /// Total file size in bytes.
        bytes: u64,
        /// Number of parts.
        parts: u32,
    },
    /// A petition ack arrived back at the sender.
    PetitionAcked {
        /// Transfer id.
        transfer: u128,
        /// Whether the peer accepted the transfer.
        accepted: bool,
    },
    /// A file part was transmitted.
    PartSent {
        /// Transfer id.
        transfer: u128,
        /// Part index.
        index: u32,
        /// Part size in bytes.
        bytes: u64,
    },
    /// A part confirm arrived at the sender.
    PartConfirmed {
        /// Transfer id.
        transfer: u128,
        /// Confirmed part index.
        index: u32,
        /// Whether the state machine accepted it (false = stale/duplicate).
        accepted: bool,
    },
    /// The receiver saw a part index beyond the next expected one.
    PartGap {
        /// Transfer id.
        transfer: u128,
        /// The out-of-order index that arrived.
        index: u32,
        /// The index that was expected next.
        expected: u32,
    },
    /// A petition or part was retransmitted after a silent timeout.
    Retransmission {
        /// Transfer id.
        transfer: u128,
        /// Part index, or `None` when the petition was retransmitted.
        part: Option<u32>,
        /// Send attempt number this retransmission starts (2 = first retry).
        attempt: u32,
    },
    /// The transfer watchdog gave up on a transfer.
    WatchdogFired {
        /// Transfer id.
        transfer: u128,
    },
    /// A transfer finished.
    TransferCompleted {
        /// Transfer id.
        transfer: u128,
        /// True when every part was confirmed; false when cancelled.
        ok: bool,
    },
    /// A selection model picked a peer.
    SelectionDecided {
        /// Model name.
        model: String,
        /// The chosen host.
        chosen: NodeId,
        /// Per-candidate costs (lower = better), parallel to the candidate
        /// set in node-id order; empty when the model exposes none.
        costs: Vec<(NodeId, f64)>,
    },
    /// A unicast pipe was opened.
    PipeOpened {
        /// Pipe id (raw 128-bit form).
        pipe: u128,
        /// Host the pipe resolves to.
        node: NodeId,
    },
    /// A unicast pipe was closed, with its final traffic accounting.
    PipeClosed {
        /// Pipe id.
        pipe: u128,
        /// Messages routed through it.
        messages: u64,
        /// Bytes routed through it.
        bytes: u64,
    },
    /// A scripted outage took this broker down.
    BrokerDown,
    /// A scripted restart brought this broker back (empty-handed).
    BrokerUp,
    /// A broker handed a petition it could not place to a fellow broker.
    PetitionForwarded {
        /// The broker the petition was forwarded to.
        to: NodeId,
        /// Remaining hop budget, this forward included.
        hops_left: u32,
    },
    /// A client declared its home broker dead and moved to the next one
    /// on its preference list.
    PeerRehomed {
        /// The broker given up on.
        from: NodeId,
        /// The broker the client re-joined through.
        to: NodeId,
    },
}

impl TraceEventKind {
    /// Stable machine-readable label (the `"ev"` field of the JSONL form).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            TraceEventKind::MessageSent { .. } => "message_sent",
            TraceEventKind::MessageDelivered { .. } => "message_delivered",
            TraceEventKind::MessageLost { .. } => "message_lost",
            TraceEventKind::TimerArmed { .. } => "timer_armed",
            TraceEventKind::TimerFired { .. } => "timer_fired",
            TraceEventKind::TimerCancelled { .. } => "timer_cancelled",
            TraceEventKind::TransferQueued { .. } => "transfer_queued",
            TraceEventKind::PetitionSent { .. } => "petition_sent",
            TraceEventKind::PetitionAcked { .. } => "petition_acked",
            TraceEventKind::PartSent { .. } => "part_sent",
            TraceEventKind::PartConfirmed { .. } => "part_confirmed",
            TraceEventKind::PartGap { .. } => "part_gap",
            TraceEventKind::Retransmission { .. } => "retransmission",
            TraceEventKind::WatchdogFired { .. } => "watchdog_fired",
            TraceEventKind::TransferCompleted { .. } => "transfer_completed",
            TraceEventKind::SelectionDecided { .. } => "selection_decided",
            TraceEventKind::PipeOpened { .. } => "pipe_opened",
            TraceEventKind::PipeClosed { .. } => "pipe_closed",
            TraceEventKind::BrokerDown => "broker_down",
            TraceEventKind::BrokerUp => "broker_up",
            TraceEventKind::PetitionForwarded { .. } => "petition_forwarded",
            TraceEventKind::PeerRehomed { .. } => "peer_rehomed",
        }
    }
}

/// One trace row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// The node it happened on.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceEventKind,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl TraceEvent {
    /// Renders the event as one deterministic JSON object (no trailing
    /// newline). Field order is fixed; 128-bit ids are emitted as strings
    /// so any JSON reader round-trips them exactly.
    pub(crate) fn to_json(&self) -> String {
        let mut o = String::with_capacity(96);
        let _ = write!(
            o,
            "{{\"t\":{},\"n\":{},\"ev\":\"{}\"",
            self.time.as_nanos(),
            self.node.0,
            self.kind.label()
        );
        match &self.kind {
            TraceEventKind::MessageSent {
                to,
                msg,
                bytes,
                tx_start,
                deliver_at,
            } => {
                let _ = write!(
                    o,
                    ",\"to\":{},\"msg\":\"{}\",\"bytes\":{},\"tx_start\":{},\"deliver_at\":{}",
                    to.0,
                    msg,
                    bytes,
                    tx_start.as_nanos(),
                    deliver_at.as_nanos()
                );
            }
            TraceEventKind::MessageDelivered { from, msg } => {
                let _ = write!(o, ",\"from\":{},\"msg\":\"{}\"", from.0, msg);
            }
            TraceEventKind::MessageLost { to, msg, bytes } => {
                let _ = write!(
                    o,
                    ",\"to\":{},\"msg\":\"{}\",\"bytes\":{}",
                    to.0, msg, bytes
                );
            }
            TraceEventKind::TimerArmed {
                timer,
                tag,
                fire_at,
            } => {
                let _ = write!(
                    o,
                    ",\"timer\":{},\"tag\":{},\"fire_at\":{}",
                    timer,
                    tag,
                    fire_at.as_nanos()
                );
            }
            TraceEventKind::TimerFired { timer, tag } => {
                let _ = write!(o, ",\"timer\":{timer},\"tag\":{tag}");
            }
            TraceEventKind::TimerCancelled { timer } => {
                let _ = write!(o, ",\"timer\":{timer}");
            }
            TraceEventKind::TransferQueued {
                transfer,
                enqueued_at,
            } => {
                let _ = write!(
                    o,
                    ",\"xfer\":\"{}\",\"enqueued_at\":{}",
                    transfer,
                    enqueued_at.as_nanos()
                );
            }
            TraceEventKind::PetitionSent {
                transfer,
                to,
                bytes,
                parts,
            } => {
                let _ = write!(
                    o,
                    ",\"xfer\":\"{}\",\"to\":{},\"bytes\":{},\"parts\":{}",
                    transfer, to.0, bytes, parts
                );
            }
            TraceEventKind::PetitionAcked { transfer, accepted } => {
                let _ = write!(o, ",\"xfer\":\"{transfer}\",\"accepted\":{accepted}");
            }
            TraceEventKind::PartSent {
                transfer,
                index,
                bytes,
            } => {
                let _ = write!(
                    o,
                    ",\"xfer\":\"{transfer}\",\"index\":{index},\"bytes\":{bytes}"
                );
            }
            TraceEventKind::PartConfirmed {
                transfer,
                index,
                accepted,
            } => {
                let _ = write!(
                    o,
                    ",\"xfer\":\"{transfer}\",\"index\":{index},\"accepted\":{accepted}"
                );
            }
            TraceEventKind::PartGap {
                transfer,
                index,
                expected,
            } => {
                let _ = write!(
                    o,
                    ",\"xfer\":\"{transfer}\",\"index\":{index},\"expected\":{expected}"
                );
            }
            TraceEventKind::Retransmission {
                transfer,
                part,
                attempt,
            } => {
                let _ = write!(o, ",\"xfer\":\"{transfer}\",\"part\":");
                match part {
                    Some(i) => {
                        let _ = write!(o, "{i}");
                    }
                    None => o.push_str("null"),
                }
                let _ = write!(o, ",\"attempt\":{attempt}");
            }
            TraceEventKind::WatchdogFired { transfer } => {
                let _ = write!(o, ",\"xfer\":\"{transfer}\"");
            }
            TraceEventKind::TransferCompleted { transfer, ok } => {
                let _ = write!(o, ",\"xfer\":\"{transfer}\",\"ok\":{ok}");
            }
            TraceEventKind::SelectionDecided {
                model,
                chosen,
                costs,
            } => {
                o.push_str(",\"model\":");
                push_json_str(&mut o, model);
                let _ = write!(o, ",\"chosen\":{},\"costs\":[", chosen.0);
                for (i, (node, cost)) in costs.iter().enumerate() {
                    if i > 0 {
                        o.push(',');
                    }
                    let _ = write!(o, "[{},", node.0);
                    push_json_f64(&mut o, *cost);
                    o.push(']');
                }
                o.push(']');
            }
            TraceEventKind::PipeOpened { pipe, node } => {
                let _ = write!(o, ",\"pipe\":\"{}\",\"node\":{}", pipe, node.0);
            }
            TraceEventKind::PipeClosed {
                pipe,
                messages,
                bytes,
            } => {
                let _ = write!(
                    o,
                    ",\"pipe\":\"{pipe}\",\"messages\":{messages},\"bytes\":{bytes}"
                );
            }
            TraceEventKind::BrokerDown | TraceEventKind::BrokerUp => {}
            TraceEventKind::PetitionForwarded { to, hops_left } => {
                let _ = write!(o, ",\"to\":{},\"hops_left\":{}", to.0, hops_left);
            }
            TraceEventKind::PeerRehomed { from, to } => {
                let _ = write!(o, ",\"from\":{},\"to\":{}", from.0, to.0);
            }
        }
        o.push('}');
        o
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {}", self.time, self.node, self.to_json())
    }
}

/// Bounded ring buffer of trace events.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// A disabled trace (records nothing).
    pub(crate) fn disabled() -> Self {
        Trace {
            enabled: false,
            capacity: 0,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// An enabled trace keeping the most recent `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Trace {
            enabled: true,
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub(crate) fn record(&mut self, time: SimTime, node: NodeId, kind: TraceEventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { time, node, kind });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained history as JSON Lines (one event per line,
    /// trailing newline after each). The output is a pure function of the
    /// event history, so two same-seed runs yield byte-identical JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Merges per-shard traces into one global history: events are stably
    /// sorted by timestamp, so simultaneous events from different shards
    /// keep the shard order of `parts` and same-shard events keep their
    /// within-shard order. A pure function of the inputs — two identical
    /// sets of shard traces merge to byte-identical JSONL.
    pub(crate) fn merged(parts: &[&Trace]) -> Trace {
        let mut events: Vec<TraceEvent> = Vec::with_capacity(parts.iter().map(|t| t.len()).sum());
        for part in parts {
            events.extend(part.events.iter().cloned());
        }
        events.sort_by_key(|e| e.time);
        Trace {
            enabled: parts.iter().any(|t| t.enabled),
            capacity: parts.iter().map(|t| t.capacity).sum(),
            events: events.into(),
            dropped: parts.iter().map(|t| t.dropped).sum(),
        }
    }

    /// A stable digest of the retained history — a cheap equality proxy for
    /// determinism assertions: the [`fnv1a`] of the [`Trace::to_jsonl`]
    /// bytes, fed one row at a time.
    pub fn digest(&self) -> u64 {
        self.events.iter().fold(FNV1A_OFFSET, |h, e| {
            fnv1a_from(fnv1a_from(h, e.to_json().as_bytes()), b"\n")
        })
    }
}

/// The FNV-1a 64-bit offset basis: the digest of no bytes.
const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`: the one digest the simulator's outputs are
/// pinned with (offset basis `0xcbf2_9ce4_8422_2325`, prime
/// `0x100_0000_01b3`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV1A_OFFSET, bytes)
}

/// Continues an FNV-1a digest `h` over `bytes`.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
#[path = "trace_tests.rs"]
mod tests;
