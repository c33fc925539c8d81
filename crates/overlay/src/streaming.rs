//! Streaming-on-demand viewers: playback buffers over piece exchange.
//!
//! A [`StreamingClient`] joins its broker like any edge peer, then pulls
//! a piece-divided media stream from seed peers: it keeps a bounded
//! request window open, buffers `STARTUP_PIECES` pieces before
//! starting playback, consumes one piece per `PIECE_SECS` of virtual
//! time, and stalls (a rebuffer
//! event) whenever the playhead reaches a piece that has not arrived.
//! Which piece to request next is the [`PiecePolicy`] — the axis the
//! streaming experiments sweep (after arXiv:1402.2187's comparison of
//! sequential, windowed, and rarest-within-window selection).
//!
//! Pieces are served by other streaming peers: each piece index hashes
//! to a seed among [`StreamConfig::owners`], and every client answers
//! [`OverlayMsg::PieceRequest`] with a [`OverlayMsg::Piece`] whose wire
//! size is the full piece, so the owner's access uplink serializes the
//! delivery — the peer upload distribution shapes startup delay and
//! rebuffering exactly as it does in deployment studies.
//!
//! Determinism: the client draws nothing from RNGs at message time.
//! Owner assignment and piece availability derive from
//! [`StreamConfig::content_seed`] by splitmix64 hashing, so a fixed
//! `(config, seed)` streams identically at any shard worker count.

use std::collections::BTreeSet;
use std::sync::Arc;

use netsim::engine::{Actor, Context, TimerId};
use netsim::metrics::{MetricId, Metrics};
use netsim::node::NodeId;
use netsim::rng::splitmix64;
use netsim::time::{SimDuration, SimTime};

use crate::advertisement::PeerAdvertisement;
use crate::id::{IdGenerator, PeerId};
use crate::message::OverlayMsg;
use crate::records::{RecordSink, StreamRecord};

/// Hash domain for piece → owner assignment.
const OWNER_SALT: u64 = 0x57E4_0A11;
/// Hash domain for the exogenous piece-availability ranking.
const AVAIL_SALT: u64 = 0x57E4_0AA1;
/// Timer tag: scripted arrival (join the broker, start streaming).
const TAG_JOIN: u64 = 1;
/// Timer tag: the playhead finishes the current piece.
const TAG_PLAY: u64 = 2;
/// Payload bytes per piece.
pub const PIECE_BYTES: u64 = 256 << 10;
/// Playback duration of one piece.
pub(crate) const PIECE_SECS: SimDuration = SimDuration::from_secs(2);
/// Contiguous pieces buffered before playback starts (fewer when the
/// stream is shorter).
pub(crate) const STARTUP_PIECES: u32 = 4;

/// How a viewer picks the next piece to request. The window below is
/// [`StreamConfig::window`]; `Sequential` is the degenerate window of 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PiecePolicy {
    /// Strict playback order, one request in flight (stop-and-wait).
    Sequential,
    /// Playback order, up to `window` requests in flight.
    Windowed,
    /// Rarest piece first *within* the playback window, up to `window`
    /// in flight — the BitTorrent-style compromise between swarm health
    /// and playback deadlines.
    RarestWindow,
}

impl PiecePolicy {
    /// Every policy, in canonical (grid-expansion and CLI listing) order.
    pub const ALL: [PiecePolicy; 3] = [
        PiecePolicy::Sequential,
        PiecePolicy::Windowed,
        PiecePolicy::RarestWindow,
    ];

    /// The canonical spelling used by CLIs, CSV columns, and grid specs.
    pub fn name(self) -> &'static str {
        match self {
            PiecePolicy::Sequential => "sequential",
            PiecePolicy::Windowed => "windowed",
            PiecePolicy::RarestWindow => "rarest-window",
        }
    }

    /// Parses a canonical spelling back into the axis value. Also accepts
    /// `rarest`, the common shorthand.
    pub fn parse(name: &str) -> Option<PiecePolicy> {
        if name == "rarest" {
            return Some(PiecePolicy::RarestWindow);
        }
        PiecePolicy::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The request-window width this policy actually runs with.
    pub fn effective_window(self, window: u32) -> u32 {
        match self {
            PiecePolicy::Sequential => 1,
            PiecePolicy::Windowed | PiecePolicy::RarestWindow => window.max(1),
        }
    }
}

impl std::fmt::Display for PiecePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exogenous availability rank of a piece (lower = rarer). A determin-
/// istic per-content hash, standing in for swarm-wide piece census the
/// simulated viewers have no gossip channel for.
pub(crate) fn availability_rank(content_seed: u64, piece: u32) -> u64 {
    splitmix64(content_seed ^ (AVAIL_SALT.wrapping_add(piece as u64))) % 16
}

/// Behaviour knobs for a [`StreamingClient`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The home broker (joined at arrival; registry/gossip accounting).
    pub broker: NodeId,
    /// Piece-selection policy.
    pub policy: PiecePolicy,
    /// Request-window width for the windowed policies (min 1).
    pub window: u32,
    /// Pieces the stream is divided into (min 1).
    pub total_pieces: u32,
    /// When this viewer joins and begins requesting.
    pub arrival: SimDuration,
    /// Seed peers that serve pieces; piece `i` lives on
    /// `owners[hash(i) % len]` (self is skipped to the next seed).
    pub owners: Arc<[NodeId]>,
    /// Per-content hash seed for owner assignment and availability.
    pub content_seed: u64,
    /// Advertised CPU capacity, giga-ops.
    pub cpu_gops: f64,
}

/// Pre-resolved streaming counters (`streaming.*`). Durations are
/// tallied as interned millisecond counters so the metrics snapshot and
/// the time series stay integer-exact and worker-count invariant.
struct StreamingCounters {
    streams_started: MetricId,
    pieces_requested: MetricId,
    pieces_served: MetricId,
    pieces_received: MetricId,
    playbacks_started: MetricId,
    startup_delay_ms: MetricId,
    rebuffers: MetricId,
    rebuffer_ms: MetricId,
    completions: MetricId,
}

impl StreamingCounters {
    fn resolve(metrics: &mut Metrics) -> Self {
        StreamingCounters {
            streams_started: metrics.counter_id("streaming.streams_started"),
            pieces_requested: metrics.counter_id("streaming.pieces_requested"),
            pieces_served: metrics.counter_id("streaming.pieces_served"),
            pieces_received: metrics.counter_id("streaming.pieces_received"),
            playbacks_started: metrics.counter_id("streaming.playbacks_started"),
            startup_delay_ms: metrics.counter_id("streaming.startup_delay_ms"),
            rebuffers: metrics.counter_id("streaming.rebuffers"),
            rebuffer_ms: metrics.counter_id("streaming.rebuffer_ms"),
            completions: metrics.counter_id("streaming.completions"),
        }
    }
}

/// A streaming viewer (and seed): joins its broker, pulls pieces under a
/// [`PiecePolicy`], plays them back against a buffer, and serves piece
/// requests from fellow viewers.
pub struct StreamingClient {
    cfg: StreamConfig,
    peer_id: PeerId,
    sink: RecordSink,
    have: Vec<bool>,
    in_flight: BTreeSet<u32>,
    /// Lowest piece index not yet received (window anchor).
    first_missing: u32,
    /// Next piece the playhead will consume.
    next_play: u32,
    /// When requesting began (join-ack instant).
    began_at: Option<SimTime>,
    /// Playback has started (startup buffer filled once).
    playback_started: bool,
    /// A `TAG_PLAY` timer is outstanding.
    playing: bool,
    /// When the current stall began, if stalled.
    stalled_since: Option<SimTime>,
    done: bool,
    counters: Option<StreamingCounters>,
}

impl StreamingClient {
    /// Creates a viewer; `id_seed` fixes its [`PeerId`].
    pub fn new(cfg: StreamConfig, id_seed: u64, sink: RecordSink) -> Self {
        assert!(cfg.total_pieces >= 1, "a stream needs at least one piece");
        assert!(!cfg.owners.is_empty(), "a stream needs seed peers");
        let mut ids = IdGenerator::new(id_seed);
        let total = cfg.total_pieces as usize;
        StreamingClient {
            peer_id: PeerId::generate(&mut ids),
            have: vec![false; total],
            in_flight: BTreeSet::new(),
            first_missing: 0,
            next_play: 0,
            began_at: None,
            playback_started: false,
            playing: false,
            stalled_since: None,
            done: false,
            counters: None,
            cfg,
            sink,
        }
    }

    fn bump(&mut self, ctx: &mut Context<OverlayMsg>, which: fn(&StreamingCounters) -> MetricId) {
        self.bump_by(ctx, which, 1);
    }

    fn bump_by(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        which: fn(&StreamingCounters) -> MetricId,
        by: u64,
    ) {
        let ids = self
            .counters
            .get_or_insert_with(|| StreamingCounters::resolve(ctx.metrics()));
        let id = which(ids);
        ctx.metrics().incr_id(id, by);
    }

    /// The seed serving `piece` (self skipped to the next ring slot).
    fn owner_of(&self, me: NodeId, piece: u32) -> NodeId {
        let n = self.cfg.owners.len();
        let mut idx = (splitmix64(self.cfg.content_seed ^ (OWNER_SALT.wrapping_add(piece as u64)))
            as usize)
            % n;
        if self.cfg.owners[idx] == me {
            idx = (idx + 1) % n;
        }
        self.cfg.owners[idx]
    }

    /// Tops the request window up: advances the window anchor past
    /// received pieces, then picks missing, not-in-flight pieces inside
    /// `[first_missing, first_missing + window)` in policy order. Loops
    /// while locally-owned pieces materialize, so a window of local
    /// pieces never wedges the stream.
    fn request_more(&mut self, ctx: &mut Context<OverlayMsg>) {
        if self.done || self.began_at.is_none() {
            return;
        }
        let window = self.cfg.policy.effective_window(self.cfg.window);
        let total = self.cfg.total_pieces;
        let me = ctx.self_id();
        loop {
            while (self.first_missing as usize) < self.have.len()
                && self.have[self.first_missing as usize]
            {
                self.first_missing += 1;
            }
            let base = self.first_missing;
            if base >= total {
                return;
            }
            let end = base.saturating_add(window).min(total);
            let mut candidates: Vec<u32> = (base..end)
                .filter(|&p| !self.have[p as usize] && !self.in_flight.contains(&p))
                .collect();
            if self.cfg.policy == PiecePolicy::RarestWindow {
                candidates.sort_by_key(|&p| (availability_rank(self.cfg.content_seed, p), p));
            }
            let mut materialized = false;
            for p in candidates {
                if self.in_flight.len() >= window as usize {
                    break;
                }
                let owner = self.owner_of(me, p);
                if owner == me {
                    // Sole seed of this piece: materialize it locally.
                    self.have[p as usize] = true;
                    materialized = true;
                    continue;
                }
                self.in_flight.insert(p);
                self.bump(ctx, |c| c.pieces_requested);
                ctx.send(owner, OverlayMsg::PieceRequest { piece: p });
            }
            if !materialized {
                return;
            }
        }
    }

    /// Starts or resumes playback when the buffer allows it.
    fn check_playback(&mut self, ctx: &mut Context<OverlayMsg>) {
        if self.done || self.playing {
            return;
        }
        let now = ctx.now();
        if !self.playback_started {
            let startup = STARTUP_PIECES.min(self.cfg.total_pieces);
            if self.first_missing >= startup {
                self.playback_started = true;
                self.playing = true;
                let began = self.began_at.expect("streaming began before playback");
                let delay = now.duration_since(began);
                self.bump(ctx, |c| c.playbacks_started);
                self.bump_by(ctx, |c| c.startup_delay_ms, delay.as_nanos() / 1_000_000);
                let me = ctx.self_id();
                self.sink.with(|log| {
                    if let Some(s) = log.stream_mut(me) {
                        s.startup_delay_secs = Some(delay.as_secs_f64());
                    }
                });
                ctx.schedule_timer(PIECE_SECS, TAG_PLAY);
            }
        } else if self.stalled_since.is_some() && self.have[self.next_play as usize] {
            let stalled_at = self.stalled_since.take().expect("checked above");
            let stall = now.duration_since(stalled_at);
            self.bump_by(ctx, |c| c.rebuffer_ms, stall.as_nanos() / 1_000_000);
            let me = ctx.self_id();
            self.sink.with(|log| {
                if let Some(s) = log.stream_mut(me) {
                    s.rebuffer_secs += stall.as_secs_f64();
                }
            });
            self.playing = true;
            ctx.schedule_timer(PIECE_SECS, TAG_PLAY);
        }
    }
}

impl Actor<OverlayMsg> for StreamingClient {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        ctx.schedule_timer(self.cfg.arrival, TAG_JOIN);
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        match msg {
            OverlayMsg::JoinAck => {
                if self.began_at.is_some() {
                    return; // duplicate ack
                }
                let now = ctx.now();
                self.began_at = Some(now);
                self.bump(ctx, |c| c.streams_started);
                let me = ctx.self_id();
                let name: Arc<str> = Arc::from(ctx.node_name(me));
                let total = self.cfg.total_pieces;
                self.sink.with(|log| {
                    log.streams.push(StreamRecord {
                        node: me,
                        name,
                        total_pieces: total,
                        began_at: now,
                        startup_delay_secs: None,
                        pieces_received: 0,
                        rebuffers: 0,
                        rebuffer_secs: 0.0,
                        completed_at: None,
                    });
                });
                self.request_more(ctx);
                self.check_playback(ctx);
            }
            OverlayMsg::PieceRequest { piece } => {
                self.bump(ctx, |c| c.pieces_served);
                let size = PIECE_BYTES;
                ctx.send(from, OverlayMsg::Piece { piece, size });
            }
            OverlayMsg::Piece { piece, .. } => {
                self.in_flight.remove(&piece);
                let idx = piece as usize;
                if idx < self.have.len() && !self.have[idx] {
                    self.have[idx] = true;
                    self.bump(ctx, |c| c.pieces_received);
                    let me = ctx.self_id();
                    self.sink.with(|log| {
                        if let Some(s) = log.stream_mut(me) {
                            s.pieces_received += 1;
                        }
                    });
                }
                self.request_more(ctx);
                self.check_playback(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_JOIN => {
                let adv = PeerAdvertisement {
                    peer: self.peer_id,
                    node: ctx.self_id(),
                    name: ctx.node_name(ctx.self_id()).to_string(),
                    cpu_gops: self.cfg.cpu_gops,
                };
                ctx.send(self.cfg.broker, OverlayMsg::Join(Box::new(adv)));
            }
            TAG_PLAY => {
                if self.done || !self.playing {
                    return;
                }
                self.next_play += 1;
                if self.next_play >= self.cfg.total_pieces {
                    self.done = true;
                    self.playing = false;
                    let now = ctx.now();
                    self.bump(ctx, |c| c.completions);
                    let me = ctx.self_id();
                    self.sink.with(|log| {
                        if let Some(s) = log.stream_mut(me) {
                            s.completed_at = Some(now);
                        }
                    });
                } else if self.have[self.next_play as usize] {
                    ctx.schedule_timer(PIECE_SECS, TAG_PLAY);
                } else {
                    // The playhead outran the buffer: stall until the
                    // missing piece arrives.
                    self.playing = false;
                    self.stalled_since = Some(ctx.now());
                    self.bump(ctx, |c| c.rebuffers);
                    let me = ctx.self_id();
                    self.sink.with(|log| {
                        if let Some(s) = log.stream_mut(me) {
                            s.rebuffers += 1;
                        }
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use netsim::engine::{Engine, RunOutcome};
    use netsim::link::{AccessLink, PathSpec};
    use netsim::node::NodeSpec;
    use netsim::time::SimTime;
    use netsim::topology::Topology;
    use netsim::transport::TransportConfig;

    fn stream_net(
        viewers: usize,
        uplink_mbps: f64,
        cfg_of: impl Fn(NodeId, Arc<[NodeId]>) -> StreamConfig,
    ) -> (RecordSink, RunOutcome) {
        let mut topo = Topology::new();
        let broker = topo.add_node(
            NodeSpec::responsive("broker"),
            AccessLink::symmetric_mbps(100.0, 0.0001),
        );
        let mut nodes = Vec::new();
        for i in 0..viewers {
            let v = topo.add_node(
                NodeSpec::responsive(format!("viewer{i}")),
                AccessLink::symmetric_mbps(uplink_mbps, 0.0003),
            );
            topo.set_path_symmetric(broker, v, PathSpec::from_owd_ms(15.0, 0.0));
            nodes.push(v);
        }
        for i in 0..viewers {
            for j in (i + 1)..viewers {
                topo.set_path_symmetric(nodes[i], nodes[j], PathSpec::from_owd_ms(25.0, 0.0));
            }
        }
        let owners: Arc<[NodeId]> = nodes.clone().into();
        let sink = RecordSink::new();
        let mut engine = Engine::new(topo, TransportConfig::default(), 11);
        let mut broker_cfg = BrokerConfig::new(5);
        broker_cfg.stop_when_idle = false;
        engine.register(broker, Box::new(Broker::new(broker_cfg, sink.clone())));
        for (i, &v) in nodes.iter().enumerate() {
            let cfg = cfg_of(broker, owners.clone());
            engine.register(
                v,
                Box::new(StreamingClient::new(cfg, 900 + i as u64, sink.clone())),
            );
        }
        let outcome = engine.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
        (sink, outcome)
    }

    fn base_cfg(broker: NodeId, owners: Arc<[NodeId]>) -> StreamConfig {
        StreamConfig {
            broker,
            policy: PiecePolicy::Sequential,
            window: 1,
            total_pieces: 24,
            arrival: SimDuration::from_secs(1),
            owners,
            content_seed: 404,
            cpu_gops: 1.0,
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for p in PiecePolicy::ALL {
            assert_eq!(PiecePolicy::parse(p.name()), Some(p));
        }
        assert_eq!(
            PiecePolicy::parse("rarest"),
            Some(PiecePolicy::RarestWindow)
        );
        assert_eq!(PiecePolicy::parse("psychic"), None);
    }

    #[test]
    fn sequential_window_is_one() {
        assert_eq!(PiecePolicy::Sequential.effective_window(16), 1);
        assert_eq!(PiecePolicy::Windowed.effective_window(16), 16);
        assert_eq!(PiecePolicy::RarestWindow.effective_window(0), 1);
    }

    #[test]
    fn availability_is_deterministic() {
        for p in 0..64 {
            assert_eq!(availability_rank(7, p), availability_rank(7, p));
        }
        // Not constant: some pieces must be rarer than others.
        let ranks: std::collections::BTreeSet<u64> =
            (0..64).map(|p| availability_rank(7, p)).collect();
        assert!(ranks.len() > 1);
    }

    #[test]
    fn sequential_viewers_play_the_whole_stream() {
        let (sink, _) = stream_net(3, 20.0, base_cfg);
        let log = sink.drain();
        assert_eq!(log.streams.len(), 3, "every viewer starts a stream");
        for s in &log.streams {
            assert_eq!(s.pieces_received, s.total_pieces, "viewer {}", s.name);
            let delay = s.startup_delay_secs.expect("playback started");
            assert!(delay > 0.0, "startup buffering takes time");
            assert!(
                s.completed_at.is_some(),
                "viewer {} finished playback",
                s.name
            );
            assert!(s.rebuffer_secs >= 0.0);
            let total = s.completed_at.unwrap().duration_since(s.began_at);
            assert!(total.as_secs_f64() >= delay);
        }
    }

    #[test]
    fn starved_uplinks_force_rebuffering() {
        // Pieces play faster than a 0.6 Mbit/s uplink can ship them (a
        // piece takes ~3.5 s), so the playhead must outrun the buffer and
        // stall.
        let (sink, _) = stream_net(3, 0.6, base_cfg);
        let log = sink.drain();
        let total_rebuffers: u32 = log.streams.iter().map(|s| s.rebuffers).sum();
        assert!(total_rebuffers > 0, "starved playback must stall");
        let stalled = log
            .streams
            .iter()
            .find(|s| s.rebuffers > 0)
            .expect("some viewer stalled");
        assert!(stalled.rebuffer_secs > 0.0, "stalls accumulate duration");
    }

    #[test]
    fn window_width_trades_startup_delay() {
        // With bandwidth-bound pieces (256 KiB at 8 Mbit/s the
        // serialization time dwarfs the RTT), a wide request window
        // makes lookahead pieces compete with the startup-critical
        // prefix, so sequential starts playback soonest — the classic
        // in-order vs lookahead trade-off of the selection studies.
        let run = |policy, window| {
            let (sink, _) = stream_net(4, 8.0, move |b, o| StreamConfig {
                policy,
                window,
                ..base_cfg(b, o)
            });
            let log = sink.drain();
            let delays: Vec<f64> = log
                .streams
                .iter()
                .map(|s| s.startup_delay_secs.expect("started"))
                .collect();
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        let seq = run(PiecePolicy::Sequential, 1);
        let win = run(PiecePolicy::Windowed, 8);
        assert!(
            seq < win,
            "lookahead must delay the in-order startup prefix \
             (sequential {seq:.2}s vs windowed {win:.2}s)"
        );
    }

    #[test]
    fn rarest_window_reorders_but_still_completes() {
        let (sink, _) = stream_net(3, 12.0, |b, o| StreamConfig {
            policy: PiecePolicy::RarestWindow,
            window: 6,
            ..base_cfg(b, o)
        });
        let log = sink.drain();
        for s in &log.streams {
            assert_eq!(s.pieces_received, s.total_pieces);
            assert!(s.completed_at.is_some(), "viewer {} finished", s.name);
        }
    }
}
