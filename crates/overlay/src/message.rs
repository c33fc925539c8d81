//! The overlay's wire protocol.
//!
//! One message enum covers all primitives: membership, discovery,
//! statistics, instant messaging, file transfer, and task management.
//! Wire sizes approximate serialized JXTA messages; service classes encode
//! which messages wake the destination application (see
//! [`netsim::engine::ServiceClass`]).

use std::sync::Arc;

use netsim::engine::{Payload, ServiceClass};
use netsim::time::SimTime;

use crate::advertisement::PeerAdvertisement;
use crate::filetransfer::FileMeta;
use crate::id::{GroupId, PeerId, TaskId, TransferId};
use crate::stats::StatsSnapshot;
use crate::task::TaskSpec;

/// Every message exchanged on the overlay.
///
/// Every queued event carries one of these by value, so the enum is held
/// to 48 B, the tag's word and 40 B: a variant's fields beyond 32 B and
/// that word are boxed (`overlay_msg_stays_small` fails otherwise).
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayMsg {
    // ---- membership & discovery -------------------------------------
    /// Client → broker: join the overlay with a peer advertisement.
    Join(Box<PeerAdvertisement>),
    /// Broker → client: membership confirmed, with the assigned peergroup.
    JoinAck {
        /// The group the peer was placed in.
        group: GroupId,
    },
    /// Client → broker: leave the overlay.
    Leave {
        /// The departing peer.
        peer: PeerId,
    },
    /// Client → broker: ask for the current peer roster.
    DiscoverPeers,
    /// Broker → client: the roster.
    DiscoverPeersResponse {
        /// Cached, unexpired advertisements.
        adverts: Vec<PeerAdvertisement>,
    },
    /// Periodic client → broker statistics report.
    StatsReport {
        /// The reporting peer.
        peer: PeerId,
        /// Its self-measured statistics (224 B, hence boxed).
        snapshot: Box<StatsSnapshot>,
    },

    // ---- instant communication ---------------------------------------
    /// Peer ↔ peer instant message. The body is shared (`Arc<str>`) so a
    /// broadcast to N peers bumps a refcount N times instead of allocating
    /// N copies of the text.
    Instant {
        /// Message body.
        text: Arc<str>,
    },
    /// Liveness probe.
    Ping {
        /// Echo nonce.
        nonce: u64,
        /// Send timestamp, echoed back for RTT measurement.
        sent_at: SimTime,
    },
    /// Liveness reply.
    Pong {
        /// Echoed nonce.
        nonce: u64,
        /// The original send timestamp.
        sent_at: SimTime,
    },

    // ---- file transfer -------------------------------------------------
    /// Sender → peer: announces a transfer ("petition").
    FilePetition {
        /// Transfer session.
        transfer: TransferId,
        /// File metadata.
        file: Box<FileMeta>,
        /// Number of parts the file is split into.
        num_parts: u32,
        /// When the petition left the sender (for petition-time measurement).
        sent_at: SimTime,
    },
    /// Peer → sender: ready (or refusing) to receive.
    PetitionAck {
        /// Transfer session.
        transfer: TransferId,
        /// Whether the peer accepts the transfer.
        accepted: bool,
        /// Original petition send time (echoed).
        petition_sent_at: SimTime,
        /// When the peer's application actually handled the petition.
        handled_at: SimTime,
    },
    /// Sender → peer: one file part. `size` bytes of payload.
    FilePart {
        /// Transfer session.
        transfer: TransferId,
        /// Part index, 0-based.
        index: u32,
        /// Payload bytes in this part.
        size: u64,
    },
    /// Peer → sender: part received correctly; ready for the next.
    PartConfirm {
        /// Transfer session.
        transfer: TransferId,
        /// Confirmed part index.
        index: u32,
    },
    /// Sender → peer: all parts sent and confirmed.
    TransferComplete {
        /// Transfer session.
        transfer: TransferId,
    },
    /// Either side: transfer aborted.
    TransferCancel {
        /// Transfer session.
        transfer: TransferId,
    },

    // ---- content sharing & file request ---------------------------------
    /// Client → broker: announce a locally held file.
    PublishContent(Box<crate::advertisement::ContentAdvertisement>),
    /// Client → broker: browse published content by substring.
    DiscoverContent {
        /// Substring the content name must contain (empty = everything).
        pattern: String,
    },
    /// Broker → client: matching content advertisements.
    DiscoverContentResponse {
        /// Matching, unexpired advertisements.
        adverts: Vec<crate::advertisement::ContentAdvertisement>,
    },
    /// Client → broker: ask for a file by name; the broker selects an owner
    /// peer and instructs it to send.
    FileRequest {
        /// The requesting peer.
        requester: PeerId,
        /// The requested file's name.
        name: String,
    },
    /// Broker → owner peer: send `file` to `to_node`.
    TransferInstruction {
        /// Destination host.
        to_node: netsim::node::NodeId,
        /// What to send.
        file: Box<FileMeta>,
        /// Number of parts to split into.
        num_parts: u32,
    },
    /// Owner peer → broker: outcome of an instructed transfer.
    TransferReport {
        /// The transfer session.
        transfer: TransferId,
        /// Whether it completed.
        ok: bool,
        /// Observed duration, seconds.
        elapsed_secs: f64,
        /// Bytes moved.
        bytes: u64,
    },

    // ---- client-submitted jobs -------------------------------------------
    /// Client → broker: run this job somewhere (the broker selects the
    /// executor through its selection model).
    JobSubmit(Box<JobSubmission>),
    /// Broker → submitter: the job finished.
    JobDone {
        /// Job label (echoed).
        label: String,
        /// Whether execution succeeded.
        success: bool,
        /// Submission-to-result seconds.
        total_secs: f64,
    },

    // ---- broker federation ------------------------------------------------
    /// Broker → broker: periodic roster exchange so each governor can
    /// select among peers registered at other brokers (the platform has
    /// several brokers acting as governors; nozomi was "one of the
    /// brokers").
    BrokerGossip {
        /// The sending broker's host.
        from_broker: netsim::node::NodeId,
        /// When the sender took this roster snapshot, so the receiver can
        /// apply its staleness window.
        sent_at: SimTime,
        /// How many brokers this round's roster went to. Host-side
        /// bookkeeping only: each receiver charges `1 / recipients` of
        /// every view allocation it keeps to its memory footprint (see
        /// [`crate::footprint`]). Not part of the simulated wire format.
        recipients: u32,
        /// Candidate views of the sender's registered peers, sorted by
        /// node. Built once per round: every recipient's message shares
        /// the list, and a receiver keeps the per-view pointers it wants.
        roster: Arc<[Arc<crate::selector::CandidateView>]>,
    },
    /// Broker → broker: a `Selected` file petition the origin broker could
    /// not place locally, handed to a fellow broker under a hop budget.
    PetitionForward(Box<ForwardedPetition>),

    // ---- streaming on demand ---------------------------------------------
    /// Viewer → owner peer: send me this piece of the stream.
    PieceRequest {
        /// 0-based piece index.
        piece: u32,
    },
    /// Owner peer → viewer: one stream piece. `size` bytes of payload, so
    /// the owner's access link serializes the delivery.
    Piece {
        /// 0-based piece index (echoed).
        piece: u32,
        /// Payload bytes in this piece.
        size: u64,
    },

    // ---- task management ------------------------------------------------
    /// Broker → peer: offer an executable task.
    TaskOffer {
        /// The task.
        task: Box<TaskSpec>,
        /// Offer timestamp.
        sent_at: SimTime,
    },
    /// Peer → broker: task accepted.
    TaskAccept {
        /// The accepted task.
        task: TaskId,
    },
    /// Peer → broker: task rejected.
    TaskReject {
        /// The rejected task.
        task: TaskId,
    },
    /// Peer → broker: execution finished.
    TaskResult {
        /// The finished task.
        task: TaskId,
        /// Whether execution succeeded.
        success: bool,
        /// Pure execution time on the peer, seconds.
        exec_secs: f64,
    },
}

/// What [`OverlayMsg::JobSubmit`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSubmission {
    /// The submitting peer (gets the result).
    pub submitter: PeerId,
    /// Compute demand, giga-ops.
    pub work_gops: f64,
    /// Input to ship to the executor first (0 = none).
    pub input_bytes: u64,
    /// Parts for the input shipment.
    pub input_parts: u32,
    /// Job label.
    pub label: String,
}

/// What [`OverlayMsg::PetitionForward`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardedPetition {
    /// The broker the petition originated at (excluded from further hops
    /// so forwards never boomerang).
    pub origin: netsim::node::NodeId,
    /// Remaining broker-to-broker hops, this delivery included.
    pub hops_left: u32,
    /// File size in bytes.
    pub size_bytes: u64,
    /// Parts to split the file into.
    pub num_parts: u32,
    /// Label recorded with the transfer.
    pub label: String,
    /// When the command was first enqueued at the origin (petition latency
    /// is measured from here, hops included).
    pub enqueued_at: SimTime,
}

impl Payload for OverlayMsg {
    fn wire_size(&self) -> u64 {
        match self {
            OverlayMsg::Join(adv) => adv.wire_size(),
            OverlayMsg::JoinAck { .. } => 32,
            OverlayMsg::Leave { .. } => 24,
            OverlayMsg::DiscoverPeers => 16,
            OverlayMsg::DiscoverPeersResponse { adverts } => {
                16 + adverts.iter().map(|a| a.wire_size()).sum::<u64>()
            }
            OverlayMsg::StatsReport { snapshot, .. } => 24 + snapshot.wire_size(),
            OverlayMsg::Instant { text } => 24 + text.len() as u64,
            OverlayMsg::Ping { .. } | OverlayMsg::Pong { .. } => 32,
            OverlayMsg::FilePetition { file, .. } => 64 + file.wire_size(),
            OverlayMsg::PetitionAck { .. } => 48,
            OverlayMsg::FilePart { size, .. } => 32 + size,
            OverlayMsg::PartConfirm { .. } => 28,
            OverlayMsg::TransferComplete { .. } => 24,
            OverlayMsg::TransferCancel { .. } => 24,
            OverlayMsg::TaskOffer { task, .. } => 16 + task.wire_size(),
            OverlayMsg::TaskAccept { .. } | OverlayMsg::TaskReject { .. } => 24,
            OverlayMsg::TaskResult { .. } => 40,
            OverlayMsg::PublishContent(adv) => adv.wire_size(),
            OverlayMsg::DiscoverContent { pattern } => 24 + pattern.len() as u64,
            OverlayMsg::DiscoverContentResponse { adverts } => {
                16 + adverts.iter().map(|a| a.wire_size()).sum::<u64>()
            }
            OverlayMsg::FileRequest { name, .. } => 32 + name.len() as u64,
            OverlayMsg::TransferInstruction { file, .. } => 40 + file.wire_size(),
            OverlayMsg::TransferReport { .. } => 48,
            OverlayMsg::JobSubmit(job) => 56 + job.label.len() as u64,
            OverlayMsg::JobDone { label, .. } => 40 + label.len() as u64,
            OverlayMsg::BrokerGossip { roster, .. } => {
                24 + roster
                    .iter()
                    .map(|c| 200 + c.name.len() as u64)
                    .sum::<u64>()
            }
            OverlayMsg::PetitionForward(fwd) => 64 + fwd.label.len() as u64,
            OverlayMsg::PieceRequest { .. } => 24,
            OverlayMsg::Piece { size, .. } => 32 + size,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            OverlayMsg::Join(_) => "join",
            OverlayMsg::JoinAck { .. } => "join-ack",
            OverlayMsg::Leave { .. } => "leave",
            OverlayMsg::DiscoverPeers => "discover",
            OverlayMsg::DiscoverPeersResponse { .. } => "discover-resp",
            OverlayMsg::StatsReport { .. } => "stats",
            OverlayMsg::Instant { .. } => "instant",
            OverlayMsg::Ping { .. } => "ping",
            OverlayMsg::Pong { .. } => "pong",
            OverlayMsg::FilePetition { .. } => "petition",
            OverlayMsg::PetitionAck { .. } => "petition-ack",
            OverlayMsg::FilePart { .. } => "part",
            OverlayMsg::PartConfirm { .. } => "confirm",
            OverlayMsg::TransferComplete { .. } => "complete",
            OverlayMsg::TransferCancel { .. } => "cancel",
            OverlayMsg::TaskOffer { .. } => "task-offer",
            OverlayMsg::TaskAccept { .. } => "task-accept",
            OverlayMsg::TaskReject { .. } => "task-reject",
            OverlayMsg::TaskResult { .. } => "task-result",
            OverlayMsg::PublishContent(_) => "publish",
            OverlayMsg::DiscoverContent { .. } => "discover-content",
            OverlayMsg::DiscoverContentResponse { .. } => "content-resp",
            OverlayMsg::FileRequest { .. } => "file-request",
            OverlayMsg::TransferInstruction { .. } => "instruct",
            OverlayMsg::TransferReport { .. } => "xfer-report",
            OverlayMsg::JobSubmit(_) => "job-submit",
            OverlayMsg::JobDone { .. } => "job-done",
            OverlayMsg::BrokerGossip { .. } => "gossip",
            OverlayMsg::PetitionForward(_) => "fwd-petition",
            OverlayMsg::PieceRequest { .. } => "piece-request",
            OverlayMsg::Piece { .. } => "piece",
        }
    }

    fn service_class(&self) -> ServiceClass {
        match self {
            // Messages that wake the destination application.
            OverlayMsg::Join(_)
            | OverlayMsg::Leave { .. }
            | OverlayMsg::DiscoverPeers
            | OverlayMsg::Instant { .. }
            | OverlayMsg::Ping { .. }
            | OverlayMsg::FilePetition { .. }
            | OverlayMsg::TransferInstruction { .. }
            | OverlayMsg::PieceRequest { .. }
            | OverlayMsg::TaskOffer { .. } => ServiceClass::Wakeup,
            // Hot-path continuation traffic.
            OverlayMsg::JoinAck { .. }
            | OverlayMsg::DiscoverPeersResponse { .. }
            | OverlayMsg::StatsReport { .. }
            | OverlayMsg::Pong { .. }
            | OverlayMsg::PetitionAck { .. }
            | OverlayMsg::FilePart { .. }
            | OverlayMsg::PartConfirm { .. }
            | OverlayMsg::TransferComplete { .. }
            | OverlayMsg::TransferCancel { .. }
            | OverlayMsg::TaskAccept { .. }
            | OverlayMsg::TaskReject { .. }
            | OverlayMsg::TaskResult { .. }
            | OverlayMsg::PublishContent(_)
            | OverlayMsg::DiscoverContent { .. }
            | OverlayMsg::DiscoverContentResponse { .. }
            | OverlayMsg::FileRequest { .. }
            | OverlayMsg::TransferReport { .. }
            | OverlayMsg::JobSubmit(_)
            | OverlayMsg::JobDone { .. }
            | OverlayMsg::BrokerGossip { .. }
            | OverlayMsg::PetitionForward(_)
            | OverlayMsg::Piece { .. } => ServiceClass::Fast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;

    #[test]
    fn overlay_msg_stays_small() {
        assert!(
            std::mem::size_of::<OverlayMsg>() <= 48,
            "the 32-byte rule: box a variant's fields beyond 32 B and the word its tag \
             shares, since every queued event holds an OverlayMsg by value"
        );
    }

    #[test]
    fn file_parts_dominate_wire_size() {
        let mut g = IdGenerator::new(1);
        let part = OverlayMsg::FilePart {
            transfer: TransferId::generate(&mut g),
            index: 0,
            size: 6 * 1024 * 1024,
        };
        assert!(part.wire_size() > 6_000_000);
        let confirm = OverlayMsg::PartConfirm {
            transfer: TransferId::generate(&mut g),
            index: 0,
        };
        assert!(confirm.wire_size() < 100);
    }

    #[test]
    fn petition_wakes_the_application() {
        let mut g = IdGenerator::new(2);
        let petition = OverlayMsg::FilePetition {
            transfer: TransferId::generate(&mut g),
            file: Box::new(FileMeta {
                content: crate::id::ContentId::generate(&mut g),
                name: "f".into(),
                size_bytes: 1,
            }),
            num_parts: 1,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(petition.service_class(), ServiceClass::Wakeup);
        let part = OverlayMsg::FilePart {
            transfer: TransferId::generate(&mut g),
            index: 1,
            size: 100,
        };
        assert_eq!(part.service_class(), ServiceClass::Fast);
    }

    #[test]
    fn kinds_are_stable_labels() {
        assert_eq!(OverlayMsg::DiscoverPeers.kind(), "discover");
        assert_eq!(OverlayMsg::Instant { text: "hi".into() }.kind(), "instant");
    }

    #[test]
    fn gossip_wire_size_counts_every_shared_view() {
        // Sharing the roster allocation is a host-side economy: on the
        // simulated wire each view still costs 200 bytes plus its name.
        let mut g = IdGenerator::new(4);
        let roster: Arc<[Arc<crate::selector::CandidateView>]> = ["a", "bcd", "efghij"]
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                Arc::new(crate::selector::CandidateView {
                    peer: PeerId::generate(&mut g),
                    node: netsim::node::NodeId(i as u32),
                    name: name.into(),
                    cpu_gops: 1.0,
                    snapshot: StatsSnapshot::empty(1.0),
                    history: crate::selector::InteractionHistory::empty(),
                })
            })
            .collect();
        let gossip = |recipients| OverlayMsg::BrokerGossip {
            from_broker: netsim::node::NodeId(9),
            sent_at: SimTime::ZERO,
            recipients,
            roster: roster.clone(),
        };
        assert_eq!(gossip(1).wire_size(), 24 + 3 * 200 + 10);
        assert_eq!(gossip(7).wire_size(), gossip(1).wire_size());
    }

    #[test]
    fn discover_response_size_scales_with_roster() {
        let mut g = IdGenerator::new(3);
        let adv = PeerAdvertisement {
            peer: PeerId::generate(&mut g),
            node: netsim::node::NodeId(0),
            name: "x".into(),
            cpu_gops: 1.0,
            accepts_tasks: true,
            published: SimTime::ZERO,
            lifetime: crate::advertisement::DEFAULT_LIFETIME,
        };
        let small = OverlayMsg::DiscoverPeersResponse {
            adverts: vec![adv.clone()],
        };
        let large = OverlayMsg::DiscoverPeersResponse {
            adverts: vec![adv.clone(); 10],
        };
        assert!(large.wire_size() > 5 * small.wire_size());
    }
}
