//! The GUI client ("Client with GUI" in the paper's §3).
//!
//! JXTA-Overlay distinguishes edge peers *with* a GUI from SimpleClients
//! without one. Functionally a GUI client is a SimpleClient plus a human in
//! front of it: it browses the roster, chats with other peers, requests
//! files it hears about, and occasionally submits jobs. We model the human
//! as a stochastic session: think-time-separated actions drawn from the
//! peer's own RNG stream, so GUI clients generate realistic background
//! chatter for experiments without any scripting.

use netsim::engine::{Actor, Context, TimerId};
use netsim::node::NodeId;
use netsim::time::SimDuration;

use crate::client::{ClientConfig, SimpleClient};
use crate::message::{JobSubmission, OverlayMsg};

/// What the simulated user does, with relative likelihoods.
#[derive(Debug, Clone, PartialEq)]
pub struct UserBehavior {
    /// Mean think time between actions, seconds.
    pub mean_think_secs: f64,
    /// Relative weight: refresh the peer roster.
    pub browse_weight: f64,
    /// Relative weight: send an instant message to a known peer.
    pub chat_weight: f64,
    /// Relative weight: request one of the named files.
    pub request_weight: f64,
    /// Relative weight: submit a small job.
    pub job_weight: f64,
    /// Files the user knows about and may request.
    pub known_files: Vec<String>,
    /// Work of a user-submitted job, giga-ops.
    pub job_work_gops: f64,
    /// Stop acting after this many actions (None = forever).
    pub max_actions: Option<u32>,
}

impl Default for UserBehavior {
    fn default() -> Self {
        UserBehavior {
            mean_think_secs: 45.0,
            browse_weight: 2.0,
            chat_weight: 3.0,
            request_weight: 1.0,
            job_weight: 0.5,
            known_files: Vec::new(),
            job_work_gops: 20.0,
            max_actions: None,
        }
    }
}

const USER_TIMER_TAG: u64 = 900;

/// A GUI client: a SimpleClient plus a simulated interactive user.
pub struct GuiClient {
    inner: SimpleClient,
    behavior: UserBehavior,
    broker: NodeId,
    /// Roster of peer hosts learnt from discovery.
    known_peers: Vec<NodeId>,
    /// Content names learnt from browsing (merged with the static list).
    discovered_files: Vec<String>,
    actions_taken: u32,
    job_counter: u32,
    /// Exposed for tests: actions by kind (browse, chat, request, job).
    pub action_counts: [u32; 4],
}

impl GuiClient {
    /// Creates a GUI client over the given base config and behaviour.
    pub fn new(cfg: ClientConfig, behavior: UserBehavior, id_seed: u64) -> Self {
        let broker = cfg.broker;
        GuiClient {
            inner: SimpleClient::new(cfg, id_seed),
            behavior,
            broker,
            known_peers: Vec::new(),
            discovered_files: Vec::new(),
            actions_taken: 0,
            job_counter: 0,
            action_counts: [0; 4],
        }
    }

    /// The wrapped SimpleClient.
    pub fn inner(&self) -> &SimpleClient {
        &self.inner
    }

    fn schedule_next_action(&self, ctx: &mut Context<OverlayMsg>) {
        let think = ctx.rng().exponential(self.behavior.mean_think_secs);
        ctx.schedule_timer(SimDuration::from_secs_f64(think.max(1.0)), USER_TIMER_TAG);
    }

    fn act(&mut self, ctx: &mut Context<OverlayMsg>) {
        let b = &self.behavior;
        let total = b.browse_weight + b.chat_weight + b.request_weight + b.job_weight;
        if total <= 0.0 {
            return;
        }
        let roll = ctx.rng().uniform_range(0.0, total);
        if roll < b.browse_weight {
            self.action_counts[0] += 1;
            // Alternate between browsing peers and browsing content.
            if self.actions_taken.is_multiple_of(2) {
                ctx.send(self.broker, OverlayMsg::DiscoverPeers);
            } else {
                ctx.send(
                    self.broker,
                    OverlayMsg::DiscoverContent {
                        pattern: String::new(),
                    },
                );
            }
        } else if roll < b.browse_weight + b.chat_weight {
            self.action_counts[1] += 1;
            let peers = self.known_peers.clone();
            if let Some(&peer) = ctx.rng().choose(&peers) {
                if peer != ctx.self_id() {
                    ctx.send(
                        peer,
                        OverlayMsg::Instant {
                            text: "hey, how's the campus render going?".into(),
                        },
                    );
                }
            }
        } else if roll < b.browse_weight + b.chat_weight + b.request_weight {
            self.action_counts[2] += 1;
            let mut files = self.behavior.known_files.clone();
            files.extend(self.discovered_files.iter().cloned());
            if let Some(name) = ctx.rng().choose(&files) {
                let requester = self.inner.peer_id();
                ctx.send(
                    self.broker,
                    OverlayMsg::FileRequest {
                        requester,
                        name: name.clone(),
                    },
                );
            }
        } else {
            self.action_counts[3] += 1;
            self.job_counter += 1;
            let submitter = self.inner.peer_id();
            let label = format!("gui-job-{}", self.job_counter);
            ctx.send(
                self.broker,
                OverlayMsg::JobSubmit(Box::new(JobSubmission {
                    submitter,
                    work_gops: self.behavior.job_work_gops,
                    input_bytes: 0,
                    input_parts: 1,
                    label,
                })),
            );
        }
    }
}

impl Actor<OverlayMsg> for GuiClient {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        self.inner.on_start(ctx);
        self.schedule_next_action(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        match &msg {
            OverlayMsg::DiscoverPeersResponse { adverts } => {
                self.known_peers = adverts.iter().map(|a| a.node).collect();
            }
            OverlayMsg::DiscoverContentResponse { adverts } => {
                for a in adverts {
                    if !self.discovered_files.contains(&a.name) {
                        self.discovered_files.push(a.name.clone());
                    }
                }
            }
            _ => {}
        }
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, timer: TimerId, tag: u64) {
        if tag == USER_TIMER_TAG {
            let exhausted = self
                .behavior
                .max_actions
                .is_some_and(|m| self.actions_taken >= m);
            if !exhausted {
                self.actions_taken += 1;
                self.act(ctx);
                self.schedule_next_action(ctx);
            }
            return;
        }
        self.inner.on_timer(ctx, timer, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use crate::records::RecordSink;
    use netsim::link::{AccessLink, PathSpec};
    use netsim::node::NodeSpec;
    use netsim::prelude::*;

    fn run_session(behavior: UserBehavior, horizon_secs: f64) -> (Metrics, RecordSink) {
        let mut topo = Topology::new();
        let broker = topo.add_node(
            NodeSpec::responsive("broker"),
            AccessLink::symmetric_mbps(80.0, 0.0001),
        );
        let gui = topo.add_node(
            NodeSpec::responsive("gui-client"),
            AccessLink::symmetric_mbps(8.0, 0.0003),
        );
        let other = topo.add_node(
            NodeSpec::responsive("other"),
            AccessLink::symmetric_mbps(8.0, 0.0003),
        );
        topo.set_path_symmetric(broker, gui, PathSpec::from_owd_ms(20.0, 0.0));
        topo.set_path_symmetric(broker, other, PathSpec::from_owd_ms(20.0, 0.0));
        topo.set_path_symmetric(gui, other, PathSpec::from_owd_ms(25.0, 0.0));
        let sink = RecordSink::new();
        let mut bcfg = BrokerConfig::new(61);
        bcfg.stop_when_idle = false;
        let mut engine = Engine::new(topo, TransportConfig::default(), 99);
        engine.register(broker, Box::new(Broker::new(bcfg, sink.clone())));
        engine.register(
            gui,
            Box::new(GuiClient::new(ClientConfig::new(broker), behavior, 7)),
        );
        engine.register(
            other,
            Box::new(
                SimpleClient::new(ClientConfig::new(broker).sharing("notes.pdf", 1 << 20), 8)
                    .with_sink(sink.clone()),
            ),
        );
        engine.run_until(SimTime::from_secs_f64(horizon_secs));
        (engine.metrics().clone(), sink)
    }

    #[test]
    fn user_generates_traffic() {
        let behavior = UserBehavior {
            mean_think_secs: 20.0,
            known_files: vec!["notes.pdf".into()],
            ..UserBehavior::default()
        };
        let (metrics, _sink) = run_session(behavior, 3600.0);
        // The user did *something* beyond protocol plumbing.
        assert!(metrics.counter("net.messages_sent") > 50);
    }

    #[test]
    fn user_requests_known_files_and_they_arrive() {
        let behavior = UserBehavior {
            mean_think_secs: 10.0,
            browse_weight: 0.0,
            chat_weight: 0.0,
            job_weight: 0.0,
            request_weight: 1.0,
            known_files: vec!["notes.pdf".into()],
            max_actions: Some(3),
            ..UserBehavior::default()
        };
        let (metrics, sink) = run_session(behavior, 3600.0);
        assert_eq!(metrics.counter("overlay.file_requests_served"), 3);
        let log = sink.drain();
        let served = log
            .transfers
            .iter()
            .filter(|t| t.label == "notes.pdf" && t.completed_at.is_some())
            .count();
        assert_eq!(served, 3);
    }

    #[test]
    fn user_submits_jobs_that_complete() {
        let behavior = UserBehavior {
            mean_think_secs: 10.0,
            browse_weight: 0.0,
            chat_weight: 0.0,
            request_weight: 0.0,
            job_weight: 1.0,
            max_actions: Some(2),
            ..UserBehavior::default()
        };
        let (_metrics, sink) = run_session(behavior, 3600.0);
        let log = sink.drain();
        assert_eq!(log.jobs.len(), 2);
        assert!(log.jobs.iter().all(|j| j.success));
    }

    #[test]
    fn max_actions_bounds_the_session() {
        let behavior = UserBehavior {
            mean_think_secs: 5.0,
            max_actions: Some(4),
            known_files: vec!["notes.pdf".into()],
            ..UserBehavior::default()
        };
        let mut topo = Topology::new();
        let broker = topo.add_node(NodeSpec::responsive("b"), AccessLink::default());
        let gui = topo.add_node(NodeSpec::responsive("g"), AccessLink::default());
        topo.set_path_symmetric(broker, gui, PathSpec::from_owd_ms(10.0, 0.0));
        let mut bcfg = BrokerConfig::new(62);
        bcfg.stop_when_idle = false;
        let mut engine = Engine::new(topo, TransportConfig::default(), 5);
        engine.register(broker, Box::new(Broker::new(bcfg, RecordSink::new())));
        engine.register(
            gui,
            Box::new(GuiClient::new(ClientConfig::new(broker), behavior, 9)),
        );
        engine.run_until(SimTime::from_secs_f64(4000.0));
        // Only the stats timer keeps firing after the 4 actions; the run
        // reaches the horizon without runaway user activity.
        assert!(engine.now().as_secs_f64() >= 4000.0);
    }
}
