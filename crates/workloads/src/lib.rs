//! # workloads — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation:
//!
//! * [`spec`] — units and the paper's 5-repetition methodology.
//! * [`scenario`] — the paper's experiment (one broker, the SC peers) as a
//!   [`harness::Workload`], its validating builder, and the named table.
//! * [`runner`] — parallel replication over seeds (std scoped threads).
//! * [`report`] — paper-vs-measured table rendering and shape statistics.
//! * [`attribution`] — per-transfer latency phase decomposition of the run
//!   log, the one account of a transfer (a typed trace is only an export).
//! * [`harness`] — the shared workload harness: validated builder, the
//!   [`Workload`](harness::Workload) trait, engine assembly, artifact rules.
//! * [`multiregion`] — federated multi-region workload for the sharded engine.
//! * [`synthtopo`] — procedural million-peer testbeds (blocked topologies,
//!   haversine inter-region delays, power-law capacities).
//! * [`churn`] — scripted join/leave/rejoin workload over a synthetic
//!   testbed (`psim churn`).
//! * [`federation`] — multi-broker federation workload: homing, petition
//!   forwarding, broker failover (`psim federate`, `psim sweep federation`).
//! * [`streaming`] — streaming-on-demand workload: playback buffers,
//!   piece-selection policies, rebuffering metrics (`psim stream`,
//!   `psim sweep streaming`).
//! * [`telemetry`] — the standard windowed time-series column sets the
//!   workloads record (`psim profile`).
//! * [`sweep`] — grid-sweep campaigns over typed axes (`psim sweep`).
//! * [`experiments`] — one module per artifact: `table1`, `fig2`…`fig7`.
//!
//! ```no_run
//! use workloads::experiments::{fig2, transfer_study};
//! use workloads::spec::ExperimentSpec;
//!
//! let spec = ExperimentSpec::paper_defaults();
//! let study = transfer_study::run(&spec); // Figures 2–4 share one study
//! println!("{}", fig2::report(&study).render());
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod churn;
pub mod experiments;
pub mod federation;
pub mod harness;
pub mod multiregion;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod spec;
pub mod streaming;
pub mod sweep;
pub mod synthtopo;
pub mod telemetry;
