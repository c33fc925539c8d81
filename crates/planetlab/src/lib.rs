//! # planetlab — a synthetic PlanetLab testbed
//!
//! The paper ran on a real PlanetLab slice; this crate rebuilds that testbed
//! as simulation inputs:
//!
//! * [`sites`] — the 25 hosts of the paper's Table 1 (plus the nozomi broker),
//!   with geographic coordinates and their experimental roles (SC1…SC8).
//! * [`rtt`] — great-circle RTT synthesis with path inflation and jitter.
//! * [`profile`] — per-node performance profiles (bandwidth caps, loss,
//!   responsiveness, CPU) convertible to `netsim` types.
//! * [`calibration`] — SC profiles fitted to the paper's measured values,
//!   plus the paper's published series as constants.
//! * [`builder`] — assembles a ready-to-run [`netsim::topology::Topology`].
//!
//! ```
//! use planetlab::builder::{build, TestbedConfig};
//!
//! let tb = build(&TestbedConfig::measurement_setup());
//! assert_eq!(tb.len(), 9); // broker + SC1..SC8
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod calibration;
pub mod profile;
pub mod rtt;
pub mod sites;

pub use builder::{build, Testbed, TestbedConfig};
