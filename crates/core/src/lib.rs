//! # peer-selection — peer selection models for brokered P2P overlays
//!
//! The primary contribution of the reproduced paper: given a broker's view
//! of its peergroup (statistics snapshots + observed interaction history),
//! decide which peer should receive a file or execute a task.
//!
//! The paper's three models:
//!
//! * [`economic::EconomicModel`] — scheduling-based selection (§2.1): plan
//!   ahead using estimated peer *ready times*, award work to the earliest /
//!   cheapest completion, tie-break by CPU speed.
//! * [`evaluator::DataEvaluatorModel`] — the cost model (§2.2): weighted sum
//!   over the full statistics-criteria catalogue, with *same priority* mode
//!   (equal weights) as measured in the paper.
//! * [`preference::UserPreferenceModel`] — user's preference (§2.3),
//!   including *quick peer* mode: historically fastest peer, ignoring all
//!   current state.
//!
//! Plus extensions beyond the paper:
//!
//! * [`adaptive`] — ε-greedy and UCB1 bandit selectors (the "future work").
//!
//! [`service`] is the one name → selector table every driver (experiments,
//! the psim CLI, sweep grids) resolves models through.
//!
//! All models implement [`model::ScoringModel`] and convert to the broker's
//! [`overlay::selector::PeerSelector`] via [`model::Scored`]:
//!
//! ```
//! use peer_selection::prelude::*;
//!
//! let selector: Box<dyn PeerSelector> = Box::new(Scored::new(EconomicModel::new()));
//! assert_eq!(selector.name(), "economic");
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod economic;
pub mod estimate;
pub mod evaluator;
pub mod model;
pub mod preference;
pub mod service;

/// Convenient re-exports of the model types and the overlay hook.
pub mod prelude {
    pub use crate::economic::EconomicModel;
    pub use crate::evaluator::DataEvaluatorModel;
    pub use crate::model::Scored;
    pub use crate::preference::UserPreferenceModel;
    pub use overlay::selector::PeerSelector;
}
