//! The single place a [`ModelKind`] axis value becomes a live selector.
//!
//! Before this module, every driver (the fig6 experiment, the psim CLI,
//! the extension studies) kept its own name → constructor table, and the
//! tables drifted: different accepted spellings, different bandit
//! parameters, different seed-salting conventions. [`factory_for`] is now
//! the one table; callers differ only in the `salt` they mix into the
//! seed of stochastic selectors, which keeps each driver's historical
//! random streams (and therefore its recorded results) unchanged.

use overlay::selector::{ModelKind, PeerSelector, RandomSelector, SelectorFactory};
use overlay::streaming::PiecePolicy;

use crate::adaptive::{EpsilonGreedySelector, Ucb1Selector};
use crate::economic::EconomicModel;
use crate::evaluator::DataEvaluatorModel;
use crate::model::Scored;
use crate::preference::UserPreferenceModel;

/// UCB1 exploration constant used by every driver.
pub const UCB1_EXPLORATION: f64 = std::f64::consts::SQRT_2;
/// UCB1 reward normalisation scale (bytes/second), shared by every driver.
pub const UCB1_SCALE: f64 = 2e6;
/// ε-greedy exploration rate shared by every driver.
pub const EPS_GREEDY_EPSILON: f64 = 0.1;

/// Builds the selector factory implementing `kind`, or `None` for
/// [`ModelKind::Blind`] (blind mode installs no selector at all).
///
/// `salt` is XOR-mixed into the run seed handed to stochastic selectors
/// (random, ε-greedy), so different drivers keep disjoint random streams:
/// `0` reproduces the psim CLI's streams, `0xF166` the fig6 experiment's,
/// `0xEE7` the extension studies', `0xADA7` the adaptation study's.
pub fn factory_for(kind: ModelKind, salt: u64) -> Option<SelectorFactory> {
    if kind == ModelKind::Blind {
        return None;
    }
    Some(Box::new(move |seed| -> Box<dyn PeerSelector> {
        match kind {
            ModelKind::Blind => unreachable!("handled above"),
            ModelKind::Economic => Box::new(Scored::new(EconomicModel::new())),
            ModelKind::SamePriority => Box::new(Scored::new(DataEvaluatorModel::same_priority())),
            ModelKind::QuickPeer => Box::new(Scored::new(UserPreferenceModel::quick_peer())),
            ModelKind::Random => Box::new(RandomSelector::new(seed ^ salt)),
            ModelKind::Ucb1 => Box::new(Ucb1Selector::new(UCB1_EXPLORATION, UCB1_SCALE)),
            ModelKind::EpsGreedy => {
                Box::new(EpsilonGreedySelector::new(EPS_GREEDY_EPSILON, seed ^ salt))
            }
        }
    }))
}

/// Resolves a model name to a selector factory, or reports the valid
/// list. `blind` is a valid axis spelling but names no selector, so it is
/// rejected here like any unknown name.
pub fn try_factory_for(model: &str, salt: u64) -> Result<SelectorFactory, UnknownModelError> {
    ModelKind::parse(model)
        .and_then(|kind| factory_for(kind, salt))
        .ok_or_else(|| UnknownModelError {
            model: model.to_string(),
        })
}

/// Every model name that resolves to a selector (canonical order:
/// [`ModelKind::ALL`] minus `blind`).
pub fn selectable_model_names() -> Vec<String> {
    ModelKind::ALL
        .into_iter()
        .filter(|&m| m != ModelKind::Blind)
        .map(|m| m.name().to_string())
        .collect()
}

/// An unrecognized selection-model name. Carries the valid list so
/// callers (psim) can point the user at the accepted spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelError {
    /// The name that failed to resolve.
    pub model: String,
}

impl UnknownModelError {
    /// The accepted model names, canonical order.
    pub fn valid_models(&self) -> Vec<String> {
        selectable_model_names()
    }
}

impl std::fmt::Display for UnknownModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown selection model `{}`; valid models: {}",
            self.model,
            selectable_model_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownModelError {}

/// Resolves a streaming piece-policy name, or reports the valid list —
/// the same one-table discipline as [`try_factory_for`], so the psim
/// CLI and the sweep axes accept identical spellings.
pub fn try_piece_policy_for(name: &str) -> Result<PiecePolicy, UnknownPiecePolicyError> {
    PiecePolicy::parse(name).ok_or_else(|| UnknownPiecePolicyError {
        policy: name.to_string(),
    })
}

/// Every piece-policy name, canonical ([`PiecePolicy::ALL`]) order.
pub fn piece_policy_names() -> Vec<String> {
    PiecePolicy::ALL
        .into_iter()
        .map(|p| p.name().to_string())
        .collect()
}

/// An unrecognized piece-policy name. Carries the valid list so callers
/// can point the user at the accepted spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPiecePolicyError {
    /// The name that failed to resolve.
    pub policy: String,
}

impl std::fmt::Display for UnknownPiecePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown piece policy `{}`; valid policies: {}",
            self.policy,
            piece_policy_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownPiecePolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_selectable_name_resolves() {
        for name in selectable_model_names() {
            let factory = try_factory_for(&name, 0).unwrap_or_else(|e| panic!("{e}"));
            let selector = factory(1);
            assert!(!selector.name().is_empty());
        }
    }

    #[test]
    fn blind_installs_no_selector() {
        assert!(factory_for(ModelKind::Blind, 0).is_none());
        assert!(try_factory_for("blind", 0).is_err());
    }

    #[test]
    fn evaluator_alias_resolves_to_same_priority() {
        let factory = try_factory_for("evaluator", 0).expect("alias resolves");
        assert_eq!(factory(1).name(), "data-evaluator(same-priority)");
    }

    #[test]
    fn every_piece_policy_name_resolves() {
        for name in piece_policy_names() {
            let policy = try_piece_policy_for(&name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(policy.name(), name);
        }
        assert_eq!(
            try_piece_policy_for("rarest"),
            Ok(PiecePolicy::RarestWindow),
            "the shorthand spelling resolves"
        );
        let err = try_piece_policy_for("psychic").unwrap_err();
        let msg = err.to_string();
        for name in piece_policy_names() {
            assert!(msg.contains(&name), "error lists valid policy {name}");
        }
    }

    #[test]
    fn unknown_name_lists_the_valid_models() {
        let err = match try_factory_for("psychic", 0) {
            Ok(_) => panic!("`psychic` must not resolve to a selector"),
            Err(e) => e,
        };
        assert_eq!(err.model, "psychic");
        let msg = err.to_string();
        for m in err.valid_models() {
            assert!(msg.contains(&m), "error lists valid model {m}");
        }
    }
}
