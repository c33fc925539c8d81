//! Experiment parameterisation and units.
//!
//! The paper writes file sizes as "50Mb", "100Mb", "6.25Mb"; from the
//! measured transfer times (100 Mb in 16 parts averaging 1.7 minutes at
//! JXTA-over-PlanetLab rates) these are **megabytes**, and we treat them as
//! such throughout.

use netsim::time::SimDuration;

/// One megabyte, in bytes (the paper's "Mb").
pub const MB: u64 = 1024 * 1024;

/// The paper's repetition count ("the experiment was repeated 5 times to
/// get significant (averaged) results").
pub const PAPER_REPETITIONS: usize = 5;

/// Delay before the first measurement command (lets clients join and
/// report statistics at least once).
pub(crate) const WARMUP: SimDuration = SimDuration::from_secs(60);

/// Common experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Seeds, one per repetition.
    pub seeds: Vec<u64>,
}

impl ExperimentSpec {
    /// The paper's methodology: 5 repetitions.
    pub fn paper_defaults() -> Self {
        ExperimentSpec {
            seeds: (1..=PAPER_REPETITIONS as u64).collect(),
        }
    }

    /// A quick variant for unit tests and smoke runs (fewer reps).
    pub fn quick() -> Self {
        ExperimentSpec { seeds: vec![1, 2] }
    }
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_methodology() {
        let s = ExperimentSpec::paper_defaults();
        assert_eq!(s.seeds.len(), 5);
        assert_eq!(s.seeds, vec![1, 2, 3, 4, 5]);
        assert!(WARMUP > SimDuration::ZERO);
    }

    #[test]
    fn quick_is_smaller() {
        assert!(ExperimentSpec::quick().seeds.len() < ExperimentSpec::paper_defaults().seeds.len());
    }

    #[test]
    fn mb_is_mebibyte() {
        assert_eq!(MB, 1_048_576);
        assert_eq!(100 * MB / 16, 6_553_600); // the paper's "6.25Mb" parts
    }
}
