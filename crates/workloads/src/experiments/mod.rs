//! One module per paper artifact (Table 1, Figures 2–7).
//!
//! Every module exposes `run(&ExperimentSpec) -> FigureReport` (plus a typed
//! result where useful). Reports carry the paper's published series next to
//! the measured ones so EXPERIMENTS.md can be regenerated mechanically.

pub mod ablation;
pub mod adaptation;
pub mod extensions;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table1;
pub mod transfer_study;

pub use transfer_study::{fig2, fig3, fig4};

use overlay::records::TransferRecord;

use crate::scenario::ScenarioResult;

/// SC1…SC8 labels.
pub(crate) fn sc_labels() -> Vec<String> {
    planetlab::calibration::SC_LABELS
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Per-SC mean of `metric` over transfers labelled `label`.
/// Returns NaN for SCs with no matching transfer (kept visible in reports).
pub(crate) fn per_sc_transfer_metric(
    result: &ScenarioResult,
    label: &str,
    metric: impl Fn(&TransferRecord) -> Option<f64>,
) -> Vec<f64> {
    result
        .testbed
        .scs
        .iter()
        .map(|&sc| {
            let vals: Vec<f64> = result
                .run
                .log
                .transfers
                .iter()
                .filter(|t| t.to == sc && t.label == label)
                .filter_map(&metric)
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// Nominal one-way network delay from the broker to an SC, in seconds —
/// subtracted from sender-clock petition latencies to recover the
/// receiver-side service delay the paper's Fig 2 reports.
pub(crate) fn broker_owd_secs(result: &ScenarioResult, sc: netsim::node::NodeId) -> f64 {
    result
        .testbed
        .topology
        .path(result.testbed.broker, sc)
        .one_way_delay
        .as_secs_f64()
}
