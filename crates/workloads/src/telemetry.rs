//! Standard time-series column sets for the workload runners.
//!
//! The recorders built here define the *one* schema each sampled
//! workload's deterministic series artifact uses (churn's, and the overlay
//! columns of multiregion and the paper scenarios), so `psim profile`, the
//! property tests, and the CI `workload-determinism` matrix all diff
//! byte-identical CSV for a fixed `(config, seed, num_shards)` — at any
//! worker count.
//!
//! Column conventions:
//! * population counts are **cumulative** (the current state of the
//!   fleet), rates are **deltas** (events inside the window);
//! * `registry_bytes` / `registry_peers` sum the per-broker
//!   `registry.bytes.<node>` / `registry.peers.<node>` gauges the
//!   brokers publish on their gossip cadence, and `bytes_per_peer` is
//!   their ratio (0 while no gauge has been published yet);
//! * `script_bytes` is the one-shot lifecycle-script footprint every
//!   peer reports at start, so it converges to the fleet total.

use netsim::time::SimDuration;
use netsim::timeseries::{SeriesMode, SeriesSource, TimeSeriesError, TimeSeriesRecorder};

/// Columns for churn workloads: population movement, refusals, transfer
/// progress, and registry memory accounting.
pub(crate) fn churn_series(interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
    let mut rec = TimeSeriesRecorder::new(interval)?;
    rec.register(
        "peers_connected",
        SeriesSource::Diff(
            Box::new(SeriesSource::Sum(vec![
                SeriesSource::Counter("churn.joins".into()),
                SeriesSource::Counter("churn.rejoins".into()),
            ])),
            Box::new(SeriesSource::Counter("churn.leaves".into())),
        ),
        SeriesMode::Cumulative,
    );
    rec.register(
        "joins",
        SeriesSource::Counter("churn.joins".into()),
        SeriesMode::Delta,
    );
    rec.register(
        "rejoins",
        SeriesSource::Counter("churn.rejoins".into()),
        SeriesMode::Delta,
    );
    rec.register(
        "leaves",
        SeriesSource::Counter("churn.leaves".into()),
        SeriesMode::Delta,
    );
    rec.register(
        "refused_petitions",
        SeriesSource::Counter("churn.refused_petitions".into()),
        SeriesMode::Cumulative,
    );
    rec.register(
        "refused_tasks",
        SeriesSource::Counter("churn.refused_tasks".into()),
        SeriesMode::Cumulative,
    );
    rec.register(
        "transfers_completed",
        SeriesSource::Counter("overlay.transfers_completed".into()),
        SeriesMode::Cumulative,
    );
    register_registry_columns(&mut rec);
    rec.register(
        "script_bytes",
        SeriesSource::Counter("churn.script_bytes".into()),
        SeriesMode::Cumulative,
    );
    Ok(rec)
}

/// Columns for multi-region overlay workloads: traffic and transfer
/// rates plus the same registry memory accounting as [`churn_series`].
pub(crate) fn overlay_series(interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
    let mut rec = TimeSeriesRecorder::new(interval)?;
    rec.register(
        "messages_sent",
        SeriesSource::Counter("net.messages_sent".into()),
        SeriesMode::Delta,
    );
    rec.register(
        "bytes_sent",
        SeriesSource::Counter("net.bytes_sent".into()),
        SeriesMode::Delta,
    );
    rec.register(
        "joins",
        SeriesSource::Counter("overlay.joins".into()),
        SeriesMode::Cumulative,
    );
    rec.register(
        "transfers_completed",
        SeriesSource::Counter("overlay.transfers_completed".into()),
        SeriesMode::Cumulative,
    );
    register_registry_columns(&mut rec);
    Ok(rec)
}

/// The shared registry-memory columns: fleet-wide byte and peer-count
/// sums over the per-broker gauges, and their ratio.
fn register_registry_columns(rec: &mut TimeSeriesRecorder) {
    let bytes = SeriesSource::GaugePrefix("registry.bytes.".into());
    let peers = SeriesSource::GaugePrefix("registry.peers.".into());
    rec.register("registry_bytes", bytes.clone(), SeriesMode::Cumulative);
    rec.register("registry_peers", peers.clone(), SeriesMode::Cumulative);
    rec.register(
        "bytes_per_peer",
        SeriesSource::Ratio(Box::new(bytes), Box::new(peers)),
        SeriesMode::Cumulative,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::metrics::Metrics;

    #[test]
    fn churn_columns_are_stable() {
        let rec = churn_series(SimDuration::from_secs(60)).expect("positive interval");
        let names: Vec<&str> = rec.names().collect();
        assert_eq!(
            names,
            [
                "peers_connected",
                "joins",
                "rejoins",
                "leaves",
                "refused_petitions",
                "refused_tasks",
                "transfers_completed",
                "registry_bytes",
                "registry_peers",
                "bytes_per_peer",
                "script_bytes",
            ]
        );
    }

    #[test]
    fn overlay_columns_are_stable() {
        let rec = overlay_series(SimDuration::from_secs(60)).expect("positive interval");
        let names: Vec<&str> = rec.names().collect();
        assert_eq!(
            names,
            [
                "messages_sent",
                "bytes_sent",
                "joins",
                "transfers_completed",
                "registry_bytes",
                "registry_peers",
                "bytes_per_peer",
            ]
        );
    }

    #[test]
    fn bytes_per_peer_is_zero_before_any_gauge_publishes() {
        let mut rec = churn_series(SimDuration::from_secs(10)).expect("positive interval");
        let m = Metrics::default();
        rec.sample_up_to(netsim::time::SimTime::ZERO + SimDuration::from_secs(10), &m);
        let row = &rec.rows()[rec.rows().len() - 1];
        let idx = rec
            .names()
            .position(|n| n == "bytes_per_peer")
            .expect("column exists");
        assert_eq!(row.values[idx], 0.0);
    }
}
