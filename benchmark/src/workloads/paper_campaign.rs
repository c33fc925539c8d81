//! `paper-campaign`: the paper's own experiment, many times over.
//!
//! Each campaign is a named grid (`fig345`: the 100 MB broadcast at three
//! granularities; `fig67`: four selection models × two granularities) of
//! eight SC peers on the calibrated PlanetLab testbed, five replications
//! per cell, rendered to CSV. It runs through `scenario.rs` and the serial
//! `Engine` — no harness, no sharded engine, no gossip — which is exactly
//! the path ROADMAP item 3 refactors and must show "no cost" on.

use std::collections::BTreeMap;
use std::time::Instant;

use workloads::sweep::{named_grid, run_campaign, SweepSpec};

use super::{Done, Fnv1a, Mode, Rep, Size};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::timed::Profile;

/// `(grid name, CSV data rows of one campaign)`: fig345 has 3 cells × 8
/// SC rows, fig67 has 8 cells × 1 row.
const GRIDS: [(&str, usize); 2] = [("fig345", 24), ("fig67", 8)];
const REPLICATIONS: usize = 5;

/// Set-up: expand every grid the run will execute.
fn specs(size: Size, seed: u64) -> Vec<(SweepSpec, usize)> {
    let rounds = match size {
        Size::Full => 120,
        Size::Quick => 2,
    };
    (0..rounds)
        .flat_map(|i| GRIDS.map(|(grid, rows)| (grid, rows, seed + i)))
        .map(|(grid, rows, campaign_seed)| {
            let spec = named_grid(grid, campaign_seed, REPLICATIONS).expect("grid name is known");
            (spec, rows)
        })
        .collect()
}

pub fn run(size: Size, seed: u64, mode: Mode, entry: Instant) -> Result<Done, String> {
    let pool_workers = match mode {
        Mode::Workers2 => 2,
        Mode::Timed | Mode::Traced => 1,
        Mode::TraceRing => return Err("paper-campaign has no trace ring to switch on".into()),
        Mode::SetupOnly => {
            return Rep::setup_only(|| {
                let start = Instant::now();
                let built = specs(size, seed);
                let took = start.elapsed().as_secs_f64();
                drop(built);
                Ok(took)
            })
        }
    };
    let specs = specs(size, seed);

    let profile = Profile::new(mode == Mode::Traced, entry);
    let mut digest = Fnv1a::new();
    let mut campaign_ms = Vec::with_capacity(specs.len());
    let (mut messages_sent, mut transfers_completed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut ops_attempted = 0;
    let mut ops_failed = 0;

    let first = Instant::now();
    for (spec, expected_rows) in &specs {
        let t0 = Instant::now();
        let rendered = run_campaign(spec, pool_workers).map(|campaign| {
            let csv = campaign.to_csv();
            (campaign, csv)
        });
        let t1 = Instant::now();
        campaign_ms.push((t1 - t0).as_secs_f64() * 1e3);
        profile.phase(&format!("campaign.{}", spec.name), t0, t1);

        // An op is one cell replication; a campaign that errors or renders
        // the wrong number of rows fails all of its own.
        match rendered {
            Ok((campaign, csv)) => {
                let cell_runs = (campaign.cells.len() * campaign.replications) as u64;
                ops_attempted += cell_runs;
                let rows = csv.lines().count() - 1;
                if rows != *expected_rows {
                    failures.push(format!(
                        "{} CSV has {rows} rows, expected {expected_rows}",
                        spec.name
                    ));
                    ops_failed += cell_runs;
                }
                digest.feed(csv.as_bytes());
                for cell in &campaign.cells {
                    for (name, value) in cell.metrics.counters_sorted() {
                        match name {
                            "net.messages_sent" => messages_sent += value,
                            "overlay.transfers_completed" => transfers_completed += value,
                            _ => {}
                        }
                    }
                }
            }
            Err(e) => {
                let cell_runs =
                    (spec.expand().map_or(1, |cells| cells.len()) * REPLICATIONS) as u64;
                ops_attempted += cell_runs;
                ops_failed += cell_runs;
                failures.push(format!("{} campaign failed: {e}", spec.name));
            }
        }
    }
    let end = Instant::now();
    let setup_s = (first - entry).as_secs_f64();
    let run_s = (end - first).as_secs_f64();

    let counts = BTreeMap::from([
        ("sim.campaigns".to_string(), specs.len() as u64),
        ("sim.messages_sent".to_string(), messages_sent),
        ("sim.transfers_completed".to_string(), transfers_completed),
    ]);

    let mut layers = BTreeMap::new();
    let mut spans = None;
    if mode == Mode::Traced {
        layers.insert("trace.run_s".to_string(), run_s);
        layers.insert("sweep.campaign_ms.p50".to_string(), median(&campaign_ms));
        // Named for the full size (n = 240 supports p95 with twelve samples
        // beyond it); a sample too small for any percentile reports its max.
        let p = match highest_supported_percentile(campaign_ms.len()) {
            Some(supported) if supported >= 95.0 => 95.0,
            _ => 100.0,
        };
        layers.insert(
            "sweep.campaign_ms.p95".to_string(),
            percentile(&campaign_ms, p),
        );
        layers.insert("sweep.campaigns".to_string(), campaign_ms.len() as f64);
        let collected = profile.take();
        spans = Some(collected.spans_json(
            "paper-campaign",
            seed,
            (first - entry).as_nanos() as u64,
            (end - entry).as_nanos() as u64,
        ));
    }

    Ok(Done {
        rep: Rep {
            setup_s,
            run_s,
            ops_attempted,
            ops_failed,
            digest: digest.finish(),
            counts,
            failures,
            layers,
            ..Rep::default()
        },
        spans,
    })
}
