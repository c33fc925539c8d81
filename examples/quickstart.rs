//! Quickstart: boot the synthetic PlanetLab testbed, distribute a file to
//! every SimpleClient peer with no selection, and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
use workloads::scenario::{run_scenario, ScenarioConfig};
use workloads::spec::MB;

fn main() {
    // A 10 MB file, split into 10 parts, sent to all eight SC peers —
    // blindly, exactly like the paper's first experiment.
    let cfg = ScenarioConfig {
        commands: vec![(
            SimDuration::from_secs(60),
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 10 * MB,
                num_parts: 10,
                label: "quickstart".into(),
            },
        )],
        ..ScenarioConfig::default()
    };

    println!("running one blind 10 MB distribution to SC1..SC8 (seed 1)…\n");
    let result = run_scenario(&cfg, 1);

    println!(
        "{:<6} {:<28} {:>12} {:>12} {:>12}",
        "peer", "hostname", "petition(s)", "total(s)", "MB/s"
    );
    for (i, &sc) in result.testbed.scs.iter().enumerate() {
        let rec = result
            .run
            .log
            .transfers
            .iter()
            .find(|t| t.to == sc)
            .expect("transfer record");
        println!(
            "{:<6} {:<28} {:>12.2} {:>12.2} {:>12.2}",
            format!("SC{}", i + 1),
            rec.to_name,
            rec.petition_latency_secs().unwrap_or(f64::NAN),
            rec.total_secs().unwrap_or(f64::NAN),
            rec.throughput_bytes_per_sec().unwrap_or(0.0) / 1e6,
        );
    }
    println!(
        "\nsimulated {:.1} s of virtual time; {} messages on the wire",
        result.run.elapsed.as_secs_f64(),
        result.run.metrics.counter("net.messages_sent")
    );
    println!("note the outlier: SC7 (planetlab1.itwm.fhg.de), the paper's bottleneck peer.");
}
