//! Table 1: the PlanetLab slice roster, plus the synthetic testbed's
//! per-node characterisation (our substitute for the real slice).

use std::fmt::Write as _;

use planetlab::builder::{build, TestbedConfig};
use planetlab::calibration::PAPER_FIG2_PETITION_SECS;
use planetlab::rtt::RttModel;
use planetlab::sites::{simple_clients, BROKER, TABLE1};

/// Renders the paper's Table 1 (the 25 slice nodes) with roles.
pub(crate) fn render_roster() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 1 — nodes added to the PlanetLab slice ==");
    let _ = writeln!(
        out,
        "{:<40} {:<16} {:<3} {:<6}",
        "hostname", "city", "cc", "role"
    );
    for site in &TABLE1 {
        let _ = writeln!(
            out,
            "{:<40} {:<16} {:<3} {:<6}",
            site.hostname,
            site.city,
            site.country,
            site.label()
        );
    }
    let _ = writeln!(
        out,
        "{:<40} {:<16} {:<3} {:<6}",
        BROKER.hostname, BROKER.city, BROKER.country, "broker"
    );
    out
}

/// Renders the calibrated SC profiles: the testbed's ground truth.
pub(crate) fn render_testbed() -> String {
    let tb = build(&TestbedConfig::measurement_setup());
    let rtt = RttModel::default();
    let mut out = String::new();
    let _ = writeln!(out, "== Synthetic testbed — calibrated SC profiles ==");
    let _ = writeln!(
        out,
        "{:<5} {:<28} {:>9} {:>10} {:>9} {:>8}",
        "peer", "hostname", "rtt(ms)", "bw(MB/s)", "wake(s)", "cpu(gops)"
    );
    for (i, site) in simple_clients().iter().enumerate() {
        let sc = tb.sc(i as u8 + 1);
        let spec = tb.topology.node(sc);
        let link = tb.topology.access(sc);
        let _ = writeln!(
            out,
            "{:<5} {:<28} {:>9.1} {:>10.2} {:>9.2} {:>8.2}",
            format!("SC{}", i + 1),
            site.hostname,
            rtt.rtt_ms(&BROKER, site),
            link.down_bytes_per_sec / 1e6,
            spec.service_delay.mean_secs(),
            spec.cpu.base_gops,
        );
    }
    let _ = writeln!(
        out,
        "wake(s) calibrated to the paper's Fig 2 series: {:?}",
        PAPER_FIG2_PETITION_SECS
    );
    out
}

/// Full Table-1 report: roster + testbed characterisation.
pub fn run() -> String {
    let mut s = render_roster();
    s.push('\n');
    s.push_str(&render_testbed());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_lists_all_25_plus_broker() {
        let s = render_roster();
        assert_eq!(s.lines().count(), 2 + 25 + 1); // header rows + nodes + broker
        assert!(s.contains("ait05.us.es"));
        assert!(s.contains("nozomi.lsi.upc.edu"));
        assert!(s.contains("SC7"));
    }

    #[test]
    fn testbed_table_has_eight_scs() {
        let s = render_testbed();
        for i in 1..=8 {
            assert!(s.contains(&format!("SC{i}")), "missing SC{i}");
        }
        assert!(s.contains("27.13"), "SC7's calibration target shown");
    }

    #[test]
    fn combined_report() {
        let s = run();
        assert!(s.contains("Table 1"));
        assert!(s.contains("Synthetic testbed"));
    }

    #[test]
    fn roles_match_paper_counts() {
        let scs = TABLE1
            .iter()
            .filter(|s| matches!(s.role, planetlab::sites::Role::SimpleClient(_)))
            .count();
        assert_eq!(scs, 8);
    }
}
