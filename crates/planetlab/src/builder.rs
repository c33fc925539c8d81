//! Assembles a `netsim` topology from the site catalog and profiles.

use netsim::node::NodeId;
use netsim::topology::Topology;

use crate::calibration::{broker_profile, sc_profile};
use crate::profile::{synthetic_profile, NodeProfile};
use crate::rtt::RttModel;
use crate::sites::{Role, Site, BROKER, TABLE1};

/// What to build.
#[derive(Debug, Clone, Default)]
pub struct TestbedConfig {
    /// The RTT synthesis model.
    pub rtt: RttModel,
    /// How many non-SC slice members join the broker and the eight SC
    /// peers: 0 is the paper's measurement setup, 17 or more the full
    /// slice. Lets scaling experiments sweep the peer count.
    pub(crate) others: usize,
}

impl TestbedConfig {
    /// The paper's measurement setup: broker + SC1…SC8.
    pub fn measurement_setup() -> Self {
        TestbedConfig::default()
    }

    /// The full 25-node slice plus the broker.
    pub fn full_slice() -> Self {
        TestbedConfig::slice_with_others(usize::MAX)
    }

    /// Broker and SCs plus at most `n` non-SC members (scaling sweeps).
    pub fn slice_with_others(n: usize) -> Self {
        TestbedConfig {
            others: n,
            ..TestbedConfig::default()
        }
    }
}

/// A built testbed: the topology plus the node-id roster.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The simulated network.
    pub topology: Topology,
    /// The broker's node id.
    pub broker: NodeId,
    /// SC1…SC8 node ids (index 0 is SC1).
    pub scs: [NodeId; 8],
    /// The non-SC slice members `TestbedConfig::others` asked for.
    pub others: Vec<NodeId>,
}

impl Testbed {
    /// The node id of SCn (n in 1..=8).
    pub fn sc(&self, n: u8) -> NodeId {
        assert!((1..=8).contains(&n), "SC index {n} out of range");
        self.scs[(n - 1) as usize]
    }

    /// All client node ids (SCs then others), excluding the broker.
    pub fn clients(&self) -> Vec<NodeId> {
        self.scs
            .iter()
            .copied()
            .chain(self.others.iter().copied())
            .collect()
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// Always false — a testbed has at least the broker.
    pub fn is_empty(&self) -> bool {
        false
    }
}

fn profile_for(site: &Site) -> NodeProfile {
    match site.role {
        Role::Broker => broker_profile(),
        Role::SimpleClient(n) => sc_profile(n),
        Role::SliceMember => synthetic_profile(site.hostname),
    }
}

/// Builds the testbed described by `config`.
pub fn build(config: &TestbedConfig) -> Testbed {
    let mut sites: Vec<&Site> = vec![&BROKER];
    sites.extend(crate::sites::simple_clients());
    sites.extend(
        TABLE1
            .iter()
            .filter(|site| matches!(site.role, Role::SliceMember))
            .take(config.others),
    );

    let mut topology = Topology::new();
    let mut ids = Vec::with_capacity(sites.len());
    for site in &sites {
        let profile = profile_for(site);
        let id = topology.add_node(
            profile.to_node_spec(site.hostname),
            profile.to_access_link(),
        );
        ids.push(id);
    }

    // Pairwise geographic paths (symmetric).
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            let path = config.rtt.path(sites[i], sites[j]);
            topology.set_path_symmetric(ids[i], ids[j], path);
        }
    }

    let broker = ids[0];
    let mut scs = [NodeId(0); 8];
    let mut others = Vec::new();
    for (site, id) in sites.iter().zip(&ids).skip(1) {
        match site.role {
            Role::SimpleClient(n) => scs[(n - 1) as usize] = *id,
            _ => others.push(*id),
        }
    }

    Testbed {
        topology,
        broker,
        scs,
        others,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PAPER_FIG2_PETITION_SECS;

    #[test]
    fn measurement_setup_has_nine_nodes() {
        let tb = build(&TestbedConfig::measurement_setup());
        assert_eq!(tb.len(), 9);
        assert!(tb.others.is_empty());
        assert_eq!(tb.clients().len(), 8);
        assert!(!tb.is_empty());
    }

    #[test]
    fn full_slice_has_26_nodes() {
        let tb = build(&TestbedConfig::full_slice());
        assert_eq!(tb.len(), 26);
        assert_eq!(tb.others.len(), 17);
        assert_eq!(tb.clients().len(), 25);
    }

    #[test]
    fn full_slice_scs_keep_low_node_ids() {
        // SCs occupy node ids 1..=8 in every build, so experiments can
        // address them uniformly regardless of slice size.
        let tb = build(&TestbedConfig::full_slice());
        for n in 1..=8u8 {
            assert_eq!(tb.sc(n), NodeId(n as u32));
        }
    }

    #[test]
    fn slice_with_others_caps_members() {
        let tb = build(&TestbedConfig::slice_with_others(5));
        assert_eq!(tb.others.len(), 5);
        assert_eq!(tb.len(), 1 + 8 + 5);
        let none = build(&TestbedConfig::slice_with_others(0));
        assert_eq!(none.len(), 9);
        // Capping above the catalog size is a no-op.
        let all = build(&TestbedConfig::slice_with_others(100));
        assert_eq!(all.len(), 26);
    }

    /// Every node spec, access link and path of two testbeds.
    fn assert_same_topology(a: &Testbed, b: &Testbed) {
        assert_eq!((a.len(), a.broker, a.scs), (b.len(), b.broker, b.scs));
        assert_eq!(a.others, b.others);
        for x in a.topology.node_ids() {
            assert_eq!(a.topology.node(x), b.topology.node(x));
            assert_eq!(a.topology.access(x), b.topology.access(x));
            for y in a.topology.node_ids() {
                assert_eq!(a.topology.path(x, y), b.topology.path(x, y));
            }
        }
    }

    /// One member count spans both ends of the slice: capping it at the
    /// catalog size or above is the full slice, at zero the paper's setup.
    #[test]
    fn member_count_reaches_both_named_testbeds() {
        let full = build(&TestbedConfig::full_slice());
        for n in [17, 100] {
            assert_same_topology(&build(&TestbedConfig::slice_with_others(n)), &full);
        }
        assert_same_topology(
            &build(&TestbedConfig::slice_with_others(0)),
            &build(&TestbedConfig::measurement_setup()),
        );
    }

    #[test]
    fn sc_roster_matches_hostnames() {
        let tb = build(&TestbedConfig::measurement_setup());
        assert_eq!(tb.topology.node(tb.sc(1)).name, "ait05.us.es");
        assert_eq!(tb.topology.node(tb.sc(7)).name, "planetlab1.itwm.fhg.de");
        assert_eq!(tb.topology.node(tb.broker).name, "nozomi.lsi.upc.edu");
    }

    #[test]
    fn sc_service_delays_are_calibrated() {
        let tb = build(&TestbedConfig::measurement_setup());
        for n in 1..=8u8 {
            let spec = tb.topology.node(tb.sc(n));
            let mean = spec.service_delay.mean_secs();
            let target = PAPER_FIG2_PETITION_SECS[(n - 1) as usize];
            assert!(
                (mean - target).abs() / target < 1e-9,
                "SC{n} mean {mean} target {target}"
            );
        }
    }

    #[test]
    fn paths_are_geographic_and_symmetric() {
        let tb = build(&TestbedConfig::measurement_setup());
        // broker (Barcelona) ↔ SC2 (Helsinki) is farther than broker ↔ SC1 (Seville).
        let to_helsinki = tb.topology.path(tb.broker, tb.sc(2)).one_way_delay;
        let to_seville = tb.topology.path(tb.broker, tb.sc(1)).one_way_delay;
        assert!(to_helsinki > to_seville);
        assert_eq!(
            tb.topology.path(tb.broker, tb.sc(2)),
            tb.topology.path(tb.sc(2), tb.broker)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sc_accessor_bounds() {
        let tb = build(&TestbedConfig::measurement_setup());
        tb.sc(9);
    }

    #[test]
    fn build_is_deterministic() {
        let a = build(&TestbedConfig::full_slice());
        let b = build(&TestbedConfig::full_slice());
        for id in a.topology.node_ids() {
            assert_eq!(a.topology.node(id), b.topology.node(id));
            assert_eq!(a.topology.access(id), b.topology.access(id));
        }
    }
}
