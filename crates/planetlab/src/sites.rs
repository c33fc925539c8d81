//! The node catalog: every host from the paper's Table 1, plus the broker.
//!
//! The paper's slice contained 25 PlanetLab hosts; eight of them — SC1…SC8,
//! spread over seven EU countries — were used as SimpleClient peers for the
//! measurements, and the `nozomi.lsi.upc.edu` cluster head acted as a broker.
//! Coordinates are approximate university-campus locations, good to a few km,
//! which is far below the precision the RTT synthesis needs.

/// Role a host plays in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Broker / governor peer (the nozomi cluster head).
    Broker,
    /// One of the eight measured SimpleClient peers; payload is 1..=8.
    SimpleClient(u8),
    /// Slice member not used as a measurement endpoint.
    SliceMember,
}

/// One catalogued host.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Fully qualified hostname as listed in Table 1.
    pub hostname: &'static str,
    /// City of the hosting institution.
    pub city: &'static str,
    /// ISO-ish country code.
    pub country: &'static str,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Role in the experiments.
    pub role: Role,
}

impl Site {
    /// Short label: `SCn` for measured peers, `broker`, or the hostname.
    pub fn label(&self) -> String {
        match self.role {
            Role::Broker => "broker".to_string(),
            Role::SimpleClient(n) => format!("SC{n}"),
            Role::SliceMember => self.hostname.to_string(),
        }
    }
}

/// The broker host (nozomi cluster head at UPC, Barcelona).
pub const BROKER: Site = Site {
    hostname: "nozomi.lsi.upc.edu",
    city: "Barcelona",
    country: "ES",
    lat: 41.389,
    lon: 2.113,
    role: Role::Broker,
};

/// All 25 PlanetLab hosts of Table 1, in the paper's reading order
/// (left column top-to-bottom, then right column).
pub const TABLE1: [Site; 25] = [
    Site {
        hostname: "ait05.us.es",
        city: "Seville",
        country: "ES",
        lat: 37.389,
        lon: -5.986,
        role: Role::SimpleClient(1),
    },
    Site {
        hostname: "planet1.cs.huji.ac.il",
        city: "Jerusalem",
        country: "IL",
        lat: 31.776,
        lon: 35.198,
        role: Role::SliceMember,
    },
    Site {
        hostname: "system18.ncl-ext.net",
        city: "Newcastle",
        country: "GB",
        lat: 54.980,
        lon: -1.615,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab01.cs.tcd.ie",
        city: "Dublin",
        country: "IE",
        lat: 53.344,
        lon: -6.254,
        role: Role::SimpleClient(3),
    },
    Site {
        hostname: "planetlab01.ethz.ch",
        city: "Zurich",
        country: "CH",
        lat: 47.377,
        lon: 8.548,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.esi.ucm.es",
        city: "Madrid",
        country: "ES",
        lat: 40.452,
        lon: -3.728,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.poly.edu",
        city: "New York",
        country: "US",
        lat: 40.694,
        lon: -73.987,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab2.ls.fi.upm.es",
        city: "Madrid",
        country: "ES",
        lat: 40.405,
        lon: -3.839,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab2.upc.es",
        city: "Barcelona",
        country: "ES",
        lat: 41.389,
        lon: 2.113,
        role: Role::SliceMember,
    },
    Site {
        hostname: "lsirextpc01.epfl.ch",
        city: "Lausanne",
        country: "CH",
        lat: 46.519,
        lon: 6.567,
        role: Role::SimpleClient(6),
    },
    Site {
        hostname: "ricepl1.cs.rice.edu",
        city: "Houston",
        country: "US",
        lat: 29.717,
        lon: -95.402,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planet2.seattle.intel-research.net",
        city: "Seattle",
        country: "US",
        lat: 47.610,
        lon: -122.333,
        role: Role::SliceMember,
    },
    Site {
        hostname: "edi.tkn.tu-berlin.de",
        city: "Berlin",
        country: "DE",
        lat: 52.512,
        lon: 13.327,
        role: Role::SimpleClient(5),
    },
    Site {
        hostname: "planet01.hhi.fraunhofer.de",
        city: "Berlin",
        country: "DE",
        lat: 52.525,
        lon: 13.314,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planet1.manchester.ac.uk",
        city: "Manchester",
        country: "GB",
        lat: 53.467,
        lon: -2.234,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.net-research.org.uk",
        city: "London",
        country: "GB",
        lat: 51.507,
        lon: -0.128,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planet2.scs.stanford.edu",
        city: "Stanford",
        country: "US",
        lat: 37.428,
        lon: -122.169,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.ssvl.kth.se",
        city: "Stockholm",
        country: "SE",
        lat: 59.347,
        lon: 18.073,
        role: Role::SimpleClient(8),
    },
    Site {
        hostname: "planetlab1.csg.unizh.ch",
        city: "Zurich",
        country: "CH",
        lat: 47.374,
        lon: 8.551,
        role: Role::SimpleClient(4),
    },
    Site {
        hostname: "planetlab1.cslab.ece.ntua.gr",
        city: "Athens",
        country: "GR",
        lat: 37.979,
        lon: 23.783,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.eecs.iu-bremen.de",
        city: "Bremen",
        country: "DE",
        lat: 53.168,
        lon: 8.652,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.hiit.fi",
        city: "Helsinki",
        country: "FI",
        lat: 60.187,
        lon: 24.821,
        role: Role::SimpleClient(2),
    },
    Site {
        hostname: "planetlab5.upc.es",
        city: "Barcelona",
        country: "ES",
        lat: 41.389,
        lon: 2.113,
        role: Role::SliceMember,
    },
    Site {
        hostname: "planetlab1.itwm.fhg.de",
        city: "Kaiserslautern",
        country: "DE",
        lat: 49.430,
        lon: 7.752,
        role: Role::SimpleClient(7),
    },
    Site {
        hostname: "planetlab1.informatik.uni-erlangen.de",
        city: "Erlangen",
        country: "DE",
        lat: 49.573,
        lon: 11.028,
        role: Role::SliceMember,
    },
];

/// The eight SimpleClient hosts, ordered SC1…SC8 (as §4.1 lists them).
pub fn simple_clients() -> Vec<&'static Site> {
    let mut scs: Vec<&'static Site> = TABLE1
        .iter()
        .filter(|s| matches!(s.role, Role::SimpleClient(_)))
        .collect();
    scs.sort_by_key(|s| match s.role {
        Role::SimpleClient(n) => n,
        _ => u8::MAX,
    });
    scs
}

/// Looks up a Table-1 site by hostname.
#[cfg(test)]
pub(crate) fn find(hostname: &str) -> Option<&'static Site> {
    TABLE1.iter().find(|s| s.hostname == hostname)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_25_unique_hosts() {
        assert_eq!(TABLE1.len(), 25);
        let mut names: Vec<&str> = TABLE1.iter().map(|s| s.hostname).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25, "hostnames must be unique");
    }

    #[test]
    fn exactly_eight_simple_clients_in_order() {
        let scs = simple_clients();
        assert_eq!(scs.len(), 8);
        let expected = [
            "ait05.us.es",
            "planetlab1.hiit.fi",
            "planetlab01.cs.tcd.ie",
            "planetlab1.csg.unizh.ch",
            "edi.tkn.tu-berlin.de",
            "lsirextpc01.epfl.ch",
            "planetlab1.itwm.fhg.de",
            "planetlab1.ssvl.kth.se",
        ];
        for (i, sc) in scs.iter().enumerate() {
            assert_eq!(sc.hostname, expected[i], "SC{}", i + 1);
            assert_eq!(sc.role, Role::SimpleClient(i as u8 + 1));
        }
    }

    #[test]
    fn simple_clients_span_six_countries() {
        // The paper's prose says "seven EU countries", but its own host list
        // has two Swiss and two German SCs: ES, FI, IE, CH, DE, SE = 6
        // distinct countries. We encode what the host list actually says.
        let mut countries: Vec<&str> = simple_clients().iter().map(|s| s.country).collect();
        countries.sort_unstable();
        countries.dedup();
        assert_eq!(countries.len(), 6);
    }

    #[test]
    fn coordinates_are_plausible() {
        for s in &TABLE1 {
            assert!((-90.0..=90.0).contains(&s.lat), "{}", s.hostname);
            assert!((-180.0..=180.0).contains(&s.lon), "{}", s.hostname);
        }
        // All SCs are in Europe (the paper's seven EU countries).
        for sc in simple_clients() {
            assert!(sc.lat > 35.0 && sc.lat < 65.0, "{}", sc.hostname);
            assert!(sc.lon > -10.0 && sc.lon < 30.0, "{}", sc.hostname);
        }
    }

    #[test]
    fn lookup_functions() {
        assert!(find("ait05.us.es").is_some());
        assert!(find("nonexistent.example").is_none());
        assert_eq!(
            find("planetlab1.itwm.fhg.de").unwrap().role,
            Role::SimpleClient(7)
        );
    }

    #[test]
    fn labels_render() {
        assert_eq!(BROKER.label(), "broker");
        let sc3 = TABLE1.iter().find(|s| s.role == Role::SimpleClient(3));
        assert_eq!(sc3.unwrap().label(), "SC3");
        assert_eq!(
            find("ricepl1.cs.rice.edu").unwrap().label(),
            "ricepl1.cs.rice.edu"
        );
    }
}
