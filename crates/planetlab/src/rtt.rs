//! Geographic RTT synthesis.
//!
//! Wide-area propagation delay tracks great-circle distance well: light in
//! fiber covers ~200 km/ms, and real Internet routes are longer than the
//! geodesic by an inflation factor of roughly 1.5–2.5 (we default to 2.0,
//! consistent with published PlanetLab all-pairs studies). A small fixed
//! access/serialization floor keeps same-city pairs from being unrealistically
//! instantaneous.

use netsim::link::PathSpec;

use crate::sites::Site;

/// Mean Earth radius in kilometres.
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Speed of light in fiber, km per millisecond (≈ 2/3 c).
const FIBER_KM_PER_MS: f64 = 200.0;

/// Parameters of the RTT synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct RttModel {
    /// Route length / geodesic length (≥ 1).
    pub path_inflation: f64,
    /// Fixed one-way floor in ms (access links, serialization, peering).
    pub floor_ms: f64,
    /// Jitter as a fraction of the one-way delay.
    pub jitter_frac: f64,
}

impl Default for RttModel {
    fn default() -> Self {
        RttModel {
            path_inflation: 2.0,
            floor_ms: 1.5,
            jitter_frac: 0.15,
        }
    }
}

/// Great-circle distance between two points, in kilometres (haversine).
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (la1, lo1, la2, lo2) = (
        lat1.to_radians(),
        lon1.to_radians(),
        lat2.to_radians(),
        lon2.to_radians(),
    );
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

impl RttModel {
    /// Synthesized one-way delay between two sites, in milliseconds.
    pub(crate) fn one_way_ms(&self, a: &Site, b: &Site) -> f64 {
        let km = haversine_km(a.lat, a.lon, b.lat, b.lon);
        self.floor_ms + km * self.path_inflation / FIBER_KM_PER_MS
    }

    /// Synthesized RTT between two sites, in milliseconds.
    pub fn rtt_ms(&self, a: &Site, b: &Site) -> f64 {
        2.0 * self.one_way_ms(a, b)
    }

    /// Builds the [`PathSpec`] for the a→b overlay path.
    pub(crate) fn path(&self, a: &Site, b: &Site) -> PathSpec {
        PathSpec::from_owd_ms(self.one_way_ms(a, b), self.jitter_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{find, BROKER};

    #[test]
    fn haversine_known_distances() {
        // Barcelona ↔ Stockholm ≈ 2275 km.
        let bcn = (41.389, 2.113);
        let sto = (59.347, 18.073);
        let d = haversine_km(bcn.0, bcn.1, sto.0, sto.1);
        assert!((d - 2275.0).abs() < 75.0, "distance {d}");
        // Zero distance for identical points.
        assert!(haversine_km(50.0, 8.0, 50.0, 8.0) < 1e-9);
        // Antipodal-ish sanity: Seville ↔ Seattle is transatlantic-scale.
        let far = haversine_km(37.389, -5.986, 47.610, -122.333);
        assert!(far > 7000.0 && far < 10000.0, "distance {far}");
    }

    #[test]
    fn haversine_is_symmetric() {
        let d1 = haversine_km(41.0, 2.0, 60.0, 25.0);
        let d2 = haversine_km(60.0, 25.0, 41.0, 2.0);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn rtt_has_floor_for_same_city() {
        let m = RttModel::default();
        let upc2 = find("planetlab2.upc.es").unwrap();
        let rtt = m.rtt_ms(&BROKER, upc2);
        assert!(rtt >= 2.0 * m.floor_ms);
        assert!(rtt < 10.0, "same-city RTT should be tiny: {rtt}");
    }

    #[test]
    fn european_rtts_in_plausible_band() {
        let m = RttModel::default();
        let helsinki = find("planetlab1.hiit.fi").unwrap();
        let rtt = m.rtt_ms(&BROKER, helsinki);
        // Barcelona ↔ Helsinki measured RTTs are ~55–70 ms.
        assert!((30.0..110.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn transatlantic_exceeds_intra_eu() {
        let m = RttModel::default();
        let berlin = find("edi.tkn.tu-berlin.de").unwrap();
        let seattle = find("planet2.seattle.intel-research.net").unwrap();
        assert!(m.rtt_ms(&BROKER, seattle) > 2.0 * m.rtt_ms(&BROKER, berlin));
    }

    #[test]
    fn path_spec_carries_jitter() {
        let m = RttModel::default();
        let dublin = find("planetlab01.cs.tcd.ie").unwrap();
        let p = m.path(&BROKER, dublin);
        assert!(!p.jitter.is_zero());
        assert!(p.one_way_delay.as_secs_f64() > 0.001);
    }

    #[test]
    fn inflation_scales_rtt() {
        let a = find("planetlab1.hiit.fi").unwrap();
        let flat = RttModel {
            path_inflation: 1.0,
            floor_ms: 0.0,
            jitter_frac: 0.0,
        };
        let inflated = RttModel {
            path_inflation: 3.0,
            floor_ms: 0.0,
            jitter_frac: 0.0,
        };
        let r1 = flat.rtt_ms(&BROKER, a);
        let r3 = inflated.rtt_ms(&BROKER, a);
        assert!((r3 / r1 - 3.0).abs() < 1e-9);
    }
}
