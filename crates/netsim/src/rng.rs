//! Deterministic, splittable random numbers for the simulator.
//!
//! Reproducibility is a hard requirement: the same seed must produce the same
//! event trace on every platform and every run, forever. We therefore ship
//! our own tiny, well-specified generator (xoshiro256** seeded via SplitMix64)
//! instead of depending on the stability of any external generator's stream.
//!
//! [`SimRng`] also implements [`rand::RngCore`], so it composes with the
//! wider `rand` ecosystem when callers want that.
//!
//! Streams are **splittable**: [`SimRng::split`] derives an independent child
//! generator from a label, so each simulated node gets its own stream and
//! adding RNG draws in one component never perturbs another (a classic
//! simulation-variance pitfall).

use rand::RngCore;

/// SplitMix64's state increment (the golden-ratio gamma).
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for state `x` (Steele et al.): one gamma step,
/// then the full 64-bit avalanche finalizer. The one copy every seed
/// derivation, placement hash and cell-seed chain in the workspace uses;
/// its outputs are part of every recorded result.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Four consecutive SplitMix64 outputs from state `sm`: a xoshiro state.
fn seed_state(mut sm: u64) -> [u64; 4] {
    let mut s = [0u64; 4];
    for slot in &mut s {
        *slot = splitmix64(sm);
        sm = sm.wrapping_add(GOLDEN_GAMMA);
    }
    s
}

/// Deterministic xoshiro256** generator with distribution helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed_state(seed);
        // xoshiro's all-zero state is degenerate; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for belt and braces.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        SimRng { s }
    }

    /// Derives an independent child stream from this generator's seed and a
    /// label. Children with different labels are statistically independent;
    /// the parent is not advanced.
    pub fn split(&self, label: u64) -> SimRng {
        let sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng { s: seed_state(sm) }
    }

    /// Next raw 64-bit value (xoshiro256**).
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`; returns `lo` when the range is empty or inverted.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`; panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift rejection-free mapping (Lemire); tiny bias is
        // irrelevant at simulation scale but the mapping stays deterministic.
        ((self.next_u64_raw() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// Standard normal via Box–Muller (one value per call; deterministic
    /// draw count matters more here than squeezing both outputs).
    fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal parameterised by the **median** and a shape factor `sigma`
    /// (σ of the underlying normal). Medians are more intuitive to calibrate
    /// against measured latencies than the distribution mean.
    fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        if median <= 0.0 {
            return 0.0;
        }
        (median.ln() + sigma.max(0.0) * self.standard_normal()).exp()
    }

    /// Pareto (heavy-tailed) with scale `xm > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        if xm <= 0.0 || alpha <= 0.0 {
            return 0.0;
        }
        xm / (1.0 - self.uniform()).powf(1.0 / alpha)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// A distribution of non-negative delays, used for node responsiveness,
/// jitter, and service times. All variants are parameterised in **seconds**.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayDistribution {
    /// Always exactly this many seconds.
    Constant(f64),
    /// Lognormal around a median with shape `sigma`; models the long-tailed
    /// scheduling delays seen on contended PlanetLab slivers.
    Lognormal {
        /// Median of the distribution, seconds.
        median: f64,
        /// σ of the underlying normal (shape).
        sigma: f64,
    },
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound, seconds.
        lo: f64,
        /// Exclusive upper bound, seconds.
        hi: f64,
    },
}

impl DelayDistribution {
    /// Samples a delay in seconds (always finite and `>= 0`).
    pub fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        let v = match *self {
            DelayDistribution::Constant(s) => s,
            DelayDistribution::Lognormal { median, sigma } => rng.lognormal_median(median, sigma),
            DelayDistribution::Uniform { lo, hi } => rng.uniform_range(lo, hi),
        };
        if v.is_finite() {
            v.max(0.0)
        } else {
            0.0
        }
    }

    /// The distribution's mean, in seconds (exact, not sampled).
    pub fn mean_secs(&self) -> f64 {
        match *self {
            DelayDistribution::Constant(s) => s.max(0.0),
            DelayDistribution::Lognormal { median, sigma } => {
                median.max(0.0) * (sigma * sigma / 2.0).exp()
            }
            DelayDistribution::Uniform { lo, hi } => ((lo + hi) / 2.0).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed, placement hash and sweep cell seed flows through this
    /// function, so its outputs are pinned like a file format.
    #[test]
    fn splitmix64_outputs_are_pinned() {
        for (x, want) in [
            (0, 0xe220_a839_7b1d_cdaf),
            (1, 0x910a_2dec_8902_5cc1),
            (42, 0xbdd7_3226_2feb_6e95),
            (0xFEDE_0A11, 0x0a97_4e82_e037_240c),
            (u64::MAX, 0xe4d9_7177_1b65_2c20),
        ] {
            assert_eq!(splitmix64(x), want, "splitmix64({x:#x})");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_use() {
        let parent = SimRng::new(7);
        let mut child1 = parent.split(3);
        // Splitting again with the same label yields the same child stream.
        let mut child2 = parent.split(3);
        for _ in 0..100 {
            assert_eq!(child1.next_u64_raw(), child2.next_u64_raw());
        }
        // Different labels give different streams.
        let mut other = parent.split(4);
        let mut child3 = parent.split(3);
        let matches = (0..64)
            .filter(|_| other.next_u64_raw() == child3.next_u64_raw())
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut rng = SimRng::new(13);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn lognormal_median_matches() {
        let mut rng = SimRng::new(23);
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal_median(0.5, 0.8)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 0.5).abs() < 0.03, "median was {median}");
    }

    #[test]
    fn pareto_is_heavy_tailed_and_bounded_below() {
        let mut rng = SimRng::new(29);
        for _ in 0..10_000 {
            assert!(rng.pareto(1.5, 2.0) >= 1.5);
        }
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = SimRng::new(31);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = SimRng::new(43);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn delay_distribution_samples_nonnegative() {
        let mut rng = SimRng::new(47);
        let dists = [
            DelayDistribution::Constant(0.25),
            DelayDistribution::Lognormal {
                median: 0.1,
                sigma: 1.2,
            },
            DelayDistribution::Uniform { lo: 0.0, hi: 2.0 },
        ];
        for d in &dists {
            for _ in 0..1000 {
                let s = d.sample_secs(&mut rng);
                assert!(s >= 0.0 && s.is_finite());
            }
        }
    }

    #[test]
    fn delay_distribution_means() {
        assert_eq!(DelayDistribution::Constant(2.0).mean_secs(), 2.0);
        assert_eq!(
            DelayDistribution::Uniform { lo: 1.0, hi: 3.0 }.mean_secs(),
            2.0
        );
        let ln = DelayDistribution::Lognormal {
            median: 1.0,
            sigma: 0.0,
        };
        assert!((ln.mean_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_empirical_mean_tracks_formula() {
        let mut rng = SimRng::new(53);
        let d = DelayDistribution::Lognormal {
            median: 0.2,
            sigma: 0.6,
        };
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample_secs(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - d.mean_secs()).abs() / d.mean_secs() < 0.03);
    }
}
