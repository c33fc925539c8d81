//! Order statistics for small timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is the rule the acceptance check of
//! this benchmark is written in; using another interpolation here would
//! make `bench compare` disagree with it on five-sample sets.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; NaN for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exclusive method. A single sample is its own
/// quartiles; an empty sample has none (NaN).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the bounds in `BENCHMARK.json` are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a report may choose from, ascending, in per mille so
/// the ten-beyond count is exact integer arithmetic.
const REPORTABLE_PER_MILLE: [usize; 4] = [900, 950, 990, 999];

/// The highest percentile with at least ten samples beyond it, or `None`
/// when the sample supports nothing above the median (five repetitions
/// support none; four hundred campaigns support p95 with twenty beyond).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTABLE_PER_MILLE
        .iter()
        .rfind(|&&pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|&pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// Reference values from `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 200.0);
        assert_eq!(percentile(&v, 95.0), 380.0);
        assert_eq!(percentile(&v, 100.0), 400.0);
        assert_eq!(percentile(&[9.0], 95.0), 9.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(400), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
