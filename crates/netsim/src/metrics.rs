//! Lightweight measurement plumbing: counters, running statistics, and
//! histograms, collected per simulation run.

use std::collections::BTreeMap;
use std::fmt;

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// Numerically stable for long runs, O(1) memory, and exact for the moments
/// the experiment reports need (mean and standard deviation of 5 reps, per
/// the paper's methodology).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStat {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStat {
    /// An empty statistic.
    pub fn new() -> Self {
        RunningStat {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation (non-finite values are ignored).
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another statistic into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl fmt::Display for RunningStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// Fixed-layout log₂ histogram over positive values.
///
/// Bucket `i` covers `[base·2^i, base·2^(i+1))`; values below `base` land in
/// bucket 0, values off the top in the last bucket. Good enough for latency
/// tails without unbounded memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    base: f64,
    buckets: Vec<u64>,
    stat: RunningStat,
    rejected: u64,
}

impl Histogram {
    /// Creates a histogram with `num_buckets` doubling buckets starting at `base`.
    pub fn new(base: f64, num_buckets: usize) -> Self {
        assert!(base > 0.0 && num_buckets > 0);
        Histogram {
            base,
            buckets: vec![0; num_buckets],
            stat: RunningStat::new(),
            rejected: 0,
        }
    }

    /// Records one observation. Non-finite and negative samples are not
    /// silently discarded: they are tallied in [`Histogram::rejected`] so a
    /// data-quality problem upstream stays visible in reports.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            self.rejected += 1;
            return;
        }
        self.stat.record(x);
        let idx = if x < self.base {
            0
        } else {
            ((x / self.base).log2().floor() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// First value the histogram resolves (lower edge of bucket 0's nominal
    /// range; smaller values still land in bucket 0).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Upper bound of bucket `i` (`[base·2^i, base·2^(i+1))`); the last
    /// bucket is a catch-all whose nominal bound this still reports.
    pub fn bucket_upper_bound(&self, i: usize) -> f64 {
        self.base * 2f64.powi(i as i32 + 1)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.stat.count()
    }

    /// Number of samples refused by [`Histogram::record`] (NaN, ±∞, or
    /// negative). A nonzero count means some instrumentation point produced
    /// garbage; [`Metrics::render`] surfaces it.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The underlying running statistic.
    pub fn stat(&self) -> &RunningStat {
        &self.stat
    }

    /// Merges another histogram into this one (parallel-reduction
    /// friendly). Panics when the bucket layouts differ — merging
    /// incompatible layouts would silently misplace mass.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.base, other.base, "histogram base mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.stat.merge(&other.stat);
        self.rejected += other.rejected;
    }

    /// Approximate quantile from the bucket layout (upper bound of the
    /// bucket containing the q-th observation).
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return self.base * 2f64.powi(i as i32 + 1);
            }
        }
        self.base * 2f64.powi(self.buckets.len() as i32)
    }
}

/// Interned handle to a named counter (see [`Metrics::counter_id`]).
///
/// Resolving a name costs one `BTreeMap` walk; every [`Metrics::incr_id`]
/// through the handle afterwards is a single indexed add with no hashing,
/// no tree traversal, and no allocation. Handles are only meaningful for
/// the [`Metrics`] registry that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

/// Interned handle to a named statistic (see [`Metrics::stat_id`]).
///
/// Same contract as [`MetricId`], for [`RunningStat`] observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatId(u32);

/// Interned handle to a named histogram (see [`Metrics::histogram_id`]).
///
/// Same contract as [`MetricId`]: resolve once (paying the `BTreeMap` walk
/// and the bucket allocation), then every [`Metrics::record_id`] is an O(1)
/// indexed update with no hashing and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// Interned handle to a named gauge (see [`Metrics::gauge_id`]).
///
/// Same contract as [`MetricId`], for last-value-wins f64 gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(u32);

/// Per-run metrics registry: named counters, statistics, histograms and
/// gauges.
///
/// Names are interned: every write goes through a handle
/// ([`MetricId`]/[`StatId`]/[`HistogramId`]/[`GaugeId`]) resolved once,
/// after which an update is O(1) and never touches the heap; the
/// name→slot maps serve only resolution and the by-name readers
/// ([`Metrics::counter`], [`Metrics::stat`], …). Iteration order (and
/// therefore any rendered report) is by name, so interning order never
/// leaks into output.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counter_index: BTreeMap<String, u32>,
    counter_values: Vec<u64>,
    stat_index: BTreeMap<String, u32>,
    stat_values: Vec<RunningStat>,
    histogram_index: BTreeMap<String, u32>,
    histogram_values: Vec<Histogram>,
    gauge_index: BTreeMap<String, u32>,
    gauge_values: Vec<f64>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Resolves (interning if new) the handle for counter `name`.
    ///
    /// The counter is created at zero on first resolution, so a resolved
    /// name always appears in [`Metrics::counter_names`] even if never
    /// incremented.
    pub fn counter_id(&mut self, name: &str) -> MetricId {
        if let Some(&slot) = self.counter_index.get(name) {
            return MetricId(slot);
        }
        let slot = u32::try_from(self.counter_values.len()).expect("too many counters");
        self.counter_values.push(0);
        self.counter_index.insert(name.to_string(), slot);
        MetricId(slot)
    }

    /// Resolves (interning if new) the handle for statistic `name`.
    ///
    /// The statistic is created empty on first resolution, so a resolved
    /// name always appears in [`Metrics::stat_names`] even if never
    /// observed.
    pub fn stat_id(&mut self, name: &str) -> StatId {
        if let Some(&slot) = self.stat_index.get(name) {
            return StatId(slot);
        }
        let slot = u32::try_from(self.stat_values.len()).expect("too many stats");
        self.stat_values.push(RunningStat::new());
        self.stat_index.insert(name.to_string(), slot);
        StatId(slot)
    }

    /// Resolves (interning if new) the handle for histogram `name`,
    /// creating it with the given bucket layout on first resolution.
    ///
    /// On later resolutions the layout arguments must match the existing
    /// histogram — two call sites disagreeing on the layout of the same
    /// name is a bug worth failing loudly on, not averaging over.
    pub fn histogram_id(&mut self, name: &str, base: f64, num_buckets: usize) -> HistogramId {
        if let Some(&slot) = self.histogram_index.get(name) {
            let existing = &self.histogram_values[slot as usize];
            assert_eq!(
                existing.base(),
                base,
                "histogram {name:?} re-registered with a different base"
            );
            assert_eq!(
                existing.buckets().len(),
                num_buckets,
                "histogram {name:?} re-registered with a different bucket count"
            );
            return HistogramId(slot);
        }
        let slot = u32::try_from(self.histogram_values.len()).expect("too many histograms");
        self.histogram_values
            .push(Histogram::new(base, num_buckets));
        self.histogram_index.insert(name.to_string(), slot);
        HistogramId(slot)
    }

    /// Resolves (interning if new) the handle for gauge `name`.
    ///
    /// The gauge is created at zero on first resolution, so a resolved name
    /// always appears in [`Metrics::gauges_sorted`] even if never set.
    /// Gauges hold a *last-set* f64 value (instantaneous state like resident
    /// bytes), unlike counters which only accumulate.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        if let Some(&slot) = self.gauge_index.get(name) {
            return GaugeId(slot);
        }
        let slot = u32::try_from(self.gauge_values.len()).expect("too many gauges");
        self.gauge_values.push(0.0);
        self.gauge_index.insert(name.to_string(), slot);
        GaugeId(slot)
    }

    /// Sets the gauge behind `id` (last value wins). O(1), allocation-free.
    #[inline]
    pub fn set_gauge_id(&mut self, id: GaugeId, value: f64) {
        self.gauge_values[id.0 as usize] = value;
    }

    /// Current value of the gauge behind `id`. O(1).
    #[inline]
    pub fn gauge_by_id(&self, id: GaugeId) -> f64 {
        self.gauge_values[id.0 as usize]
    }

    /// Current gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauge_index
            .get(name)
            .map(|&slot| self.gauge_values[slot as usize])
            .unwrap_or(0.0)
    }

    /// `(name, value)` pairs for all gauges, sorted by name.
    pub fn gauges_sorted(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_index
            .iter()
            .map(|(name, &slot)| (name.as_str(), self.gauge_values[slot as usize]))
    }

    /// Records an observation on the histogram behind `id`. O(1),
    /// allocation-free.
    #[inline]
    pub fn record_id(&mut self, id: HistogramId, value: f64) {
        self.histogram_values[id.0 as usize].record(value);
    }

    /// Adds `delta` to the counter behind `id`. O(1), allocation-free.
    #[inline]
    pub fn incr_id(&mut self, id: MetricId, delta: u64) {
        self.counter_values[id.0 as usize] += delta;
    }

    /// Raises the counter behind `id` to `value` if it is currently lower
    /// (for high-water-mark style counters). O(1), allocation-free.
    #[inline]
    pub fn set_max_id(&mut self, id: MetricId, value: u64) {
        let slot = &mut self.counter_values[id.0 as usize];
        if value > *slot {
            *slot = value;
        }
    }

    /// Current value of the counter behind `id`. O(1).
    #[inline]
    pub fn counter_by_id(&self, id: MetricId) -> u64 {
        self.counter_values[id.0 as usize]
    }

    /// Records an observation on the statistic behind `id`. O(1),
    /// allocation-free.
    #[inline]
    pub fn observe_id(&mut self, id: StatId, value: f64) {
        self.stat_values[id.0 as usize].record(value);
    }

    /// Reads the statistic behind `id`. O(1).
    #[inline]
    pub fn stat_by_id(&self, id: StatId) -> &RunningStat {
        &self.stat_values[id.0 as usize]
    }

    /// Mutable access to the statistic behind `id`, e.g. to
    /// [`RunningStat::merge`] externally accumulated observations in. O(1).
    #[inline]
    pub fn stat_by_id_mut(&mut self, id: StatId) -> &mut RunningStat {
        &mut self.stat_values[id.0 as usize]
    }

    /// Current counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index
            .get(name)
            .map(|&slot| self.counter_values[slot as usize])
            .unwrap_or(0)
    }

    /// Reads a statistic (empty stat when absent).
    pub fn stat(&self, name: &str) -> RunningStat {
        self.stat_index
            .get(name)
            .map(|&slot| self.stat_values[slot as usize].clone())
            .unwrap_or_default()
    }

    /// Reads a histogram by name (`None` when absent).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_index
            .get(name)
            .map(|&slot| &self.histogram_values[slot as usize])
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counter_index.keys().map(|s| s.as_str())
    }

    /// All statistic names, sorted.
    pub fn stat_names(&self) -> impl Iterator<Item = &str> {
        self.stats_sorted().map(|(name, _)| name)
    }

    /// `(name, value)` pairs for all counters, sorted by name.
    pub fn counters_sorted(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_index
            .iter()
            .map(|(name, &slot)| (name.as_str(), self.counter_values[slot as usize]))
    }

    /// `(name, stat)` pairs for all statistics, sorted by name.
    pub fn stats_sorted(&self) -> impl Iterator<Item = (&str, &RunningStat)> {
        self.stat_index
            .iter()
            .map(|(name, &slot)| (name.as_str(), &self.stat_values[slot as usize]))
    }

    /// `(name, histogram)` pairs for all histograms, sorted by name.
    pub fn histograms_sorted(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_index
            .iter()
            .map(|(name, &slot)| (name.as_str(), &self.histogram_values[slot as usize]))
    }

    /// Merges another registry into this one: counters are summed, stats
    /// are merged via [`RunningStat::merge`]. Names absent on either side
    /// are treated as zero/empty. Merging is keyed by name (never by
    /// handle), so registries with different interning orders combine
    /// correctly; iteration stays name-sorted afterwards.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in other.counters_sorted() {
            let id = self.counter_id(name);
            self.incr_id(id, value);
        }
        for (name, &slot) in &other.stat_index {
            let id = self.stat_id(name);
            self.stat_values[id.0 as usize].merge(&other.stat_values[slot as usize]);
        }
        for (name, hist) in other.histograms_sorted() {
            let id = self.histogram_id(name, hist.base(), hist.buckets().len());
            self.histogram_values[id.0 as usize].merge(hist);
        }
        // Gauges sum by name: each sampling site owns a unique name (e.g.
        // `registry.bytes.<node>`), so the cross-shard sum reconstructs every
        // site's last-set value, and prefix sums aggregate across sites.
        for (name, value) in other.gauges_sorted() {
            let id = self.gauge_id(name);
            self.gauge_values[id.0 as usize] += value;
        }
    }

    /// Merges another registry in under a `tag` namespace: every one of
    /// `other`'s names lands here as `{tag}.{name}`. A campaign folding many
    /// per-cell registries into one uses a distinct tag per cell so cells
    /// never collide (plain [`Metrics::merge`] would sum them together).
    /// Like `merge`, keyed by name and name-sorted afterwards.
    pub fn merge_tagged(&mut self, other: &Metrics, tag: &str) {
        for (name, value) in other.counters_sorted() {
            let id = self.counter_id(&format!("{tag}.{name}"));
            self.incr_id(id, value);
        }
        for (name, &slot) in &other.stat_index {
            let id = self.stat_id(&format!("{tag}.{name}"));
            self.stat_values[id.0 as usize].merge(&other.stat_values[slot as usize]);
        }
        for (name, hist) in other.histograms_sorted() {
            let id = self.histogram_id(&format!("{tag}.{name}"), hist.base(), hist.buckets().len());
            self.histogram_values[id.0 as usize].merge(hist);
        }
        for (name, value) in other.gauges_sorted() {
            let id = self.gauge_id(&format!("{tag}.{name}"));
            self.gauge_values[id.0 as usize] += value;
        }
    }

    /// Deterministic text rendering of the whole registry, sorted by name.
    /// Two registries with equal contents render byte-identically
    /// regardless of interning or insertion order — the basis of the
    /// golden-metrics determinism tests.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (name, value) in self.counters_sorted() {
            writeln!(out, "counter {name} = {value}").expect("string write");
        }
        for (name, value) in self.gauges_sorted() {
            writeln!(out, "gauge {name} = {value}").expect("string write");
        }
        for (name, stat) in self.stats_sorted() {
            writeln!(out, "stat {name}: {stat}").expect("string write");
        }
        for (name, hist) in self.histograms_sorted() {
            write!(
                out,
                "hist {name}: n={} p50={} p95={} p99={} max={:.4}",
                hist.count(),
                hist.quantile_upper_bound(0.50),
                hist.quantile_upper_bound(0.95),
                hist.quantile_upper_bound(0.99),
                hist.stat().max(),
            )
            .expect("string write");
            if hist.rejected() > 0 {
                write!(out, " rejected={}", hist.rejected()).expect("string write");
            }
            writeln!(out).expect("string write");
        }
        out
    }

    /// Deterministic Prometheus text exposition (version 0.0.4) of the
    /// whole registry, sorted by name within each tier.
    ///
    /// Counters become `<prefix>_<name>_total` counters, statistics become
    /// summaries with min/max as the 0/1 quantiles, histograms become
    /// cumulative-bucket histograms plus a `<...>_rejected_total` counter.
    /// Metric names are sanitized (`.` and other invalid characters map to
    /// `_`). All numbers render via Rust's shortest-roundtrip `Display`, so
    /// two equal registries expose byte-identical text, which CI diffs
    /// across same-seed runs.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        use fmt::Write as _;
        fn sanitize(prefix: &str, name: &str) -> String {
            let mut out = String::with_capacity(prefix.len() + 1 + name.len());
            out.push_str(prefix);
            out.push('_');
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut out = String::new();
        for (name, value) in self.counters_sorted() {
            let m = sanitize(prefix, name);
            writeln!(out, "# TYPE {m}_total counter").expect("string write");
            writeln!(out, "{m}_total {value}").expect("string write");
        }
        for (name, value) in self.gauges_sorted() {
            let m = sanitize(prefix, name);
            writeln!(out, "# TYPE {m} gauge").expect("string write");
            writeln!(out, "{m} {value}").expect("string write");
        }
        for (name, stat) in self.stats_sorted() {
            let m = sanitize(prefix, name);
            writeln!(out, "# TYPE {m} summary").expect("string write");
            writeln!(out, "{m}{{quantile=\"0\"}} {}", stat.min()).expect("string write");
            writeln!(out, "{m}{{quantile=\"1\"}} {}", stat.max()).expect("string write");
            writeln!(out, "{m}_sum {}", stat.sum()).expect("string write");
            writeln!(out, "{m}_count {}", stat.count()).expect("string write");
        }
        for (name, hist) in self.histograms_sorted() {
            let m = sanitize(prefix, name);
            writeln!(out, "# TYPE {m} histogram").expect("string write");
            let mut cumulative = 0u64;
            for (i, &c) in hist.buckets().iter().enumerate() {
                cumulative += c;
                // The last bucket is the catch-all: Prometheus spells that +Inf.
                if i + 1 == hist.buckets().len() {
                    writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {cumulative}").expect("string write");
                } else {
                    writeln!(
                        out,
                        "{m}_bucket{{le=\"{}\"}} {cumulative}",
                        hist.bucket_upper_bound(i)
                    )
                    .expect("string write");
                }
            }
            writeln!(out, "{m}_sum {}", hist.stat().sum()).expect("string write");
            writeln!(out, "{m}_count {}", hist.count()).expect("string write");
            writeln!(out, "# TYPE {m}_rejected_total counter").expect("string write");
            writeln!(out, "{m}_rejected_total {}", hist.rejected()).expect("string write");
        }
        out
    }
}

#[cfg(test)]
#[path = "metrics_tests.rs"]
mod tests;
