//! Parallel replication runner.
//!
//! The paper repeats every experiment five times and averages. Replications
//! are embarrassingly parallel (one independent simulation per seed), so we
//! fan them out over scoped threads and merge the results in seed order —
//! parallelism never changes the numbers.

use netsim::metrics::RunningStat;

use crate::scenario::{ScenarioConfig, ScenarioError, ScenarioResult};

/// Default trace ring-buffer size for [`run_traced`]: large enough to hold
/// every event of the paper's single-transfer scenarios.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One traced replication: the deterministic JSONL export, its FNV digest
/// (equal digests ⇔ byte-identical JSONL), and the full scenario result.
pub struct TracedRun {
    /// One JSON object per line, in event order.
    pub jsonl: String,
    /// FNV-1a digest over the JSONL bytes.
    pub digest: u64,
    /// The underlying scenario result (log, metrics, trace).
    pub result: ScenarioResult,
}

/// Runs one replication of `cfg` under `seed` with tracing forced on
/// (`cfg.trace_capacity`, or [`DEFAULT_TRACE_CAPACITY`] when unset) and
/// exports the trace as deterministic JSONL. Errors when the engine
/// refuses the config's shard layout.
pub fn run_traced(cfg: &ScenarioConfig, seed: u64) -> Result<TracedRun, ScenarioError> {
    let capacity = cfg.trace_capacity().unwrap_or(DEFAULT_TRACE_CAPACITY);
    let result = cfg.run_with(cfg.harness().trace_capacity(Some(capacity)), seed)?;
    Ok(TracedRun {
        jsonl: result.run.trace.to_jsonl(),
        digest: result.run.trace.digest(),
        result,
    })
}

/// Runs `f` once per seed, in parallel, returning results in seed order.
pub fn run_replications<R, F>(seeds: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    run_indexed(seeds.len(), seeds.len(), |i| f(seeds[i]))
}

/// The host's usable core count, detected robustly: prefer
/// [`std::thread::available_parallelism`] (cgroup/affinity-aware), fall back
/// to counting `processor` entries in `/proc/cpuinfo` (containers that mask
/// the syscall but mount procfs), and report 1 when both fail rather than
/// guessing high.
fn detect_host_parallelism() -> usize {
    if let Ok(n) = std::thread::available_parallelism() {
        return n.get();
    }
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        let procs = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        if procs > 0 {
            return procs;
        }
    }
    1
}

/// A sensible worker-pool width for this host: the detected parallelism,
/// capped at 8 (campaign cells are memory-hungry simulations; more workers
/// than cores only adds scheduling noise).
pub fn default_workers() -> usize {
    detect_host_parallelism().min(8)
}

/// Runs `f(0..count)` over a bounded pool of `workers` scoped threads and
/// returns the results in index order.
///
/// Work-stealing over a shared atomic cursor: each worker claims the next
/// unclaimed index as it frees up, so long tasks don't stall the queue
/// behind them. Results land in per-index slots, so the output order — and
/// therefore every number derived from it — is independent of the worker
/// count and of scheduling. `workers` is clamped to `[1, count]`; with one
/// worker (or at most one task) everything runs inline on the caller's
/// thread.
pub fn run_indexed<R, F>(count: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = workers.clamp(1, count.max(1));
    if count <= 1 || workers == 1 {
        return (0..count).map(&f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let slots = &slots;
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("slot filled"))
        .collect()
}

/// Aggregates one named series across replications: each replication
/// produces a vector of values (one per label); the aggregate keeps a
/// [`RunningStat`] per label.
///
/// Aggregation is order-insensitive in the mean (Welford merging), so
/// folding replications as they finish in parallel produces the same
/// figures as folding them in seed order.
#[derive(Debug, Clone)]
#[must_use = "an aggregate carries the replication statistics; dropping it discards the experiment's numbers"]
pub struct SeriesAggregate {
    /// Per-label statistics, indexed like the input vectors.
    pub stats: Vec<RunningStat>,
}

impl SeriesAggregate {
    /// Creates an aggregate for `n` labels.
    pub fn new(n: usize) -> Self {
        SeriesAggregate {
            stats: vec![RunningStat::new(); n],
        }
    }

    /// Folds one replication's values in (must match the label count).
    pub fn add(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.stats.len(), "label count mismatch");
        for (stat, &v) in self.stats.iter_mut().zip(values) {
            stat.record(v);
        }
    }

    /// Aggregates many replications at once. The label count is taken
    /// from the first row; every row must match it (see
    /// [`SeriesAggregate::add`]).
    pub fn from_replications(rows: &[Vec<f64>]) -> Self {
        let n = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut agg = SeriesAggregate::new(n);
        for row in rows {
            agg.add(row);
        }
        agg
    }

    /// Mean per label.
    #[must_use]
    pub fn means(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.mean()).collect()
    }

    /// Standard deviation (Bessel-corrected, matching the paper's
    /// 5-repetition error bars) per label.
    #[must_use]
    pub fn std_devs(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.std_dev()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_in_seed_order() {
        let seeds = [5u64, 1, 9, 3];
        let results = run_replications(&seeds, |s| s * 10);
        assert_eq!(results, vec![50, 10, 90, 30]);
    }

    #[test]
    fn all_seeds_actually_run() {
        let counter = AtomicU64::new(0);
        let seeds: Vec<u64> = (0..16).collect();
        run_replications(&seeds, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn single_seed_runs_inline() {
        let results = run_replications(&[42], |s| s + 1);
        assert_eq!(results, vec![43]);
    }

    #[test]
    fn empty_seed_list() {
        let results: Vec<u64> = run_replications(&[], |s| s);
        assert!(results.is_empty());
    }

    #[test]
    fn parallel_equals_sequential() {
        let seeds: Vec<u64> = (0..8).collect();
        let parallel = run_replications(&seeds, |s| s * s + 7);
        let sequential: Vec<u64> = seeds.iter().map(|&s| s * s + 7).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn run_indexed_order_is_worker_count_invariant() {
        let expected: Vec<usize> = (0..23).map(|i| i * i).collect();
        for workers in [1, 2, 4, 64] {
            let got = run_indexed(23, workers, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn run_indexed_runs_every_index_exactly_once() {
        let hits: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        run_indexed(40, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    /// Two tasks rendezvous on a barrier: the call can only return if the
    /// pool really runs them at the same time (a pool that ran them one
    /// after the other would park the first forever). No clock involved.
    #[test]
    fn run_indexed_overlaps_tasks() {
        let rendezvous = std::sync::Barrier::new(2);
        let leaders = run_indexed(2, 2, |_| rendezvous.wait().is_leader());
        assert_eq!(leaders.iter().filter(|&&l| l).count(), 1);
    }

    #[test]
    fn run_indexed_zero_count() {
        let got: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn series_aggregate_means_and_sds() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let agg = SeriesAggregate::from_replications(&rows);
        assert_eq!(agg.means(), vec![3.0, 20.0]);
        assert!((agg.std_devs()[0] - 2.0).abs() < 1e-12);
        assert_eq!(agg.stats[0].count(), 3);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn series_aggregate_rejects_ragged_rows() {
        let mut agg = SeriesAggregate::new(2);
        agg.add(&[1.0, 2.0, 3.0]);
    }
}
