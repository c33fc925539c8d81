//! Simulated hosts: identity, CPU model, and per-node service behaviour.

use std::fmt;

use crate::rng::{DelayDistribution, SimRng};
use crate::time::SimDuration;

/// Dense index identifying a node within one simulation. Assigned by the
/// topology builder in insertion order; stable for the life of the sim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// CPU capability and contention model for one host.
///
/// PlanetLab nodes run up to ~100 concurrent slivers, so the effective
/// compute rate seen by any one sliver is the base rate scaled down by a
/// time-varying background load. We sample the load per execution from a
/// distribution — the right granularity for minutes-long tasks, where load
/// is roughly stationary within one task but varies between tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Nominal compute rate in giga-operations per second when idle.
    pub base_gops: f64,
    /// Distribution of the background-load fraction in `[0, 1)`; the sliver
    /// gets `1 - load` of the CPU. Sampled once per execution.
    pub load: LoadModel,
}

/// Background-load fraction model.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Always this fraction of the CPU is stolen by other slivers.
    Constant(f64),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound of the load fraction.
        lo: f64,
        /// Upper bound of the load fraction.
        hi: f64,
    },
}

impl LoadModel {
    /// Samples a load fraction, clamped into `[0, 0.99]` so progress is
    /// always possible.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
        let raw = match *self {
            LoadModel::Constant(l) => l,
            LoadModel::Uniform { lo, hi } => rng.uniform_range(lo, hi),
        };
        raw.clamp(0.0, 0.99)
    }

    /// The model's mean load (clamped like samples are).
    pub fn mean(&self) -> f64 {
        match *self {
            LoadModel::Constant(l) => l.clamp(0.0, 0.99),
            LoadModel::Uniform { lo, hi } => ((lo + hi) / 2.0).clamp(0.0, 0.99),
        }
    }
}

impl CpuModel {
    /// A CPU with the given idle rate and no background load.
    pub fn idle(base_gops: f64) -> Self {
        CpuModel {
            base_gops,
            load: LoadModel::Constant(0.0),
        }
    }

    /// Time to execute `work_gops` giga-operations, with the background load
    /// sampled once for the whole execution.
    pub(crate) fn execution_time(&self, work_gops: f64, rng: &mut SimRng) -> SimDuration {
        if work_gops <= 0.0 || self.base_gops <= 0.0 {
            return SimDuration::ZERO;
        }
        let load = self.load.sample(rng);
        let effective = self.base_gops * (1.0 - load);
        SimDuration::from_secs_f64(work_gops / effective)
    }
}

/// Full specification of one simulated host.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable hostname (e.g. `planetlab1.ssvl.kth.se`).
    pub name: String,
    /// Compute model.
    pub cpu: CpuModel,
    /// Delay between a message arriving at the host and the application
    /// actually handling it: OS/sliver scheduling plus middleware overhead.
    /// This is the dominant term in the paper's Fig 2 "petition time".
    pub service_delay: DelayDistribution,
}

impl NodeSpec {
    /// A well-behaved host: 1 GHz-class CPU, prompt service, no load.
    pub fn responsive(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            cpu: CpuModel::idle(1.0),
            service_delay: DelayDistribution::Constant(0.001),
        }
    }

    /// Builder-style CPU override.
    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Builder-style service-delay override.
    pub fn with_service_delay(mut self, d: DelayDistribution) -> Self {
        self.service_delay = d;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn idle_cpu_time_is_work_over_rate() {
        let cpu = CpuModel::idle(2.0);
        let mut rng = SimRng::new(1);
        let t = cpu.execution_time(10.0, &mut rng);
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-9);
        assert_eq!(cpu.execution_time(0.0, &mut rng), SimDuration::ZERO);
        assert_eq!(cpu.execution_time(-3.0, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn loaded_cpu_is_slower() {
        let idle = CpuModel::idle(1.0);
        let busy = CpuModel {
            base_gops: 1.0,
            load: LoadModel::Constant(0.5),
        };
        let mut rng = SimRng::new(2);
        let ti = idle.execution_time(4.0, &mut rng);
        let tb = busy.execution_time(4.0, &mut rng);
        assert!((tb.as_secs_f64() / ti.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_samples_clamped() {
        let mut rng = SimRng::new(3);
        let m = LoadModel::Uniform { lo: -0.5, hi: 1.5 };
        for _ in 0..2000 {
            let l = m.sample(&mut rng);
            assert!((0.0..=0.99).contains(&l));
        }
        assert_eq!(LoadModel::Constant(2.0).mean(), 0.99);
    }

    #[test]
    fn zero_rate_cpu_yields_zero_not_panic() {
        let cpu = CpuModel::idle(0.0);
        let mut rng = SimRng::new(4);
        assert_eq!(cpu.execution_time(5.0, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn node_spec_builders() {
        let spec = NodeSpec::responsive("host.example")
            .with_cpu(CpuModel::idle(3.0))
            .with_service_delay(DelayDistribution::Constant(0.5));
        assert_eq!(spec.name, "host.example");
        assert_eq!(spec.cpu.base_gops, 3.0);
        assert_eq!(spec.service_delay, DelayDistribution::Constant(0.5));
    }
}
