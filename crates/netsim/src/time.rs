//! Virtual time for the discrete-event simulator.
//!
//! Simulation time is kept as an integer number of **nanoseconds** since the
//! start of the simulation. Integer time gives a total order with no
//! floating-point drift, which is what makes replays bit-identical across
//! runs and platforms (see [`crate::engine`] determinism tests).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_MICRO: u64 = 1_000;

/// A span of virtual time, in nanoseconds.
///
/// `SimDuration` is a thin wrapper over `u64` nanoseconds. All arithmetic is
/// saturating unless the `checked_*` form is used, so workloads that
/// accidentally produce absurd durations clamp instead of panicking inside
/// the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration (~584 years).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(NANOS_PER_MICRO))
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(NANOS_PER_MILLI))
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(NANOS_PER_SEC))
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins.saturating_mul(60).saturating_mul(NANOS_PER_SEC))
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative and non-finite inputs clamp to zero; overlarge inputs clamp
    /// to [`SimDuration::MAX`].
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Total nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Total time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Total time as fractional milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Total time as fractional minutes.
    pub(crate) fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a dimensionless factor, clamping at the representable range.
    pub(crate) fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= 60 * NANOS_PER_SEC {
            write!(f, "{:.2}min", self.as_mins_f64())
        } else if n >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if n >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if n >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", n as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{n}ns")
        }
    }
}

/// An instant of virtual time: nanoseconds elapsed since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from fractional seconds since the epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub const fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.as_nanos()))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_roundtrips() {
        let d = SimDuration::from_secs_f64(12.86);
        assert!((d.as_secs_f64() - 12.86).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_scalar_ops() {
        assert_eq!(SimDuration::from_secs(2) * 3, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(6) / 3, SimDuration::from_secs(2));
        // Division by zero clamps the divisor to one rather than panicking.
        assert_eq!(SimDuration::from_secs(6) / 0, SimDuration::from_secs(6));
        let half = SimDuration::from_secs(1).mul_f64(0.5);
        assert_eq!(half, SimDuration::from_millis(500));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn time_advances_and_diffs() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(250);
        assert_eq!(t1.duration_since(t0), SimDuration::from_millis(250));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1 - t0, SimDuration::from_millis(250));
    }

    #[test]
    fn time_ordering_is_total() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::FAR_FUTURE > b);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_millis(40).to_string(), "40.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_mins(3).to_string(), "3.00min");
        assert_eq!(SimTime::from_nanos(0).to_string(), "t+0ns");
    }
}
