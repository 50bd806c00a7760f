//! Simulation time.
//!
//! Time is stored as integer **milliseconds** so that schedules and
//! simulations are exactly reproducible (no floating-point drift when
//! summing operator runtimes). The paper reports time in *quanta*; the
//! conversion happens at the reporting boundary via
//! [`SimDuration::as_quanta`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in milliseconds since the start of
/// the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1000.0).round().max(0.0) as u64)
    }

    /// Milliseconds since simulation start.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Time expressed in billing quanta (fractional).
    pub fn as_quanta(self, quantum: SimDuration) -> f64 {
        self.0 as f64 / quantum.0 as f64
    }

    /// The index of the billing quantum that contains this instant
    /// (quantum boundaries are aligned at multiples of `quantum` from time
    /// zero).
    #[inline]
    pub fn quantum_index(self, quantum: SimDuration) -> u64 {
        debug_assert!(quantum.0 > 0, "quantum must be positive");
        self.0 / quantum.0
    }

    /// The start of the quantum that contains this instant.
    #[inline]
    pub fn quantum_floor(self, quantum: SimDuration) -> SimTime {
        SimTime(self.quantum_index(quantum) * quantum.0)
    }

    /// The first quantum boundary at or after this instant.
    #[inline]
    pub fn quantum_ceil(self, quantum: SimDuration) -> SimTime {
        debug_assert!(quantum.0 > 0, "quantum must be positive");
        SimTime(self.0.div_ceil(quantum.0) * quantum.0)
    }

    /// Smaller of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Larger of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1000.0).round().max(0.0) as u64)
    }

    /// Milliseconds in this duration.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration expressed in billing quanta (fractional), the unit the
    /// paper reports both time *and* money in.
    pub fn as_quanta(self, quantum: SimDuration) -> f64 {
        self.0 as f64 / quantum.0 as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Difference that saturates at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// `self * n`, or `None` if the product does not fit.
    #[inline]
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }

    /// Scale by a non-negative factor, rounding to the nearest millisecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration scale must be non-negative");
        SimDuration((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    /// Smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// A (possibly fractional) count of billing quanta — the unit the paper
/// reports both time and compute cost in. Unlike [`SimDuration`] this is
/// a *derived*, floating-point quantity produced at the reporting and
/// gain-model boundary; keeping it as a distinct type stops raw `f64`
/// quanta from mixing silently with dollars or milliseconds
/// (DESIGN §7 newtype discipline, enforced by `flowtune-analyze`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Quanta(f64);

impl Quanta {
    /// Zero quanta.
    pub const ZERO: Quanta = Quanta(0.0);

    /// Construct from a raw quanta count.
    pub const fn new(q: f64) -> Self {
        Quanta(q)
    }

    /// The raw quanta count.
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl From<f64> for Quanta {
    fn from(q: f64) -> Self {
        Quanta(q)
    }
}

impl Add for Quanta {
    type Output = Quanta;
    fn add(self, rhs: Quanta) -> Quanta {
        Quanta(self.0 + rhs.0)
    }
}

impl AddAssign for Quanta {
    fn add_assign(&mut self, rhs: Quanta) {
        self.0 += rhs.0;
    }
}

impl Sub for Quanta {
    type Output = Quanta;
    fn sub(self, rhs: Quanta) -> Quanta {
        Quanta(self.0 - rhs.0)
    }
}

impl Mul<f64> for Quanta {
    type Output = Quanta;
    fn mul(self, rhs: f64) -> Quanta {
        Quanta(self.0 * rhs)
    }
}

impl Sum for Quanta {
    fn sum<I: Iterator<Item = Quanta>>(iter: I) -> Quanta {
        iter.fold(Quanta::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Quanta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}q", self.0)
    }
}

impl SimTime {
    /// Time since simulation start as a [`Quanta`] count.
    pub fn quanta(self, quantum: SimDuration) -> Quanta {
        Quanta(self.as_quanta(quantum))
    }
}

impl SimDuration {
    /// This duration as a [`Quanta`] count.
    pub fn quanta(self, quantum: SimDuration) -> Quanta {
        Quanta(self.as_quanta(quantum))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: SimDuration = SimDuration::from_secs(60);

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert!((SimDuration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quantum_arithmetic() {
        let t = SimTime::from_secs(61);
        assert_eq!(t.quantum_index(Q), 1);
        assert_eq!(t.quantum_floor(Q), SimTime::from_secs(60));
        assert_eq!(t.quantum_ceil(Q), SimTime::from_secs(120));
        assert_eq!(
            SimTime::from_secs(60).quantum_ceil(Q),
            SimTime::from_secs(60)
        );
        assert_eq!(SimTime::ZERO.quantum_ceil(Q), SimTime::ZERO);
    }

    #[test]
    fn quanta_conversion_matches_paper_units() {
        // 90 seconds = 1.5 quanta of 60 s.
        assert!((SimDuration::from_secs(90).as_quanta(Q) - 1.5).abs() < 1e-12);
        assert!((SimTime::from_secs(30).as_quanta(Q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_and_duration_arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(
            SimTime::from_secs(3).saturating_since(SimTime::from_secs(9)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(4).mul_f64(2.5),
            SimDuration::from_secs(10)
        );
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn quanta_newtype_arithmetic() {
        let q = SimDuration::from_secs(90).quanta(Q) + SimTime::from_secs(30).quanta(Q);
        assert!((q.get() - 2.0).abs() < 1e-12);
        assert!((q - Quanta::new(0.5)).get() - 1.5 < 1e-12);
        assert!(((q * 2.0).get() - 4.0).abs() < 1e-12);
        let sum: Quanta = [Quanta::new(1.0), Quanta::new(2.5)].into_iter().sum();
        assert!((sum.get() - 3.5).abs() < 1e-12);
        assert_eq!(format!("{}", Quanta::new(1.25)), "1.250q");
    }

    // The check is a `debug_assert!`, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "underflow")]
    fn debug_subtraction_underflow_panics() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }
}
