//! Monetary amounts.
//!
//! Money is stored as integer **micro-dollars** (1 µ$ = 10⁻⁶ $). Integer
//! arithmetic makes cost accounting exact: the experiments accumulate many
//! small storage charges (the default storage price is $10⁻⁴ per MB per
//! quantum) and floating-point summation would make run totals depend on
//! accumulation order.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A signed monetary amount in micro-dollars.
///
/// Signed because the paper's *gain* quantities (Eq. 3–5) are differences
/// that are frequently negative (an index that costs more than it saves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Construct from whole micro-dollars.
    pub const fn from_micros(micros: i64) -> Self {
        Money(micros)
    }

    /// Construct from a dollar amount, rounding to the nearest micro-dollar.
    pub fn from_dollars(dollars: f64) -> Self {
        Money((dollars * 1e6).round() as i64)
    }

    /// Whole micro-dollars.
    #[inline]
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Dollar amount.
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Money expressed in *quanta of VM cost*: the paper normalises money
    /// by the per-quantum VM price so time and money share a unit.
    pub fn as_quanta(self, vm_price_per_quantum: Money) -> f64 {
        debug_assert!(vm_price_per_quantum.0 > 0, "VM price must be positive");
        self.0 as f64 / vm_price_per_quantum.0 as f64
    }

    /// Scale by a factor, rounding to the nearest micro-dollar.
    pub fn mul_f64(self, factor: f64) -> Money {
        Money((self.0 as f64 * factor).round() as i64)
    }

    /// True if strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// True if zero or negative.
    pub const fn is_non_positive(self) -> bool {
        self.0 <= 0
    }

    /// Smaller of two amounts.
    #[inline]
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }

    /// Larger of two amounts.
    #[inline]
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }
}

impl Add for Money {
    type Output = Money;
    #[inline]
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    #[inline]
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    #[inline]
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    #[inline]
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    #[inline]
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Div<i64> for Money {
    type Output = Money;
    #[inline]
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.6}", self.as_dollars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dollars_round_trip() {
        let m = Money::from_dollars(0.1);
        assert_eq!(m.as_micros(), 100_000);
        assert!((m.as_dollars() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn storage_price_is_exact() {
        // $1e-4 per MB per quantum must be exactly representable.
        let mst = Money::from_dollars(1e-4);
        assert_eq!(mst.as_micros(), 100);
        // Charging 713 partitions of 128 MB for one quantum is exact.
        let total = mst * (713 * 128);
        assert_eq!(total.as_micros(), 100 * 713 * 128);
    }

    #[test]
    fn quanta_normalisation() {
        let mc = Money::from_dollars(0.1);
        let spend = Money::from_dollars(0.25);
        assert!((spend.as_quanta(mc) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Money::from_micros(5);
        let b = Money::from_micros(3);
        assert_eq!(a + b, Money::from_micros(8));
        assert_eq!(a - b, Money::from_micros(2));
        assert_eq!(-(a - b), Money::from_micros(-2));
        assert!(b < a);
        assert!(Money::from_micros(-1).is_non_positive());
        assert!(a.is_positive());
        let total: Money = [a, b, b].into_iter().sum();
        assert_eq!(total, Money::from_micros(11));
    }

    #[test]
    fn scaling() {
        assert_eq!(
            Money::from_micros(100).mul_f64(0.25),
            Money::from_micros(25)
        );
        assert_eq!(Money::from_micros(100) * 3, Money::from_micros(300));
        assert_eq!(Money::from_micros(100) / 4, Money::from_micros(25));
    }
}
