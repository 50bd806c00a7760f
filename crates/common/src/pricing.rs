//! Cloud pricing formulas.
//!
//! The paper's cloud model (§3, "Cloud Model") charges compute per VM per
//! time quantum and storage per MB per quantum (`Mst`, configured
//! directly in [`crate::config::CloudConfig`]).
//!
//! Pricing is pluggable: all downstream code reads prices from
//! [`crate::config::CloudConfig`], never from constants, so alternative
//! models (e.g. per-second billing) are a config change.

use crate::money::Money;
use crate::time::SimDuration;

/// Storage cost of holding `bytes` for `quanta` billing quanta at a
/// *per MB per quantum* price.
///
/// Sizes are charged pro-rata by byte (the paper counts bytes transferred
/// and "charges appropriately over time").
pub fn storage_cost(bytes: u64, quanta: f64, price_per_mb_quantum: Money) -> Money {
    let mb = bytes as f64 / (1024.0 * 1024.0);
    price_per_mb_quantum.mul_f64(mb * quanta)
}

/// Compute cost of leasing `quanta` whole quanta at the per-quantum VM
/// price.
pub fn compute_cost(quanta: u64, vm_price_per_quantum: Money) -> Money {
    vm_price_per_quantum * quanta as i64
}

/// Number of whole quanta needed to cover a duration (billing rounds up:
/// resources are prepaid for whole quanta).
pub fn quanta_to_cover(duration: SimDuration, quantum: SimDuration) -> u64 {
    debug_assert!(quantum.as_millis() > 0, "quantum must be positive");
    duration.as_millis().div_ceil(quantum.as_millis())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_cost_scales_linearly() {
        let price = Money::from_dollars(1e-4); // per MB per quantum
        let one_mb_one_q = storage_cost(1024 * 1024, 1.0, price);
        assert_eq!(one_mb_one_q, Money::from_dollars(1e-4));
        let ten_mb_half_q = storage_cost(10 * 1024 * 1024, 0.5, price);
        assert_eq!(ten_mb_half_q, Money::from_dollars(5e-4));
    }

    #[test]
    fn quanta_round_up() {
        let q = SimDuration::from_secs(60);
        assert_eq!(quanta_to_cover(SimDuration::ZERO, q), 0);
        assert_eq!(quanta_to_cover(SimDuration::from_secs(1), q), 1);
        assert_eq!(quanta_to_cover(SimDuration::from_secs(60), q), 1);
        assert_eq!(quanta_to_cover(SimDuration::from_secs(61), q), 2);
    }

    #[test]
    fn compute_cost_is_price_times_quanta() {
        let mc = Money::from_dollars(0.1);
        assert_eq!(compute_cost(7, mc), Money::from_dollars(0.7));
    }
}
