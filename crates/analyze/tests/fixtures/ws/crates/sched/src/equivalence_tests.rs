//! Fixture for an out-of-line test-only module: the file-level
//! `#![cfg(test)]` below must exempt everything here, exactly like
//! the real flowtune-sched equivalence suite.

#![cfg(test)]

pub fn golden_cost(leased_quanta: u64) -> f64 {
    let total_cost: f64 = leased_quanta as f64 * 0.1;
    total_cost
}
