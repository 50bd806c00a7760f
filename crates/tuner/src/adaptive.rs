//! Per-index adaptive fading — the paper's stated future work:
//! "automatic learning of the index gain fading controller to select
//! proper respective values for each index" (§7).
//!
//! The controller `D` decides how fast historical gains fade
//! (`dc(t) = e^{-t/D}`). A single global `D` is wrong for mixed
//! workloads: an index reused every 2 quanta should keep its gain hot
//! across a 2-quanta gap, while one reused every 50 quanta should not
//! hold storage for 50 quanta on the off-chance of reuse.
//!
//! [`AdaptiveFading`] learns `D` per index from the observed *reuse
//! intervals*: an exponentially weighted moving average of the gaps
//! between consecutive uses, scaled by a safety factor and clamped. An
//! index reused regularly gets `D ≈ factor × typical gap`, so its gain
//! survives exactly the gaps it actually exhibits.

use std::collections::BTreeMap;

use flowtune_common::{IndexId, SimDuration, SimTime};

/// Learns one fading controller `D` per index from reuse intervals.
#[derive(Debug, Clone)]
pub struct AdaptiveFading {
    /// Fallback `D` (quanta) for indexes never seen or seen once.
    pub default_d: f64,
    /// Smoothing factor of the interval EWMA, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// `D = safety_factor × EWMA(gap)`.
    pub safety_factor: f64,
    /// Clamp range for learned values (quanta).
    pub clamp: (f64, f64),
    quantum: SimDuration,
    state: BTreeMap<IndexId, UseState>,
}

#[derive(Debug, Clone, Copy)]
struct UseState {
    last_use: SimTime,
    ewma_gap_quanta: Option<f64>,
}

impl AdaptiveFading {
    /// Create a learner with the given global default `D` (quanta).
    pub fn new(default_d: f64, quantum: SimDuration) -> Self {
        AdaptiveFading {
            default_d,
            ewma_alpha: 0.3,
            safety_factor: 1.5,
            clamp: (0.25, 32.0),
            quantum,
            state: BTreeMap::new(),
        }
    }

    /// Record that a dataflow used `idx` at time `now`.
    pub fn record_use(&mut self, idx: IndexId, now: SimTime) {
        match self.state.get_mut(&idx) {
            None => {
                self.state.insert(
                    idx,
                    UseState {
                        last_use: now,
                        ewma_gap_quanta: None,
                    },
                );
            }
            Some(st) => {
                let gap = now.saturating_since(st.last_use).as_quanta(self.quantum);
                st.ewma_gap_quanta = Some(match st.ewma_gap_quanta {
                    None => gap,
                    Some(prev) => prev + self.ewma_alpha * (gap - prev),
                });
                st.last_use = now;
            }
        }
    }

    /// The learned controller for `idx` (the default until at least two
    /// uses have been observed).
    pub fn d_for(&self, idx: IndexId) -> f64 {
        match self.state.get(&idx).and_then(|s| s.ewma_gap_quanta) {
            None => self.default_d,
            Some(gap) => (self.safety_factor * gap).clamp(self.clamp.0, self.clamp.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: SimDuration = SimDuration::from_secs(60);

    fn t(quanta: u64) -> SimTime {
        SimTime::from_millis(quanta * Q.as_millis())
    }

    #[test]
    fn unseen_indexes_use_the_default() {
        let a = AdaptiveFading::new(1.0, Q);
        assert_eq!(a.d_for(IndexId(9)), 1.0);
    }

    #[test]
    fn single_use_is_not_enough_to_learn() {
        let mut a = AdaptiveFading::new(1.0, Q);
        a.record_use(IndexId(0), t(5));
        assert_eq!(a.d_for(IndexId(0)), 1.0);
    }

    #[test]
    fn regular_reuse_learns_the_gap() {
        let mut a = AdaptiveFading::new(1.0, Q);
        for k in 0..10 {
            a.record_use(IndexId(0), t(4 * k));
        }
        // Gap is exactly 4 quanta; D = 1.5 x 4 = 6.
        assert!((a.d_for(IndexId(0)) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn hot_index_gets_small_d_cold_index_gets_large_d() {
        let mut a = AdaptiveFading::new(1.0, Q);
        for k in 0..20 {
            a.record_use(IndexId(0), t(k)); // every quantum
        }
        for k in 0..4 {
            a.record_use(IndexId(1), t(20 * k)); // every 20 quanta
        }
        assert!(a.d_for(IndexId(0)) < a.d_for(IndexId(1)));
        assert!((a.d_for(IndexId(0)) - 1.5).abs() < 1e-9);
        assert!((a.d_for(IndexId(1)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn clamping_bounds_pathological_gaps() {
        let mut a = AdaptiveFading::new(1.0, Q);
        a.record_use(IndexId(0), t(0));
        a.record_use(IndexId(0), t(1000));
        assert_eq!(a.d_for(IndexId(0)), 32.0);
        // Same-instant double use clamps below.
        let mut b = AdaptiveFading::new(1.0, Q);
        b.record_use(IndexId(1), t(3));
        b.record_use(IndexId(1), t(3));
        assert_eq!(b.d_for(IndexId(1)), 0.25);
    }

    #[test]
    fn ewma_tracks_workload_shifts() {
        let mut a = AdaptiveFading::new(1.0, Q);
        // Long gaps first, then the index becomes hot.
        for k in 0..5 {
            a.record_use(IndexId(0), t(10 * k));
        }
        let cold = a.d_for(IndexId(0));
        for k in 0..20 {
            a.record_use(IndexId(0), t(50 + k));
        }
        let hot = a.d_for(IndexId(0));
        assert!(
            hot < cold,
            "D must shrink when reuse accelerates: {cold} -> {hot}"
        );
    }
}
