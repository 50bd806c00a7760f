//! Descriptive statistics.
//!
//! [`OnlineStats`] implements Welford's single-pass algorithm for mean and
//! variance; it is used both to report workload characteristics (Table 4)
//! and to aggregate experiment measurements.

/// Single-pass min/max/mean/standard-deviation accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    /// Same as [`OnlineStats::new`]. A derived `Default` would zero
    /// `min`/`max`, so the first `push(x)` could never raise `min`
    /// above `0.0` — `default()` must match `new()` exactly.
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
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

    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stdev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl FromIterator<f64> for OnlineStats {
    /// Build from an iterator of samples.
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut s = OnlineStats::new();
        for v in values {
            s.push(v);
        }
        s
    }
}

/// Percentile of a *sorted* slice using linear interpolation.
///
/// `q` is in `[0, 1]`. Returns `None` on an empty slice so report
/// paths never panic on a run that produced no samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!((0.0..=1.0).contains(&q), "quantile out of range");
    match sorted {
        [] => None,
        [only] => Some(*only),
        _ => {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn known_values() {
        let s = OnlineStats::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stdev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(4.0));
        assert!((percentile_sorted(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 0.4), Some(7.0));
    }

    #[test]
    fn percentile_of_empty_slice_is_none() {
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile_sorted(&[], 0.0), None);
    }

    #[test]
    fn default_matches_new() {
        // Regression: a derived Default zeroed min/max, so pushing 5.0
        // into a default() accumulator reported min = 0.0.
        let mut s = OnlineStats::default();
        s.push(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(OnlineStats::default(), OnlineStats::new());
    }

    fn random_vec(rng: &mut SimRng, max_len: u64, lo: f64, hi: f64) -> Vec<f64> {
        let n = rng.uniform_u64(0, max_len) as usize;
        (0..n).map(|_| rng.uniform_range(lo, hi)).collect()
    }

    #[test]
    fn stdev_is_nonnegative_and_bounded() {
        let mut rng = SimRng::seed_from_u64(0xBEEF);
        for _ in 0..200 {
            let mut v = random_vec(&mut rng, 99, -1e3, 1e3);
            if v.is_empty() {
                v.push(rng.uniform_range(-1e3, 1e3));
            }
            let s = OnlineStats::from_iter(v.iter().copied());
            assert!(s.stdev() >= 0.0);
            assert!(s.min() <= s.mean() + 1e-9);
            assert!(s.mean() <= s.max() + 1e-9);
        }
    }
}
