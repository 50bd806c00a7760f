//! Order statistics over samples.

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that still has at
/// least ten samples beyond it, as `(p, value)`: a tail figure that is
/// not one or two stray samples.
pub fn tail_percentile(xs: &[f64]) -> (f64, f64) {
    let p = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(xs, p))
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 75.0), 3.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=722).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (95.0, 686.0));
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).0, 99.9);
        assert_eq!(tail_percentile(&[1.0, 2.0]).0, 50.0);
    }
}
