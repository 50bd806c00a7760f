//! Wall-clock measurement helpers for the speedup experiments.

#![expect(
    clippy::disallowed_types,
    reason = "the Table 6 query micro-benchmarks measure real elapsed time"
)]

use std::time::{Duration, Instant};

/// Time one execution of `f`, returning its result and the elapsed wall
/// time. The result passes through [`std::hint::black_box`] so the work
/// cannot be optimised away.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed())
}

/// Run `f` `runs` times and return the median elapsed time (robust to a
/// cold first run).
pub fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(runs > 0, "need at least one run");
    let mut times: Vec<Duration> = (0..runs).map(|_| time_once(&mut f).1).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_result_and_positive_time() {
        let (out, t) = time_once(|| (0..10_000u64).sum::<u64>());
        assert_eq!(out, 49_995_000);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn median_is_one_of_the_samples() {
        let t = time_median(5, || std::hint::black_box(1 + 1));
        assert!(t.as_nanos() < 1_000_000_000);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = time_median(0, || ());
    }
}
