//! Deterministic random number generation for workload synthesis.
//!
//! All experiment randomness flows through [`SimRng`], a seeded
//! xoshiro256** generator (Blackman & Vigna) implemented in-repo so the
//! workspace builds with **zero external dependencies** and fully
//! offline. The 64-bit seed is expanded into the 256-bit state with
//! SplitMix64, exactly as the reference implementation recommends, so
//! equal seeds produce identical streams on every platform and toolchain.
//! On top of the raw generator sit the distributions the paper's workload
//! generators need (exponential inter-arrivals for the Poisson client,
//! truncated log-normal operator runtimes, categorical choice). Normal
//! variates are produced with Box–Muller so no distribution crate is
//! required.
//!
//! The byte-exact output stream is a compatibility surface: experiment
//! figures are reproduced from seeds, so changing the generator or the
//! seeding procedure invalidates published numbers. The golden-stream
//! test at the bottom of this file pins the first draws of the stream and
//! must only be updated together with a deliberate, documented generator
//! change.

/// Seeded RNG with simulation-oriented helpers.
///
/// Internally a xoshiro256** generator: 256 bits of state, period
/// `2^256 - 1`, passes BigCrush, and needs only shifts/rotates/adds —
/// ideal for a dependency-free deterministic simulator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step — used to expand a 64-bit seed into generator state.
///
/// This is the seeding procedure recommended by the xoshiro authors: it
/// guarantees the expanded state is never all-zero (xoshiro's single
/// forbidden state) and decorrelates nearby seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed. Equal seeds produce identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit draw (xoshiro256** scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derive an independent child generator; used to give each workload
    /// component its own stream so adding draws in one place does not
    /// perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a draw scaled by 2⁻⁵³.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Requires `lo < hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "empty uniform range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi)`. Requires `lo < hi`.
    ///
    /// Unbiased: draws are rejected from the tail zone where the modulus
    /// would over-represent small residues.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty integer range");
        let span = hi - lo;
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Uniform i64 in `[lo, hi)`. Requires `lo < hi`.
    pub fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi, "empty integer range");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.uniform_u64(0, span) as i64)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponential variate with the given mean — the inter-arrival time of
    /// a Poisson process with rate `1/mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal variate (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform(); // (0, 1]
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal variate parameterised by the *target* mean and standard
    /// deviation of the resulting distribution (not of the underlying
    /// normal), clamped to `[min, max]`.
    ///
    /// This is how operator runtimes are sampled to match the published
    /// per-application statistics (Table 4): heavy-tailed like real
    /// workflow tasks but bounded by the observed extremes.
    pub fn lognormal_clamped(&mut self, mean: f64, stdev: f64, min: f64, max: f64) -> f64 {
        debug_assert!(mean > 0.0 && min <= max, "invalid lognormal parameters");
        if stdev <= 0.0 {
            return mean.clamp(min, max);
        }
        let variance = stdev * stdev;
        let mu = (mean * mean / (variance + mean * mean).sqrt()).ln();
        let sigma = (1.0 + variance / (mean * mean)).ln().sqrt();
        let x = (mu + sigma * self.standard_normal()).exp();
        x.clamp(min, max)
    }

    /// Pick one element of a non-empty slice uniformly at random.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.uniform_u64(0, items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the raw generator against the xoshiro256** reference: seeding
    /// state with SplitMix64(seed=0) and scrambling must reproduce the
    /// published algorithm exactly. These values were produced by this
    /// implementation and cross-checked against the reference C code's
    /// seeding procedure; they must never change silently — every
    /// experiment figure is reproduced from seeds through this stream.
    #[test]
    fn golden_stream_raw_u64() {
        let mut rng = SimRng::seed_from_u64(0);
        let expected: [u64; 8] = [
            11091344671253066420,
            13793997310169335082,
            1900383378846508768,
            7684712102626143532,
            13521403990117723737,
            18442103541295991498,
            7788427924976520344,
            9881088229871127103,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// Golden stream for the distribution helpers at the experiment seed.
    #[test]
    fn golden_stream_distributions() {
        let mut rng = SimRng::seed_from_u64(42);
        let u: Vec<u64> = (0..4).map(|_| rng.uniform().to_bits()).collect();
        let expected: [u64; 4] = [
            4590707384586612416,
            4600498721180566606,
            4604300506050280595,
            4606504113153275500,
        ];
        assert_eq!(u, expected);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn forked_streams_are_independent_of_later_draws() {
        let mut a = SimRng::seed_from_u64(7);
        let mut fork1 = a.fork();
        let first = fork1.uniform();
        // Re-derive: same parent seed, same fork point -> same child stream.
        let mut a2 = SimRng::seed_from_u64(7);
        let mut fork2 = a2.fork();
        assert_eq!(first.to_bits(), fork2.uniform().to_bits());
    }

    #[test]
    fn uniform_u64_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.uniform_u64(3, 10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert_eq!(seen, [true; 7]);
        for _ in 0..500 {
            let v = rng.uniform_i64(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(60.0)).sum::<f64>() / n as f64;
        assert!((mean - 60.0).abs() < 2.0, "sample mean {mean}");
    }

    #[test]
    fn lognormal_matches_target_moments() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 40_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| rng.lognormal_clamped(22.97, 25.08, 0.0, f64::INFINITY))
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 22.97).abs() < 1.0, "mean {mean}");
        assert!((var.sqrt() - 25.08).abs() < 3.0, "stdev {}", var.sqrt());
    }

    #[test]
    fn lognormal_respects_clamp() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.lognormal_clamped(10.0, 30.0, 2.0, 50.0);
            assert!((2.0..=50.0).contains(&x));
        }
    }

    #[test]
    fn choose_and_shuffle_cover_all_elements() {
        let mut rng = SimRng::seed_from_u64(9);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*rng.choose(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);

        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 20 elements should permute");
    }
}
