//! The benchmark's workloads: one `ServiceConfig` shape each, and the
//! suite of workload seeds a run measures.
//!
//! A run with `--seed n` measures a *suite* of service runs, one per
//! workload seed derived from `n`. The phase workload's run time and
//! peak memory swing by a factor of two to four between seeds (the seed
//! draws the file sizes, and with them the index work), so a single
//! seed per run would bury a code change under input noise. Averaging a
//! suite that spans small and large inputs alike keeps two runs with
//! different `--seed`s comparable.

use flowtune_common::SimRng;
use flowtune_core::{
    IndexPolicy, InterleaverKind, RecoveryPolicyKind, SchedulerKind, ServiceConfig,
};
use flowtune_dataflow::{FileDatabase, WorkloadKind};

/// Candidate seeds drawn per suite seed (see [`Workload::suite`]).
const POOL_PER_SEED: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Gain(delete) policy on the paper's phase mix (Fig. 12), skyline +
    /// LP interleaver, no faults: the paper's headline run.
    GainPhases,
    /// No-Index policy on the same mix over 2880 quanta: tuner,
    /// interleaver and page store idle; the skyline scheduler dominates.
    NoindexPhases,
    /// Gain policy with the online interleaver under faults (rate 0.3,
    /// crash and torn shares 0.3, retry-gain-penalty recovery).
    FaultsOnline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GainPhases,
        Workload::NoindexPhases,
        Workload::FaultsOnline,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GainPhases => "gain_phases",
            Workload::NoindexPhases => "noindex_phases",
            Workload::FaultsOnline => "faults_online",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon in quanta (`smoke` shrinks it for tests).
    pub fn quanta(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (_, true) => 60,
            (Workload::NoindexPhases, false) => 2880,
            (_, false) => 720,
        }
    }

    /// Workload seeds in one suite: as many as keep the spread of the
    /// suite's figures across `--seed`s well inside the benchmark's
    /// bounds, at 20 to 45 s per suite on two cores.
    pub fn suite_len(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 2,
            (Workload::GainPhases, false) => 8,
            (Workload::NoindexPhases, false) => 6,
            (Workload::FaultsOnline, false) => 8,
        }
    }

    /// The suite's workload seeds, stratified by input size. A generator
    /// seeded with `seed` draws `POOL_PER_SEED` candidates per suite
    /// seed; the pool is sorted by the bytes of the file database each
    /// candidate generates (the first thing `QaasService::new` draws from
    /// its seed), cut into equal strata, and each stratum gives its
    /// first-drawn candidate. Database size drives the index work and
    /// the page-store memory (peak memory follows it with r = 0.84 on
    /// `gain_phases`), so no suite is all small or all large inputs.
    pub fn suite(self, seed: u64, smoke: bool) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut pool: Vec<(u64, usize, u64)> = (0..self.suite_len(smoke) * POOL_PER_SEED)
            .map(|drawn| {
                let candidate = rng.next_u64() % 1_000_000;
                let db = FileDatabase::generate(&mut SimRng::seed_from_u64(candidate));
                (db.total_bytes(), drawn, candidate)
            })
            .collect();
        pool.sort_unstable();
        pool.chunks(POOL_PER_SEED)
            .filter_map(|stratum| stratum.iter().min_by_key(|c| c.1).map(|c| c.2))
            .collect()
    }

    /// The service configuration for one workload seed. Equivalent to
    /// the `flowtune` CLI flags in each arm's comment.
    pub fn config(self, seed: u64, smoke: bool) -> ServiceConfig {
        let mut config = ServiceConfig {
            workload: WorkloadKind::paper_phases(),
            policy: IndexPolicy::Gain { delete: true },
            scheduler: SchedulerKind::Skyline,
            interleaver: InterleaverKind::Lp,
            ..ServiceConfig::default()
        };
        config.params.seed = seed;
        config.params.total_quanta = self.quanta(smoke);
        match self {
            // flowtune --quanta 720
            Workload::GainPhases => {}
            // flowtune --quanta 2880 --policy no-index
            Workload::NoindexPhases => config.policy = IndexPolicy::NoIndex,
            // flowtune --quanta 720 --interleaver online --fault-rate 0.3
            //   --crash-share 0.3 --torn-share 0.3
            //   --recovery-policy retry-gain-penalty
            Workload::FaultsOnline => {
                config.interleaver = InterleaverKind::Online;
                config.faults.rate = 0.3;
                config.faults.crash_build_share = 0.3;
                config.faults.torn_write_share = 0.3;
                config.recovery.policy = RecoveryPolicyKind::RetryGainPenalty;
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn suites_are_reproducible_and_span_small_to_large_inputs() {
        let bytes = |s: u64| FileDatabase::generate(&mut SimRng::seed_from_u64(s)).total_bytes();
        for w in Workload::ALL {
            let suite = w.suite(42, false);
            assert_eq!(suite.len(), w.suite_len(false));
            assert_eq!(suite, w.suite(42, false));
            assert_ne!(suite, w.suite(43, false));
            let sizes: Vec<u64> = suite.iter().map(|&s| bytes(s)).collect();
            assert!(
                sizes.windows(2).all(|p| p[0] <= p[1]),
                "one seed per stratum, in order"
            );
        }
    }
}
