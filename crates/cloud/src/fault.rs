//! Deterministic fault injection for the execution simulator.
//!
//! Real IaaS clouds revoke spot instances, throttle storage and
//! straggle; the paper evaluates on a cloud that never fails. This
//! module makes those failures representable without giving up
//! reproducibility: every fault decision is drawn from a **dedicated**
//! [`SimRng`] stream derived from `(fault seed, dataflow, attempt)`, so
//! the fault pattern of a run is a pure function of the seed pair
//! `(workload seed, fault seed)` — independent of execution order,
//! retry count of *other* dataflows, and of how many draws the workload
//! generators consume.
//!
//! Six fault classes are modelled (each gated by a share of the master
//! `rate`):
//!
//! * **container revocation** — the provider takes a container back
//!   mid-quantum; every operator on it at or after the revocation
//!   instant is killed;
//! * **transient storage faults** — a read from the storage service
//!   fails and must be reissued, paying the transfer again;
//! * **stragglers** — an operator's actual runtime is inflated ×k;
//! * **build failures** — a build-index operator runs to completion but
//!   produces a corrupt partition, which must be invalidated rather
//!   than marked available;
//! * **crash during build** — the build dies partway through, leaving a
//!   partial page image whose tail pages were never flushed; the time
//!   already spent is wasted compute;
//! * **torn page writes** — the build completes but its last page image
//!   write was torn mid-page, which only a post-crash checksum scan can
//!   detect.
//!
//! A `rate` of zero is the *exact* pre-fault simulator: an inactive
//! injector never draws from its stream and every fault branch is
//! skipped, so reports are byte-identical to a run without the layer.
//! The two crash-consistency classes additionally guard on their own
//! probability, so configs predating them (share 0) replay their fault
//! streams byte-identically too.

use flowtune_common::{FlowtuneError, Result, SimRng, SimTime};

/// Fault model knobs. The master `rate` scales every class; the
/// per-class `*_share` factors set the relative frequency of each class
/// (probability = `rate × share`, clamped to `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master fault rate in `[0, 1]`; `0.0` disables the layer entirely.
    pub rate: f64,
    /// Seed of the dedicated fault stream (independent of the workload
    /// seed).
    pub seed: u64,
    /// Per-container revocation probability share (per execution).
    pub revocation_share: f64,
    /// Per-read transient storage-fault probability share.
    pub storage_share: f64,
    /// Per-operator straggler probability share.
    pub straggler_share: f64,
    /// Per-completed-build corruption probability share.
    pub build_failure_share: f64,
    /// Per-build crash-during-build probability share. Defaults to 0 so
    /// pre-existing fault streams replay byte-identically.
    pub crash_build_share: f64,
    /// Per-completed-build torn-page-write probability share. Defaults
    /// to 0 so pre-existing fault streams replay byte-identically.
    pub torn_write_share: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            rate: 0.0,
            seed: 0xFA_0175,
            revocation_share: 0.5,
            storage_share: 0.25,
            straggler_share: 0.25,
            build_failure_share: 0.5,
            crash_build_share: 0.0,
            torn_write_share: 0.0,
        }
    }
}

impl FaultConfig {
    /// A config with the given master rate and fault seed, default
    /// shares.
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        FaultConfig {
            rate,
            seed,
            ..Default::default()
        }
    }

    /// True when any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// Validate parameter ranges. NaN fails every check.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(FlowtuneError::config(format!(
                "fault rate must be in [0,1], got {}",
                self.rate
            )));
        }
        for (name, share) in [
            ("revocation_share", self.revocation_share),
            ("storage_share", self.storage_share),
            ("straggler_share", self.straggler_share),
            ("build_failure_share", self.build_failure_share),
            ("crash_build_share", self.crash_build_share),
            ("torn_write_share", self.torn_write_share),
        ] {
            if !(0.0..=1.0).contains(&share) {
                return Err(FlowtuneError::config(format!(
                    "fault {name} must be in [0,1], got {share}"
                )));
            }
        }
        Ok(())
    }

    fn probability(&self, share: f64) -> f64 {
        (self.rate * share).clamp(0.0, 1.0)
    }
}

/// Derives one [`FaultInjector`] per `(dataflow, attempt)` pair so every
/// execution attempt sees an independent, reproducible fault stream.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// A plan over the given fault model.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// A plan that never injects anything.
    pub fn none() -> Self {
        FaultPlan {
            config: FaultConfig::default(),
        }
    }

    /// The fault model in use.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// The injector for one execution attempt of one dataflow. The
    /// stream depends only on `(seed, dataflow, attempt)`: re-running
    /// the same attempt replays the same faults, and no attempt's draws
    /// perturb any other's.
    pub fn injector(&self, dataflow: u32, attempt: u32) -> FaultInjector {
        // SplitMix64-style mixing keeps nearby (dataflow, attempt)
        // pairs decorrelated; seed_from_u64 expands the result further.
        let mixed = self
            .config
            .seed
            .wrapping_add((dataflow as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((attempt as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        FaultInjector {
            config: self.config.clone(),
            rng: SimRng::seed_from_u64(mixed),
        }
    }
}

/// Draws the fault decisions for one execution attempt.
///
/// Every method checks [`FaultConfig::is_active`] *before* touching the
/// stream, so an inactive injector performs zero draws — the property
/// the rate-0 byte-identity golden tests rely on.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SimRng,
}

impl FaultInjector {
    /// An injector that never fires and never draws.
    pub fn none() -> Self {
        FaultInjector {
            config: FaultConfig::default(),
            rng: SimRng::seed_from_u64(0),
        }
    }

    /// True when any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// Decide whether (and when) the container whose planned activity
    /// spans `[start, end)` is revoked. Returns the revocation instant,
    /// strictly inside the span.
    pub fn revocation_in(&mut self, start: SimTime, end: SimTime) -> Option<SimTime> {
        if !self.is_active() || end <= start {
            return None;
        }
        if !self
            .rng
            .chance(self.config.probability(self.config.revocation_share))
        {
            return None;
        }
        let span_ms = (end - start).as_millis();
        let offset = self.rng.uniform_u64(0, span_ms.max(1));
        Some(start + flowtune_common::SimDuration::from_millis(offset))
    }

    /// Number of times a storage read must be reissued before it
    /// succeeds (0 almost always; bounded so a run cannot livelock).
    pub fn storage_retries(&mut self) -> u32 {
        if !self.is_active() {
            return 0;
        }
        let p = self.config.probability(self.config.storage_share);
        let mut retries = 0;
        while retries < 2 && self.rng.chance(p) {
            retries += 1;
        }
        retries
    }

    /// Runtime inflation factor of a straggling operator.
    const STRAGGLER_FACTOR: f64 = 3.0;

    /// Runtime inflation factor for one operator (1.0 = no straggling,
    /// else `STRAGGLER_FACTOR`).
    pub fn straggler_factor(&mut self) -> f64 {
        if !self.is_active() {
            return 1.0;
        }
        if self
            .rng
            .chance(self.config.probability(self.config.straggler_share))
        {
            Self::STRAGGLER_FACTOR
        } else {
            1.0
        }
    }

    /// Whether a build that ran to completion actually produced a
    /// corrupt partition.
    pub fn build_failure(&mut self) -> bool {
        if !self.is_active() {
            return false;
        }
        self.rng
            .chance(self.config.probability(self.config.build_failure_share))
    }

    /// Whether the build crashes partway through; returns the fraction
    /// of its runtime (and of its page image) completed before the
    /// crash, strictly inside `(0, 1)`. Guards on its own probability
    /// *before* drawing, so configs with `crash_build_share == 0`
    /// consume nothing from the stream and replay pre-existing fault
    /// patterns byte-identically.
    pub fn crash_during_build(&mut self) -> Option<f64> {
        if !self.is_active() {
            return None;
        }
        let p = self.config.probability(self.config.crash_build_share);
        if p <= 0.0 || !self.rng.chance(p) {
            return None;
        }
        Some(self.rng.uniform_range(0.05, 0.95))
    }

    /// Whether a build that ran to completion tore its final page
    /// write. Same own-probability guard as
    /// [`FaultInjector::crash_during_build`].
    pub fn torn_page_write(&mut self) -> bool {
        if !self.is_active() {
            return false;
        }
        let p = self.config.probability(self.config.torn_write_share);
        p > 0.0 && self.rng.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_injector_never_fires_and_never_draws() {
        let mut a = FaultInjector::none();
        let mut b = FaultInjector::none();
        for _ in 0..10 {
            assert_eq!(
                a.revocation_in(SimTime::ZERO, SimTime::from_secs(600)),
                None
            );
            assert_eq!(a.storage_retries(), 0);
            assert_eq!(a.straggler_factor(), 1.0);
            assert!(!a.build_failure());
            assert_eq!(a.crash_during_build(), None);
            assert!(!a.torn_page_write());
        }
        // The stream was never advanced: both injectors still agree on
        // the next raw draw of their (identical) seeds.
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(FaultConfig::with_rate(0.8, 99));
        let decide = |mut inj: FaultInjector| {
            let mut out = Vec::new();
            for _ in 0..50 {
                out.push((
                    inj.revocation_in(SimTime::ZERO, SimTime::from_secs(300)),
                    inj.storage_retries(),
                    inj.straggler_factor().to_bits(),
                    inj.build_failure(),
                ));
            }
            out
        };
        assert_eq!(decide(plan.injector(3, 0)), decide(plan.injector(3, 0)));
        assert_ne!(decide(plan.injector(3, 0)), decide(plan.injector(3, 1)));
        assert_ne!(decide(plan.injector(4, 0)), decide(plan.injector(3, 0)));
    }

    #[test]
    fn zero_share_crash_and_torn_draws_preserve_the_stream() {
        // The crash-consistency classes guard on their own probability,
        // so a config predating them (shares 0) must replay the exact
        // same fault pattern even when the new draw sites are visited.
        let plan = FaultPlan::new(FaultConfig::with_rate(0.8, 99));
        let mut plain = plan.injector(5, 0);
        let mut interleaved = plan.injector(5, 0);
        for _ in 0..50 {
            assert_eq!(interleaved.crash_during_build(), None);
            assert!(!interleaved.torn_page_write());
            assert_eq!(plain.build_failure(), interleaved.build_failure());
            assert_eq!(plain.storage_retries(), interleaved.storage_retries());
        }
    }

    #[test]
    fn crash_fraction_is_strictly_partial() {
        let config = FaultConfig {
            rate: 1.0,
            crash_build_share: 1.0,
            torn_write_share: 1.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        let mut crashed = 0;
        let mut torn = 0;
        for _ in 0..100 {
            if let Some(f) = inj.crash_during_build() {
                assert!((0.05..0.95).contains(&f), "crash fraction {f}");
                crashed += 1;
            }
            if inj.torn_page_write() {
                torn += 1;
            }
        }
        assert_eq!(crashed, 100, "share-1.0 crashes always fire");
        assert_eq!(torn, 100, "share-1.0 torn writes always fire");
    }

    #[test]
    fn revocation_lands_inside_the_span() {
        let plan = FaultPlan::new(FaultConfig::with_rate(1.0, 7));
        let mut inj = plan.injector(0, 0);
        let (s, e) = (SimTime::from_secs(60), SimTime::from_secs(180));
        let mut fired = 0;
        for _ in 0..100 {
            if let Some(t) = inj.revocation_in(s, e) {
                assert!(t >= s && t < e, "revocation {t} outside [{s}, {e})");
                fired += 1;
            }
        }
        assert!(fired > 0, "rate-1.0 revocations never fired");
        assert_eq!(inj.revocation_in(s, s), None, "empty span cannot revoke");
    }

    #[test]
    fn straggler_factor_is_config_or_one() {
        let config = FaultConfig {
            rate: 1.0,
            straggler_share: 1.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        assert_eq!(inj.straggler_factor(), FaultInjector::STRAGGLER_FACTOR);
    }

    #[test]
    fn storage_retries_are_bounded() {
        let config = FaultConfig {
            rate: 1.0,
            storage_share: 1.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        for _ in 0..20 {
            assert!(inj.storage_retries() <= 2);
        }
    }

    #[test]
    fn config_validation_rejects_bad_ranges() {
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig::with_rate(1.5, 0).validate().is_err());
        assert!(FaultConfig {
            storage_share: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            crash_build_share: 1.2,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            torn_write_share: -0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn config_validation_rejects_nan() {
        for field in 0..7 {
            let mut c = FaultConfig::with_rate(0.3, 0);
            let slot = match field {
                0 => &mut c.rate,
                1 => &mut c.revocation_share,
                2 => &mut c.storage_share,
                3 => &mut c.straggler_share,
                4 => &mut c.build_failure_share,
                5 => &mut c.crash_build_share,
                _ => &mut c.torn_write_share,
            };
            *slot = f64::NAN;
            assert!(c.validate().is_err(), "NaN in field {field} accepted");
        }
    }
}
