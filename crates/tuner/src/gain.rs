//! The gain model (Eq. 3–5).
//!
//! Quantities follow the paper's units: `gt` and all per-dataflow gains
//! are in **quanta**, `gm` and `g` in **dollars** (per-dataflow money
//! gains `gmd` are in quanta of VM cost and are multiplied by `Mc`, so
//! the two objectives share a unit before the α-weighting).

use flowtune_common::{pricing, Money, Quanta, SimDuration, TunerConfig};

/// One dataflow's contribution to an index's gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainContribution {
    /// Quanta elapsed since the dataflow executed (`ΔT`, 0 for the
    /// currently running/queued dataflow).
    pub quanta_ago: Quanta,
    /// Time gain `gtd(idx, d)` in quanta.
    pub gtd: f64,
    /// Money gain `gmd(idx, d)` in quanta of VM cost (includes the cost
    /// of reading the index from the storage service).
    pub gmd: f64,
}

/// Evaluated gain of one index at one time point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexGains {
    /// `gt(idx, t)` in quanta (Eq. 5).
    pub gt: f64,
    /// `gm(idx, t)` in dollars (Eq. 4).
    pub gm: f64,
    /// `g(idx, t)` in dollars (Eq. 3).
    pub g: f64,
}

impl IndexGains {
    /// Beneficial: both component gains strictly positive (§5.1).
    pub fn is_beneficial(&self) -> bool {
        self.gt > 0.0 && self.gm > 0.0
    }

    /// Deletable: both component gains non-positive (Alg. 1, lines
    /// 13–19).
    pub fn is_deletable(&self) -> bool {
        self.gt <= 0.0 && self.gm <= 0.0
    }
}

/// Evaluates Eq. 3–5.
#[derive(Debug, Clone)]
pub struct GainModel {
    /// Tuner parameters (α, D, W).
    pub tuner: TunerConfig,
    /// Billing quantum.
    pub quantum: SimDuration,
    /// Per-quantum VM price `Mc`.
    pub vm_price: Money,
    /// Per-MB-per-quantum storage price `Mst`.
    pub storage_price: Money,
}

impl GainModel {
    /// Build a model; panics on invalid tuner parameters.
    pub fn new(
        tuner: TunerConfig,
        quantum: SimDuration,
        vm_price: Money,
        storage_price: Money,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: new panics on invalid tuner parameters"
        )]
        tuner.validate().expect("invalid tuner configuration");
        GainModel {
            tuner,
            quantum,
            vm_price,
            storage_price,
        }
    }

    /// The fading function `dc(t) = e^{−t/D}` (`t` in quanta).
    pub fn fading(&self, quanta_ago: Quanta) -> f64 {
        self.fading_with_d(quanta_ago, self.tuner.fading_d)
    }

    /// Fading with an explicit controller `D` — used by the adaptive
    /// per-index learner ([`crate::AdaptiveFading`]).
    pub fn fading_with_d(&self, quanta_ago: Quanta, d: f64) -> f64 {
        debug_assert!(d > 0.0, "fading D must be positive");
        (-quanta_ago.get().max(0.0) / d).exp()
    }

    /// Storage cost `st(idx, W)` of keeping `bytes` over the decision
    /// commitment horizon, in dollars.
    pub fn window_storage_cost(&self, bytes: u64) -> Money {
        pricing::storage_cost(bytes, self.tuner.storage_window_w, self.storage_price)
    }

    /// Evaluate Eq. 3–5 for one index.
    ///
    /// * `contributions` — the related dataflows inside the window plus
    ///   the currently queued one.
    /// * `remaining_build_quanta` — `ti(idx)`: time still needed to
    ///   finish building the index (0 when fully built).
    /// * `stored_bytes` — bytes the index occupies when fully built
    ///   (drives `st(idx, W)`).
    pub fn evaluate(
        &self,
        contributions: &[GainContribution],
        remaining_build_quanta: Quanta,
        stored_bytes: u64,
    ) -> IndexGains {
        self.evaluate_with_d(
            contributions,
            remaining_build_quanta,
            stored_bytes,
            self.tuner.fading_d,
        )
    }

    /// Evaluate Eq. 3–5 with an explicit per-index fading controller.
    pub fn evaluate_with_d(
        &self,
        contributions: &[GainContribution],
        remaining_build_quanta: Quanta,
        stored_bytes: u64,
        d: f64,
    ) -> IndexGains {
        let mut gt = 0.0;
        let mut gm_quanta = 0.0;
        for c in contributions {
            let f = self.fading_with_d(c.quanta_ago, d);
            gt += f * c.gtd;
            gm_quanta += f * c.gmd;
        }
        self.finish(gt, gm_quanta, remaining_build_quanta, stored_bytes)
    }

    /// Eq. 3–5 from the faded sums `Σ dc·gtd` (`faded_gt`) and
    /// `Σ dc·gmd` (`faded_gm`), both in quanta: subtracts the
    /// build and storage costs and weights the two objectives.
    pub fn finish(
        &self,
        faded_gt: f64,
        faded_gm: f64,
        remaining_build_quanta: Quanta,
        stored_bytes: u64,
    ) -> IndexGains {
        let gt = faded_gt - remaining_build_quanta.get();
        // mi(idx): the build consumes compute time which is money at Mc
        // per quantum (even when prepaid, this is the conservative
        // charge the paper applies).
        let gm = self.vm_price.as_dollars() * (faded_gm - remaining_build_quanta.get())
            - self.window_storage_cost(stored_bytes).as_dollars();
        let g = self.tuner.alpha * self.vm_price.as_dollars() * gt + (1.0 - self.tuner.alpha) * gm;
        IndexGains { gt, gm, g }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GainModel {
        GainModel::new(
            TunerConfig::default(),
            SimDuration::from_secs(60),
            Money::from_dollars(0.1),
            Money::from_dollars(1e-4),
        )
    }

    #[test]
    fn fading_is_exponential_in_d() {
        let m = model(); // D = 1 quantum
        assert!((m.fading(Quanta::ZERO) - 1.0).abs() < 1e-12);
        assert!((m.fading(Quanta::new(1.0)) - (-1.0f64).exp()).abs() < 1e-12);
        assert!((m.fading(Quanta::new(3.0)) - (-3.0f64).exp()).abs() < 1e-12);
        // Negative ages clamp to "now".
        assert!((m.fading(Quanta::new(-5.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unused_index_has_negative_gain() {
        let m = model();
        let g = m.evaluate(&[], Quanta::new(2.0), 500 * 1024 * 1024);
        assert!(g.gt < 0.0);
        assert!(g.gm < 0.0);
        assert!(g.g < 0.0);
        assert!(g.is_deletable());
        assert!(!g.is_beneficial());
    }

    #[test]
    fn fresh_contributions_outweigh_costs() {
        let m = model();
        let contributions = [
            GainContribution {
                quanta_ago: Quanta::new(0.0),
                gtd: 3.0,
                gmd: 5.0,
            },
            GainContribution {
                quanta_ago: Quanta::new(0.5),
                gtd: 2.0,
                gmd: 4.0,
            },
        ];
        let g = m.evaluate(&contributions, Quanta::new(0.5), 10 * 1024 * 1024);
        assert!(g.gt > 0.0, "gt {}", g.gt);
        assert!(g.gm > 0.0, "gm {}", g.gm);
        assert!(g.is_beneficial());
    }

    #[test]
    fn old_contributions_fade_away() {
        let m = model(); // D = 1: after 10 quanta, e^-10 ≈ 4.5e-5
        let old = [GainContribution {
            quanta_ago: Quanta::new(10.0),
            gtd: 100.0,
            gmd: 100.0,
        }];
        let g = m.evaluate(&old, Quanta::new(0.1), 1024 * 1024);
        assert!(g.gt < 0.0, "faded gain must lose to build time: {}", g.gt);
    }

    #[test]
    fn storage_cost_scales_with_size() {
        let m = model();
        let c = [GainContribution {
            quanta_ago: Quanta::new(0.0),
            gtd: 1.0,
            gmd: 1.0,
        }];
        let small = m.evaluate(&c, Quanta::ZERO, 1024 * 1024);
        let big = m.evaluate(&c, Quanta::ZERO, 4 * 1024 * 1024 * 1024);
        assert!(small.gm > big.gm);
        assert_eq!(small.gt, big.gt, "storage affects money only");
    }

    #[test]
    fn alpha_shifts_the_weighting() {
        let q = SimDuration::from_secs(60);
        let mc = Money::from_dollars(0.1);
        let mst = Money::from_dollars(1e-4);
        let c = [GainContribution {
            quanta_ago: Quanta::new(0.0),
            gtd: 10.0,
            gmd: -2.0,
        }];
        let time_heavy = GainModel::new(
            TunerConfig {
                alpha: 0.9,
                ..Default::default()
            },
            q,
            mc,
            mst,
        )
        .evaluate(&c, Quanta::ZERO, 0);
        let money_heavy = GainModel::new(
            TunerConfig {
                alpha: 0.1,
                ..Default::default()
            },
            q,
            mc,
            mst,
        )
        .evaluate(&c, Quanta::ZERO, 0);
        assert!(time_heavy.g > money_heavy.g);
    }

    #[test]
    fn table2_example_index_b_becomes_beneficial() {
        // The §4 worked example: index B (500 MB) with dataflows at time
        // points 10 and 30 (D = 60, α = 0.5). After d2 at t=30 the gain
        // is positive.
        let m = GainModel::new(
            TunerConfig {
                alpha: 0.5,
                fading_d: 60.0,
                window_w: 2.0,
                storage_window_w: 2.0,
            },
            SimDuration::from_secs(60),
            Money::from_dollars(0.1),
            Money::from_dollars(1e-4),
        );
        let at_30 = m.evaluate(
            &[
                GainContribution {
                    quanta_ago: Quanta::new(20.0),
                    gtd: 1.0,
                    gmd: 3.0,
                },
                GainContribution {
                    quanta_ago: Quanta::new(0.0),
                    gtd: 2.0,
                    gmd: 5.0,
                },
            ],
            Quanta::new(0.2),
            500 * 1024 * 1024,
        );
        assert!(at_30.g > 0.0, "B at t=30: {}", at_30.g);
        // Long after the last related dataflow, it stops being useful.
        let at_300 = m.evaluate(
            &[
                GainContribution {
                    quanta_ago: Quanta::new(290.0),
                    gtd: 1.0,
                    gmd: 3.0,
                },
                GainContribution {
                    quanta_ago: Quanta::new(270.0),
                    gtd: 2.0,
                    gmd: 5.0,
                },
            ],
            Quanta::ZERO,
            500 * 1024 * 1024,
        );
        assert!(at_300.g < 0.0, "B at t=300: {}", at_300.g);
    }
}
