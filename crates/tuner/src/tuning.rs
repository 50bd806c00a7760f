//! Online index tuning — Algorithm 1.
//!
//! Triggered every time a dataflow is issued or finishes (and
//! periodically when idle): compute the gain of every candidate index
//! over the historical window plus the queued dataflow, rank the
//! beneficial ones for interleaving, and mark the built indexes whose
//! gain has gone non-positive for deletion.

use std::collections::BTreeMap;

use flowtune_common::{IndexId, Quanta, SimDuration, SimTime};
use flowtune_index::IndexCatalog;

use crate::adaptive::AdaptiveFading;
use crate::gain::{GainContribution, GainModel, IndexGains};
use crate::history::History;
use crate::rank::rank_indexes;

/// What the tuner decided at one trigger point.
#[derive(Debug, Clone, Default)]
pub struct TuningDecision {
    /// Beneficial indexes, best first — the candidates to interleave
    /// with the queued dataflow (Alg. 1 lines 2–9).
    pub beneficial: Vec<(IndexId, IndexGains)>,
    /// Built indexes whose gain is non-positive — to delete (lines
    /// 13–19).
    pub deletions: Vec<IndexId>,
}

/// The online tuner: gain model plus workload history.
#[derive(Debug)]
pub struct OnlineTuner {
    /// The gain model.
    pub model: GainModel,
    /// The historical dataflows `Hd`.
    pub history: History,
    /// Optional per-index fading learner (§7 future work); when absent
    /// the global `D` of the gain model applies.
    pub adaptive: Option<AdaptiveFading>,
}

impl OnlineTuner {
    /// Create a tuner with the global fading controller.
    pub fn new(model: GainModel) -> Self {
        OnlineTuner {
            model,
            history: History::new(),
            adaptive: None,
        }
    }

    /// Create a tuner that learns a fading controller per index.
    pub fn with_adaptive_fading(model: GainModel) -> Self {
        let adaptive = AdaptiveFading::new(model.tuner.fading_d, model.quantum);
        OnlineTuner {
            model,
            history: History::new(),
            adaptive: Some(adaptive),
        }
    }

    /// Record that the (just-issued) dataflow uses these indexes — feeds
    /// the adaptive fading learner; a no-op without one.
    pub fn observe_uses(&mut self, indexes: &[IndexId], now: SimTime) {
        if let Some(adaptive) = &mut self.adaptive {
            for idx in indexes {
                adaptive.record_use(*idx, now);
            }
        }
    }

    /// Gains of one index at `now`, over the history window plus the
    /// estimated gains of the queued and currently *running* dataflows
    /// (`extras`, each at `δT = 0` per Eq. 4/5).
    #[cfg(test)]
    pub fn gains_of(
        &self,
        idx: IndexId,
        now: SimTime,
        catalog: &IndexCatalog,
        extras: &[(f64, f64)],
    ) -> IndexGains {
        let mut contributions =
            self.history
                .contributions(idx, now, self.window(), self.model.quantum);
        contributions.extend(extras.iter().map(|&(gtd, gmd)| running(gtd, gmd)));
        self.evaluate(idx, catalog, &contributions)
    }

    /// Run one tuning step (Alg. 1): `active` carries the per-index gain
    /// estimates of the queued dataflow *and* every currently running
    /// dataflow — all contribute at `δT = 0` (empty when triggered
    /// periodically with nothing queued or running).
    ///
    /// Every index gets exactly the contributions the test-only
    /// per-index `gains_of` would give it, in the same order, but the
    /// history window is walked once per decision rather than once per
    /// index.
    pub fn decide(
        &self,
        now: SimTime,
        catalog: &IndexCatalog,
        active: &[&BTreeMap<IndexId, (f64, f64)>],
    ) -> TuningDecision {
        let mut windowed =
            self.history
                .window_contributions(now, self.window(), self.model.quantum);
        let mut all: Vec<(IndexId, IndexGains)> = Vec::with_capacity(catalog.len());
        for idx in catalog.ids() {
            let mut contributions = windowed
                .get_mut(idx.index())
                .map(std::mem::take)
                .unwrap_or_default();
            contributions.extend(
                active
                    .iter()
                    .filter_map(|m| m.get(&idx))
                    .map(|&(gtd, gmd)| running(gtd, gmd)),
            );
            let gains = self.evaluate(idx, catalog, &contributions);
            // Eq. 5 (time gain), Eq. 4 (money gain), Eq. 3 (combined).
            flowtune_obs::obs_event!(
                "tuner.gain",
                index = idx.0,
                gt = gains.gt,
                gm = gains.gm,
                g = gains.g,
            );
            flowtune_obs::count("tuner.gain_evals", 1);
            flowtune_obs::observe("tuner.gain", gains.g);
            all.push((idx, gains));
        }
        let beneficial = rank_indexes(&all);
        let deletions: Vec<IndexId> = all
            .iter()
            .filter(|(idx, g)| g.is_deletable() && !catalog.state(*idx).empty())
            .map(|(idx, _)| *idx)
            .collect();
        flowtune_obs::obs_event!(
            "tuner.decide",
            evaluated = all.len(),
            beneficial = beneficial.len(),
            deletions = deletions.len(),
        );
        flowtune_obs::count("tuner.decisions", 1);
        TuningDecision {
            beneficial,
            deletions,
        }
    }

    /// The history window `W` as a duration.
    fn window(&self) -> SimDuration {
        self.model.quantum.mul_f64(self.model.tuner.window_w)
    }

    /// Eq. 3–5 for `idx` over the given contributions.
    fn evaluate(
        &self,
        idx: IndexId,
        catalog: &IndexCatalog,
        contributions: &[GainContribution],
    ) -> IndexGains {
        let remaining_build = catalog.remaining_build_time(idx).quanta(self.model.quantum);
        let d = self
            .adaptive
            .as_ref()
            .map_or(self.model.tuner.fading_d, |a| a.d_for(idx));
        self.model
            .evaluate_with_d(contributions, remaining_build, catalog.total_bytes(idx), d)
    }
}

/// A queued or running dataflow's contribution, at `δT = 0`.
fn running(gtd: f64, gmd: f64) -> GainContribution {
    GainContribution {
        quanta_ago: Quanta::ZERO,
        gtd,
        gmd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryEntry;
    use flowtune_common::{DataflowId, FileId, Money, SimDuration, TunerConfig};
    use flowtune_index::{IndexCostModel, IndexSpec};

    fn small_catalog(n: usize) -> IndexCatalog {
        let mut cat = IndexCatalog::new();
        for i in 0..n {
            cat.add(IndexSpec::single_column(
                IndexId(0),
                FileId(i as u32),
                "orderkey",
                IndexCostModel::new(12.0, 117.0),
                vec![200_000; 2],
            ));
        }
        cat
    }

    fn tuner() -> OnlineTuner {
        OnlineTuner::new(GainModel::new(
            TunerConfig {
                alpha: 0.5,
                fading_d: 1.0,
                window_w: 10.0,
                storage_window_w: 10.0,
            },
            SimDuration::from_secs(60),
            Money::from_dollars(0.1),
            Money::from_dollars(1e-4),
        ))
    }

    #[test]
    fn cold_start_builds_nothing_and_deletes_nothing() {
        let t = tuner();
        let cat = small_catalog(4);
        let d = t.decide(SimTime::ZERO, &cat, &[]);
        assert!(d.beneficial.is_empty());
        assert!(
            d.deletions.is_empty(),
            "unbuilt indexes are never 'deleted'"
        );
    }

    #[test]
    fn queued_dataflow_makes_its_index_beneficial() {
        let t = tuner();
        let cat = small_catalog(4);
        let current = BTreeMap::from([(IndexId(2), (5.0, 4.0))]);
        let d = t.decide(SimTime::ZERO, &cat, &[&current]);
        assert_eq!(d.beneficial.len(), 1);
        assert_eq!(d.beneficial[0].0, IndexId(2));
    }

    #[test]
    fn history_keeps_indexes_beneficial_until_they_fade() {
        let mut t = tuner();
        let mut cat = small_catalog(2);
        cat.mark_built(IndexId(0), 0, SimTime::ZERO, 0);
        cat.mark_built(IndexId(0), 1, SimTime::ZERO, 0);
        t.history.record(HistoryEntry {
            dataflow: DataflowId(0),
            finished_at: SimTime::from_secs(60),
            index_gains: BTreeMap::from([(IndexId(0), (6.0, 6.0))]),
        });
        // Shortly after: still beneficial (built => no build cost).
        let d = t.decide(SimTime::from_secs(120), &cat, &[]);
        assert!(d.beneficial.iter().any(|(i, _)| *i == IndexId(0)));
        assert!(d.deletions.is_empty());
        // At 8 quanta the money gain has faded below the storage cost
        // (e^-8 * 6 ≈ 0.002), so the index is no longer beneficial — but
        // gt is still marginally positive, so it is not yet deleted.
        let d = t.decide(SimTime::from_secs(60 * 9), &cat, &[]);
        assert!(!d.beneficial.iter().any(|(i, _)| *i == IndexId(0)));
        assert!(!d.deletions.contains(&IndexId(0)));
        // Once the contribution leaves the W = 10 quanta window entirely,
        // both gains are non-positive and the built index is deleted.
        let d = t.decide(SimTime::from_secs(60 * 12), &cat, &[]);
        assert!(
            d.deletions.contains(&IndexId(0)),
            "faded built index is deleted"
        );
    }

    #[test]
    fn adaptive_fading_keeps_slow_reused_indexes_alive() {
        // An index reused every 5 quanta: with the global D = 1 its gain
        // at a 5-quanta gap is dead (e^-5); the adaptive learner sets
        // D ~ 7.5 and keeps it warm.
        let mut global = tuner();
        let mut adaptive = OnlineTuner::with_adaptive_fading(global.model.clone());
        let mut cat = small_catalog(1);
        cat.mark_built(IndexId(0), 0, SimTime::ZERO, 0);
        cat.mark_built(IndexId(0), 1, SimTime::ZERO, 0);
        for k in 0..6u64 {
            let at = SimTime::from_secs(60 * 5 * k);
            let entry = HistoryEntry {
                dataflow: DataflowId(k as u32),
                finished_at: at,
                index_gains: BTreeMap::from([(IndexId(0), (6.0, 6.0))]),
            };
            global.history.record(entry.clone());
            adaptive.history.record(entry);
            adaptive.observe_uses(&[IndexId(0)], at);
        }
        let now = SimTime::from_secs(60 * 5 * 5 + 60 * 4); // 4q after last use
        let g_global = global.gains_of(IndexId(0), now, &cat, &[]);
        let g_adaptive = adaptive.gains_of(IndexId(0), now, &cat, &[]);
        assert!(
            g_adaptive.g > g_global.g,
            "adaptive {} must beat global {}",
            g_adaptive.g,
            g_global.g
        );
        assert!(g_adaptive.is_beneficial());
    }

    #[test]
    fn decide_matches_per_index_gains_bit_for_bit() {
        // `decide` walks the window once and buckets; `gains_of` walks it
        // per index. Same contributions in the same order, so every gain
        // must agree to the bit, and so must ranking and deletions.
        let mut t = tuner();
        let mut cat = small_catalog(12);
        cat.mark_built(IndexId(3), 0, SimTime::ZERO, 0);
        cat.mark_built(IndexId(5), 1, SimTime::ZERO, 0);
        cat.mark_built(IndexId(9), 0, SimTime::ZERO, 0);
        let mut rng = flowtune_common::SimRng::seed_from_u64(5);
        for k in 0..60u32 {
            // Ids up to 13 also exercise history entries for indexes the
            // catalog does not hold.
            let index_gains = (0..4)
                .map(|_| {
                    let idx = IndexId(rng.uniform_u64(0, 14) as u32);
                    (
                        idx,
                        (rng.uniform_range(-1.0, 6.0), rng.uniform_range(-1.0, 6.0)),
                    )
                })
                .collect();
            t.history.record(HistoryEntry {
                dataflow: DataflowId(k),
                finished_at: SimTime::from_secs(rng.uniform_u64(0, 1200)),
                index_gains,
            });
        }
        let queued = BTreeMap::from([(IndexId(1), (2.0, 3.0)), (IndexId(7), (0.5, 0.25))]);
        let on_lane = BTreeMap::from([(IndexId(7), (1.5, 1.0)), (IndexId(3), (0.1, 0.2))]);
        let active = [&queued, &on_lane];
        let bits = |gains: &[(IndexId, IndexGains)]| -> Vec<(IndexId, [u64; 3])> {
            gains
                .iter()
                .map(|(i, g)| (*i, [g.gt.to_bits(), g.gm.to_bits(), g.g.to_bits()]))
                .collect()
        };
        let mut beneficial_seen = 0;
        for secs in [0, 300, 700, 1200, 2000] {
            let now = SimTime::from_secs(secs);
            let decision = t.decide(now, &cat, &active);
            let per_index: Vec<(IndexId, IndexGains)> = cat
                .ids()
                .map(|idx| {
                    let extras: Vec<(f64, f64)> =
                        active.iter().filter_map(|m| m.get(&idx).copied()).collect();
                    (idx, t.gains_of(idx, now, &cat, &extras))
                })
                .collect();
            assert_eq!(
                bits(&decision.beneficial),
                bits(&rank_indexes(&per_index)),
                "beneficial at {secs} s"
            );
            let deletions: Vec<IndexId> = per_index
                .iter()
                .filter(|(i, g)| g.is_deletable() && !cat.state(*i).empty())
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(decision.deletions, deletions, "deletions at {secs} s");
            beneficial_seen += decision.beneficial.len();
        }
        assert!(beneficial_seen > 5, "the fixture must rank something");
    }

    #[test]
    fn ranking_prefers_higher_gain_indexes() {
        let t = tuner();
        let cat = small_catalog(3);
        let current = BTreeMap::from([
            (IndexId(0), (2.0, 2.0)),
            (IndexId(1), (9.0, 9.0)),
            (IndexId(2), (4.0, 4.0)),
        ]);
        let d = t.decide(SimTime::ZERO, &cat, &[&current]);
        let ids: Vec<IndexId> = d.beneficial.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![IndexId(1), IndexId(2), IndexId(0)]);
    }
}
