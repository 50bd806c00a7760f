//! Online index tuning — Algorithm 1.
//!
//! Triggered every time a dataflow is issued or finishes (and
//! periodically when idle): compute the gain of every candidate index
//! over the historical window plus the queued dataflow, rank the
//! beneficial ones for interleaving, and mark the built indexes whose
//! gain has gone non-positive for deletion.

use std::collections::BTreeMap;

use flowtune_common::{IndexId, SimDuration, SimTime};
use flowtune_index::IndexCatalog;

use crate::adaptive::AdaptiveFading;
use crate::gain::{GainModel, IndexGains};
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
    /// (`extras`, each at `δT = 0` per Eq. 4/5) — the per-index oracle
    /// of [`OnlineTuner::decide`].
    #[cfg(test)]
    pub fn gains_of(
        &self,
        idx: IndexId,
        now: SimTime,
        catalog: &IndexCatalog,
        extras: &[(f64, f64)],
    ) -> IndexGains {
        use crate::gain::GainContribution;
        use flowtune_common::Quanta;
        let mut contributions =
            self.history
                .contributions(idx, now, self.window(), self.model.quantum);
        contributions.extend(extras.iter().map(|&(gtd, gmd)| GainContribution {
            quanta_ago: Quanta::ZERO,
            gtd,
            gmd,
        }));
        let d = self
            .adaptive
            .as_ref()
            .map_or(self.model.tuner.fading_d, |a| a.d_for(idx));
        self.model.evaluate_with_d(
            &contributions,
            catalog.remaining_build_time(idx).quanta(self.model.quantum),
            catalog.total_bytes(idx),
            d,
        )
    }

    /// Run one tuning step (Alg. 1): `active` carries the per-index gain
    /// estimates of the queued dataflow *and* every currently running
    /// dataflow — all contribute at `δT = 0` (empty when triggered
    /// periodically with nothing queued or running).
    ///
    /// One pass sums every index's faded gains: the history window is
    /// walked once, newest first, with one fading factor per dataflow
    /// (per contribution under adaptive fading, whose `D` is the
    /// index's), then each `active` map's own entries. Every index gets
    /// the additions the test-only per-index `gains_of` makes, in the
    /// same order from the same `0.0`, so every gain is bit-identical.
    /// Ids past the catalog are skipped.
    pub fn decide(
        &self,
        now: SimTime,
        catalog: &IndexCatalog,
        active: &[&BTreeMap<IndexId, (f64, f64)>],
    ) -> TuningDecision {
        // (Σ dc·gtd, Σ dc·gmd) per catalog index.
        let mut sums = vec![(0.0f64, 0.0f64); catalog.len()];
        let global_d = self.model.tuner.fading_d;
        for (quanta_ago, gains) in self
            .history
            .windowed(now, self.window(), self.model.quantum)
        {
            let fade = self.model.fading_with_d(quanta_ago, global_d);
            for (&idx, &(gtd, gmd)) in gains {
                let Some((gt, gm)) = sums.get_mut(idx.index()) else {
                    continue;
                };
                let f = match &self.adaptive {
                    Some(a) => self.model.fading_with_d(quanta_ago, a.d_for(idx)),
                    None => fade,
                };
                *gt += f * gtd;
                *gm += f * gmd;
            }
        }
        // `δT = 0` fades by exactly `e^0 = 1`, so `1·gtd` is `gtd`.
        for map in active {
            for (&idx, &(gtd, gmd)) in *map {
                if let Some((gt, gm)) = sums.get_mut(idx.index()) {
                    *gt += gtd;
                    *gm += gmd;
                }
            }
        }
        let mut all: Vec<(IndexId, IndexGains)> = Vec::with_capacity(catalog.len());
        for (idx, &(gt, gm)) in catalog.ids().zip(&sums) {
            let gains = self.model.finish(
                gt,
                gm,
                catalog.remaining_build_time(idx).quanta(self.model.quantum),
                catalog.total_bytes(idx),
            );
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

    /// A 12-index catalog with three partly built indexes, and 60
    /// random history entries whose ids reach 13, past the catalog.
    fn oracle_fixture(t: &mut OnlineTuner) -> IndexCatalog {
        let mut cat = small_catalog(12);
        cat.mark_built(IndexId(3), 0, SimTime::ZERO, 0);
        cat.mark_built(IndexId(5), 1, SimTime::ZERO, 0);
        cat.mark_built(IndexId(9), 0, SimTime::ZERO, 0);
        let mut rng = flowtune_common::SimRng::seed_from_u64(5);
        for k in 0..60u32 {
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
        cat
    }

    /// Asserts that `decide` and the per-index `gains_of` agree to the
    /// bit on every gain, the ranking and the deletions at several
    /// times; returns how many beneficial indexes were ranked in all.
    fn assert_decide_matches_gains_of(
        t: &OnlineTuner,
        cat: &IndexCatalog,
        active: &[&BTreeMap<IndexId, (f64, f64)>],
    ) -> usize {
        let bits = |gains: &[(IndexId, IndexGains)]| -> Vec<(IndexId, [u64; 3])> {
            gains
                .iter()
                .map(|(i, g)| (*i, [g.gt.to_bits(), g.gm.to_bits(), g.g.to_bits()]))
                .collect()
        };
        let mut beneficial_seen = 0;
        for secs in [0, 300, 700, 1200, 2000] {
            let now = SimTime::from_secs(secs);
            let decision = t.decide(now, cat, active);
            let per_index: Vec<(IndexId, IndexGains)> = cat
                .ids()
                .map(|idx| {
                    let extras: Vec<(f64, f64)> =
                        active.iter().filter_map(|m| m.get(&idx).copied()).collect();
                    (idx, t.gains_of(idx, now, cat, &extras))
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
        beneficial_seen
    }

    #[test]
    fn decide_matches_per_index_gains_bit_for_bit() {
        // `decide` sums every index's faded gains in one walk of the
        // window; `gains_of` walks it per index. Same additions in the
        // same order, so every gain must agree to the bit, and so must
        // ranking and deletions.
        let mut t = tuner();
        let cat = oracle_fixture(&mut t);
        let queued = BTreeMap::from([(IndexId(1), (2.0, 3.0)), (IndexId(7), (0.5, 0.25))]);
        let on_lane = BTreeMap::from([(IndexId(7), (1.5, 1.0)), (IndexId(3), (0.1, 0.2))]);
        let seen = assert_decide_matches_gains_of(&t, &cat, &[&queued, &on_lane]);
        assert!(seen > 5, "the fixture must rank something");
    }

    #[test]
    fn decide_matches_per_index_gains_under_adaptive_fading() {
        // Per-index `D`: index `i` is reused every `i + 1` quanta, and
        // every fourth index is never reused, so it keeps the default.
        let mut t = OnlineTuner::with_adaptive_fading(tuner().model);
        let cat = oracle_fixture(&mut t);
        for k in 0..6u64 {
            for i in (0..12u32).filter(|i| i % 4 != 0) {
                t.observe_uses(
                    &[IndexId(i)],
                    SimTime::from_secs(60 * k * (u64::from(i) + 1)),
                );
            }
        }
        let ds: std::collections::BTreeSet<u64> = cat
            .ids()
            .filter_map(|i| t.adaptive.as_ref().map(|a| a.d_for(i).to_bits()))
            .collect();
        assert!(ds.len() >= 4, "fading controllers must differ: {ds:?}");
        // Three overlapping active maps, one holding an id past the
        // catalog.
        let queued = BTreeMap::from([(IndexId(1), (2.0, 3.0)), (IndexId(7), (0.5, 0.25))]);
        let lane_a = BTreeMap::from([(IndexId(7), (1.5, 1.0)), (IndexId(3), (0.1, 0.2))]);
        let lane_b = BTreeMap::from([
            (IndexId(1), (0.75, -0.5)),
            (IndexId(3), (2.5, 1.25)),
            (IndexId(13), (9.0, 9.0)),
        ]);
        let seen = assert_decide_matches_gains_of(&t, &cat, &[&queued, &lane_a, &lane_b]);
        assert!(seen > 5, "the fixture must rank something");
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
