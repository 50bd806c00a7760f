//! The historical dataflow list `Hd`.

use std::collections::BTreeMap;

use flowtune_common::{DataflowId, IndexId, Quanta, SimDuration, SimTime};

#[cfg(test)]
use crate::gain::GainContribution;

/// One executed dataflow with its per-index gains.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The dataflow.
    pub dataflow: DataflowId,
    /// When it finished executing.
    pub finished_at: SimTime,
    /// `idx -> (gtd, gmd)` in quanta, for every index the dataflow uses.
    pub index_gains: BTreeMap<IndexId, (f64, f64)>,
}

/// The list of historical dataflows.
#[derive(Debug, Clone, Default)]
pub struct History {
    entries: Vec<HistoryEntry>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a finished dataflow. Entries may arrive slightly out of
    /// time order (concurrently executing dataflows finish in any
    /// order); the list is kept sorted by finish time.
    pub fn record(&mut self, entry: HistoryEntry) {
        let pos = self
            .entries
            .partition_point(|e| e.finished_at <= entry.finished_at);
        self.entries.insert(pos, entry);
    }

    /// Number of recorded dataflows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has executed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    /// Contributions of `idx` from dataflows inside the window
    /// `[t − W, t]` (δ of Eq. 4/5), as gain-model inputs, newest first:
    /// the per-index oracle of [`History::windowed`].
    #[cfg(test)]
    pub fn contributions(
        &self,
        idx: IndexId,
        now: SimTime,
        window: SimDuration,
        quantum: SimDuration,
    ) -> Vec<GainContribution> {
        self.windowed(now, window, quantum)
            .filter_map(|(quanta_ago, gains)| {
                gains.get(&idx).map(|&(gtd, gmd)| GainContribution {
                    quanta_ago,
                    gtd,
                    gmd,
                })
            })
            .collect()
    }

    /// The dataflows inside the window `[t − W, t]`, newest first, each
    /// as its age `ΔT` in quanta and its per-index gains: one walk
    /// serves every index, and an index's gains appear in the order the
    /// test-only per-index `contributions` yields them.
    pub fn windowed(
        &self,
        now: SimTime,
        window: SimDuration,
        quantum: SimDuration,
    ) -> impl Iterator<Item = (Quanta, &BTreeMap<IndexId, (f64, f64)>)> {
        self.window(now, window).map(move |e| {
            (
                now.saturating_since(e.finished_at).quanta(quantum),
                &e.index_gains,
            )
        })
    }

    /// Entries inside `[now − window, now]`, newest first.
    fn window(&self, now: SimTime, window: SimDuration) -> impl Iterator<Item = &HistoryEntry> {
        let cutoff = if window.as_millis() >= now.as_millis() {
            SimTime::ZERO
        } else {
            now - window
        };
        self.entries
            .iter()
            .rev()
            .take_while(move |e| e.finished_at >= cutoff)
            .filter(move |e| e.finished_at <= now)
    }

    /// Drop entries older than `t − keep` (memory bound for long runs).
    pub fn prune(&mut self, now: SimTime, keep: SimDuration) {
        let cutoff = if keep.as_millis() >= now.as_millis() {
            SimTime::ZERO
        } else {
            now - keep
        };
        self.entries.retain(|e| e.finished_at >= cutoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: SimDuration = SimDuration::from_secs(60);

    fn entry(df: u32, finished_secs: u64, gains: &[(u32, f64, f64)]) -> HistoryEntry {
        HistoryEntry {
            dataflow: DataflowId(df),
            finished_at: SimTime::from_secs(finished_secs),
            index_gains: gains
                .iter()
                .map(|&(i, gt, gm)| (IndexId(i), (gt, gm)))
                .collect(),
        }
    }

    #[test]
    fn window_filters_old_entries() {
        let mut h = History::new();
        h.record(entry(0, 60, &[(1, 1.0, 2.0)]));
        h.record(entry(1, 300, &[(1, 3.0, 4.0)]));
        h.record(entry(2, 500, &[(2, 9.0, 9.0)]));
        // Window of 5 quanta (300 s) at t = 540 s covers [240, 540].
        let c = h.contributions(IndexId(1), SimTime::from_secs(540), Q * 5, Q);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].gtd, 3.0);
        assert!((c[0].quanta_ago.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn indexes_not_used_by_a_dataflow_contribute_nothing() {
        let mut h = History::new();
        h.record(entry(0, 60, &[(1, 1.0, 2.0)]));
        assert!(h
            .contributions(IndexId(9), SimTime::from_secs(100), Q * 10, Q)
            .is_empty());
    }

    #[test]
    fn window_larger_than_elapsed_time_covers_everything() {
        let mut h = History::new();
        h.record(entry(0, 10, &[(1, 1.0, 1.0)]));
        h.record(entry(1, 20, &[(1, 2.0, 2.0)]));
        let c = h.contributions(IndexId(1), SimTime::from_secs(30), Q * 1000, Q);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn windowed_entries_match_per_index_contributions() {
        // `contributions`, a filter over `windowed`, against a filter
        // over every entry.
        let mut h = History::new();
        h.record(entry(0, 60, &[(1, 1.0, 2.0), (4, 0.5, 0.25)]));
        h.record(entry(1, 300, &[(1, 3.0, 4.0)]));
        h.record(entry(2, 450, &[(2, 9.0, 9.0), (4, 7.0, 1.0)]));
        h.record(entry(3, 500, &[(1, 5.0, 6.0), (4, 2.0, 3.0)]));
        h.record(entry(4, 900, &[(3, 8.0, 8.0)]));
        for (now, window) in [(540, Q * 5), (540, Q * 1000), (0, Q * 5), (2000, Q)] {
            let now = SimTime::from_secs(now);
            for i in 0..6u32 {
                let want: Vec<GainContribution> = h
                    .entries()
                    .iter()
                    .rev()
                    .filter(|e| {
                        e.finished_at <= now && now.saturating_since(e.finished_at) <= window
                    })
                    .filter_map(|e| {
                        e.index_gains
                            .get(&IndexId(i))
                            .map(|&(gtd, gmd)| GainContribution {
                                quanta_ago: now.saturating_since(e.finished_at).quanta(Q),
                                gtd,
                                gmd,
                            })
                    })
                    .collect();
                assert_eq!(
                    h.contributions(IndexId(i), now, window, Q),
                    want,
                    "index {i} at {now}"
                );
            }
        }
    }

    #[test]
    fn out_of_order_recording_keeps_entries_sorted() {
        let mut h = History::new();
        h.record(entry(0, 100, &[(1, 1.0, 1.0)]));
        h.record(entry(1, 50, &[(1, 2.0, 2.0)]));
        h.record(entry(2, 75, &[(1, 3.0, 3.0)]));
        let times: Vec<_> = h.entries().iter().map(|e| e.finished_at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn prune_bounds_memory() {
        let mut h = History::new();
        for i in 0..100u32 {
            h.record(entry(i, (i as u64 + 1) * 10, &[(1, 1.0, 1.0)]));
        }
        h.prune(SimTime::from_secs(1000), SimDuration::from_secs(200));
        assert!(h.len() <= 21);
        assert!(h
            .entries()
            .iter()
            .all(|e| e.finished_at >= SimTime::from_secs(800)));
    }
}
