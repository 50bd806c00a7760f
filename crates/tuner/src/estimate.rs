//! Per-dataflow index gain estimation: `gtd(idx, d)` and `gmd(idx, d)`.
//!
//! The time gain of an index on a dataflow is the operator work it
//! saves: every operator reading partitions of the indexed file runs its
//! per-partition share at `1/speedup`. The money gain is the same saved
//! compute minus the cost of reading the index from the storage service
//! ("equivalent to the time to read the index, as both are measured in
//! quanta", §4).

use std::collections::BTreeMap;

use flowtune_common::{CloudConfig, IndexId};
use flowtune_dataflow::Dataflow;
use flowtune_index::IndexCatalog;

/// Estimate `(gtd, gmd)` in quanta for every index the dataflow uses.
pub fn dataflow_index_gains(
    df: &Dataflow,
    catalog: &IndexCatalog,
    cloud: &CloudConfig,
) -> BTreeMap<IndexId, (f64, f64)> {
    let quantum_secs = cloud.quantum.as_secs_f64();
    let mut gains: BTreeMap<IndexId, (f64, f64)> = BTreeMap::new();
    for u in &df.index_uses {
        // Work saved across operators reading the indexed file.
        let mut saved_secs = 0.0;
        for op in df.dag.ops() {
            if op.reads.is_empty() {
                continue;
            }
            let share =
                op.reads.iter().filter(|p| p.file == u.file).count() as f64 / op.reads.len() as f64;
            if share > 0.0 {
                saved_secs += op.runtime.as_secs_f64() * share * (1.0 - 1.0 / u.speedup);
            }
        }
        let gtd = saved_secs / quantum_secs;
        // Cost of reading the index from storage, in quanta.
        let read_secs = catalog.total_bytes(u.index) as f64 / cloud.network_bandwidth;
        let gmd = gtd - read_secs / quantum_secs;
        gains.insert(u.index, (gtd, gmd));
    }
    gains
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::{DataflowId, SimRng, SimTime};
    use flowtune_dataflow::{App, DataflowFactory, FileDatabase};
    use flowtune_index::{IndexCostModel, IndexSpec};

    fn setup() -> (Dataflow, IndexCatalog, CloudConfig) {
        let mut rng = SimRng::seed_from_u64(21);
        let db = FileDatabase::generate(&mut rng);
        let mut catalog = IndexCatalog::new();
        for pi in db.potential_indexes() {
            let rows: Vec<u64> = db.file(pi.file).partitions.iter().map(|p| p.rows).collect();
            catalog.add(IndexSpec::single_column(
                pi.id,
                pi.file,
                pi.column,
                IndexCostModel::new(pi.rec_bytes(), flowtune_dataflow::filedb::ROW_BYTES),
                rows,
            ));
        }
        let mut factory = DataflowFactory::new(db, 100, rng);
        let df = factory.make(DataflowId(0), App::Montage, SimTime::ZERO);
        (df, catalog, CloudConfig::default())
    }

    #[test]
    fn every_used_index_gets_a_gain() {
        let (df, catalog, cloud) = setup();
        let gains = dataflow_index_gains(&df, &catalog, &cloud);
        assert_eq!(gains.len(), df.index_uses.len());
    }

    #[test]
    fn time_gain_is_positive_and_bounded_by_total_work() {
        let (df, catalog, cloud) = setup();
        let gains = dataflow_index_gains(&df, &catalog, &cloud);
        let total_work_quanta = df.dag.total_work().as_quanta(cloud.quantum);
        for (idx, (gtd, gmd)) in &gains {
            assert!(*gtd > 0.0, "{idx}: gtd {gtd}");
            assert!(*gtd < total_work_quanta, "{idx}: gtd {gtd}");
            assert!(gmd <= gtd, "{idx}: money gain includes read cost");
        }
    }

    #[test]
    fn higher_speedup_means_higher_gain() {
        let (df, catalog, cloud) = setup();
        let gains = dataflow_index_gains(&df, &catalog, &cloud);
        // Compare two uses of different speedups over files with similar
        // partition counts; the trend holds on aggregate.
        let mut by_speedup: Vec<(f64, f64)> = df
            .index_uses
            .iter()
            .map(|u| (u.speedup, gains[&u.index].0))
            .collect();
        by_speedup.sort_by(|a, b| a.0.total_cmp(&b.0));
        let lows: Vec<f64> = by_speedup
            .iter()
            .filter(|(s, _)| *s < 100.0)
            .map(|(_, g)| *g)
            .collect();
        let highs: Vec<f64> = by_speedup
            .iter()
            .filter(|(s, _)| *s > 300.0)
            .map(|(_, g)| *g)
            .collect();
        if !lows.is_empty() && !highs.is_empty() {
            let lo = lows.iter().sum::<f64>() / lows.len() as f64;
            let hi = highs.iter().sum::<f64>() / highs.len() as f64;
            assert!(hi >= lo * 0.5, "speedup trend wildly off: lo {lo}, hi {hi}");
        }
    }
}
