//! Measured-I/O calibration for the index cost model.
//!
//! The analytic model in [`crate::model`] *asserts* how many bytes a
//! build writes (geometric series over tree levels) and says nothing
//! about probe reads. Since the B+Tree now really runs node-per-page
//! over a checksummed page store with an LRU buffer pool, we can
//! *measure* both instead: bulk-build a calibration tree, count the
//! page writes it issued, then replay a seeded probe workload twice —
//! once cold (cache dropped before every probe, so each probe pays its
//! full root-to-leaf store reads) and once warm (pool left alone, so
//! the hit rate reflects steady-state locality). The resulting
//! [`MeasuredIo`] goes into the cost model's `measured_io` (see
//! [`IndexCatalog::calibrate_io`](crate::IndexCatalog::calibrate_io))
//! and replaces the asserted write term in the gain model's build time.
//!
//! Everything here is deterministic: the key set is dense `0..rows`,
//! the probe sequence comes from a [`SimRng`] seed, and pool traffic
//! depends only on the access order.

use crate::bptree::BPlusTree;
use crate::model::MeasuredIo;
use flowtune_common::SimRng;
use flowtune_storage::PAGE_SIZE;

/// Node order of the calibration tree. Matches the order the query
/// layer uses for measured speedups, so the per-row page traffic is
/// representative.
pub const CALIBRATION_ORDER: usize = 64;

/// Build a `rows`-key calibration tree and measure its real page
/// traffic under `probes` seeded point lookups. See the module docs
/// for the cold/warm protocol.
pub fn measure_io(rows: u32, probes: u32, seed: u64) -> MeasuredIo {
    let rows = rows.max(1);
    let probes = probes.max(1);
    let pairs: Vec<(i64, u32)> = (0..rows).map(|i| (i64::from(i), i)).collect();
    let mut tree: BPlusTree<i64> = BPlusTree::bulk_build(CALIBRATION_ORDER, &pairs);

    let built = tree.pool_stats();
    let write_bytes_per_row = built.page_writes as f64 * PAGE_SIZE as f64 / f64::from(rows);

    // Cold probes: every probe starts from an empty pool and pays the
    // full root-to-leaf path in store reads.
    let mut rng = SimRng::seed_from_u64(seed);
    let before = tree.pool_stats();
    for _ in 0..probes {
        tree.drop_cache();
        let key = rng.uniform_i64(0, i64::from(rows) - 1);
        let _ = tree.get_first(&key);
    }
    let cold = tree.pool_stats();
    let read_bytes_per_probe =
        (cold.page_reads - before.page_reads) as f64 * PAGE_SIZE as f64 / f64::from(probes);

    // Warm probes: same seeded key sequence, pool left to fill — the
    // hit rate is what steady-state probing actually sees.
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..probes {
        let key = rng.uniform_i64(0, i64::from(rows) - 1);
        let _ = tree.get_first(&key);
    }
    let warm = tree.pool_stats();
    let hits = warm.hits - cold.hits;
    let loads = hits + (warm.misses - cold.misses);
    let probe_hit_rate = if loads == 0 {
        0.0
    } else {
        hits as f64 / loads as f64
    };

    MeasuredIo {
        write_bytes_per_row,
        read_bytes_per_probe,
        probe_hit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IndexCostModel;

    #[test]
    fn measurement_is_deterministic() {
        let a = measure_io(5_000, 200, 0xCA11);
        let b = measure_io(5_000, 200, 0xCA11);
        assert_eq!(a, b);
    }

    #[test]
    fn measured_figures_are_physical() {
        let io = measure_io(5_000, 200, 7);
        // A bulk build touches each leaf at least once, so per-row
        // write traffic is at least PAGE_SIZE / order and well under a
        // page per row (keys pack many-per-page).
        assert!(io.write_bytes_per_row > 0.0);
        assert!(
            io.write_bytes_per_row < PAGE_SIZE as f64,
            "write {} B/row",
            io.write_bytes_per_row
        );
        // Every cold probe reads at least the root page.
        assert!(io.read_bytes_per_probe >= PAGE_SIZE as f64);
        // The warm pool (4096 frames) holds this whole tree, so warm
        // probes should overwhelmingly hit.
        assert!(
            io.probe_hit_rate > 0.9,
            "warm hit rate {}",
            io.probe_hit_rate
        );
    }

    #[test]
    fn calibrated_model_uses_the_measurement() {
        let io = measure_io(2_000, 50, 3);
        let model = IndexCostModel {
            measured_io: Some(io),
            ..IndexCostModel::new(12.0, 117.0)
        };
        let rows = 100_000u64;
        let expect_write = rows as f64 * io.write_bytes_per_row;
        let expect = flowtune_common::SimDuration::from_secs_f64(
            (rows as f64 * model.table_rec_bytes + expect_write) / model.network_bandwidth,
        );
        assert_eq!(model.io_time(rows), expect);
    }
}
