//! Synthetic TPC-H `lineitem`: its column statistics and its `orderkey`
//! column.
//!
//! The paper sizes its indexes and measures index speedups on TPC-H
//! `lineitem` at scale factor 2 (≈12 M rows, 1.4 GB). We cannot ship
//! TPC-H data, and Tables 5–6 need only two things from it: the schema's
//! per-column average sizes (so the Table 5 index-size percentages
//! reproduce) and the duplicate-heavy `orderkey` column (~4 line items
//! per order, like TPC-H) that Table 6 indexes and queries.
//!
//! Row count is a parameter: the speedups are measured on a few million
//! rows and the analytic size model extrapolates to the full scale.

use crate::schema::{Column, ColumnType, Schema};
use flowtune_common::SimRng;

/// Rows in TPC-H `lineitem` at scale factor 2, the configuration the
/// paper uses.
pub const SF2_ROWS: u64 = 11_997_996;

/// Average line items per order, as in TPC-H.
const LINES_PER_ORDER: u64 = 4;

/// The `lineitem` schema with per-column average-size statistics
/// matching TPC-H flat files (~117 bytes/row, 1.4 GB at SF 2).
pub fn schema() -> Schema {
    Schema::new(vec![
        Column::new("orderkey", ColumnType::Int32),
        Column::new("partkey", ColumnType::Int32),
        Column::new("suppkey", ColumnType::Int32),
        Column::new("linenumber", ColumnType::Int32),
        Column::new("quantity", ColumnType::Float64),
        Column::new("extendedprice", ColumnType::Float64),
        Column::new("discount", ColumnType::Float64),
        Column::new("tax", ColumnType::Float64),
        Column::new("returnflag", ColumnType::Char { width: 1, avg: 1.0 }),
        Column::new("linestatus", ColumnType::Char { width: 1, avg: 1.0 }),
        Column::new("shipdate", ColumnType::Date),
        Column::new("commitdate", ColumnType::Date),
        Column::new("receiptdate", ColumnType::Date),
        Column::new(
            "shipinstruct",
            ColumnType::Char {
                width: 25,
                avg: 12.0,
            },
        ),
        Column::new(
            "shipmode",
            ColumnType::Char {
                width: 10,
                avg: 4.3,
            },
        ),
        Column::new("comment", ColumnType::Text { avg: 27.0 }),
    ])
}

/// `rows` `orderkey` values: consecutive order numbers each repeated for
/// a random group of line items (1 ..= 7, mean 4), then shuffled so
/// physical order carries no information.
///
/// The values come from the first stream forked off a `SimRng` seeded
/// with `seed`, the stream of schema column 0 when the generator made
/// every column: each seed keeps its column (pinned by checksum below).
pub fn orderkeys(rows: usize, seed: u64) -> Vec<i64> {
    let mut rng = SimRng::seed_from_u64(seed).fork();
    let max_group = 2 * LINES_PER_ORDER - 1;
    let mut keys = Vec::with_capacity(rows);
    let mut order = 1i64;
    while keys.len() < rows {
        let group = rng.uniform_u64(1, max_group + 1) as usize;
        for _ in 0..group.min(rows - keys.len()) {
            keys.push(order);
        }
        order += 1;
    }
    rng.shuffle(&mut keys);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::checksum64;

    #[test]
    fn schema_row_size_matches_tpch() {
        let row = schema().avg_row_bytes();
        // TPC-H lineitem flat-file rows average ~117 bytes (1.4 GB / 12 M).
        assert!((110.0..130.0).contains(&row), "row bytes {row}");
    }

    #[test]
    fn generates_requested_rows() {
        for rows in [0, 1, 7, 1000] {
            assert_eq!(orderkeys(rows, 0x71C4).len(), rows);
        }
    }

    #[test]
    fn orderkey_duplication_matches_lines_per_order() {
        let keys = orderkeys(40_000, 0x71C4);
        let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
        let avg_group = keys.len() as f64 / distinct.len() as f64;
        assert!((3.0..5.0).contains(&avg_group), "avg group {avg_group}");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        assert_eq!(orderkeys(100, 9), orderkeys(100, 9));
        assert_ne!(orderkeys(100, 9), orderkeys(100, 10));
    }

    /// Each `(rows, seed)` column's checksum, taken from the 16-column
    /// generator's `orderkey` column before it was cut down to this one
    /// function: the Table 6 runs (seeds 2, 6, 66) and the unit tests'
    /// tables index exactly the data they always did.
    #[test]
    fn orderkeys_match_the_sixteen_column_generator() {
        let pinned: [(usize, u64, u64); 9] = [
            (200_000, 2, 0x54dd_06a5_ba34_56e2),
            (2_000_000, 6, 0xecad_ac68_f123_db78),
            (400_000, 66, 0x4bc4_a615_0169_643c),
            (20_000, 1, 0xc677_42fc_c2d9_373b),
            (100, 9, 0xb4fb_6b65_0007_d790),
            (500, 0x71C4, 0xa35f_38c7_5591_cf1e),
            (1000, 0x71C4, 0xf138_2d99_f0c6_7740),
            (2000, 0x71C4, 0x53b1_0582_a4c2_8f6a),
            (40_000, 0x71C4, 0x9ea0_8bd9_70b0_73ca),
        ];
        for (rows, seed, want) in pinned {
            let bytes: Vec<u8> = orderkeys(rows, seed)
                .iter()
                .flat_map(|k| k.to_le_bytes())
                .collect();
            assert_eq!(checksum64(&bytes), want, "rows {rows}, seed {seed}");
        }
    }
}
