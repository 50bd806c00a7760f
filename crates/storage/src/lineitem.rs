//! Synthetic TPC-H `lineitem` generator.
//!
//! The paper sizes its indexes and measures index speedups on TPC-H
//! `lineitem` at scale factor 2 (≈12 M rows, 1.4 GB). We cannot ship TPC-H
//! data, so this module generates a statistically equivalent table: the
//! same 16 columns, the same per-column average sizes (so the Table 5
//! index-size percentages reproduce), duplicate-heavy `orderkey` values
//! (~4 line items per order, like TPC-H) and categorical
//! `shipinstruct`/`shipmode` domains.
//!
//! Row count is a parameter: benches measure speedups on a few million
//! rows and the analytic size model extrapolates to the full scale.

use crate::column::ColumnData;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::PartitionData;
use flowtune_common::SimRng;

/// Rows in TPC-H `lineitem` at scale factor 2, the configuration the
/// paper uses.
pub const SF2_ROWS: u64 = 11_997_996;

/// The four values TPC-H uses for `l_shipinstruct`.
pub const SHIP_INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// The seven values TPC-H uses for `l_shipmode`.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct LineitemParams {
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Average line items per order (TPC-H: 4); controls `orderkey`
    /// duplication.
    pub lines_per_order: u32,
}

impl Default for LineitemParams {
    fn default() -> Self {
        LineitemParams {
            rows: 100_000,
            seed: 0x71C4,
            lines_per_order: 4,
        }
    }
}

/// Synthetic `lineitem` generator.
#[derive(Debug)]
pub struct LineitemGenerator {
    params: LineitemParams,
}

impl LineitemGenerator {
    /// Create a generator.
    pub fn new(params: LineitemParams) -> Self {
        assert!(params.rows > 0, "row count must be positive");
        assert!(
            params.lines_per_order > 0,
            "lines per order must be positive"
        );
        LineitemGenerator { params }
    }

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

    /// Generate only the named columns (in the given order). Generating a
    /// subset keeps the speedup benches lean — the Table 6 queries touch
    /// only `orderkey`.
    ///
    /// All columns are derived from independent forked RNG streams, so the
    /// values of a column do not depend on which other columns are
    /// requested.
    pub fn generate_columns(&self, names: &[&str]) -> PartitionData {
        let mut root = SimRng::seed_from_u64(self.params.seed);
        // Fork one stream per schema column, in schema order, so column
        // content is independent of the requested subset.
        let schema = Self::schema();
        let mut streams: Vec<SimRng> = (0..schema.len()).map(|_| root.fork()).collect();
        let columns = names
            .iter()
            .map(|name| {
                #[expect(
                    clippy::panic,
                    reason = "documented contract: callers request schema column names"
                )]
                let idx = schema
                    .index_of(name)
                    .unwrap_or_else(|| panic!("unknown lineitem column {name:?}"));
                self.generate_column(name, &mut streams[idx])
            })
            .collect();
        PartitionData::new(columns)
    }

    fn generate_column(&self, name: &str, rng: &mut SimRng) -> ColumnData {
        let n = self.params.rows;
        match name {
            "orderkey" => ColumnData::I64(self.orderkeys(rng)),
            "partkey" => {
                ColumnData::I32((0..n).map(|_| rng.uniform_i64(1, 200_001) as i32).collect())
            }
            "suppkey" => {
                ColumnData::I32((0..n).map(|_| rng.uniform_i64(1, 10_001) as i32).collect())
            }
            "linenumber" => ColumnData::I32((0..n).map(|i| (i % 7 + 1) as i32).collect()),
            "quantity" => ColumnData::F64((0..n).map(|_| rng.uniform_i64(1, 51) as f64).collect()),
            "extendedprice" => ColumnData::F64(
                (0..n)
                    .map(|_| rng.uniform_range(900.0, 105_000.0))
                    .collect(),
            ),
            "discount" => ColumnData::F64(
                (0..n)
                    .map(|_| rng.uniform_i64(0, 11) as f64 / 100.0)
                    .collect(),
            ),
            "tax" => ColumnData::F64(
                (0..n)
                    .map(|_| rng.uniform_i64(0, 9) as f64 / 100.0)
                    .collect(),
            ),
            "returnflag" => ColumnData::Str(
                (0..n)
                    .map(|_| (*rng.choose(&["R", "A", "N"])).to_owned())
                    .collect(),
            ),
            "linestatus" => ColumnData::Str(
                (0..n)
                    .map(|_| (*rng.choose(&["O", "F"])).to_owned())
                    .collect(),
            ),
            // TPC-H dates span 1992-01-01 .. 1998-12-31 (days since epoch
            // 8035 .. 10592).
            "shipdate" | "commitdate" | "receiptdate" => ColumnData::Date(
                (0..n)
                    .map(|_| rng.uniform_i64(8035, 10593) as i32)
                    .collect(),
            ),
            "shipinstruct" => ColumnData::Str(
                (0..n)
                    .map(|_| (*rng.choose(&SHIP_INSTRUCTIONS)).to_owned())
                    .collect(),
            ),
            "shipmode" => ColumnData::Str(
                (0..n)
                    .map(|_| (*rng.choose(&SHIP_MODES)).to_owned())
                    .collect(),
            ),
            "comment" => ColumnData::Str((0..n).map(|_| comment_text(rng)).collect()),
            #[expect(
                clippy::panic,
                reason = "documented contract: generate_column takes schema column names"
            )]
            other => panic!("unknown lineitem column {other:?}"),
        }
    }

    /// `orderkey` values: consecutive order numbers each repeated for a
    /// random group of line items (1 ..= 2·avg-1, mean = avg), then
    /// shuffled so physical order carries no information.
    fn orderkeys(&self, rng: &mut SimRng) -> Vec<i64> {
        let n = self.params.rows;
        let max_group = (2 * self.params.lines_per_order - 1).max(1) as u64;
        let mut keys = Vec::with_capacity(n);
        let mut order = 1i64;
        while keys.len() < n {
            let group = rng.uniform_u64(1, max_group + 1) as usize;
            for _ in 0..group.min(n - keys.len()) {
                keys.push(order);
            }
            order += 1;
        }
        rng.shuffle(&mut keys);
        keys
    }
}

fn comment_text(rng: &mut SimRng) -> String {
    // Word salad with mean length ~27 bytes, like l_comment.
    const WORDS: [&str; 16] = [
        "carefully",
        "quickly",
        "furiously",
        "deposits",
        "requests",
        "accounts",
        "packages",
        "ideas",
        "theodolites",
        "pinto",
        "beans",
        "foxes",
        "sleep",
        "haggle",
        "bold",
        "final",
    ];
    let target = rng.uniform_u64(10, 45) as usize;
    let mut s = String::with_capacity(target + 12);
    while s.len() < target {
        if !s.is_empty() {
            s.push(' ');
        }
        let word: &&str = rng.choose(&WORDS[..]);
        s.push_str(word);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::OnlineStats;

    #[test]
    fn schema_row_size_matches_tpch() {
        let row = LineitemGenerator::schema().avg_row_bytes();
        // TPC-H lineitem flat-file rows average ~117 bytes (1.4 GB / 12 M).
        assert!((110.0..130.0).contains(&row), "row bytes {row}");
    }

    #[test]
    fn generates_requested_rows() {
        let g = LineitemGenerator::new(LineitemParams {
            rows: 1000,
            ..Default::default()
        });
        let data = g.generate_columns(&["orderkey", "commitdate"]);
        assert_eq!(data.rows(), 1000);
        // Exactly the two requested columns.
        let requested = vec![data.column(0).clone(), data.column(1).clone()];
        assert_eq!(data, PartitionData::new(requested));
    }

    #[test]
    fn orderkey_duplication_matches_lines_per_order() {
        let g = LineitemGenerator::new(LineitemParams {
            rows: 40_000,
            ..Default::default()
        });
        let data = g.generate_columns(&["orderkey"]);
        let keys = data.column(0).as_i64().unwrap();
        let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
        let avg_group = keys.len() as f64 / distinct.len() as f64;
        assert!((3.0..5.0).contains(&avg_group), "avg group {avg_group}");
    }

    #[test]
    fn column_content_is_independent_of_subset() {
        let p = LineitemParams {
            rows: 500,
            ..Default::default()
        };
        let a = LineitemGenerator::new(p.clone()).generate_columns(&["commitdate"]);
        let b = LineitemGenerator::new(p).generate_columns(&["orderkey", "commitdate"]);
        assert_eq!(a.column(0), b.column(1));
    }

    #[test]
    fn comments_have_tpch_like_lengths() {
        let g = LineitemGenerator::new(LineitemParams {
            rows: 2000,
            ..Default::default()
        });
        let data = g.generate_columns(&["comment"]);
        let stats = OnlineStats::from_iter(
            data.column(0)
                .as_str()
                .unwrap()
                .iter()
                .map(|s| s.len() as f64),
        );
        assert!(
            (20.0..35.0).contains(&stats.mean()),
            "mean comment {}",
            stats.mean()
        );
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let p = LineitemParams {
            rows: 100,
            seed: 9,
            lines_per_order: 4,
        };
        let a = LineitemGenerator::new(p.clone()).generate_columns(&["orderkey"]);
        let b = LineitemGenerator::new(p).generate_columns(&["orderkey"]);
        assert_eq!(a, b);
    }

    #[test]
    fn dates_in_tpch_range() {
        let g = LineitemGenerator::new(LineitemParams {
            rows: 1000,
            ..Default::default()
        });
        let data = g.generate_columns(&["shipdate"]);
        let ColumnData::Date(days) = data.column(0) else {
            panic!("shipdate is a date column");
        };
        for &d in days {
            assert!((8035..10593).contains(&d));
        }
    }
}
