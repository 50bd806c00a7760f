//! The Table 6 workload: four query classes over `lineitem.orderkey`,
//! each with a no-index and an indexed path.
//!
//! The paper runs four SQL queries over `lineitem.orderkey` with and
//! without a B+Tree index:
//!
//! | Query               | No-Index | Index    | Speedup |
//! |---------------------|----------|----------|---------|
//! | Order by            | 44.730 s | 6.010 s  | 7.44×   |
//! | Select range (large)| 5.103 s  | 0.054 s  | 94.44×  |
//! | Select range (small)| 4.921 s  | 0.016 s  | 307.50× |
//! | Lookup              | 4.393 s  | 0.007 s  | 627.14× |
//!
//! This module builds the same workload over the synthetic `lineitem`
//! and runs each path as a plain call; it reads no clock. The
//! `table6_speedups` experiment in `flowtune-bench` times the calls.

use flowtune_index::BPlusTree;
use flowtune_storage::{LineitemGenerator, LineitemParams};

use crate::lookup::{btree_eq, btree_range, scan_eq, scan_range};
use crate::sort::{sort_index, sort_scan};

/// One of Table 6's query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table6Query {
    OrderBy,
    LargeRange,
    SmallRange,
    Lookup,
}

impl Table6Query {
    /// The four classes in the paper's row order.
    pub const ALL: [Table6Query; 4] = [
        Table6Query::OrderBy,
        Table6Query::LargeRange,
        Table6Query::SmallRange,
        Table6Query::Lookup,
    ];

    /// The class name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Table6Query::OrderBy => "Order by",
            Table6Query::LargeRange => "Select range (large)",
            Table6Query::SmallRange => "Select range (small)",
            Table6Query::Lookup => "Lookup",
        }
    }
}

/// The generated `orderkey` column, its bulk-built B+Tree and the
/// query parameters.
///
/// Selectivities mirror the paper at SF 2 (12 M rows, orderkeys to
/// ~3 M): the large range covers 1/12 of the key domain, the small range
/// 1/1200, the lookup a single key.
#[derive(Debug)]
pub struct Table6Workload {
    pub orderkey: Vec<i64>,
    pub index: BPlusTree,
    large: (i64, i64),
    small: (i64, i64),
    probe: i64,
}

impl Table6Workload {
    /// Generate a `lineitem` of `rows` rows (at least one) and index its
    /// `orderkey` column.
    pub fn generate(rows: usize, seed: u64) -> Self {
        let gen = LineitemGenerator::new(LineitemParams {
            rows,
            seed,
            lines_per_order: 4,
        });
        let data = gen.generate_columns(&["orderkey"]);
        #[expect(
            clippy::expect_used,
            reason = "the lineitem schema types orderkey as i64"
        )]
        let orderkey = data.column(0).as_i64().expect("orderkey is i64").to_vec();

        let mut pairs: Vec<(i64, u32)> = orderkey
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        pairs.sort_unstable();
        // Pack nodes to the 4 KiB page: an i64 leaf holds 6 + 12·order
        // payload bytes, so order 256 fills the page instead of leaving it
        // ~80% empty at the default order — fewer page loads per scan.
        let index = BPlusTree::bulk_build(256, &pairs);

        #[expect(
            clippy::expect_used,
            reason = "rows >= 1 is the documented contract of Table6Workload::generate"
        )]
        let max_key = *orderkey.iter().max().expect("non-empty table");
        let small_width = (max_key / 1200).max(1);
        Table6Workload {
            orderkey,
            index,
            large: (max_key / 12, max_key / 6),
            small: (max_key / 120, max_key / 120 + small_width),
            probe: max_key / 12,
        }
    }

    /// Run `query` without the index: a full scan (or argsort).
    pub fn no_index(&self, query: Table6Query) -> Vec<u32> {
        let col = &self.orderkey;
        match query {
            Table6Query::OrderBy => sort_scan(col),
            Table6Query::LargeRange => scan_range(col, self.large.0, self.large.1),
            Table6Query::SmallRange => scan_range(col, self.small.0, self.small.1),
            Table6Query::Lookup => scan_eq(col, self.probe),
        }
    }

    /// Run `query` through the B+Tree.
    pub fn with_index(&self, query: Table6Query) -> Vec<u32> {
        let index = &self.index;
        match query {
            Table6Query::OrderBy => sort_index(index),
            Table6Query::LargeRange => btree_range(index, self.large.0, self.large.1),
            Table6Query::SmallRange => btree_range(index, self.small.0, self.small.1),
            Table6Query::Lookup => btree_eq(index, self.probe),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_complete_and_labelled() {
        let w = Table6Workload::generate(20_000, 1);
        assert_eq!(Table6Query::ALL[0].name(), "Order by");
        assert_eq!(Table6Query::ALL[3].name(), "Lookup");
        // Both paths of every class return the same rows.
        for q in Table6Query::ALL {
            let mut scan = w.no_index(q);
            let mut probe = w.with_index(q);
            assert!(!scan.is_empty(), "{}", q.name());
            scan.sort_unstable();
            probe.sort_unstable();
            assert_eq!(scan, probe, "{}", q.name());
        }
        assert_eq!(w.no_index(Table6Query::OrderBy).len(), 20_000);
    }
}
