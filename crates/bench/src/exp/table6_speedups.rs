//! Table 6: measured index speedups on `lineitem.orderkey`.
//!
//! Runs the paper's four query classes over the synthetic
//! `lineitem.orderkey` with and without a B+Tree index — real executions
//! on real data structures, not model numbers — both paths of each timed
//! by the interleaved calibrated loop of
//! [`crate::compare::measure_paired`]. Absolute times differ from the
//! paper's DBMS/hardware; the ordering and magnitudes reproduce.
//!
//! | Query class          | No-index path            | Indexed path              |
//! |----------------------|--------------------------|---------------------------|
//! | Order by             | stable argsort           | B+Tree in-order traversal |
//! | Select range (large, small) | full scan with predicate | B+Tree range scan  |
//! | Lookup               | full scan                | B+Tree probe              |
//!
//! The table has 2 M rows (the paper uses ~12 M); smoke shrinks it to
//! 200 k. The run fails when the selectivity ordering that
//! EXPERIMENTS.md records as reproduced (lookup > small range > large
//! range > 1) does not hold.

use flowtune_core::tablefmt::render_table;
use flowtune_index::BPlusTree;
use flowtune_storage::lineitem;

use super::*;
use crate::compare::{format_ns, measure_paired, Comparison};

/// Paper's Table 6: (query, no-index s, index s, speedup).
const PAPER: [(&str, f64, f64, f64); 4] = [
    ("Order by", 44.730, 6.010, 7.44),
    ("Select range (large)", 5.103, 0.054, 94.44),
    ("Select range (small)", 4.921, 0.016, 307.50),
    ("Lookup", 4.393, 0.007, 627.14),
];

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
    pub(crate) orderkey: Vec<i64>,
    index: BPlusTree,
    pub(crate) large: (i64, i64),
    pub(crate) small: (i64, i64),
    pub(crate) probe: i64,
}

impl Table6Workload {
    /// Generate a `rows`-row `orderkey` column and index it.
    pub fn generate(rows: usize, seed: u64) -> Self {
        // Pack nodes to the 4 KiB page: an i64 leaf holds 6 + 12·order
        // payload bytes, so order 256 fills the page instead of leaving it
        // ~80% empty at the default order — fewer page loads per scan.
        Self::from_column(lineitem::orderkeys(rows, seed), 256)
    }

    /// Bulk-build an order-`order` B+Tree over `orderkey` and derive the
    /// query parameters from its largest key.
    pub(crate) fn from_column(orderkey: Vec<i64>, order: usize) -> Self {
        let mut pairs: Vec<(i64, u32)> = orderkey
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        pairs.sort_unstable();
        let index = BPlusTree::bulk_build(order, &pairs);
        let max_key = orderkey.iter().max().copied().unwrap_or(0);
        let small_width = (max_key / 1200).max(1);
        Table6Workload {
            orderkey,
            index,
            large: (max_key / 12, max_key / 6),
            small: (max_key / 120, max_key / 120 + small_width),
            probe: max_key / 12,
        }
    }

    /// Run `query` without the index: an O(n) full scan, or an
    /// O(n log n) stable argsort for order-by.
    pub fn no_index(&self, query: Table6Query) -> Vec<u32> {
        let col = &self.orderkey;
        let (large, small, probe) = (self.large, self.small, self.probe);
        match query {
            Table6Query::OrderBy => {
                let mut rows: Vec<u32> = (0..col.len() as u32).collect();
                rows.sort_by_key(|&r| col[r as usize]);
                rows
            }
            Table6Query::LargeRange => scan(col, |v| (large.0..=large.1).contains(&v)),
            Table6Query::SmallRange => scan(col, |v| (small.0..=small.1).contains(&v)),
            Table6Query::Lookup => scan(col, |v| v == probe),
        }
    }

    /// Run `query` through the B+Tree: an O(n) in-order traversal for
    /// order-by, O(log n) probes otherwise; rows come out in key order.
    pub fn with_index(&self, query: Table6Query) -> Vec<u32> {
        let index = &self.index;
        let range = |(lo, hi): (i64, i64)| index.range(lo, hi).map(|(_, r)| r).collect();
        match query {
            Table6Query::OrderBy => index.iter().map(|(_, r)| r).collect(),
            Table6Query::LargeRange => range(self.large),
            Table6Query::SmallRange => range(self.small),
            Table6Query::Lookup => index.get(self.probe).collect(),
        }
    }
}

/// Row ids whose value `keep` accepts, in row order.
fn scan(col: &[i64], keep: impl Fn(i64) -> bool) -> Vec<u32> {
    col.iter()
        .enumerate()
        .filter(|(_, v)| keep(**v))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Time both paths of every query class over a `rows`-row table: the
/// indexed path is the comparison's optimized side, the scan its
/// reference, each the median of three calibrated samples taken in
/// alternation with the other side's.
pub fn measure_speedups(rows: usize, seed: u64) -> Vec<Comparison> {
    let workload = Table6Workload::generate(rows, seed);
    Table6Query::ALL
        .into_iter()
        .map(|q| {
            measure_paired(
                q.name(),
                q.name(),
                q.name(),
                3,
                || workload.with_index(q),
                || workload.no_index(q),
            )
        })
        .collect()
}

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let rows_n = if smoke { 200_000 } else { 2_000_000 };
    writeln!(out, "table rows: {rows_n} (paper: ~12 M at SF 2)\n")?;
    let measured = measure_speedups(rows_n, if smoke { 2 } else { 6 });
    let mut rows = vec![vec![
        "query".to_string(),
        "no-index".to_string(),
        "index".to_string(),
        "speedup".to_string(),
        "paper speedup".to_string(),
    ]];
    for m in &measured {
        let paper = PAPER
            .iter()
            .find(|(q, ..)| *q == m.name)
            .ok_or_else(|| format!("query class {} missing from the paper table", m.name))?;
        rows.push(vec![
            m.name.clone(),
            format_ns(m.reference.median_ns),
            format_ns(m.optimized.median_ns),
            format!("{:.2}x", m.speedup()),
            format!("{:.2}x", paper.3),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    // The selectivity ordering, and every compared indexed path wins.
    // Order-by is left out: in this in-memory engine it lands near the
    // large range, on either side of it (EXPERIMENTS.md, Table 6).
    let speedup = |query: Table6Query| {
        let m = measured.iter().find(|m| m.name == query.name());
        m.map(Comparison::speedup).ok_or("query class not measured")
    };
    let (large, small, lookup) = (
        speedup(Table6Query::LargeRange)?,
        speedup(Table6Query::SmallRange)?,
        speedup(Table6Query::Lookup)?,
    );
    let holds = lookup > small && small > large && large > 1.0;
    writeln!(out, "ordering check (lookup > small > large > 1): {holds}")?;
    ensure(holds, "the Table 6 speedup ordering does not hold")
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
