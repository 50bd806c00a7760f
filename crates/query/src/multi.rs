//! Executors for multi-predicate queries: the full-scan baseline and
//! composite-index prefix scans, both with deterministic work
//! accounting.
//!
//! The planner (`composite.rs`) *models* costs; these executors
//! *measure* them, in two currencies: wall time (the experiment
//! binaries time them) and touched-row counts ([`ExecCounts`]), which
//! are exactly reproducible and therefore what golden tests pin. The
//! counts mirror the cost model's terms — rows scanned, index entries
//! emitted, base-table fetches — so a modelled win and a measured win
//! can be compared line by line.

use crate::composite::{prefix_match, IndexDef, Predicate, QuerySpec};
use flowtune_index::{BPlusTree, TupleKey};
use std::collections::BTreeSet;

/// A small column-store table: named `i64` columns of equal length.
#[derive(Debug, Clone)]
pub struct MultiTable {
    columns: Vec<(String, Vec<i64>)>,
    rows: usize,
}

impl MultiTable {
    /// Build from named columns; all must have the same length.
    pub fn new(columns: Vec<(String, Vec<i64>)>) -> Self {
        let rows = columns.first().map_or(0, |(_, v)| v.len());
        assert!(
            columns.iter().all(|(_, v)| v.len() == rows),
            "all columns must have equal length"
        );
        MultiTable { columns, rows }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A column's values by name.
    pub fn column(&self, name: &str) -> Option<&[i64]> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    fn value(&self, column: &str, row: u32) -> Option<i64> {
        self.column(column).map(|c| c[row as usize])
    }
}

/// Deterministic work counters for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Base-table rows examined by a scan.
    pub scanned: u64,
    /// Index entries emitted by a prefix range scan.
    pub index_entries: u64,
    /// Base-table row fetches (zero for covering plans).
    pub fetches: u64,
}

impl ExecCounts {
    /// Total row touches — the scalar the speedup matrix compares.
    pub fn touched(&self) -> u64 {
        self.scanned + self.index_entries + self.fetches
    }
}

/// Result rows plus the work it took to produce them.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Matching row ids.
    pub rows: Vec<u32>,
    /// Work counters.
    pub counts: ExecCounts,
}

fn satisfies(pred: &Predicate, v: i64) -> bool {
    match pred {
        Predicate::Equals(k) => v == *k,
        Predicate::Between(lo, hi) => (*lo..=*hi).contains(&v),
        Predicate::OrderBy => true,
    }
}

/// Full-scan baseline: test every predicate against every row.
pub fn scan_multi(table: &MultiTable, query: &QuerySpec) -> ExecResult {
    let preds: Vec<(&[i64], &Predicate)> = query
        .predicates()
        .iter()
        .filter_map(|p| table.column(&p.column).map(|c| (c, &p.pred)))
        .collect();
    let rows = (0..table.rows() as u32)
        .filter(|&r| preds.iter().all(|(c, p)| satisfies(p, c[r as usize])))
        .collect();
    ExecResult {
        rows,
        counts: ExecCounts {
            scanned: table.rows() as u64,
            ..ExecCounts::default()
        },
    }
}

/// Bulk-build a composite B+Tree over the named columns of `table`,
/// keys in column-list order.
///
/// Panics if a column is missing — index definitions come from the
/// catalog, which only names real columns.
pub fn build_composite(
    table: &MultiTable,
    columns: &[String],
    order: usize,
) -> BPlusTree<TupleKey> {
    let cols: Vec<&[i64]> = columns
        .iter()
        .map(|c| {
            #[expect(
                clippy::expect_used,
                reason = "catalog-declared index columns exist in the table by construction"
            )]
            table.column(c).expect("index column exists in table")
        })
        .collect();
    let mut pairs: Vec<(TupleKey, u32)> = (0..table.rows() as u32)
        .map(|r| {
            let vals: Vec<i64> = cols.iter().map(|c| c[r as usize]).collect();
            (TupleKey::vals(&vals), r)
        })
        .collect();
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    BPlusTree::bulk_build(order, &pairs)
}

/// Execute `query` through a composite index: derive the leftmost
/// prefix, scan the matching key range, evaluate residual predicates
/// from the key when possible and the base table otherwise.
///
/// Returns `None` when the index serves no prefix of the query (the
/// planner would never have picked it).
pub fn composite_select(
    tree: &BPlusTree<TupleKey>,
    index: &IndexDef,
    query: &QuerySpec,
    table: &MultiTable,
) -> Option<ExecResult> {
    let m = prefix_match(index, query);
    if m.is_empty() {
        return None;
    }
    let arity = index.columns.len();
    let prefix: Vec<i64> = m
        .eq_cols
        .iter()
        .map(|c| match query.on(c) {
            Some(Predicate::Equals(v)) => *v,
            _ => unreachable!("eq prefix columns carry equality predicates"),
        })
        .collect();
    let (lo, hi) = match m.range.as_ref().map(|r| r.pred) {
        Some(Predicate::Between(lo, hi)) => (
            TupleKey::range_lo(&prefix, lo, arity),
            TupleKey::range_hi(&prefix, hi, arity),
        ),
        // OrderBy consumes the column for ordering, not narrowing —
        // and an empty prefix degenerates to the full key domain.
        Some(Predicate::OrderBy | Predicate::Equals(_)) | None => (
            TupleKey::prefix_lo(&prefix, arity),
            TupleKey::prefix_hi(&prefix, arity),
        ),
    };
    let index_cols: BTreeSet<&String> = index.columns.iter().collect();
    let covering = query.output().iter().all(|c| index_cols.contains(c))
        && m.residual.iter().all(|p| index_cols.contains(&p.column));
    let col_pos = |name: &String| index.columns.iter().position(|c| c == name);

    let mut rows = Vec::new();
    let mut counts = ExecCounts::default();
    for (key, row) in tree.range(lo, hi) {
        counts.index_entries += 1;
        if !covering {
            counts.fetches += 1;
        }
        let ok = m.residual.iter().all(|p| {
            let v = col_pos(&p.column)
                .and_then(|i| key.component(i))
                .or_else(|| table.value(&p.column, row));
            #[expect(
                clippy::expect_used,
                reason = "residual columns exist in the table or the key"
            )]
            let v = v.expect("residual column resolvable");
            satisfies(&p.pred, v)
        });
        if ok {
            rows.push(row);
        }
    }
    Some(ExecResult { rows, counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::ColPredicate;
    use flowtune_common::SimRng;

    fn table(seed: u64, n: usize) -> MultiTable {
        let mut rng = SimRng::seed_from_u64(seed);
        let a: Vec<i64> = (0..n).map(|_| rng.uniform_i64(0, 8)).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.uniform_i64(0, 5)).collect();
        let c: Vec<i64> = (0..n).map(|_| rng.uniform_i64(0, 100)).collect();
        MultiTable::new(vec![
            ("a".to_owned(), a),
            ("b".to_owned(), b),
            ("c".to_owned(), c),
        ])
    }

    fn eq(col: &str, v: i64) -> ColPredicate {
        ColPredicate::new(col, Predicate::Equals(v))
    }

    fn between(col: &str, lo: i64, hi: i64) -> ColPredicate {
        ColPredicate::new(col, Predicate::Between(lo, hi))
    }

    #[test]
    fn composite_select_matches_scan_across_query_shapes() {
        let t = table(0xD1, 4000);
        let idx = IndexDef::btree(&["a", "b", "c"]);
        let tree = build_composite(&t, &idx.columns, 16);
        let queries = [
            QuerySpec::new(vec![eq("a", 3)], vec![]),
            QuerySpec::new(vec![eq("a", 3), eq("b", 2)], vec![]),
            QuerySpec::new(vec![eq("a", 3), eq("b", 2), between("c", 10, 60)], vec![]),
            // Residual: b skipped, c filtered post-scan.
            QuerySpec::new(vec![eq("a", 3), between("c", 10, 60)], vec![]),
            QuerySpec::new(vec![eq("a", 0), between("b", 0, 2)], vec![]),
        ];
        for q in &queries {
            let via_scan = scan_multi(&t, q);
            let via_index = composite_select(&tree, &idx, q, &t).unwrap();
            let mut a = via_scan.rows.clone();
            let mut b = via_index.rows.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q:?}");
            assert_eq!(via_scan.counts.scanned, 4000);
            assert!(via_index.counts.index_entries <= 4000);
        }
    }

    #[test]
    fn covering_scan_does_no_fetches() {
        let t = table(0xD2, 1000);
        let idx = IndexDef::btree(&["a", "c"]);
        let tree = build_composite(&t, &idx.columns, 16);
        let covered = QuerySpec::new(vec![eq("a", 1), between("c", 0, 50)], vec!["c".to_owned()]);
        let r = composite_select(&tree, &idx, &covered, &t).unwrap();
        assert_eq!(r.counts.fetches, 0, "covering plan fetches nothing");
        assert!(r.counts.index_entries > 0);
        let fetching = QuerySpec::new(vec![eq("a", 1), between("c", 0, 50)], vec!["b".to_owned()]);
        let r = composite_select(&tree, &idx, &fetching, &t).unwrap();
        assert_eq!(r.counts.fetches, r.counts.index_entries);
    }

    #[test]
    fn unusable_index_returns_none() {
        let t = table(0xD3, 100);
        let idx = IndexDef::btree(&["a", "b"]);
        let tree = build_composite(&t, &idx.columns, 8);
        let q = QuerySpec::new(vec![between("c", 0, 10)], vec![]);
        assert!(composite_select(&tree, &idx, &q, &t).is_none());
    }

    #[test]
    fn residual_filter_resolves_from_key_when_covered() {
        // Residual on a *later* index column (gap in the prefix): the
        // value comes from the key itself, so even with no relevant
        // table column... the table has it here, but fetches stay 0
        // because the plan is covering.
        let t = table(0xD4, 2000);
        let idx = IndexDef::btree(&["a", "b", "c"]);
        let tree = build_composite(&t, &idx.columns, 16);
        let q = QuerySpec::new(vec![eq("a", 2), between("c", 20, 40)], vec!["a".to_owned()]);
        let r = composite_select(&tree, &idx, &q, &t).unwrap();
        assert_eq!(r.counts.fetches, 0);
        let mut want = scan_multi(&t, &q).rows;
        let mut got = r.rows.clone();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn touched_counts_favor_the_composite() {
        let t = table(0xD5, 8000);
        let q = QuerySpec::new(vec![eq("a", 3), between("c", 10, 30)], vec![]);
        let single = IndexDef::btree(&["a"]);
        let comp = IndexDef::btree(&["a", "c"]);
        let t_single = build_composite(&t, &single.columns, 16);
        let t_comp = build_composite(&t, &comp.columns, 16);
        let r_single = composite_select(&t_single, &single, &q, &t).unwrap();
        let r_comp = composite_select(&t_comp, &comp, &q, &t).unwrap();
        assert!(
            r_comp.counts.touched() < r_single.counts.touched(),
            "composite {} vs single {}",
            r_comp.counts.touched(),
            r_single.counts.touched()
        );
    }
}
