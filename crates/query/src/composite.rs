//! The access-path planner, for single- and multi-column keys alike.
//!
//! A query is a set of column predicates; an index is a column list
//! (a one-column index is simply the arity-1 case). Costs are abstract
//! rows of work: a scan touches every row, a B+Tree descends in
//! O(log n) and then emits the matching rows, a hash probe costs one
//! step plus its matches. An index over columns
//! `(a, b, c)` serves a predicate set by the **leftmost-prefix rule**
//! (the ESR shape every composite B-tree obeys): consume equality
//! predicates along the index's columns left to right, then at most
//! one trailing range, and everything left over is a *residual*
//! filter applied to the rows the index emits.
//!
//! A plan is *covering* when the index columns alone can produce the
//! query's output and evaluate its residual — no base-table fetch per
//! hit. The fetch penalty is what lets a covering plan beat an
//! equally-selective non-covering one, reproducing the classic
//! index-only-scan win.

use flowtune_index::IndexKind;
use std::collections::{BTreeMap, BTreeSet};

/// The predicate a query places on one column.
///
/// `Eq`/`Hash`/`Ord` are total (fields are `i64`): observed predicate
/// sets dedupe through ordered collections before candidate
/// generation, so a repeated predicate cannot inflate a composite
/// candidate's modelled gain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Predicate {
    /// `col = key`.
    Equals(i64),
    /// `lo <= col <= hi`.
    Between(i64, i64),
    /// No filter: full ordered output (`ORDER BY col`).
    OrderBy,
}

/// Which physical plan to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full scan (plus sort for `OrderBy`).
    Scan,
    /// B+Tree probe / range / in-order traversal.
    BTree,
    /// Hash probe (equality only).
    Hash,
}

/// A predicate bound to a named column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColPredicate {
    /// Column the predicate constrains.
    pub column: String,
    /// The constraint itself.
    pub pred: Predicate,
}

impl ColPredicate {
    /// Convenience constructor.
    pub fn new(column: impl Into<String>, pred: Predicate) -> Self {
        ColPredicate {
            column: column.into(),
            pred,
        }
    }
}

/// A normalized multi-predicate query: predicates deduped and sorted
/// (column, then predicate order), plus the columns the query must
/// output — the covering check's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    predicates: Vec<ColPredicate>,
    output: Vec<String>,
}

impl QuerySpec {
    /// Normalize a raw predicate list: exact duplicates collapse
    /// through a `BTreeSet` (deterministic order, no hashing), so the
    /// same observed predicate arriving twice cannot double-count in
    /// selectivity or candidate gain.
    pub fn new(predicates: Vec<ColPredicate>, output: Vec<String>) -> Self {
        let dedup: BTreeSet<ColPredicate> = predicates.into_iter().collect();
        QuerySpec {
            predicates: dedup.into_iter().collect(),
            output,
        }
    }

    /// The normalized predicates, sorted by (column, predicate).
    pub fn predicates(&self) -> &[ColPredicate] {
        &self.predicates
    }

    /// Columns the query outputs.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// The predicate on `column`, if any. Normalization keeps at most
    /// one useful predicate shape per column for planning purposes;
    /// with several, the first (lowest-ordered) is the one consulted.
    pub fn on(&self, column: &str) -> Option<&Predicate> {
        self.predicates
            .iter()
            .find(|p| p.column == column)
            .map(|p| &p.pred)
    }
}

/// An index the composite planner may pick, described structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Key columns, left to right.
    pub columns: Vec<String>,
    /// Physical shape.
    pub kind: IndexKind,
}

impl IndexDef {
    /// A B+Tree index over `columns`.
    pub fn btree(columns: &[&str]) -> Self {
        IndexDef {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            kind: IndexKind::BTree,
        }
    }

    /// A hash index over `columns`.
    pub fn hash(columns: &[&str]) -> Self {
        IndexDef {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            kind: IndexKind::Hash,
        }
    }
}

/// How much of a query one index can absorb under the leftmost-prefix
/// rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixMatch {
    /// Equality predicates consumed, one per leading index column.
    pub eq_cols: Vec<String>,
    /// The single trailing range consumed, if any.
    pub range: Option<ColPredicate>,
    /// Predicates the index cannot absorb; applied as a residual
    /// filter on emitted rows.
    pub residual: Vec<ColPredicate>,
}

impl PrefixMatch {
    /// True when the index absorbs nothing — a probe through it would
    /// be a full traversal, never cheaper than the scan it replaces.
    pub fn is_empty(&self) -> bool {
        self.eq_cols.is_empty() && self.range.is_none()
    }
}

/// Apply the leftmost-prefix rule: walk the index's columns left to
/// right, consuming an equality per column, then at most one range;
/// the first column with no usable predicate stops the walk.
///
/// Hash indexes have no key order, so they match only when *every*
/// index column gets an equality — a partial hash prefix addresses no
/// bucket.
pub fn prefix_match(index: &IndexDef, query: &QuerySpec) -> PrefixMatch {
    let mut eq_cols = Vec::new();
    let mut range = None;
    for col in &index.columns {
        match query.on(col) {
            Some(Predicate::Equals(_)) => eq_cols.push(col.clone()),
            Some(p @ (Predicate::Between(_, _) | Predicate::OrderBy))
                if index.kind == IndexKind::BTree =>
            {
                range = Some(ColPredicate::new(col.clone(), *p));
                break;
            }
            _ => break,
        }
    }
    if index.kind == IndexKind::Hash && eq_cols.len() != index.columns.len() {
        // Partial-prefix hash probes are impossible; nothing consumed.
        eq_cols.clear();
    }
    let consumed: BTreeSet<&String> = eq_cols
        .iter()
        .chain(range.iter().map(|r| &r.column))
        .collect();
    let residual = query
        .predicates()
        .iter()
        .filter(|p| !consumed.contains(&p.column))
        .cloned()
        .collect();
    PrefixMatch {
        eq_cols,
        range,
        residual,
    }
}

/// Per-column statistics for multi-predicate selectivity estimates.
#[derive(Debug, Clone)]
pub struct CompositeStats {
    /// Table row count.
    pub rows: u64,
    /// Distinct values per column; each column's keys are assumed
    /// uniform over `[0, distinct)`.
    pub distinct: BTreeMap<String, u64>,
}

impl CompositeStats {
    /// Selectivity of one predicate in `[0, 1]`, under the uniform-key
    /// model.
    pub fn selectivity(&self, p: &ColPredicate) -> f64 {
        let d = self.distinct.get(&p.column).copied().unwrap_or(1).max(1) as f64;
        match p.pred {
            Predicate::Equals(_) => 1.0 / d,
            Predicate::Between(lo, hi) => (((hi - lo).max(0) as f64 + 1.0) / d).min(1.0),
            Predicate::OrderBy => 1.0,
        }
    }

    /// Estimated rows surviving all of `preds` (independence
    /// assumption across columns).
    pub fn estimated_matches<'a>(&self, preds: impl IntoIterator<Item = &'a ColPredicate>) -> f64 {
        let frac: f64 = preds.into_iter().map(|p| self.selectivity(p)).product();
        self.rows as f64 * frac
    }
}

/// Extra per-row work units a base-table fetch adds over emitting
/// straight from the index — the margin covering plans win by.
pub const FETCH_PENALTY: f64 = 4.0;

/// One costed candidate plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositePlan {
    /// Physical access path.
    pub path: AccessPath,
    /// Ordinal of the chosen index in the planner's input, `None` for
    /// the scan plan.
    pub index: Option<usize>,
    /// Whether the plan is index-only (no base-table fetches).
    pub covering: bool,
    /// Modelled work units (abstract rows touched, not money or time —
    /// hence no `flowtune-common` newtype).
    pub work: f64,
}

/// Cost one index for one query; `None` when the index serves nothing.
pub fn cost_with_index(
    index: &IndexDef,
    query: &QuerySpec,
    stats: &CompositeStats,
) -> Option<(PrefixMatch, bool, f64)> {
    let m = prefix_match(index, query);
    if m.is_empty() {
        return None;
    }
    let n = stats.rows.max(1) as f64;
    let log_n = n.log2().max(1.0);
    // Rows the index emits: only the consumed prefix narrows the scan.
    let consumed: Vec<ColPredicate> = m
        .eq_cols
        .iter()
        .map(|c| {
            #[expect(
                clippy::expect_used,
                reason = "eq_cols came from query.on(), the predicate exists"
            )]
            let p = query.on(c).expect("consumed column has a predicate");
            ColPredicate::new(c.clone(), *p)
        })
        .chain(m.range.clone())
        .collect();
    let k_index = stats.estimated_matches(consumed.iter());
    let index_cols: BTreeSet<&String> = index.columns.iter().collect();
    let covering = index.kind == IndexKind::BTree
        && query.output().iter().all(|c| index_cols.contains(c))
        && m.residual.iter().all(|p| index_cols.contains(&p.column));
    let descend = match index.kind {
        IndexKind::BTree => log_n,
        IndexKind::Hash => 1.0,
    };
    let per_row = if covering { 1.0 } else { 1.0 + FETCH_PENALTY };
    Some((m, covering, descend + k_index * per_row))
}

/// Pick the cheapest plan for `query` among a full scan and every
/// index in `indexes`. Ties go to the earliest index, then to the
/// scan — deterministic for a fixed input order.
pub fn choose_composite(
    query: &QuerySpec,
    stats: &CompositeStats,
    indexes: &[IndexDef],
) -> CompositePlan {
    let n = stats.rows.max(1) as f64;
    let mut best = CompositePlan {
        path: AccessPath::Scan,
        index: None,
        covering: false,
        work: n,
    };
    for (i, def) in indexes.iter().enumerate() {
        if let Some((_, covering, cost)) = cost_with_index(def, query, stats) {
            if cost < best.work {
                best = CompositePlan {
                    path: match def.kind {
                        IndexKind::BTree => AccessPath::BTree,
                        IndexKind::Hash => AccessPath::Hash,
                    },
                    index: Some(i),
                    covering,
                    work: cost,
                };
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CompositeStats {
        CompositeStats {
            rows: 1_000_000,
            distinct: [
                ("quantity".to_owned(), 50),
                ("linenumber".to_owned(), 7),
                ("shipdate".to_owned(), 2500),
            ]
            .into_iter()
            .collect(),
        }
    }

    fn eq(col: &str, v: i64) -> ColPredicate {
        ColPredicate::new(col, Predicate::Equals(v))
    }

    fn between(col: &str, lo: i64, hi: i64) -> ColPredicate {
        ColPredicate::new(col, Predicate::Between(lo, hi))
    }

    #[test]
    fn query_spec_dedupes_deterministically() {
        let q = QuerySpec::new(vec![eq("b", 1), eq("a", 2), eq("b", 1), eq("a", 2)], vec![]);
        assert_eq!(q.predicates(), &[eq("a", 2), eq("b", 1)]);
    }

    #[test]
    fn leftmost_prefix_consumes_eq_then_one_range() {
        let idx = IndexDef::btree(&["quantity", "linenumber", "shipdate"]);
        let q = QuerySpec::new(
            vec![
                eq("quantity", 10),
                eq("linenumber", 3),
                between("shipdate", 0, 99),
            ],
            vec![],
        );
        let m = prefix_match(&idx, &q);
        assert_eq!(m.eq_cols, ["quantity", "linenumber"]);
        assert_eq!(m.range, Some(between("shipdate", 0, 99)));
        assert!(m.residual.is_empty());
    }

    #[test]
    fn gap_in_prefix_stops_the_walk() {
        // Predicates on (quantity, shipdate) against index
        // (quantity, linenumber, shipdate): the missing linenumber
        // equality leaves shipdate as residual — the leftmost rule.
        let idx = IndexDef::btree(&["quantity", "linenumber", "shipdate"]);
        let q = QuerySpec::new(vec![eq("quantity", 10), between("shipdate", 0, 99)], vec![]);
        let m = prefix_match(&idx, &q);
        assert_eq!(m.eq_cols, ["quantity"]);
        assert_eq!(m.range, None);
        assert_eq!(m.residual, vec![between("shipdate", 0, 99)]);
    }

    #[test]
    fn bare_range_on_second_column_matches_nothing() {
        let idx = IndexDef::btree(&["quantity", "shipdate"]);
        let q = QuerySpec::new(vec![between("shipdate", 0, 99)], vec![]);
        assert!(prefix_match(&idx, &q).is_empty());
    }

    #[test]
    fn hash_needs_full_key_equality() {
        let idx = IndexDef::hash(&["quantity", "linenumber"]);
        let full = QuerySpec::new(vec![eq("quantity", 1), eq("linenumber", 2)], vec![]);
        assert_eq!(prefix_match(&idx, &full).eq_cols.len(), 2);
        let partial = QuerySpec::new(vec![eq("quantity", 1)], vec![]);
        assert!(prefix_match(&idx, &partial).is_empty());
        let ranged = QuerySpec::new(vec![eq("quantity", 1), between("linenumber", 1, 3)], vec![]);
        assert!(prefix_match(&idx, &ranged).is_empty());
    }

    #[test]
    fn between_with_only_hash_available_falls_back_to_scan() {
        // The satellite regression: a range predicate cannot use a
        // hash index, whatever its arity — the planner must scan.
        let q = QuerySpec::new(vec![between("shipdate", 0, 99)], vec![]);
        let plan = choose_composite(&q, &stats(), &[IndexDef::hash(&["shipdate"])]);
        assert_eq!(plan.path, AccessPath::Scan);
        assert_eq!(plan.index, None);
    }

    #[test]
    fn one_column_range_takes_btree_never_hash() {
        // A selective one-column range: the hash index alone cannot
        // serve it, and next to a B+Tree on the same column the
        // planner takes the B+Tree, never the hash.
        let s = stats();
        let q = QuerySpec::new(
            vec![between("shipdate", 0, 99)],
            vec!["linenumber".to_owned()],
        );
        let btree = IndexDef::btree(&["shipdate"]);
        let hash = IndexDef::hash(&["shipdate"]);
        let plan = choose_composite(&q, &s, std::slice::from_ref(&hash));
        assert_eq!((plan.path, plan.index), (AccessPath::Scan, None));
        let plan = choose_composite(&q, &s, &[hash, btree]);
        assert_eq!((plan.path, plan.index), (AccessPath::BTree, Some(1)));
        assert!(plan.work < s.rows as f64, "{}", plan.work);
    }

    #[test]
    fn one_column_point_equality_beats_scan() {
        // 1M rows over 2500 shipdates: an equality matches 400 rows.
        // The output column forces a base-table fetch per hit, so the
        // hash's O(1) descent beats the B+Tree's log n.
        let s = stats();
        let q = QuerySpec::new(vec![eq("shipdate", 42)], vec!["linenumber".to_owned()]);
        let btree = IndexDef::btree(&["shipdate"]);
        let hash = IndexDef::hash(&["shipdate"]);
        let plan = choose_composite(&q, &s, std::slice::from_ref(&btree));
        assert_eq!((plan.path, plan.index), (AccessPath::BTree, Some(0)));
        assert!(plan.work < s.rows as f64 / 100.0, "{}", plan.work);
        let plan = choose_composite(&q, &s, std::slice::from_ref(&hash));
        assert_eq!((plan.path, plan.index), (AccessPath::Hash, Some(0)));
        let plan = choose_composite(&q, &s, &[btree, hash]);
        assert_eq!((plan.path, plan.index), (AccessPath::Hash, Some(1)));
        assert_eq!(choose_composite(&q, &s, &[]).path, AccessPath::Scan);
    }

    #[test]
    fn one_column_near_total_range_falls_back_to_scan() {
        // Between(0, distinct) selects every row: the B+Tree would pay
        // its descent on top of a full emit, so the scan wins even
        // when the index covers the query.
        let s = stats();
        let idx = [IndexDef::btree(&["shipdate"])];
        for output in [vec![], vec!["linenumber".to_owned()]] {
            let q = QuerySpec::new(vec![between("shipdate", 0, 2500)], output);
            let plan = choose_composite(&q, &s, &idx);
            assert_eq!((plan.path, plan.index), (AccessPath::Scan, None));
            assert_eq!(plan.work, s.rows as f64);
        }
    }

    #[test]
    fn composite_beats_single_on_multi_predicate() {
        let q = QuerySpec::new(
            vec![eq("quantity", 10), between("shipdate", 0, 99)],
            vec!["quantity".to_owned(), "shipdate".to_owned()],
        );
        let singles = [
            IndexDef::btree(&["quantity"]),
            IndexDef::btree(&["shipdate"]),
        ];
        let composite = [IndexDef::btree(&["quantity", "shipdate"])];
        let s = stats();
        let best_single = choose_composite(&q, &s, &singles);
        let best_composite = choose_composite(&q, &s, &composite);
        assert!(best_composite.work < best_single.work);
        assert!(best_composite.covering, "output is the index's columns");
    }

    #[test]
    fn covering_beats_fetching_at_equal_selectivity() {
        let s = stats();
        let idx = IndexDef::btree(&["quantity", "shipdate"]);
        let covered = QuerySpec::new(
            vec![eq("quantity", 10), between("shipdate", 0, 99)],
            vec!["shipdate".to_owned()],
        );
        let fetching = QuerySpec::new(
            vec![eq("quantity", 10), between("shipdate", 0, 99)],
            vec!["linenumber".to_owned()],
        );
        let (_, cov, cost_cov) = cost_with_index(&idx, &covered, &s).unwrap();
        let (_, fetch, cost_fetch) = cost_with_index(&idx, &fetching, &s).unwrap();
        assert!(cov && !fetch);
        assert!(cost_cov < cost_fetch);
    }

    #[test]
    fn selectivities_multiply_across_columns() {
        let s = stats();
        let k = s.estimated_matches([eq("quantity", 1), eq("linenumber", 2)].iter());
        assert!((k - 1_000_000.0 / 50.0 / 7.0).abs() < 1e-6);
        // Unknown column: selectivity 1 (no narrowing claimed).
        let k = s.estimated_matches([eq("mystery", 1)].iter());
        assert!((k - 1_000_000.0).abs() < 1e-6);
    }
}
