//! Table 6 (composite): multi-predicate speedups from composite and
//! covering indexes on synthetic `lineitem`.
//!
//! The paper's Table 6 measures single-column index speedups; its
//! multi-predicate dataflows leave composite wins on the table. This
//! experiment observes five query classes, runs the tuner's composite
//! candidate generation (ESR order + leftmost-prefix subsumption),
//! scores the survivors through the Eq. 3–5 gain model, and compares
//! scan vs best-single vs best-composite plans both by modelled cost
//! and by deterministic touched-row counts.
//!
//! The smoke report is fully deterministic — modelled costs and
//! touched-row counts ([`flowtune_query::ExecCounts`]), never wall
//! times — so `tests/exp_goldens.rs` diffs it byte-for-byte like every
//! other smoke golden, and `tests/table6_composite_golden.rs` asserts
//! on the structured [`CompositeReport`]. The full run repeats the
//! matrix at a larger table and adds measured wall times, outside the
//! golden.

use flowtune_common::{FileId, Money, Quanta, SimDuration, TunerConfig};
use flowtune_core::tablefmt::render_table;
use flowtune_index::{BPlusTree, IndexKind, TupleKey};
use flowtune_query::{
    build_composite, choose_composite, composite_select, scan_multi, ColPredicate, CompositePlan,
    CompositeStats, ExecResult, IndexDef, MultiTable, Predicate, QuerySpec,
};
use flowtune_storage::{ColumnData, LineitemGenerator, LineitemParams};
use flowtune_tuner::gain::GainContribution;
use flowtune_tuner::{
    candidate_saving, composite_candidates, esr_columns, CompositeCandidate, GainModel,
    ObservedQuery,
};
use std::collections::BTreeSet;

use super::*;
use crate::compare::{format_ns, measure};

/// Row count of the pinned smoke run (the golden's table size).
pub const SMOKE_ROWS: usize = 60_000;

/// Print the deterministic report; the full run adds measured wall
/// times of the same plans (machine-dependent, so never pinned).
pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let rows = if smoke { SMOKE_ROWS } else { 600_000 };
    let report = build_report(rows);
    write!(out, "{}", report.text)?;
    if smoke {
        return Ok(());
    }

    writeln!(out, "\n-- measured wall times (median of 5) --")?;
    let table = lineitem_table(rows);
    for (name, q) in &query_classes() {
        let scan_t = measure(name, 5, || scan_multi(&table, q));
        let mut line = format!("{name:<24} scan {:>9}", format_ns(scan_t.median_ns));
        for cand in &report.survivors {
            let def = IndexDef {
                columns: cand.columns.clone(),
                kind: IndexKind::BTree,
            };
            let tree = build_composite(&table, &def.columns, TREE_ORDER);
            if composite_select(&tree, &def, q, &table).is_some() {
                let t = measure(name, 5, || composite_select(&tree, &def, q, &table));
                line.push_str(&format!(
                    "  ({}) {:>9}",
                    def.columns.join(", "),
                    format_ns(t.median_ns)
                ));
            }
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// B+Tree node order used for every index the experiment builds.
const TREE_ORDER: usize = 64;

/// Gain attributed to avoiding one full scan of the file, in the gain
/// model's quanta unit — scales the per-class fractional savings. A
/// plain scale factor, not a measured duration, hence no newtype.
const SCAN_GAIN_SCALE: f64 = 2.0;

/// One observed query class and its deterministic outcome.
#[derive(Debug, Clone)]
pub struct ClassOutcome {
    /// Human-readable class name.
    pub name: &'static str,
    /// More than one predicate column (the classes composites target).
    pub multi_predicate: bool,
    /// Rows touched by the full-scan baseline.
    pub scan_touched: u64,
    /// Columns of the best single-column plan (`"scan"` when none wins).
    pub single_cols: String,
    /// Rows touched by the best single-column plan.
    pub single_touched: u64,
    /// Columns of the best plan over the tuner's surviving candidates.
    pub pool_cols: String,
    /// Rows touched by that plan.
    pub pool_touched: u64,
    /// Whether the pool plan is index-only.
    pub covering: bool,
    /// All three executions returned the same row set.
    pub rows_match: bool,
}

impl ClassOutcome {
    /// Touched-row speedup of the pool plan over the best single plan.
    pub fn speedup_vs_single(&self) -> f64 {
        self.single_touched as f64 / self.pool_touched.max(1) as f64
    }
}

/// The full deterministic report plus the data the golden test asserts
/// on.
#[derive(Debug, Clone)]
pub struct CompositeReport {
    /// Rendered smoke report (what [`run`] prints under smoke, after
    /// the registry's banner).
    pub text: String,
    /// Candidate pool before leftmost-prefix subsumption.
    pub pool: Vec<CompositeCandidate>,
    /// Survivors after subsumption — the indexes actually built.
    pub survivors: Vec<CompositeCandidate>,
    /// Per-class outcomes.
    pub classes: Vec<ClassOutcome>,
}

impl CompositeReport {
    /// Candidates dropped by subsumption.
    pub fn subsumed(&self) -> usize {
        self.pool.len() - self.survivors.len()
    }
}

fn to_i64(col: &ColumnData) -> Vec<i64> {
    match col {
        ColumnData::I32(v) => v.iter().map(|&x| i64::from(x)).collect(),
        ColumnData::I64(v) => v.clone(),
        // Lineitem quantities are integral floats (uniform 1..51).
        ColumnData::F64(v) => v.iter().map(|&x| x as i64).collect(),
        ColumnData::Date(v) => v.iter().map(|&x| i64::from(x)).collect(),
        #[expect(clippy::panic, reason = "every COLS column is numeric")]
        ColumnData::Str(_) => panic!("string columns cannot key a composite index"),
    }
}

/// The three predicate columns every class draws from, in the order
/// the table is materialized.
const COLS: [&str; 3] = ["linenumber", "quantity", "shipdate"];

/// Materialize the synthetic `lineitem` predicate columns as an `i64`
/// column store.
fn lineitem_table(rows: usize) -> MultiTable {
    let gen = LineitemGenerator::new(LineitemParams {
        rows,
        ..Default::default()
    });
    let data = gen.generate_columns(&COLS);
    MultiTable::new(
        COLS.iter()
            .zip(data.columns())
            .map(|(name, c)| ((*name).to_owned(), to_i64(c)))
            .collect(),
    )
}

/// The observed multi-predicate query classes. The bare-range class is
/// the deliberate leftmost-prefix *negative*: no composite whose first
/// column is an equality can serve it.
fn query_classes() -> Vec<(&'static str, QuerySpec)> {
    let eq = |c: &str, v: i64| ColPredicate::new(c, Predicate::Equals(v));
    let bt = |c: &str, lo: i64, hi: i64| ColPredicate::new(c, Predicate::Between(lo, hi));
    let out = |cols: &[&str]| cols.iter().map(|c| (*c).to_owned()).collect::<Vec<_>>();
    vec![
        (
            "lookup eq+eq",
            QuerySpec::new(
                vec![eq("quantity", 25), eq("linenumber", 3)],
                out(&["orderkey"]),
            ),
        ),
        (
            "eq + range",
            QuerySpec::new(
                vec![eq("quantity", 25), bt("shipdate", 8400, 8500)],
                out(&["orderkey"]),
            ),
        ),
        (
            "eq+eq + range",
            QuerySpec::new(
                vec![
                    eq("quantity", 25),
                    eq("linenumber", 3),
                    bt("shipdate", 8400, 8700),
                ],
                out(&["orderkey"]),
            ),
        ),
        (
            "bare range",
            QuerySpec::new(vec![bt("shipdate", 8400, 8500)], out(&["orderkey"])),
        ),
        (
            "covering eq + range",
            QuerySpec::new(
                vec![eq("quantity", 25), bt("shipdate", 8400, 8500)],
                out(&["quantity", "shipdate"]),
            ),
        ),
    ]
}

fn cols_label(cols: &[String]) -> String {
    format!("({})", cols.join(", "))
}

fn execute(
    plan: &CompositePlan,
    defs: &[IndexDef],
    trees: &[BPlusTree<TupleKey>],
    query: &QuerySpec,
    table: &MultiTable,
    scan: &ExecResult,
) -> (String, ExecResult) {
    match plan.index {
        Some(i) => {
            #[expect(
                clippy::expect_used,
                reason = "the planner only picks indexes that serve the query"
            )]
            let r = composite_select(&trees[i], &defs[i], query, table)
                .expect("planner-chosen index serves the query");
            (cols_label(&defs[i].columns), r)
        }
        None => ("scan".to_owned(), scan.clone()),
    }
}

fn sorted_rows(r: &ExecResult) -> Vec<u32> {
    let mut rows = r.rows.clone();
    rows.sort_unstable();
    rows
}

/// Build the deterministic report at `rows` table rows.
pub fn build_report(rows: usize) -> CompositeReport {
    let table = lineitem_table(rows);
    let classes = query_classes();

    let stats = CompositeStats {
        rows: rows as u64,
        distinct: COLS
            .iter()
            .map(|c| {
                #[expect(
                    clippy::expect_used,
                    reason = "COLS are exactly the materialized columns"
                )]
                let vals = table.column(c).expect("predicate column materialized");
                let d = vals.iter().collect::<BTreeSet<_>>().len() as u64;
                ((*c).to_owned(), d)
            })
            .collect(),
    };

    // --- candidate generation + subsumption ---
    let observed: Vec<ObservedQuery> = classes
        .iter()
        .map(|(_, q)| ObservedQuery {
            file: FileId(0),
            query: q.clone(),
        })
        .collect();
    let pool: Vec<CompositeCandidate> = observed
        .iter()
        .filter_map(|o| {
            let columns = esr_columns(&o.query);
            (!columns.is_empty()).then_some(CompositeCandidate {
                file: o.file,
                columns,
            })
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let survivors = composite_candidates(&observed);

    // --- index sets: per-column singles vs the surviving candidates ---
    let single_defs: Vec<IndexDef> = COLS.iter().map(|c| IndexDef::btree(&[c])).collect();
    let pool_defs: Vec<IndexDef> = survivors
        .iter()
        .map(|c| IndexDef {
            columns: c.columns.clone(),
            kind: IndexKind::BTree,
        })
        .collect();
    let single_trees: Vec<_> = single_defs
        .iter()
        .map(|d| build_composite(&table, &d.columns, TREE_ORDER))
        .collect();
    let pool_trees: Vec<_> = pool_defs
        .iter()
        .map(|d| build_composite(&table, &d.columns, TREE_ORDER))
        .collect();

    let mut text = String::new();
    text.push_str(&format!("table rows: {rows}\n"));
    let d = |c: &str| stats.distinct.get(c).copied().unwrap_or(0);
    text.push_str(&format!(
        "distinct values: linenumber={} quantity={} shipdate={}\n\n",
        d("linenumber"),
        d("quantity"),
        d("shipdate")
    ));

    text.push_str("-- observed query classes --\n");
    let mut tbl = vec![vec![
        "class".to_owned(),
        "predicates".to_owned(),
        "output".to_owned(),
    ]];
    for (name, q) in &classes {
        let preds = q
            .predicates()
            .iter()
            .map(|p| match p.pred {
                Predicate::Equals(v) => format!("{}={v}", p.column),
                Predicate::Between(lo, hi) => format!("{} in [{lo}, {hi}]", p.column),
                Predicate::OrderBy => format!("order by {}", p.column),
            })
            .collect::<Vec<_>>()
            .join(" and ");
        tbl.push(vec![(*name).to_owned(), preds, q.output().join(", ")]);
    }
    text.push_str(&render_table(&tbl));

    text.push_str("\n-- composite candidates (ESR order, leftmost-prefix subsumption) --\n");
    for cand in &pool {
        let fate = survivors.iter().find(|s| cand.is_prefix_of(s)).map_or_else(
            || "kept".to_owned(),
            |winner| format!("subsumed by {}", cols_label(&winner.columns)),
        );
        text.push_str(&format!("{:<36} {fate}\n", cols_label(&cand.columns)));
    }

    // --- Eq. 3–5 gain model over the surviving candidates ---
    text.push_str("\n-- gain model (Eq. 3-5, all classes just observed) --\n");
    let model = GainModel::new(
        TunerConfig::default(),
        SimDuration::from_secs(60),
        Money::from_dollars(0.1),
        Money::from_dollars(1e-4),
    );
    let mut tbl = vec![vec![
        "candidate".to_owned(),
        "classes served".to_owned(),
        "gt (quanta)".to_owned(),
        "g ($)".to_owned(),
        "beneficial".to_owned(),
    ]];
    for cand in &survivors {
        let contributions: Vec<GainContribution> = classes
            .iter()
            .filter_map(|(_, q)| {
                let s = candidate_saving(cand, q, &stats);
                (s > 0.0).then_some(GainContribution {
                    quanta_ago: Quanta::ZERO,
                    gtd: s * SCAN_GAIN_SCALE,
                    gmd: s * SCAN_GAIN_SCALE,
                })
            })
            .collect();
        let bytes = rows as u64 * 16 * cand.columns.len() as u64;
        let gains = model.evaluate(&contributions, Quanta::new(0.25), bytes);
        tbl.push(vec![
            cols_label(&cand.columns),
            contributions.len().to_string(),
            format!("{:.3}", gains.gt),
            format!("{:.4}", gains.g),
            gains.is_beneficial().to_string(),
        ]);
    }
    text.push_str(&render_table(&tbl));

    // --- plan matrix: modelled costs ---
    text.push_str("\n-- planner choices (modelled work units) --\n");
    let mut tbl = vec![vec![
        "class".to_owned(),
        "scan".to_owned(),
        "best single".to_owned(),
        "cost".to_owned(),
        "best composite".to_owned(),
        "cost".to_owned(),
        "covering".to_owned(),
    ]];
    let mut outcomes = Vec::new();
    for (name, q) in &classes {
        let scan = scan_multi(&table, q);
        let plan_single = choose_composite(q, &stats, &single_defs);
        let plan_pool = choose_composite(q, &stats, &pool_defs);
        let (single_cols, r_single) =
            execute(&plan_single, &single_defs, &single_trees, q, &table, &scan);
        let (pool_cols, r_pool) = execute(&plan_pool, &pool_defs, &pool_trees, q, &table, &scan);
        tbl.push(vec![
            (*name).to_owned(),
            format!("{:.0}", rows as f64),
            single_cols.clone(),
            format!("{:.1}", plan_single.work),
            pool_cols.clone(),
            format!("{:.1}", plan_pool.work),
            plan_pool.covering.to_string(),
        ]);
        let rows_match = sorted_rows(&scan) == sorted_rows(&r_single)
            && sorted_rows(&scan) == sorted_rows(&r_pool);
        outcomes.push(ClassOutcome {
            name,
            multi_predicate: q.predicates().len() > 1,
            scan_touched: scan.counts.touched(),
            single_cols,
            single_touched: r_single.counts.touched(),
            pool_cols,
            pool_touched: r_pool.counts.touched(),
            covering: plan_pool.covering,
            rows_match,
        });
    }
    text.push_str(&render_table(&tbl));

    // --- measured (deterministic) touched-row matrix ---
    text.push_str("\n-- measured touched rows (deterministic) --\n");
    let mut tbl = vec![vec![
        "class".to_owned(),
        "scan".to_owned(),
        "single".to_owned(),
        "composite".to_owned(),
        "speedup vs single".to_owned(),
        "rows match".to_owned(),
    ]];
    for o in &outcomes {
        tbl.push(vec![
            o.name.to_owned(),
            o.scan_touched.to_string(),
            o.single_touched.to_string(),
            o.pool_touched.to_string(),
            format!("{:.1}x", o.speedup_vs_single()),
            o.rows_match.to_string(),
        ]);
    }
    text.push_str(&render_table(&tbl));

    let wins = outcomes
        .iter()
        .filter(|o| o.multi_predicate && o.pool_touched < o.single_touched)
        .count();
    text.push_str(&format!(
        "\nsubsumed candidates: {} (pool {} -> survivors {})\n",
        pool.len() - survivors.len(),
        pool.len(),
        survivors.len()
    ));
    text.push_str(&format!(
        "composite beats best single on {wins} multi-predicate classes\n"
    ));

    CompositeReport {
        text,
        pool,
        survivors,
        classes: outcomes,
    }
}
