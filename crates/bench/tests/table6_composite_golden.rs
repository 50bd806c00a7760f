//! Asserts the acceptance properties of the Table 6 (composite)
//! experiment on its structured report: a composite or covering plan
//! beats the best single-column plan on at least one multi-predicate
//! class, and leftmost-prefix subsumption never keeps both `(a)` and
//! `(a, b)`. The rendered smoke report is diffed with every other
//! experiment's in `tests/exp_goldens.rs`.

use flowtune_bench::exp::table6_composite::{build_report, CompositeReport, SMOKE_ROWS};
use std::sync::OnceLock;

/// The report is deterministic but not free to build (five B+Trees);
/// share one across the assertions.
fn report() -> &'static CompositeReport {
    static REPORT: OnceLock<CompositeReport> = OnceLock::new();
    REPORT.get_or_init(|| build_report(SMOKE_ROWS))
}

#[test]
fn composite_beats_best_single_on_multi_predicate_classes() {
    let r = report();
    assert!(
        r.classes
            .iter()
            .any(|c| c.multi_predicate && c.pool_touched < c.single_touched),
        "no multi-predicate class improved over its best single-column plan"
    );
    // The covering class is index-only and also wins.
    assert!(r
        .classes
        .iter()
        .any(|c| c.covering && c.pool_touched < c.single_touched));
    // The bare-range class is the leftmost-prefix negative: the pool
    // cannot beat the single-column shipdate plan.
    let bare = r.classes.iter().find(|c| c.name == "bare range").unwrap();
    assert_eq!(bare.pool_touched, bare.single_touched);
}

#[test]
fn every_plan_returns_the_scan_row_set() {
    assert!(report().classes.iter().all(|c| c.rows_match));
}

#[test]
fn subsumption_never_keeps_both_a_and_ab() {
    let r = report();
    assert!(r.subsumed() > 0, "the workload must exercise subsumption");
    for a in &r.survivors {
        for b in &r.survivors {
            assert!(
                !a.is_prefix_of(b),
                "{:?} and {:?} both survived subsumption",
                a.columns,
                b.columns
            );
        }
    }
}
