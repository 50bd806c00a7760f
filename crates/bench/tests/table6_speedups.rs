//! Table 6's measured speedups, timed by the bench harness's calibrated
//! loop (`flowtune_bench::compare::measure`).

use flowtune_bench::exp::table6_speedups::measure_speedups;

/// Table 6's selectivity ordering: lookup > small range > large range,
/// and every indexed path wins. (The paper's DBMS also has order-by <
/// large range; in a purely in-memory engine the scan side of the large
/// range is cheap relative to result materialisation, which compresses
/// that particular gap — see EXPERIMENTS.md.)
#[test]
fn table6_speedup_ordering_reproduces() {
    let rows = measure_speedups(400_000, 66);
    let s = |name: &str| rows.iter().find(|r| r.name == name).unwrap().speedup();
    let order_by = s("Order by");
    let large = s("Select range (large)");
    let small = s("Select range (small)");
    let lookup = s("Lookup");
    assert!(order_by > 1.0, "order-by {order_by:.1}");
    assert!(large > 1.0, "large {large:.1}");
    assert!(small > large, "small {small:.1} <= large {large:.1}");
    assert!(lookup > small, "lookup {lookup:.1} <= small {small:.1}");
}
