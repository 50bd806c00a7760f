//! Table 6: measured index speedups on `lineitem.orderkey`.
//!
//! Runs the paper's four query classes (order-by, large range select,
//! small range select, point lookup) over the synthetic `lineitem` with
//! and without a B+Tree index — real executions on real data
//! structures, not model numbers. Absolute times differ from the
//! paper's DBMS/hardware; the ordering and magnitudes reproduce.
//!
//! The table has 2 M rows (the paper uses ~12 M); `--smoke` shrinks it
//! to 200 k.

// Experiment/bench/example code fails fast on setup errors; panic-hygiene
// (flowtune-analyze) scopes to library code, so asserting here is idiomatic.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use flowtune_core::tablefmt::render_table;
use flowtune_query::measure_table6;

/// Paper's Table 6: (query, no-index s, index s, speedup).
const PAPER: [(&str, f64, f64, f64); 4] = [
    ("Order by", 44.730, 6.010, 7.44),
    ("Select range (large)", 5.103, 0.054, 94.44),
    ("Select range (small)", 4.921, 0.016, 307.50),
    ("Lookup", 4.393, 0.007, 627.14),
];

fn main() {
    let _obs = flowtune_bench::obs_guard();
    let smoke = flowtune_bench::smoke();
    let rows_n = if smoke { 200_000 } else { 2_000_000 };
    flowtune_bench::banner("Table 6", "index speedup (measured on real B+Tree)");
    println!("table rows: {rows_n} (paper: ~12 M at SF 2)");
    println!();
    let measured = if smoke {
        measure_table6(rows_n, 2, 1)
    } else {
        measure_table6(rows_n, 6, 3)
    };
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
            .find(|(q, ..)| *q == m.query)
            .expect("query class present in paper table");
        rows.push(vec![
            m.query.to_string(),
            format!("{:.3} ms", m.no_index.as_secs_f64() * 1e3),
            format!("{:.3} ms", m.with_index.as_secs_f64() * 1e3),
            format!("{:.2}x", m.speedup()),
            format!("{:.2}x", paper.3),
        ]);
    }
    print!("{}", render_table(&rows));
    println!();
    // The qualitative shape: lookup >= small range >= large range, and
    // every indexed path wins.
    let speedups: Vec<f64> = measured.iter().map(|m| m.speedup()).collect();
    println!(
        "ordering check (order-by < large < small <= lookup): {}",
        speedups[0] < speedups[1] && speedups[1] < speedups[2]
    );
}
