//! Figures 10–11: knapsack packing quality.
//!
//! Reproduces the §6.4 micro-benchmark: 8 idle time segments and ~24
//! build-operator durations (Fig. 10's histograms), gains equal to
//! execution times, packed by (a) the Graham-style greedy baseline,
//! (b) the LP/branch-and-bound per-slot algorithm, (c) the merged-slot
//! theoretical upper bound. The paper reports LP within 5 % of the
//! bound.

use flowtune_common::Histogram;
use flowtune_core::tablefmt::render_table;
use flowtune_interleave::{graham_greedy, merged_upper_bound, solve_knapsack};

use super::*;

/// Idle segment sizes in quanta (Fig. 10 right: ~0.1–0.6 quanta each).
const SLOTS_QUANTA: [f64; 8] = [0.55, 0.48, 0.40, 0.33, 0.28, 0.22, 0.15, 0.10];

/// Build-operator durations in quanta (Fig. 10 left: ~0.02–0.2).
const OPS_QUANTA: [f64; 24] = [
    0.02, 0.03, 0.03, 0.04, 0.05, 0.05, 0.06, 0.07, 0.08, 0.08, 0.09, 0.10, 0.10, 0.11, 0.12, 0.13,
    0.14, 0.15, 0.16, 0.17, 0.18, 0.19, 0.19, 0.20,
];

fn to_ms(q: f64) -> u64 {
    (q * 60_000.0).round() as u64
}

/// LP interleaving over discrete slots: solve a knapsack per slot,
/// largest slot first, removing placed items.
fn lp_pack(slots: &[u64], sizes: &[u64], values: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(slots[i]));
    let mut available: Vec<bool> = vec![true; sizes.len()];
    let mut total = 0.0;
    for &slot in &order {
        let idx: Vec<usize> = (0..sizes.len()).filter(|&i| available[i]).collect();
        let s: Vec<u64> = idx.iter().map(|&i| sizes[i]).collect();
        let v: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        let sol = solve_knapsack(slots[slot], &s, &v);
        for &chosen in &sol.chosen {
            available[idx[chosen]] = false;
        }
        total += sol.value;
    }
    total
}

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    // Fig. 10: histograms (smoke packs half the operator pool).
    let ops: &[f64] = if smoke {
        &OPS_QUANTA[..OPS_QUANTA.len() / 2]
    } else {
        &OPS_QUANTA
    };
    writeln!(out, "build-operator durations (quanta):")?;
    let mut h = Histogram::new(0.0, 0.25, 5);
    for &op in ops {
        h.record(op);
    }
    for (lo, hi, n) in h.iter() {
        writeln!(out, "  [{lo:.2}, {hi:.2})  {}", "*".repeat(n as usize))?;
    }
    writeln!(out, "idle segments (quanta): {SLOTS_QUANTA:?}\n")?;

    let slots: Vec<u64> = SLOTS_QUANTA.iter().map(|&q| to_ms(q)).collect();
    let sizes: Vec<u64> = ops.iter().map(|&q| to_ms(q)).collect();
    // Gain of each operator equals its execution time (in quanta).
    let values: Vec<f64> = ops.to_vec();

    let (_, graham) = graham_greedy(&slots, &sizes, &values);
    let lp = lp_pack(&slots, &sizes, &values);
    let upper = merged_upper_bound(&slots, &sizes, &values);

    let mut rows = vec![vec![
        "algorithm".to_string(),
        "total gain (quanta)".to_string(),
        "% of upper bound".to_string(),
    ]];
    for (name, value) in [
        ("Graham", graham),
        ("Linear Prog.", lp),
        ("Upper Bound", upper),
    ] {
        rows.push(vec![
            name.to_string(),
            format!("{value:.3}"),
            format!("{:.1} %", value / upper * 100.0),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    writeln!(
        out,
        "LP within {:.1} % of the theoretical upper bound (paper: within 5 %)",
        (1.0 - lp / upper) * 100.0
    )?;
    ensure(lp >= graham - 1e-9, "LP must not lose to the greedy baseline")
}
