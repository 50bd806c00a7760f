//! Figure 4: index ordering in the 2-D gain space.
//!
//! Indexes are points in the plane `(Mc·gt, gm)` — both axes in dollars
//! so the α-weighted gain `g = α·(Mc·gt) + (1−α)·gm` is a rotating
//! family of iso-lines, exactly the figure's geometry. Non-beneficial
//! points (any coordinate ≤ 0: X1..X4) never rank; among the rest the
//! ranking order changes with α, and at α = 0.7 point 1 is best, as the
//! figure states.

use flowtune_common::IndexId;
use flowtune_core::tablefmt::render_table;
use flowtune_tuner::gain::IndexGains;
use flowtune_tuner::rank_indexes;

use super::*;

/// The figure's nine numbered points plus the four X points, as
/// `(Mc·gt, gm)` dollar coordinates (time-gain-heavy points to the
/// right, money-gain-heavy points up).
const POINTS: [(&str, f64, f64); 13] = [
    ("1", 0.95, 0.62),
    ("2", 0.60, 0.70),
    ("3", 0.72, 0.88),
    ("4", 0.40, 0.30),
    ("5", 0.20, 0.20),
    ("6", 0.55, 0.50),
    ("7", 0.65, 0.40),
    ("8", 0.10, 0.45),
    ("9", 0.30, 0.55),
    ("X1", -0.20, 0.50),
    ("X2", -0.10, -0.10),
    ("X3", 0.20, -0.20),
    ("X4", 0.60, -0.15),
];

fn ranked_at(alpha: f64) -> Vec<&'static str> {
    let gains: Vec<(IndexId, IndexGains)> = POINTS
        .iter()
        .enumerate()
        .map(|(i, (_, x, y))| {
            let g = alpha * x + (1.0 - alpha) * y;
            // gt carries the sign of the x coordinate (x = Mc·gt).
            (IndexId(i as u32), IndexGains { gt: *x, gm: *y, g })
        })
        .collect();
    rank_indexes(&gains)
        .into_iter()
        .map(|(id, _)| POINTS[id.index()].0)
        .collect()
}

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut rows = vec![vec![
        "alpha".to_string(),
        "ranking (best first)".to_string(),
    ]];
    let alphas: &[f64] = if smoke {
        &[0.1, 0.5, 0.9]
    } else {
        &[0.1, 0.3, 0.5, 0.7, 0.9]
    };
    for &alpha in alphas {
        rows.push(vec![format!("{alpha:.1}"), ranked_at(alpha).join(" > ")]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    let at_07 = ranked_at(0.7);
    let best = at_07.first().ok_or("no index ranks at α = 0.7")?;
    writeln!(
        out,
        "at α = 0.7 the best index is point {best} (paper: point 1); X1..X4 never rank"
    )?;
    ensure(*best == "1", "point 1 must win at α = 0.7")?;
    let filtered = !at_07.iter().any(|p| p.starts_with('X'));
    ensure(filtered, "non-beneficial points must be filtered")?;
    // The ordering genuinely rotates with α.
    ensure(ranked_at(0.1) != ranked_at(0.9), "the ranking must rotate with α")
}
