//! Figure 3 + Table 2: the worked gain example of §4.
//!
//! Two indexes A (100 MB) and B (500 MB); four dataflows issued at time
//! points 10, 30, 50, 100 with the Table 2 per-dataflow gains; α = 0.5,
//! D = 60 — exactly the paper's setting. The paper does not state the
//! example's build times or storage price, so those are calibrated to
//! its described shape (B beneficial at t ≈ 30, deleted at t ≈ 125):
//! build time/cost 1.5 quanta for B and 0.5 for A, storage at
//! $7·10⁻⁶/MB/quantum over a W = 150-quanta window.
//!
//! The index lifecycle is emulated: while an index is unbuilt its
//! build time/cost weigh on the gain; once the gain turns positive the
//! index is built (build terms vanish); once it turns non-positive the
//! index is deleted (build terms return).

use flowtune_common::{Money, Quanta, SimDuration, TunerConfig};
use flowtune_core::tablefmt::render_table;
use flowtune_tuner::GainModel;

use super::*;

/// Table 2: (issue time, gtd, gmd) per index.
const DATAFLOWS_A: [(f64, f64, f64); 2] = [(50.0, 2.0, 8.0), (100.0, 3.0, 5.0)];
const DATAFLOWS_B: [(f64, f64, f64); 3] = [(10.0, 1.0, 3.0), (30.0, 2.0, 5.0), (50.0, 3.0, 8.0)];

struct IndexTrack {
    name: &'static str,
    dataflows: &'static [(f64, f64, f64)],
    bytes: u64,
    build_quanta: Quanta,
    built: bool,
    became_beneficial: Option<f64>,
    deleted_at: Option<f64>,
}

impl IndexTrack {
    fn gain_at(&self, model: &GainModel, t: f64) -> f64 {
        // Σ dc·gtd and Σ dc·gmd over the dataflows issued by `t`.
        let (mut gt, mut gm) = (0.0, 0.0);
        for &(issue, gtd, gmd) in self.dataflows.iter().filter(|(issue, ..)| *issue <= t) {
            let fade = model.fading(Quanta::new(t - issue));
            gt += fade * gtd;
            gm += fade * gmd;
        }
        let build = if self.built {
            Quanta::ZERO
        } else {
            self.build_quanta
        };
        model.finish(gt, gm, build, self.bytes).g
    }

    fn step(&mut self, g: f64, t: f64) {
        if g > 0.0 && !self.built {
            self.built = true;
            self.became_beneficial.get_or_insert(t);
        } else if g <= 0.0 && self.built {
            self.built = false;
            if self.became_beneficial.is_some() {
                self.deleted_at.get_or_insert(t);
            }
        }
    }
}

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let model = GainModel::new(
        TunerConfig {
            alpha: 0.5,
            fading_d: 60.0,
            window_w: 150.0,
            storage_window_w: 150.0,
        },
        SimDuration::from_secs(60),
        Money::from_dollars(0.1),
        Money::from_dollars(7e-6),
    );
    const MB: u64 = 1024 * 1024;
    let mut a = IndexTrack {
        name: "A",
        dataflows: &DATAFLOWS_A,
        bytes: 100 * MB,
        build_quanta: Quanta::new(0.5),
        built: false,
        became_beneficial: None,
        deleted_at: None,
    };
    let mut b = IndexTrack {
        name: "B",
        dataflows: &DATAFLOWS_B,
        bytes: 500 * MB,
        build_quanta: Quanta::new(1.5),
        built: false,
        became_beneficial: None,
        deleted_at: None,
    };

    let mut rows = vec![vec![
        "t".to_string(),
        "g(A,t)".to_string(),
        "g(B,t)".to_string(),
        "A built".to_string(),
        "B built".to_string(),
    ]];
    // Full resolution for the figure; a coarse sweep under smoke.
    let step = if smoke { 25 } else { 5 };
    for t in (0..=200).step_by(step) {
        let t = t as f64;
        let ga = a.gain_at(&model, t);
        let gb = b.gain_at(&model, t);
        a.step(ga, t);
        b.step(gb, t);
        rows.push(vec![
            format!("{t:.0}"),
            format!("{ga:+.4}"),
            format!("{gb:+.4}"),
            a.built.to_string(),
            b.built.to_string(),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    for idx in [&a, &b] {
        writeln!(
            out,
            "index {}: beneficial at t = {}, deleted at t = {}",
            idx.name,
            idx.became_beneficial
                .map_or("never".into(), |t| format!("{t:.0}")),
            idx.deleted_at
                .map_or("never (within 200)".into(), |t| format!("{t:.0}")),
        )?;
    }
    writeln!(
        out,
        "paper: B becomes beneficial at t = 30 and is deleted around t = 125"
    )?;
    Ok(())
}
