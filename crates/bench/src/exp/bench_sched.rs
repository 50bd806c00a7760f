//! Pinned scheduler perf baseline: optimized incremental skyline
//! scheduler vs the retained pre-optimization reference.
//!
//! Runs both implementations on the same seeded workloads in the same
//! process. A full run writes `BENCH_sched.json` (schema [`SCHEMA`],
//! documented in `EXPERIMENTS.md`) into the working directory; a smoke
//! run (small DAGs, few samples, every code path in seconds) writes no
//! file. The committed full-run file at the repository root pins the
//! DESIGN §5f acceptance criterion: >= 2x median speedup on the 100-op
//! scientific-DAG `schedule()` benchmark (enforced by
//! `tests/bench_baselines.rs`). The golden equivalence suites in
//! `flowtune-sched` and `flowtune-interleave` separately prove both
//! implementations produce byte-identical skylines (the
//! `schedule_with_optional` row races the online interleaver, a pass
//! over the plain skyline, against the reference's in-search offers),
//! so this run only measures time — except at
//! the 1k-op scale row, where the debug-mode suite cannot afford the
//! reference and equivalence is re-checked here in release mode before
//! timing (DESIGN §5i).
//!
//! Scale grid (full mode): a 1k-op comparison row plus optimized-only
//! 5k/10k rows (the reference needs tens of seconds *per run* at 1k
//! and would need hours beyond it).

use flowtune_common::{BuildOpId, IndexId, SimDuration, SimRng};
use flowtune_dataflow::{App, Dag};
use flowtune_interleave::{BuildOp, OnlineInterleaver};
use flowtune_sched::reference::{OptionalOp, ReferenceSkylineScheduler};
use flowtune_sched::{BuildRef, SchedulerConfig, SkylineScheduler};
use std::hint::black_box;

use super::*;
use crate::compare::{compare, measure_standalone, render_json};

/// The `schema` field of `BENCH_sched.json`.
pub const SCHEMA: &str = "flowtune.bench_sched.v1";

/// Where a full run writes its document, relative to the working
/// directory.
pub const FILE: &str = "BENCH_sched.json";

/// `n` pending builds of equal gain, so the online interleaver offers
/// them in queue order.
fn build_ops(n: u32, seed: u64) -> Vec<BuildOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(1 + rng.uniform_u64(0, 120)),
            gain: 1.0,
        })
        .collect()
}

fn app_dag(app: App, ops: usize) -> Dag {
    app.generate(ops, &[], &mut SimRng::seed_from_u64(1))
}

fn config(width: usize) -> SchedulerConfig {
    SchedulerConfig {
        max_skyline: width,
        ..SchedulerConfig::default()
    }
}

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let (ops, opt_n, samples) = if smoke { (30, 8, 3) } else { (100, 32, 15) };
    let mode = if smoke { "smoke" } else { "full" };
    writeln!(out, "mode: {mode}   dag ops: {ops}   samples/bench: {samples}\n")?;

    let mut comparisons = Vec::new();

    // Headline: schedule() on each application's 100-op DAG, width 8 —
    // the committed baseline's >= 2x criterion reads these rows.
    for app in App::ALL {
        let dag = app_dag(app, ops);
        let fast = SkylineScheduler::new(config(8));
        let slow = ReferenceSkylineScheduler::new(config(8));
        comparisons.push(compare(
            "sched",
            &format!("schedule/{}", app.name()),
            samples,
            || fast.schedule(black_box(&dag)),
            || slow.schedule(black_box(&dag)),
            out,
        )?);
    }

    // Online interleaving: the plain skyline plus the offer pass,
    // against the reference's in-search offers (preemption included).
    {
        let dag = app_dag(App::Montage, ops);
        let pending = build_ops(opt_n, 7);
        let optional: Vec<OptionalOp> = (pending.iter())
            .map(|b| OptionalOp {
                op: b.schedule_op_id(),
                duration: b.duration,
                build: b.build,
            })
            .collect();
        let fast = OnlineInterleaver::new(SkylineScheduler::new(config(8)));
        let slow = ReferenceSkylineScheduler::new(config(8));
        comparisons.push(compare(
            "sched",
            "schedule_with_optional/montage",
            samples,
            || fast.schedule(black_box(&dag), black_box(&pending)),
            || slow.schedule_with_optional(black_box(&dag), black_box(&optional)),
            out,
        )?);
    }

    // Width ablation, including the once-panicking width 1.
    let dag = app_dag(App::Montage, ops);
    for width in [1usize, 8, 24] {
        let fast = SkylineScheduler::new(config(width));
        let slow = ReferenceSkylineScheduler::new(config(width));
        comparisons.push(compare(
            "sched",
            &format!("width/{width}"),
            samples,
            || fast.schedule(black_box(&dag)),
            || slow.schedule(black_box(&dag)),
            out,
        )?);
    }

    // Scale grid (DESIGN §5i). The comparison scale gets a release-mode
    // equivalence re-check (the in-crate golden suite pins 60–100 ops;
    // the debug-mode reference is infeasible at 1k).
    let (cmp_scale, solo_scales, scale_samples) = if smoke {
        (60usize, vec![120usize], 3usize)
    } else {
        (1000, vec![5000, 10_000], 3)
    };
    {
        let dag = app_dag(App::Montage, cmp_scale);
        let fast = SkylineScheduler::new(config(8));
        let slow = ReferenceSkylineScheduler::new(config(8));
        writeln!(
            out,
            "asserting optimized == reference at {cmp_scale} ops (one run each)..."
        )?;
        ensure(
            fast.schedule(&dag) == slow.schedule(&dag),
            &format!("optimized scheduler diverged from reference at {cmp_scale} ops"),
        )?;
        comparisons.push(compare(
            "sched",
            &format!("scale/montage/{cmp_scale}"),
            scale_samples,
            || fast.schedule(black_box(&dag)),
            || slow.schedule(black_box(&dag)),
            out,
        )?);
    }
    let mut standalone = Vec::new();
    for n in solo_scales {
        let dag = app_dag(App::Montage, n);
        let fast = SkylineScheduler::new(config(8));
        standalone.push(measure_standalone(
            "sched",
            &format!("scale/montage/{n}"),
            scale_samples,
            || fast.schedule(black_box(&dag)),
            out,
        )?);
    }

    ensure(
        !comparisons.is_empty(),
        "the reference implementation was never exercised",
    )?;
    let headline: Vec<f64> = comparisons
        .iter()
        .filter(|c| c.name.starts_with("schedule/"))
        .map(|c| c.speedup())
        .collect();
    let min_headline = headline.iter().copied().fold(f64::INFINITY, f64::min);
    writeln!(
        out,
        "\nheadline schedule() speedups: min {min_headline:.2}x across {} apps   reference rows: {}",
        headline.len(),
        comparisons.len()
    )?;
    if smoke {
        return Ok(());
    }
    let json = render_json(
        SCHEMA,
        mode,
        &[("dag_ops", ops.to_string())],
        &comparisons,
        &standalone,
    );
    std::fs::write(FILE, json).map_err(|e| format!("writing {FILE}: {e}"))?;
    writeln!(out, "wrote {FILE}")?;
    Ok(())
}
