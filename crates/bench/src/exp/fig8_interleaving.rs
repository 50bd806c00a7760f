//! Figure 8: number of build-index operators scheduled per skyline
//! schedule — LP interleaving vs online interleaving, Montage.
//!
//! Prints, for each schedule on the two skylines, its monetary cost (in
//! quanta) and how many build operators got placed. The LP algorithm
//! sees the fragmentation up front and packs significantly more.

use flowtune_common::{BuildOpId, ExperimentParams, IndexId, SimDuration, SimRng};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_core::tablefmt::render_table;
use flowtune_dataflow::App;
use flowtune_interleave::{BuildOp, LpInterleaver, OnlineInterleaver};
use flowtune_sched::{BuildRef, SkylineScheduler};

use super::*;

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let setup = ExperimentSetup::new(ExperimentParams::default());
    let quantum = setup.params.cloud.quantum;
    let mut rng = SimRng::seed_from_u64(8);
    let dag = App::Montage.generate(if smoke { 30 } else { 100 }, &[], &mut rng);

    // A pool of pending build ops: 20 indexes x 4 partitions, 5-30 s
    // (a quarter of that under smoke).
    let pending: Vec<BuildOp> = (0..if smoke { 20u32 } else { 80 })
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(5 + (i as u64 * 13) % 26),
            gain: 1.0 + (i as f64 * 0.29) % 4.0,
        })
        .collect();

    let scheduler = SkylineScheduler::new(setup.scheduler_config(12));

    // LP interleaving over the plain skyline.
    let mut lp_skyline = scheduler.schedule(&dag);
    let lp = LpInterleaver::new(quantum);
    let lp_placed = lp.interleave_skyline(&mut lp_skyline, &pending);

    // Online interleaving.
    let online = OnlineInterleaver::new(scheduler.clone());
    let online_skyline = online.schedule(&dag, &pending);

    let mut rows = vec![vec![
        "algorithm".to_string(),
        "money (quanta)".to_string(),
        "#build ops scheduled".to_string(),
    ]];
    for (s, placed) in lp_skyline.iter().zip(&lp_placed) {
        rows.push(vec![
            "LP".to_string(),
            format!("{}", s.leased_quanta(quantum)),
            format!("{}", placed.len()),
        ]);
    }
    for s in &online_skyline {
        rows.push(vec![
            "Online".to_string(),
            format!("{}", s.leased_quanta(quantum)),
            format!("{}", s.build_assignments().count()),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    let lp_max = lp_placed.iter().map(Vec::len).max().unwrap_or(0);
    let online_max = online_skyline
        .iter()
        .map(|s| s.build_assignments().count())
        .max()
        .unwrap_or(0);
    writeln!(
        out,
        "max build ops placed: LP = {lp_max}, online = {online_max}"
    )?;
    writeln!(out, "paper finding: LP schedules significantly more build operators because fragmentation is known before it runs")?;
    Ok(())
}
