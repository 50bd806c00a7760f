//! Figure 7: skyline (offline) scheduler vs online load-balance
//! scheduler.
//!
//! Left sweep: operator runtimes scaled ×1..10 with tiny data (×0.01) —
//! CPU-intensive dataflows, where load balancing does fine (slightly
//! faster, slightly more expensive). Right sweep: data sizes scaled
//! ×1..100 — data-intensive dataflows, where ignoring data placement
//! costs the online scheduler up to ~2× time and ~4× money.
//!
//! Uses CyberShake, as the paper does ("results are similar for the
//! other dataflows").

use flowtune_common::{ExperimentParams, FlowtuneError, SimRng};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_core::tablefmt::render_table;
use flowtune_dataflow::{App, Dag, Edge};
use flowtune_sched::{OnlineLoadBalanceScheduler, SkylineScheduler};

use super::*;

// flowtune-allow(newtype-discipline): time_factor is a dimensionless scale factor, not a time
fn scale_dag(dag: &Dag, time_factor: f64, data_factor: f64) -> Result<Dag, FlowtuneError> {
    let ops = dag
        .ops()
        .iter()
        .map(|op| {
            let mut o = op.clone();
            o.runtime = op.runtime.mul_f64(time_factor);
            o
        })
        .collect();
    let edges = dag
        .edges()
        .iter()
        .map(|e| Edge {
            from: e.from,
            to: e.to,
            bytes: (e.bytes as f64 * data_factor).round() as u64,
        })
        .collect();
    Dag::new(ops, edges)
}

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let setup = ExperimentSetup::new(ExperimentParams::default());
    let quantum = setup.params.cloud.quantum;
    let vm_price = setup.params.cloud.vm_price_per_quantum;
    let offline = SkylineScheduler::new(setup.scheduler_config(8));
    let online = OnlineLoadBalanceScheduler::new(
        setup.params.cloud.max_containers,
        setup.params.cloud.network_bandwidth,
    );
    let mut rng = SimRng::seed_from_u64(7);
    let base = App::Cybershake.generate(if smoke { 30 } else { 100 }, &[], &mut rng);

    let compare = |dag: &Dag| -> (f64, f64) {
        let off = offline.schedule(dag).remove(0);
        let on = online.schedule(dag);
        let dt = (on.makespan().as_secs_f64() - off.makespan().as_secs_f64())
            / off.makespan().as_secs_f64()
            * 100.0;
        let off_m = off.money(quantum, vm_price).as_dollars();
        let on_m = on.money(quantum, vm_price).as_dollars();
        let dm = (on_m - off_m) / off_m * 100.0;
        (dt, dm)
    };

    writeln!(out, "CPU-intensive sweep (runtime x, data x0.01):")?;
    let mut rows = vec![vec![
        "cpu scale".to_string(),
        "Δtime %".to_string(),
        "Δmoney %".to_string(),
    ]];
    let cpu_scales: &[f64] = if smoke {
        &[1.0, 4.0, 10.0]
    } else {
        &[1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    };
    for &scale in cpu_scales {
        let dag = scale_dag(&base, scale, 0.01)?;
        let (dt, dm) = compare(&dag);
        rows.push(vec![
            format!("{scale:.0}x"),
            format!("{dt:+.1}"),
            format!("{dm:+.1}"),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;

    writeln!(out, "data-intensive sweep (data x, runtime x1):")?;
    let mut rows = vec![vec![
        "data scale".to_string(),
        "Δtime %".to_string(),
        "Δmoney %".to_string(),
    ]];
    let data_scales: &[f64] = if smoke {
        &[1.0, 10.0, 100.0]
    } else {
        &[1.0, 5.0, 10.0, 25.0, 50.0, 100.0]
    };
    for &scale in data_scales {
        let dag = scale_dag(&base, 1.0, scale)?;
        let (dt, dm) = compare(&dag);
        rows.push(vec![
            format!("{scale:.0}x"),
            format!("{dt:+.1}"),
            format!("{dm:+.1}"),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    writeln!(out, "paper finding: online is competitive on CPU-bound dataflows but up to ~2x slower and ~4x more expensive on data-intensive ones")?;
    Ok(())
}
