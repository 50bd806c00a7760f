//! Figure 13: adaptation of the tuner to workload phases.
//!
//! Runs the Gain policy under the phase workload and prints the number
//! of built indexes and the cumulative index storage cost over time.
//! The expected shape: indexes accumulate during each phase, get
//! deleted after the phase ends (their gain fades), and some CyberShake
//! indexes are *recreated* when CyberShake returns in the final phase.

use flowtune_core::tablefmt::render_table;
use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

use super::*;

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let quanta = horizon_quanta(smoke);
    write_horizon(out, quanta, smoke, "")?;
    let mut config = ServiceConfig::default();
    config.params.total_quanta = quanta;
    config.policy = IndexPolicy::Gain { delete: true };
    config.workload = WorkloadKind::paper_phases();
    let mut svc = QaasService::new(config);
    let report = svc.run()?;

    let mut rows = vec![vec![
        "time (quanta)".to_string(),
        "#indexes built".to_string(),
        "#index partitions".to_string(),
        "stored (MB)".to_string(),
        "cum. storage cost ($)".to_string(),
    ]];
    // Sample the timeline at ~24 evenly spaced points.
    let step = (report.timeline.len() / 24).max(1);
    for point in report.timeline.iter().step_by(step) {
        rows.push(vec![
            format!("{:.0}", point.time_quanta),
            point.indexes_built.to_string(),
            point.index_partitions.to_string(),
            format!("{:.1}", point.stored_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", point.storage_cost.as_dollars()),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    writeln!(
        out,
        "indexes deleted during the run: {}; built at end: {}",
        report.indexes_deleted,
        report.timeline.last().map_or(0, |p| p.indexes_built)
    )?;
    writeln!(out, "paper finding: the index set tracks the phases — created when a phase makes them beneficial, deleted when it ends, recreated when CyberShake returns")?;
    Ok(())
}
