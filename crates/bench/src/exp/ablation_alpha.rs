//! Ablation: the time–money trade-off parameter α (Eq. 1–3).
//!
//! The paper fixes α = 0.5 (Table 3); this sweep shows what the knob
//! does: small α values weight the money gain (storage-heavy indexes
//! are rejected, fewer builds), large values weight the time gain
//! (build more, store more). The achieved global objective (Eq. 1,
//! evaluated against a No-Index baseline of the same seed) is reported
//! for each α.

use flowtune_core::tablefmt::render_table;
use flowtune_core::{paired_objective, IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

use super::*;

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let quanta = horizon_quanta(smoke);
    write_horizon(out, quanta, smoke, ", phase workload")?;

    let run = |policy: IndexPolicy, alpha: f64| {
        let mut config = ServiceConfig::default();
        config.params.total_quanta = quanta;
        config.params.tuner.alpha = alpha;
        config.policy = policy;
        config.workload = WorkloadKind::paper_phases();
        QaasService::new(config).run()
    };
    let baseline = run(IndexPolicy::NoIndex, 0.5)?;

    let mut rows = vec![vec![
        "alpha".to_string(),
        "#dataflows finished".to_string(),
        "cost / dataflow ($)".to_string(),
        "avg time (quanta)".to_string(),
        "builds".to_string(),
        "storage cost ($)".to_string(),
        "objective vs no-index ($)".to_string(),
    ]];
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let r = run(IndexPolicy::Gain { delete: true }, alpha)?;
        let vm = flowtune_common::Money::from_dollars(0.1);
        rows.push(vec![
            format!("{alpha:.2}"),
            r.dataflows_finished.to_string(),
            format!("{:.3}", r.cost_per_dataflow()),
            format!("{:.2}", r.avg_makespan_quanta()),
            r.builds_completed.to_string(),
            format!("{:.2}", r.index_storage_cost.as_dollars()),
            format!("{:+.2}", paired_objective(&baseline, &r, alpha, vm)),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    writeln!(
        out,
        "no-index baseline: {} finished, {:.2} quanta avg",
        baseline.dataflows_finished,
        baseline.avg_makespan_quanta()
    )?;
    Ok(())
}
