//! Figure 12 + Table 7: the phased dataflow workload (§6.5.1).
//!
//! Runs the QaaS service for 720 quanta under the paper's phase
//! schedule (CyberShake → LIGO → Montage → CyberShake) with all four
//! index-management policies, and prints:
//!
//! * dataflows finished and average cost per dataflow (Fig. 12);
//! * operators executed and killed (Table 7).
//!
//! Smoke shrinks the horizon to 60 quanta.

use flowtune_core::tablefmt::render_table;
use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

use super::*;

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let quanta = horizon_quanta(smoke);
    write_horizon(out, quanta, smoke, " (paper: 720)")?;

    let policies = [
        IndexPolicy::NoIndex,
        IndexPolicy::Random,
        IndexPolicy::Gain { delete: false },
        IndexPolicy::Gain { delete: true },
    ];
    let mut fig12 = vec![vec![
        "policy".to_string(),
        "#dataflows finished".to_string(),
        "cost / dataflow ($)".to_string(),
        "avg time / dataflow (quanta)".to_string(),
    ]];
    let mut table7 = vec![vec![
        "policy".to_string(),
        "total ops".to_string(),
        "killed ops".to_string(),
        "killed %".to_string(),
    ]];
    for policy in policies {
        let mut config = ServiceConfig::default();
        config.params.total_quanta = quanta;
        config.policy = policy;
        config.workload = WorkloadKind::paper_phases();
        let report = QaasService::new(config).run()?;
        fig12.push(vec![
            policy.label().to_string(),
            report.dataflows_finished.to_string(),
            format!("{:.3}", report.cost_per_dataflow()),
            format!("{:.2}", report.avg_makespan_quanta()),
        ]);
        table7.push(vec![
            policy.label().to_string(),
            report.total_ops().to_string(),
            (report.builds_killed).to_string(),
            format!("{:.1}", report.killed_percentage()),
        ]);
    }
    writeln!(out, "Figure 12:")?;
    writeln!(out, "{}", render_table(&fig12))?;
    writeln!(
        out,
        "Table 7 (paper: No Index 22402/0, Random 25649/1143 = 4.4 %, Gain 49549/1418 = 2.8 %):"
    )?;
    writeln!(out, "{}", render_table(&table7))?;
    writeln!(out, "paper finding: Gain roughly doubles the dataflows finished vs No Index and cuts cost/dataflow; Random inflates cost via untracked storage")?;
    Ok(())
}
