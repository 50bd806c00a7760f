//! Workload adaptation demo: run the service under a phased workload
//! (CyberShake → LIGO → Montage → CyberShake) and watch the index set
//! track the phases — created when the phase makes them beneficial,
//! deleted when it ends, recreated when CyberShake returns.
//!
//! ```bash
//! cargo run --release -p flowtune-core --example phase_adaptivity
//! ```

#![expect(clippy::expect_used, reason = "examples fail fast on a broken run")]

use flowtune_core::{IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn main() {
    let mut config = ServiceConfig::default();
    // A compressed version of the paper's 720-quantum phase schedule.
    config.params.total_quanta = 180;
    config.workload = WorkloadKind::Phases(vec![
        (
            flowtune_dataflow::App::Cybershake,
            flowtune_common::SimDuration::from_secs(2500),
        ),
        (
            flowtune_dataflow::App::Ligo,
            flowtune_common::SimDuration::from_secs(1250),
        ),
        (
            flowtune_dataflow::App::Montage,
            flowtune_common::SimDuration::from_secs(5000),
        ),
        (
            flowtune_dataflow::App::Cybershake,
            flowtune_common::SimDuration::from_secs(2050),
        ),
    ]);
    config.policy = IndexPolicy::Gain { delete: true };

    println!(
        "running a phased workload for {} quanta...",
        config.params.total_quanta
    );
    let mut service = QaasService::new(config);
    let report = service.run().expect("service run failed");

    println!();
    println!("time(q)  indexes  partitions  stored(MB)");
    for point in report.timeline.iter().step_by(3) {
        let bar = "#".repeat(point.indexes_built.min(60));
        println!(
            "{:>7.0}  {:>7}  {:>10}  {:>10.1}  {}",
            point.time_quanta,
            point.indexes_built,
            point.index_partitions,
            point.stored_bytes as f64 / (1024.0 * 1024.0),
            bar
        );
    }
    println!();
    println!(
        "dataflows finished: {}; builds completed: {}; indexes deleted: {}",
        report.dataflows_finished, report.builds_completed, report.indexes_deleted
    );
}
