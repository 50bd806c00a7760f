//! Explore the time–money trade-off: run the service at several α
//! values and print the achieved Eq. 1 objective against a No-Index
//! baseline of the same seed.
//!
//! ```bash
//! cargo run --release -p flowtune-core --example cost_explorer
//! ```

#![expect(clippy::expect_used, reason = "examples fail fast on a broken run")]

use flowtune_core::{paired_objective, IndexPolicy, QaasService, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn main() {
    const QUANTA: u64 = 120;
    let run = |policy: IndexPolicy, alpha: f64| {
        let mut config = ServiceConfig::default();
        config.params.total_quanta = QUANTA;
        config.params.tuner.alpha = alpha;
        config.policy = policy;
        config.workload = WorkloadKind::paper_phases();
        QaasService::new(config).run().expect("service run failed")
    };

    println!("running No-Index baseline ({QUANTA} quanta)...");
    let baseline = run(IndexPolicy::NoIndex, 0.5);
    println!(
        "baseline: {} dataflows, {:.2} quanta avg, ${:.3}/dataflow",
        baseline.dataflows_finished,
        baseline.avg_makespan_quanta(),
        baseline.cost_per_dataflow()
    );
    println!();
    println!("alpha  finished  avg time  $/dataflow  storage $  objective $");
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let r = run(IndexPolicy::Gain { delete: true }, alpha);
        let objective = paired_objective(
            &baseline,
            &r,
            alpha,
            flowtune_common::Money::from_dollars(0.1),
        );
        println!(
            "{alpha:>5.2}  {:>8}  {:>8.2}  {:>10.3}  {:>9.3}  {objective:>+11.2}",
            r.dataflows_finished,
            r.avg_makespan_quanta(),
            r.cost_per_dataflow(),
            r.index_storage_cost.as_dollars(),
        );
    }
    println!();
    println!("small α weights money (build less, store less); large α weights time");
}
