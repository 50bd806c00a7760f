//! End-to-end integration tests: the full QaaS service across all
//! crates (workload generation → tuning → scheduling → interleaving →
//! simulation → accounting).

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns fail fast on a broken fixture"
)]

use flowtune_cloud::FaultConfig;
use flowtune_common::Money;
use flowtune_core::{IndexPolicy, QaasService, RunReport, ServiceConfig};
use flowtune_dataflow::WorkloadKind;

fn run(policy: IndexPolicy, workload: WorkloadKind, quanta: u64, seed: u64) -> RunReport {
    let mut config = ServiceConfig::default();
    config.params.total_quanta = quanta;
    config.params.seed = seed;
    config.policy = policy;
    config.workload = workload;
    config.max_skyline = 4;
    QaasService::new(config).run().expect("service run failed")
}

#[test]
fn all_policies_complete_a_random_workload() {
    for policy in [
        IndexPolicy::NoIndex,
        IndexPolicy::Random,
        IndexPolicy::Gain { delete: false },
        IndexPolicy::Gain { delete: true },
    ] {
        let r = run(policy, WorkloadKind::Random, 30, 1);
        assert!(r.dataflows_issued > 0, "{}: nothing issued", policy.label());
        assert!(
            r.dataflows_finished > 0,
            "{}: nothing finished",
            policy.label()
        );
        assert!(
            r.dataflow_ops >= r.dataflows_finished * 90,
            "{}",
            policy.label()
        );
        assert!(r.compute_cost > Money::ZERO, "{}", policy.label());
        assert_eq!(r.timeline.len(), r.dataflows_issued);
    }
}

#[test]
fn gain_policy_beats_no_index_on_cost_and_throughput() {
    // Longer phased run so indexes have time to pay off.
    let base = run(IndexPolicy::NoIndex, WorkloadKind::paper_phases(), 120, 2);
    let gain = run(
        IndexPolicy::Gain { delete: true },
        WorkloadKind::paper_phases(),
        120,
        2,
    );
    assert!(
        gain.dataflows_finished >= base.dataflows_finished,
        "gain {} < base {}",
        gain.dataflows_finished,
        base.dataflows_finished
    );
    assert!(
        gain.avg_makespan_quanta() <= base.avg_makespan_quanta() * 1.05,
        "gain {} vs base {} quanta",
        gain.avg_makespan_quanta(),
        base.avg_makespan_quanta()
    );
    assert!(gain.builds_completed > 0);
}

#[test]
fn no_index_policy_attempts_no_builds() {
    let r = run(IndexPolicy::NoIndex, WorkloadKind::Random, 30, 3);
    assert_eq!(r.builds_completed, 0);
    assert_eq!(r.builds_killed, 0);
    assert_eq!(r.indexes_deleted, 0);
    assert_eq!(r.index_storage_cost, Money::ZERO);
}

#[test]
fn killed_fraction_stays_small_for_gain_policy() {
    // Table 7: the LP packing keeps premature kills under a few percent
    // of all operators.
    let r = run(
        IndexPolicy::Gain { delete: true },
        WorkloadKind::paper_phases(),
        90,
        4,
    );
    assert!(
        r.killed_percentage() < 15.0,
        "killed {}% of ops",
        r.killed_percentage()
    );
}

#[test]
fn timeline_cost_is_monotone_and_issue_order_respected() {
    let r = run(
        IndexPolicy::Gain { delete: true },
        WorkloadKind::Random,
        40,
        5,
    );
    // Entries are in processing order; concurrent lanes may finish out
    // of order, but accrued storage cost never decreases and dataflows
    // are issued in arrival order.
    for w in r.timeline.windows(2) {
        assert!(
            w[0].storage_cost <= w[1].storage_cost,
            "storage cost regressed"
        );
    }
    for w in r.per_dataflow.windows(2) {
        assert!(
            w[0].issued_quanta <= w[1].issued_quanta + flowtune_common::Quanta::new(1e-9),
            "issue order violated"
        );
    }
}

#[test]
fn deletions_only_happen_with_delete_enabled() {
    let keep = run(
        IndexPolicy::Gain { delete: false },
        WorkloadKind::paper_phases(),
        90,
        6,
    );
    assert_eq!(keep.indexes_deleted, 0);
    // With deletion enabled under a *phased* workload, stale indexes get
    // dropped eventually (phases make old indexes useless).
    let del = run(
        IndexPolicy::Gain { delete: true },
        WorkloadKind::paper_phases(),
        240,
        6,
    );
    assert!(
        del.indexes_deleted > 0,
        "no index ever deleted under phases"
    );
}

#[test]
fn estimation_errors_do_not_break_the_service() {
    let mut config = ServiceConfig::default();
    config.params.total_quanta = 25;
    config.params.seed = 7;
    config.estimation_error = (0.3, 0.3);
    config.max_skyline = 4;
    let r = QaasService::new(config).run().expect("service run failed");
    assert!(r.dataflows_finished > 0);
}

/// The report's `Debug` rendering with every money field zeroed: what
/// the run did, with what it cost left out.
fn moneyless(report: &RunReport) -> String {
    let mut r = report.clone();
    r.compute_cost = Money::ZERO;
    r.index_storage_cost = Money::ZERO;
    r.wasted_cost = Money::ZERO;
    for point in &mut r.timeline {
        point.storage_cost = Money::ZERO;
    }
    format!("{r:?}")
}

#[test]
fn doubling_both_prices_doubles_the_money_and_changes_nothing_else() {
    // Scaling both prices by 2 must leave every decision alone and
    // scale every bill: no decision adds dollars to seconds.
    let runs = [
        (IndexPolicy::NoIndex, 0.0),
        (IndexPolicy::Random, 0.0),
        (IndexPolicy::Gain { delete: true }, 0.0),
        // Faults make `wasted_cost` non-zero.
        (IndexPolicy::NoIndex, 0.3),
        (IndexPolicy::Gain { delete: true }, 0.3),
    ];
    for seed in [1, 7] {
        for (policy, fault_rate) in runs {
            let run_at = |scale: i64| {
                let mut config = ServiceConfig {
                    workload: WorkloadKind::paper_phases(),
                    policy,
                    faults: FaultConfig::with_rate(fault_rate, seed),
                    ..Default::default()
                };
                config.params.total_quanta = 40;
                config.params.seed = seed;
                let cloud = &mut config.params.cloud;
                cloud.vm_price_per_quantum = cloud.vm_price_per_quantum * scale;
                cloud.storage_price_per_mb_quantum = cloud.storage_price_per_mb_quantum * scale;
                QaasService::new(config).run().expect("service run failed")
            };
            let (base, doubled) = (run_at(1), run_at(2));
            let label = format!("{} seed {seed} fault rate {fault_rate}", policy.label());
            assert_eq!(moneyless(&base), moneyless(&doubled), "{label}");
            assert_eq!(doubled.compute_cost, base.compute_cost * 2, "{label}");
            assert_eq!(doubled.wasted_cost, base.wasted_cost * 2, "{label}");
            if fault_rate > 0.0 {
                assert!(base.wasted_cost > Money::ZERO, "{label}: no waste");
            }
            // The storage meter rounds each accrual to the micro-dollar,
            // and round(2x) is within 1 µ$ of 2·round(x). It accrues
            // only when its clock moves: at a build commit, an index
            // drop, a round's end (one round per issued dataflow) and
            // the horizon.
            let accruals = base.builds_completed + base.indexes_deleted + base.dataflows_issued + 1;
            let slack = Money::from_micros(accruals as i64);
            let storage = |r: &RunReport| {
                let mut costs: Vec<Money> = r.timeline.iter().map(|p| p.storage_cost).collect();
                costs.push(r.index_storage_cost);
                costs
            };
            for (one, two) in storage(&base).into_iter().zip(storage(&doubled)) {
                let drift = two - one * 2;
                assert!(
                    drift.max(-drift) <= slack,
                    "{label}: storage {two} vs 2 x {one}, slack {slack}"
                );
            }
        }
    }
}
