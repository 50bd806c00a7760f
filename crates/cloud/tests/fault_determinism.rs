//! Determinism of the fault-injection layer at the simulator level:
//! the execution report is a pure function of `(workload seed, fault
//! seed)`, and a fault rate of 0 is byte-identical to the plain
//! (pre-fault) simulator.

use std::collections::BTreeMap;

use flowtune_cloud::{FaultConfig, FaultPlan, IndexAvailability, Simulator};
use flowtune_common::{CloudConfig, DataflowId, SimRng, SimTime};
use flowtune_dataflow::{App, Dataflow, DataflowFactory, FileDatabase};
use flowtune_sched::{Schedule, SchedulerConfig, SkylineScheduler};

fn workload(seed: u64) -> (FileDatabase, Dataflow, Schedule) {
    let mut rng = SimRng::seed_from_u64(seed);
    let db = FileDatabase::generate(&mut rng);
    let mut factory = DataflowFactory::new(db.clone(), 60, rng);
    let df = factory.make(DataflowId(0), App::Cybershake, SimTime::ZERO);
    let schedule = SkylineScheduler::new(SchedulerConfig {
        max_skyline: 4,
        ..Default::default()
    })
    .schedule(&df.dag)
    .remove(0);
    (db, df, schedule)
}

fn faulted_run(workload_seed: u64, fault_rate: f64, fault_seed: u64) -> String {
    let (db, df, schedule) = workload(workload_seed);
    let sim = Simulator::new(CloudConfig::default(), &db);
    let plan = FaultPlan::new(FaultConfig::with_rate(fault_rate, fault_seed));
    let mut injector = plan.injector(0, 0);
    #[expect(
        clippy::expect_used,
        reason = "a failed simulation fails the test that runs this helper"
    )]
    let report = sim
        .execute_with_faults(
            &df.dag,
            &schedule,
            &df.index_uses,
            &IndexAvailability::new(),
            &BTreeMap::new(),
            &mut injector,
        )
        .expect("simulation failed");
    format!("{report:?}")
}

#[test]
fn same_seed_pair_gives_identical_reports() {
    for workload_seed in [3, 17, 99] {
        for fault_seed in [1, 0xFA_0175] {
            let a = faulted_run(workload_seed, 0.4, fault_seed);
            let b = faulted_run(workload_seed, 0.4, fault_seed);
            assert_eq!(a, b, "seeds ({workload_seed}, {fault_seed}) diverged");
        }
    }
}

#[test]
fn different_fault_seeds_change_the_fault_pattern() {
    // Not guaranteed for any single seed pair, so check that at least
    // one of several fault seeds diverges from the baseline.
    let base = faulted_run(3, 0.6, 1);
    let diverged = (2..8u64).any(|fs| faulted_run(3, 0.6, fs) != base);
    assert!(diverged, "fault seed never affected the fault pattern");
}

#[test]
fn rate_zero_is_byte_identical_to_the_plain_simulator() {
    for workload_seed in [3, 17, 99] {
        let (db, df, schedule) = workload(workload_seed);
        let sim = Simulator::new(CloudConfig::default(), &db);
        let plain = sim
            .execute(
                &df.dag,
                &schedule,
                &df.index_uses,
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .expect("simulation failed");
        // Any fault seed: at rate 0 the injector must never draw.
        let faulted = faulted_run(workload_seed, 0.0, 0xDEAD_BEEF);
        assert_eq!(format!("{plain:?}"), faulted);
        assert!(plain.completed());
        assert!(plain.killed_ops.is_empty());
        assert!(plain.revoked_containers.is_empty());
        assert_eq!(plain.storage_faults, 0);
        assert_eq!(plain.straggler_ops, 0);
    }
}

#[test]
fn faults_only_ever_add_kills_and_waste() {
    // Under any fault rate, conservation holds: every dataflow op is
    // executed or killed, every build lands in exactly one bucket.
    for rate in [0.1, 0.5, 1.0] {
        let (db, df, schedule) = workload(17);
        let sim = Simulator::new(CloudConfig::default(), &db);
        let plan = FaultPlan::new(FaultConfig::with_rate(rate, 7));
        let mut injector = plan.injector(0, 0);
        let r = sim
            .execute_with_faults(
                &df.dag,
                &schedule,
                &df.index_uses,
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut injector,
            )
            .expect("simulation failed");
        assert_eq!(r.dataflow_ops + r.killed_ops.len(), df.dag.len());
        assert_eq!(
            r.build_ops_attempted(),
            schedule.build_assignments().count()
        );
    }
}
