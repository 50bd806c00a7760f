//! Golden equivalence suite: the optimized incremental skyline
//! scheduler must produce **byte-identical** skylines to the retained
//! pre-optimization implementation ([`crate::reference`]) — same
//! schedules, same assignment order within each schedule, same front
//! order — for every `App` workload, across sizes and skyline widths
//! (DESIGN §5f). The cases with build-operator offers live with the
//! online interleaver, in `flowtune-interleave`.
//!
//! Any behavioural drift in the cached-objective/delta-expansion rework
//! shows up here as a precise schedule diff, not as a downstream
//! simulation anomaly.

// Redundant with the `#[cfg(test)]` on the module declaration, but
// carries the gate in-file where flowtune-analyze's per-file scan
// (its test-region exemptions) can see it.
#![cfg(test)]

use flowtune_common::{CloudConfig, DataflowId, OpId, SimDuration, SimRng, SimTime};
use flowtune_dataflow::{App, Dag, DataflowFactory, FileDatabase};

use crate::reference::ReferenceSkylineScheduler;
use crate::schedule::Schedule;
use crate::skyline::{SchedulerConfig, SkylineScheduler};

fn assert_identical(dag: &Dag, config: &SchedulerConfig, label: &str) {
    let fast = SkylineScheduler::new(config.clone());
    let slow = ReferenceSkylineScheduler::new(config.clone());
    let got: Vec<Schedule> = fast.schedule(dag);
    let want: Vec<Schedule> = slow.schedule(dag);
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: skyline widths differ ({} vs {})",
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{label}: schedule {i} differs");
    }
}

fn app_dag(app: App, ops: usize, seed: u64) -> Dag {
    let mut rng = SimRng::seed_from_u64(seed);
    app.generate(ops, &[], &mut rng)
}

#[test]
fn equivalent_on_all_apps_at_60_ops() {
    let config = SchedulerConfig {
        max_skyline: 8,
        ..SchedulerConfig::default()
    };
    for app in App::ALL {
        let dag = app_dag(app, 60, 0xE0);
        assert_identical(&dag, &config, &format!("{}:60:plain", app.name()));
    }
}

#[test]
fn equivalent_on_all_apps_at_100_ops() {
    let config = SchedulerConfig {
        max_skyline: 8,
        ..SchedulerConfig::default()
    };
    for app in App::ALL {
        let dag = app_dag(app, 100, 0xE2);
        assert_identical(&dag, &config, &format!("{}:100:plain", app.name()));
    }
}

#[test]
fn equivalent_on_service_shaped_dataflows() {
    // DAGs as the service builds them: `DataflowFactory::make` over a
    // generated file database (operators carry partition reads), for
    // every app, planned at the service's cloud config and width 8.
    let mut rng = SimRng::seed_from_u64(0xE9);
    let filedb = FileDatabase::generate(&mut rng);
    let mut factory = DataflowFactory::new(filedb, 100, rng.fork());
    let config = SchedulerConfig::for_cloud(&CloudConfig::default(), 8);
    for (i, app) in App::ALL.into_iter().cycle().take(6).enumerate() {
        let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
        assert!(df.dag.ops().iter().any(|op| !op.reads.is_empty()));
        let label = format!("{}:service{i}", app.name());
        assert_identical(&df.dag, &config, &format!("{label}:plain"));
    }
}

#[test]
fn equivalent_across_skyline_widths_including_one() {
    // Width 1 exercises the fixed division-by-zero cap in both
    // implementations; widths 2/4 exercise the even-spread keep list.
    let dag = app_dag(App::Cybershake, 60, 0xE6);
    for width in [1usize, 2, 4, 16] {
        let config = SchedulerConfig {
            max_skyline: width,
            ..SchedulerConfig::default()
        };
        assert_identical(&dag, &config, &format!("cybershake:width{width}"));
    }
}

#[test]
fn equivalent_on_zero_duration_and_tight_quantum_edge_cases() {
    // Zero-duration ops produce (s, s) container spans — the `e >= s`
    // billing edge — and a 7s quantum misaligns every lease boundary.
    use flowtune_dataflow::{Edge, OpSpec};
    let ops: Vec<OpSpec> = (0..12)
        .map(|i| {
            OpSpec::new(
                OpId(i),
                format!("op{i}"),
                SimDuration::from_secs((i as u64 * 5) % 3),
            )
        })
        .collect();
    let edges: Vec<Edge> = (1..12)
        .map(|i| Edge {
            from: OpId((i / 2) as u32),
            to: OpId(i as u32),
            bytes: (i as u64 % 3) * 800_000_000,
        })
        .collect();
    let dag = Dag::new(ops, edges).unwrap();
    let config = SchedulerConfig {
        quantum: SimDuration::from_secs(7),
        max_skyline: 6,
        ..SchedulerConfig::default()
    };
    assert_identical(&dag, &config, "edge:plain");
}
