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

#[test]
fn equivalent_under_small_fleets() {
    // Fleets of one to three containers leave no fresh container once
    // they are used, so every candidate of a full partial fits, overruns
    // or waits on a used lease: the fused step's best-fit and
    // parent-point cuts decide alone. Service-shaped and 100-op DAGs,
    // widths 1, 2 and 8.
    let mut rng = SimRng::seed_from_u64(0xEA);
    let filedb = FileDatabase::generate(&mut rng);
    let mut factory = DataflowFactory::new(filedb, 100, rng.fork());
    let mut dags: Vec<(String, Dag)> = (App::ALL.into_iter().enumerate())
        .map(|(i, app)| {
            let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
            (format!("{}:service", app.name()), df.dag)
        })
        .collect();
    for app in App::ALL {
        dags.push((format!("{}:100", app.name()), app_dag(app, 100, 0xEB)));
    }
    for max_containers in [1, 2, 3] {
        for max_skyline in [1, 2, 8] {
            let config = SchedulerConfig {
                max_containers,
                max_skyline,
                ..SchedulerConfig::for_cloud(&CloudConfig::default(), 8)
            };
            for (name, dag) in &dags {
                let label = format!("{name}:fleet{max_containers}:width{max_skyline}");
                assert_identical(dag, &config, &label);
            }
        }
    }
}

#[test]
fn equivalent_on_wide_joins() {
    // Joins of 40 or more predecessors spread over many containers, with
    // data on every edge: the ready time of each container comes from
    // the two largest remote-ready times and the local-ready scratch.
    use flowtune_dataflow::{Edge, OpSpec};
    let fan = 45u32;
    let ops: Vec<OpSpec> = (0..fan + 3)
        .map(|i| {
            let secs = 5 + (u64::from(i) * 37) % 90;
            OpSpec::new(OpId(i), format!("op{i}"), SimDuration::from_secs(secs))
        })
        .collect();
    let mut edges = Vec::new();
    for i in 1..=fan {
        edges.push(Edge {
            from: OpId(0),
            to: OpId(i),
            bytes: u64::from(i % 4) * 400_000_000,
        });
        for join in [fan + 1, fan + 2] {
            edges.push(Edge {
                from: OpId(i),
                to: OpId(join),
                bytes: u64::from((i + join) % 5) * 300_000_000,
            });
        }
    }
    let dag = Dag::new(ops, edges).unwrap();
    assert!(dag.preds(OpId(fan + 1)).len() >= 40);
    for (max_containers, max_skyline) in [(100, 8), (100, 2), (3, 8), (12, 24)] {
        let config = SchedulerConfig {
            max_containers,
            max_skyline,
            ..SchedulerConfig::default()
        };
        assert_identical(
            &dag,
            &config,
            &format!("join{fan}:fleet{max_containers}:width{max_skyline}"),
        );
    }
    let montage = app_dag(App::Montage, 100, 0xEC);
    let widest = (0..montage.len())
        .map(|i| montage.preds(OpId::from_index(i)).len())
        .max();
    assert!(widest >= Some(40), "Montage's widest join: {widest:?}");
    let config = SchedulerConfig {
        max_skyline: 8,
        ..SchedulerConfig::default()
    };
    assert_identical(&montage, &config, "Montage:100:join");
}
