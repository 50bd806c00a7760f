//! Pinned digests of the execution simulator's reports.
//!
//! Seeded `DataflowFactory` dataflows of all three applications run
//! under four configurations: fault-free; LP-interleaved builds against
//! a partial `IndexAvailability`; faults at rate 0.3 with crash and
//! torn shares 0.3, killed operators retried as remnant DAGs; and a
//! disk cache small enough that the LRU evicts inside one dataflow.
//! Each configuration folds the `Debug` rendering of every
//! `ExecutionReport` into one FNV-1a digest. The digests were taken
//! from the map-based simulator before the execute stage moved to
//! dense per-dataflow arrays, so a pure performance change to
//! `Simulator::execute_with_faults` or `LruCache` must leave them
//! unchanged.

#![expect(
    clippy::unwrap_used,
    reason = "test helpers fail fast on a broken fixture"
)]

use std::collections::{BTreeMap, BTreeSet};

use flowtune_cloud::{
    perturb_dag, ExecutionReport, FaultConfig, FaultPlan, IndexAvailability, Simulator,
};
use flowtune_common::{
    BuildOpId, CloudConfig, DataflowId, IndexId, OpId, SimDuration, SimRng, SimTime,
};
use flowtune_dataflow::{App, Dag, Dataflow, DataflowFactory, Edge, FileDatabase, OpSpec};
use flowtune_interleave::{BuildOp, LpInterleaver};
use flowtune_sched::{BuildRef, Schedule, SchedulerConfig, SkylineScheduler};

const Q: SimDuration = SimDuration::from_secs(60);
const SEEDS: [u64; 4] = [5, 23, 71, 404];
const MAX_RETRIES: u32 = 3;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    FaultFree,
    Interleaved,
    Faulted,
    SmallDisk,
}

/// FNV-1a over the bytes of each report's `Debug` rendering.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, report: &ExecutionReport) {
        for b in format!("{report:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Totals across a configuration's reports, checked alongside the digest.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    reports: usize,
    dataflow_ops: usize,
    killed_ops: usize,
    completed_builds: usize,
    cache_hits: u64,
    cache_misses: u64,
}

/// Disk capacity for the eviction configuration: one and a half of the
/// dataflow's largest input partition. Every object still fits, so a
/// re-read that misses here and hits on a 100 GB disk was evicted.
fn small_disk(db: &FileDatabase, df: &Dataflow) -> u64 {
    let largest = df.dag.ops().iter().flat_map(|op| &op.reads);
    let largest = largest.map(|&pid| db.partition(pid).bytes).max();
    largest.unwrap_or(1) * 3 / 2
}

fn schedule_of(dag: &Dag) -> Schedule {
    SkylineScheduler::new(SchedulerConfig {
        max_skyline: 4,
        ..Default::default()
    })
    .schedule(dag)
    .remove(0)
}

fn pending(n: u32) -> Vec<BuildOp> {
    (0..n)
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(3 + (u64::from(i) * 7) % 19),
            gain: 0.2 + f64::from(i % 11) * 0.3,
        })
        .collect()
}

/// Every other partition of each usable index, sized at an eighth of
/// the data partition.
fn partial_availability(db: &FileDatabase, df: &Dataflow) -> IndexAvailability {
    let mut avail = IndexAvailability::new();
    for u in &df.index_uses {
        for p in db.file(u.file).partitions.iter().step_by(2) {
            avail.add(u.index, p.id.part, p.bytes / 8);
        }
    }
    avail
}

/// The killed operators as a DAG of their own (dense ids, internal
/// edges only), as the service's recovery path reschedules them.
fn remnant(actual: &Dag, killed: &[OpId]) -> Dag {
    let ops: BTreeSet<OpId> = killed.iter().copied().collect();
    let remap: BTreeMap<OpId, OpId> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| (op, OpId::from_index(i)))
        .collect();
    let specs: Vec<OpSpec> = ops
        .iter()
        .map(|&op| {
            let mut spec = actual.op(op).clone();
            spec.id = remap[&op];
            spec
        })
        .collect();
    let edges: Vec<Edge> = actual
        .edges()
        .iter()
        .filter_map(|e| {
            Some(Edge {
                from: *remap.get(&e.from)?,
                to: *remap.get(&e.to)?,
                bytes: e.bytes,
            })
        })
        .collect();
    Dag::new(specs, edges).unwrap()
}

fn run(config: Config) -> (u64, Totals) {
    let mut digest = Digest::new();
    let mut totals = Totals::default();
    let mut record = |r: &ExecutionReport, totals: &mut Totals| {
        digest.fold(r);
        totals.reports += 1;
        totals.dataflow_ops += r.dataflow_ops;
        totals.killed_ops += r.killed_ops.len();
        totals.completed_builds += r.completed_builds.len();
        totals.cache_hits += r.cache_hits;
        totals.cache_misses += r.cache_misses;
    };
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let db = FileDatabase::generate(&mut rng);
        let mut factory = DataflowFactory::new(db, 60, rng.fork());
        for (i, app) in App::ALL.into_iter().enumerate() {
            let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
            let db = factory.filedb();
            let mut cloud = CloudConfig::default();
            if config == Config::SmallDisk {
                cloud.disk_capacity_bytes = small_disk(db, &df);
            }
            let sim = Simulator::new(cloud, db);
            let mut schedule = schedule_of(&df.dag);
            let mut avail = IndexAvailability::new();
            let mut durations = BTreeMap::new();
            let mut actual = df.dag.clone();
            if config == Config::Interleaved {
                let placed = LpInterleaver::new(Q).interleave(&mut schedule, &pending(40));
                // Every third placed build actually runs 40% longer.
                for b in placed.iter().step_by(3) {
                    durations.insert(b.build, b.duration.mul_f64(1.4));
                }
                avail = partial_availability(db, &df);
                actual = perturb_dag(&df.dag, 0.3, 0.3, &mut rng);
            }
            if config == Config::SmallDisk {
                avail = partial_availability(db, &df);
            }
            let plan = FaultPlan::new(FaultConfig {
                crash_build_share: 0.3,
                torn_write_share: 0.3,
                ..FaultConfig::with_rate(0.3, seed ^ 0xFA17)
            });
            if config == Config::Faulted {
                LpInterleaver::new(Q).interleave(&mut schedule, &pending(24));
            }
            let mut injector = if config == Config::Faulted {
                plan.injector(df.id.0, 0)
            } else {
                flowtune_cloud::FaultInjector::none()
            };
            let first = sim
                .execute_with_faults(
                    &actual,
                    &schedule,
                    &df.index_uses,
                    &avail,
                    &durations,
                    &mut injector,
                )
                .unwrap();
            record(&first, &mut totals);
            let (mut dag, mut killed) = (actual, first.killed_ops.clone());
            let mut attempt = 0;
            while !killed.is_empty() && attempt < MAX_RETRIES {
                attempt += 1;
                let rest = remnant(&dag, &killed);
                let retry = sim
                    .execute_with_faults(
                        &rest,
                        &schedule_of(&rest),
                        &df.index_uses,
                        &avail,
                        &BTreeMap::new(),
                        &mut plan.injector(df.id.0, attempt),
                    )
                    .unwrap();
                record(&retry, &mut totals);
                (dag, killed) = (rest, retry.killed_ops);
            }
        }
    }
    (digest.0, totals)
}

#[test]
fn fault_free_reports_are_pinned() {
    let (digest, totals) = run(Config::FaultFree);
    assert_eq!(totals.killed_ops, 0);
    assert_eq!(digest, 0x1cd4602690d08cd3, "{totals:?}");
}

#[test]
fn interleaved_reports_with_partial_availability_are_pinned() {
    let (digest, totals) = run(Config::Interleaved);
    assert!(totals.completed_builds > 0, "{totals:?}");
    assert_eq!(digest, 0xd0215203f12badff, "{totals:?}");
}

#[test]
fn faulted_reports_with_remnant_retries_are_pinned() {
    let (digest, totals) = run(Config::Faulted);
    assert!(totals.reports > SEEDS.len() * 3, "no retry ran: {totals:?}");
    assert_eq!(digest, 0x5087719c13fd81ac, "{totals:?}");
}

#[test]
fn small_disk_reports_are_pinned_and_the_cache_evicts() {
    let (digest, totals) = run(Config::SmallDisk);
    // Same reads, same availability: with the default 100 GB disk
    // every extra miss here is a re-read of an evicted object.
    let mut roomy = Totals::default();
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let db = FileDatabase::generate(&mut rng);
        let mut factory = DataflowFactory::new(db, 60, rng.fork());
        for (i, app) in App::ALL.into_iter().enumerate() {
            let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
            let db = factory.filedb();
            let r = Simulator::new(CloudConfig::default(), db)
                .execute(
                    &df.dag,
                    &schedule_of(&df.dag),
                    &df.index_uses,
                    &partial_availability(db, &df),
                    &BTreeMap::new(),
                )
                .unwrap();
            roomy.cache_misses += r.cache_misses;
        }
    }
    assert!(
        totals.cache_misses > roomy.cache_misses,
        "no eviction: {} misses with a small disk, {} with 100 GB",
        totals.cache_misses,
        roomy.cache_misses
    );
    assert_eq!(digest, 0x9e145fb2cff12656, "{totals:?}");
}
