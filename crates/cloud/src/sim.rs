//! Schedule execution.
//!
//! The simulator replays a (possibly interleaved) schedule against the
//! *actual* DAG. Dataflow operators keep their planned container and
//! per-container order but their times are recomputed from actual
//! runtimes, dependency completion and input transfers. Build operators
//! backfill whatever idle time really materialises and are killed by the
//! next dataflow operator or by lease expiry — they can never delay the
//! dataflow (priority −1).
//!
//! Execution is optionally subjected to a deterministic
//! [`FaultInjector`] (see [`crate::fault`]): containers can be revoked
//! mid-quantum (killing the operators on them), storage reads can fail
//! transiently and be reissued, operators can straggle, and completed
//! builds can turn out corrupt. An inactive injector is a strict no-op,
//! so fault-free runs are byte-identical to the pre-fault simulator.
//!
//! All state of one execution is flat: operator outcomes live in a
//! `Vec` indexed by `OpId::index()`, and per-container free times,
//! caches, revocations, spans, leases and busy time in `Vec`s indexed
//! by `ContainerId::index()` (the schedulers number containers densely
//! from 0). Walking the container tables in index order is the
//! ascending-id order every per-container event and fault draw needs.
//! A schedule that assigns an operator twice, leaves one unassigned or
//! names one outside the DAG is rejected as
//! [`FlowtuneError::InvalidSchedule`].

use std::collections::BTreeMap;

use flowtune_common::{
    pricing, CloudConfig, ContainerId, FlowtuneError, IndexId, OpId, PartitionId, Result,
    SimDuration, SimTime,
};
use flowtune_dataflow::{Dag, FileDatabase, IndexUse};
use flowtune_sched::schedule::lease_end;
use flowtune_sched::{Assignment, BuildRef, Schedule};
use flowtune_storage::LruCache;

use crate::fault::FaultInjector;
use crate::report::{CompletedBuild, CrashedBuild, ExecutionReport};

/// Which index partitions exist (and their sizes) at execution time.
#[derive(Debug, Clone, Default)]
pub struct IndexAvailability {
    built: BTreeMap<(IndexId, u32), u64>,
}

impl IndexAvailability {
    /// Nothing built.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that partition `part` of `index` is built with the given
    /// size.
    pub fn add(&mut self, index: IndexId, part: u32, bytes: u64) {
        self.built.insert((index, part), bytes);
    }

    /// Size of a built index partition, `None` when not built.
    pub fn bytes(&self, index: IndexId, part: u32) -> Option<u64> {
        self.built.get(&(index, part)).copied()
    }

    /// True when the index partition is built.
    pub fn is_built(&self, index: IndexId, part: u32) -> bool {
        self.built.contains_key(&(index, part))
    }

    /// Remove a partition (revoked or invalidated by a failed build).
    /// Returns the recorded size when it was present.
    pub fn remove(&mut self, index: IndexId, part: u32) -> Option<u64> {
        self.built.remove(&(index, part))
    }

    /// Number of built index partitions.
    pub fn len(&self) -> usize {
        self.built.len()
    }

    /// True when nothing is built.
    pub fn is_empty(&self) -> bool {
        self.built.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    Partition(PartitionId),
    IndexPart(IndexId, u32),
}

/// What became of a dataflow operator during execution.
#[derive(Debug, Clone, Copy)]
enum OpRun {
    /// Not reached yet.
    Pending,
    /// Ran on the container over `[start, end)`.
    Ran(ContainerId, SimTime, SimTime),
    /// Killed by a revocation, directly or through a killed predecessor.
    Killed,
}

/// The execution simulator.
#[derive(Debug)]
pub struct Simulator<'a> {
    config: CloudConfig,
    filedb: &'a FileDatabase,
}

impl<'a> Simulator<'a> {
    /// Create a simulator over a cloud model and file database.
    pub fn new(config: CloudConfig, filedb: &'a FileDatabase) -> Self {
        Simulator { config, filedb }
    }

    /// The cloud configuration in use.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// Execute a schedule without fault injection.
    ///
    /// * `actual` — the DAG with actual runtimes/data sizes (use
    ///   [`crate::perturb_dag`] to derive it from the estimated DAG).
    /// * `schedule` — the planned, possibly interleaved schedule.
    /// * `index_uses` — the dataflow's usable indexes with speedups.
    /// * `availability` — which index partitions exist right now.
    /// * `build_durations` — actual build times per build ref (planned
    ///   duration assumed when absent).
    ///
    /// Errors with [`FlowtuneError::InvalidSchedule`] when the schedule
    /// executes an operator before a predecessor it depends on, assigns
    /// an operator twice, leaves an operator of `actual` unassigned, or
    /// names an operator outside `actual`.
    pub fn execute(
        &self,
        actual: &Dag,
        schedule: &Schedule,
        index_uses: &[IndexUse],
        availability: &IndexAvailability,
        build_durations: &BTreeMap<BuildRef, SimDuration>,
    ) -> Result<ExecutionReport> {
        self.execute_with_faults(
            actual,
            schedule,
            index_uses,
            availability,
            build_durations,
            &mut FaultInjector::none(),
        )
    }

    /// Execute a schedule under a fault injector (see [`crate::fault`]).
    ///
    /// An inactive injector makes this identical to [`Self::execute`].
    /// With faults active, operators on a revoked container at or after
    /// the revocation instant are killed (recorded in
    /// [`ExecutionReport::killed_ops`], transitively through killed
    /// predecessors); storage reads may be reissued; runtimes may be
    /// inflated; completed builds may turn out corrupt
    /// ([`ExecutionReport::failed_builds`]).
    pub fn execute_with_faults(
        &self,
        actual: &Dag,
        schedule: &Schedule,
        index_uses: &[IndexUse],
        availability: &IndexAvailability,
        build_durations: &BTreeMap<BuildRef, SimDuration>,
        faults: &mut FaultInjector,
    ) -> Result<ExecutionReport> {
        let mut report = ExecutionReport::default();
        let quantum = self.config.quantum;

        // Best usable index per file for this dataflow.
        let mut best_index: BTreeMap<flowtune_common::FileId, IndexUse> = BTreeMap::new();
        for u in index_uses {
            let entry = best_index.entry(u.file).or_insert(*u);
            if u.speedup > entry.speedup {
                *entry = *u;
            }
        }

        // Per-container tables are indexed by `ContainerId::index()`.
        let n_containers = schedule
            .assignments()
            .iter()
            .map(|a| a.container.index() + 1)
            .max()
            .unwrap_or(0);

        // Revocation instants, drawn upfront per container from the
        // *planned* activity spans in container order — deterministic
        // regardless of how actual execution drifts.
        let mut revocations: Vec<Option<SimTime>> = vec![None; n_containers];
        if faults.is_active() {
            let mut planned_spans: Vec<Option<(SimTime, SimTime)>> = vec![None; n_containers];
            for a in schedule.assignments() {
                let span =
                    planned_spans[a.container.index()].get_or_insert((SimTime::MAX, SimTime::ZERO));
                span.0 = span.0.min(a.start);
                span.1 = span.1.max(a.end);
            }
            for (i, span) in planned_spans.iter().enumerate() {
                let Some((s, e)) = *span else { continue };
                let c = ContainerId::from_index(i);
                // Pad by one quantum: actual execution drifts past the
                // plan and a revocation can land in that drift too.
                if let Some(t) = faults.revocation_in(s, e + quantum) {
                    flowtune_obs::obs_event!(
                        "cloud.revocation",
                        container = c.0,
                        revoke_at_ms = t.as_millis(),
                    );
                    // flowtune-allow(obs-discipline): fires only with spot revocations enabled; the smoke run is on-demand
                    flowtune_obs::count("cloud.revocations", 1);
                    revocations[i] = Some(t);
                    report.revoked_containers.push(c);
                }
            }
        }
        let mut caches: Vec<LruCache<CacheKey>> = (0..n_containers)
            .map(|_| LruCache::new(self.config.disk_capacity_bytes))
            .collect();
        let mut container_free = vec![SimTime::ZERO; n_containers];
        // Per-operator outcome, indexed by `OpId::index()`.
        let mut ops = vec![OpRun::Pending; actual.len()];

        // Dataflow ops in planned order (valid: planned starts respect
        // both dependency and per-container order).
        let mut df_assignments: Vec<Assignment> =
            schedule.dataflow_assignments().copied().collect();
        df_assignments.sort_by_key(|a| (a.start, a.end, a.op));

        for a in &df_assignments {
            match ops.get(a.op.index()) {
                Some(OpRun::Pending) => {}
                Some(_) => {
                    return Err(FlowtuneError::invalid_schedule(format!(
                        "{} is assigned more than once",
                        a.op
                    )))
                }
                None => {
                    return Err(FlowtuneError::invalid_schedule(format!(
                        "{} is not an operator of the dataflow",
                        a.op
                    )))
                }
            }
            // Dependency readiness with cross-container transfer. An
            // operator downstream of a killed one can never run.
            let (mut ready, mut doomed, mut unready) = (SimTime::ZERO, false, None);
            for (p, bytes) in actual.preds_with_bytes(a.op) {
                match ops[p.index()] {
                    OpRun::Ran(pc, _, pend) => {
                        let mut t = pend;
                        if pc != a.container {
                            t += self.config.network_transfer(bytes);
                        }
                        ready = ready.max(t);
                    }
                    OpRun::Killed => doomed = true,
                    OpRun::Pending => {
                        unready.get_or_insert(p);
                    }
                }
            }
            if doomed {
                ops[a.op.index()] = OpRun::Killed;
                report.killed_ops.push(a.op);
                continue;
            }
            if let Some(p) = unready {
                return Err(FlowtuneError::invalid_schedule(format!(
                    "{} is scheduled before its predecessor {}",
                    a.op, p
                )));
            }
            let op = actual.op(a.op);
            let c = a.container.index();
            let cache = &mut caches[c];
            let start = ready.max(container_free[c]);
            let revoke_at = revocations[c];
            if revoke_at.is_some_and(|t| start >= t) {
                // The container is gone before the operator can start.
                ops[a.op.index()] = OpRun::Killed;
                report.killed_ops.push(a.op);
                continue;
            }
            // Input transfers and index acceleration.
            let mut transfer_in = SimDuration::ZERO;
            let mut inv_speed_sum = 0.0f64;
            for pid in &op.reads {
                let key = CacheKey::Partition(*pid);
                let bytes = self.filedb.partition(*pid).bytes;
                // The indexed path reads the index partition instead of
                // scanning the whole input partition.
                let idx = best_index
                    .get(&pid.file)
                    .and_then(|u| availability.bytes(u.index, pid.part).map(|b| (*u, b)));
                match idx {
                    Some((u, idx_bytes)) => {
                        report.accelerated_reads += 1;
                        inv_speed_sum += 1.0 / u.speedup;
                        let ikey = CacheKey::IndexPart(u.index, pid.part);
                        if cache.get(&ikey) {
                            report.cache_hits += 1;
                        } else {
                            report.cache_misses += 1;
                            // A transient storage fault forces the read
                            // to be reissued, paying the transfer again.
                            let issues = 1 + faults.storage_retries() as u64;
                            report.storage_faults += issues - 1;
                            report.bytes_from_storage += idx_bytes * issues;
                            transfer_in += self
                                .config
                                .network_transfer(idx_bytes)
                                .mul_f64(issues as f64);
                            cache.insert(ikey, idx_bytes);
                        }
                    }
                    None => {
                        report.plain_reads += 1;
                        inv_speed_sum += 1.0;
                        if cache.get(&key) {
                            report.cache_hits += 1;
                        } else {
                            report.cache_misses += 1;
                            let issues = 1 + faults.storage_retries() as u64;
                            report.storage_faults += issues - 1;
                            report.bytes_from_storage += bytes * issues;
                            transfer_in +=
                                self.config.network_transfer(bytes).mul_f64(issues as f64);
                            cache.insert(key, bytes);
                        }
                    }
                }
            }
            let mut eff_runtime = if op.reads.is_empty() {
                op.runtime
            } else {
                op.runtime.mul_f64(inv_speed_sum / op.reads.len() as f64)
            };
            let straggle = faults.straggler_factor();
            if straggle > 1.0 {
                report.straggler_ops += 1;
                eff_runtime = eff_runtime.mul_f64(straggle);
            }
            let end = start + transfer_in + eff_runtime;
            if let Some(t) = revoke_at {
                if end > t {
                    // Started before the revocation, died mid-flight:
                    // the partial work is wasted.
                    report.wasted_compute += t - start;
                    ops[a.op.index()] = OpRun::Killed;
                    report.killed_ops.push(a.op);
                    continue;
                }
            }
            container_free[c] = end;
            ops[a.op.index()] = OpRun::Ran(a.container, start, end);
            report.dataflow_ops += 1;
        }

        // Actual makespan and billing.
        let (mut first, mut last) = (SimTime::MAX, SimTime::ZERO);
        let mut spans: Vec<Option<(SimTime, SimTime)>> = vec![None; n_containers];
        let mut busy = vec![SimDuration::ZERO; n_containers];
        for (i, run) in ops.iter().enumerate() {
            let (c, s, e) = match *run {
                OpRun::Ran(c, s, e) => (c, s, e),
                OpRun::Killed => continue,
                OpRun::Pending => {
                    return Err(FlowtuneError::invalid_schedule(format!(
                        "{} is never assigned",
                        OpId::from_index(i)
                    )))
                }
            };
            first = first.min(s);
            last = last.max(e);
            let span = spans[c.index()].get_or_insert((SimTime::MAX, SimTime::ZERO));
            span.0 = span.0.min(s);
            span.1 = span.1.max(e);
            busy[c.index()] += e - s;
        }
        report.makespan = if first == SimTime::MAX {
            SimDuration::ZERO
        } else {
            last - first
        };
        let leases: Vec<Option<(SimTime, SimTime)>> = spans
            .iter()
            .map(|span| {
                let (s, e) = (*span)?;
                let (ls, le) = (s.quantum_floor(quantum), lease_end(s, e, quantum));
                report.leased_quanta += (le - ls).as_millis() / quantum.as_millis();
                Some((ls, le))
            })
            .collect();
        report.compute_cost =
            pricing::compute_cost(report.leased_quanta, self.config.vm_price_per_quantum);

        // Build operators: backfill real idle time in planned order. Only
        // containers holding a build need the walk; every dataflow
        // assignment has run or been killed by now.
        let mut per_container: Vec<Option<Vec<Assignment>>> = vec![None; n_containers];
        for a in schedule.build_assignments() {
            per_container[a.container.index()] = Some(Vec::new());
        }
        for a in schedule.assignments() {
            if let Some(list) = &mut per_container[a.container.index()] {
                list.push(*a);
            }
        }
        for (c, assignments) in per_container.iter_mut().enumerate() {
            let Some(assignments) = assignments else {
                continue;
            };
            let revoke_at = revocations[c].unwrap_or(SimTime::MAX);
            let Some((lease_start, lease_end)) = leases[c] else {
                // Container ran no dataflow op (never leased, or revoked
                // before anything survived): planned builds there never
                // run.
                for a in assignments.iter() {
                    if let Some(build) = a.build {
                        if revoke_at == SimTime::MAX {
                            report.killed_builds.push(build);
                        } else {
                            report.fault_killed_builds.push(build);
                        }
                    }
                }
                continue;
            };
            assignments.sort_by_key(|a| (a.start, a.end, a.op));
            let mut cursor = lease_start;
            for (i, a) in assignments.iter().enumerate() {
                let Some(build) = a.build else {
                    // A killed operator never arrived; it occupies no
                    // time on the container.
                    if let OpRun::Ran(_, _, e) = ops[a.op.index()] {
                        cursor = cursor.max(e);
                    }
                    continue;
                };
                if cursor >= revoke_at {
                    // The container is gone; the build never starts.
                    report.fault_killed_builds.push(build);
                    continue;
                }
                // Window: from the cursor to the next dataflow op's
                // actual start (preemption) or lease expiry.
                let next_df_start = assignments[i + 1..]
                    .iter()
                    .filter(|b| !b.is_optional())
                    .find_map(|b| match ops[b.op.index()] {
                        OpRun::Ran(_, s, _) => Some(s),
                        _ => None,
                    })
                    .unwrap_or(lease_end)
                    .min(lease_end);
                let start = cursor;
                let dur = build_durations.get(&build).copied().unwrap_or(a.duration());
                let end = start + dur;
                if end <= next_df_start && start < lease_end && end <= revoke_at {
                    // The slot fits — but the build can still crash
                    // mid-run, corrupt its artifact, or tear its final
                    // page write.
                    if let Some(fraction) = faults.crash_during_build() {
                        // Died partway: the prefix of its page image is
                        // flushed, the time is wasted, and the slot frees
                        // up at the crash instant.
                        let ran = dur.mul_f64(fraction);
                        report.crashed_builds.push(CrashedBuild { build, fraction });
                        report.wasted_compute += ran;
                        busy[c] += ran;
                        cursor = start + ran;
                        continue;
                    }
                    if faults.build_failure() {
                        report.failed_builds.push(build);
                    } else {
                        report.completed_builds.push(CompletedBuild {
                            build,
                            finished_at: end,
                        });
                        if faults.torn_page_write() {
                            // Completed from the build's point of view —
                            // only the recovery scan can tell the image
                            // is torn.
                            report.torn_builds.push(build);
                        }
                    }
                    busy[c] += dur;
                    cursor = end;
                } else {
                    // Stopped early: by revocation, by the next dataflow
                    // op, or by lease expiry.
                    let stopped = next_df_start.min(revoke_at).max(start);
                    if revoke_at < end && revoke_at <= next_df_start {
                        report.fault_killed_builds.push(build);
                        report.wasted_compute += stopped - start;
                    } else {
                        report.killed_builds.push(build);
                    }
                    busy[c] += stopped - start;
                    cursor = stopped;
                }
            }
        }

        // Actual fragmentation: leased minus busy per container.
        for (c, lease) in leases.iter().enumerate() {
            let Some((ls, le)) = *lease else { continue };
            let b = busy[c];
            let leased = le - ls;
            let waste = leased.saturating_sub(b);
            report.fragmentation += waste;
            flowtune_obs::obs_event!(
                "cloud.container",
                container = c,
                leased_ms = leased.as_millis(),
                busy_ms = b.as_millis(),
                waste_ms = waste.as_millis(),
                utilization = b.as_millis() as f64 / leased.as_millis().max(1) as f64,
            );
            flowtune_obs::observe(
                "cloud.utilization",
                b.as_millis() as f64 / leased.as_millis().max(1) as f64,
            );
            flowtune_obs::observe("cloud.quantum_waste_ms", waste.as_millis() as f64);
        }
        flowtune_obs::obs_event!(
            "cloud.exec",
            dataflow_ops = report.dataflow_ops,
            killed_ops = report.killed_ops.len(),
            completed_builds = report.completed_builds.len(),
            killed_builds = report.killed_builds.len(),
            failed_builds = report.failed_builds.len(),
            fault_killed_builds = report.fault_killed_builds.len(),
            leased_quanta = report.leased_quanta,
            makespan_ms = report.makespan.as_millis(),
            fragmentation_ms = report.fragmentation.as_millis(),
            storage_faults = report.storage_faults,
            straggler_ops = report.straggler_ops,
        );
        flowtune_obs::count("cloud.executions", 1);
        flowtune_obs::count("cloud.storage_faults", report.storage_faults);
        flowtune_obs::count("cloud.straggler_ops", report.straggler_ops);
        flowtune_obs::count("cloud.killed_ops", report.killed_ops.len() as u64);
        flowtune_obs::count("cloud.leased_quanta", report.leased_quanta);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::{BuildOpId, DataflowId};
    use flowtune_common::{OpId, SimRng};
    use flowtune_dataflow::{App, Dataflow, DataflowFactory, Edge, OpSpec};
    use flowtune_interleave::{BuildOp, LpInterleaver};
    use flowtune_sched::{SchedulerConfig, SkylineScheduler};

    fn filedb() -> FileDatabase {
        FileDatabase::generate(&mut SimRng::seed_from_u64(42))
    }

    fn cfg() -> CloudConfig {
        CloudConfig::default()
    }

    const Q: SimDuration = SimDuration::from_secs(60);

    /// A real dependency stall: `a` [0,10) on c0, `x` [0,40) on c1,
    /// `b` depends on both and runs on c0 — c0 idles in [10,40). A build
    /// op of `build_secs` is planned into that gap.
    fn stalled_with_build(build_secs: u64) -> (Dag, Schedule) {
        let dag = Dag::new(
            vec![
                OpSpec::new(OpId(0), "a", SimDuration::from_secs(10)),
                OpSpec::new(OpId(1), "x", SimDuration::from_secs(40)),
                OpSpec::new(OpId(2), "b", SimDuration::from_secs(10)),
            ],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 0,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(2),
                    bytes: 0,
                },
            ],
        )
        .unwrap();
        let mut schedule = Schedule::from_assignments(vec![
            Assignment {
                op: OpId(0),
                container: ContainerId(0),
                start: SimTime::ZERO,
                end: SimTime::from_secs(10),
                build: None,
            },
            Assignment {
                op: OpId(1),
                container: ContainerId(1),
                start: SimTime::ZERO,
                end: SimTime::from_secs(40),
                build: None,
            },
            Assignment {
                op: OpId(2),
                container: ContainerId(0),
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(50),
                build: None,
            },
        ]);
        schedule
            .try_insert_build(
                ContainerId(0),
                SimTime::from_secs(10),
                SimTime::from_secs(10 + build_secs),
                OpId(1_000_000),
                BuildRef {
                    index: IndexId(0),
                    part: 0,
                },
                Q,
            )
            .unwrap();
        (dag, schedule)
    }

    #[test]
    fn build_completes_in_gap() {
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let r = sim
            .execute(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(r.completed_builds.len(), 1);
        assert!(r.killed_builds.is_empty());
        assert_eq!(r.dataflow_ops, 3);
        // Build backfills the dependency stall: runs [10,30).
        assert_eq!(r.completed_builds[0].finished_at, SimTime::from_secs(30));
    }

    #[test]
    fn build_killed_by_preemption() {
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        // Planned 30 s into the [10,40) gap, but the build actually needs
        // 35 s: dataflow op b arrives at 40 and stops it.
        let (dag, schedule) = stalled_with_build(30);
        let durations: BTreeMap<BuildRef, SimDuration> = BTreeMap::from([(
            BuildRef {
                index: IndexId(0),
                part: 0,
            },
            SimDuration::from_secs(35),
        )]);
        let r = sim
            .execute(&dag, &schedule, &[], &IndexAvailability::new(), &durations)
            .unwrap();
        assert!(r.completed_builds.is_empty());
        assert_eq!(r.killed_builds.len(), 1);
        // The dataflow itself is unaffected by the kill.
        assert_eq!(r.makespan, SimDuration::from_secs(50));
    }

    #[test]
    fn build_killed_by_lease_expiry() {
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        // Single op [0,10); lease ends at 60. A 55 s build planned after
        // it cannot finish before expiry.
        let dag = Dag::new(
            vec![OpSpec::new(OpId(0), "a", SimDuration::from_secs(10))],
            vec![],
        )
        .unwrap();
        let mut schedule = Schedule::from_assignments(vec![Assignment {
            op: OpId(0),
            container: ContainerId(0),
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
            build: None,
        }]);
        schedule
            .try_insert_build(
                ContainerId(0),
                SimTime::from_secs(10),
                SimTime::from_secs(40),
                OpId(1_000_000),
                BuildRef {
                    index: IndexId(3),
                    part: 1,
                },
                Q,
            )
            .unwrap();
        let durations: BTreeMap<BuildRef, SimDuration> = BTreeMap::from([(
            BuildRef {
                index: IndexId(3),
                part: 1,
            },
            SimDuration::from_secs(55),
        )]);
        let r = sim
            .execute(&dag, &schedule, &[], &IndexAvailability::new(), &durations)
            .unwrap();
        assert!(r.completed_builds.is_empty());
        assert_eq!(r.killed_builds.len(), 1);
        assert_eq!(r.leased_quanta, 1);
    }

    #[test]
    fn makespan_reflects_actual_runtimes_not_planned() {
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(5);
        let r = sim
            .execute(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap();
        // Actual: a [0,10) c0, x [0,40) c1, b [40,50) c0.
        assert_eq!(r.makespan, SimDuration::from_secs(50));
        assert_eq!(r.leased_quanta, 2);
    }

    #[test]
    fn index_speedup_shrinks_runtime_and_reads_index() {
        let mut rng = SimRng::seed_from_u64(9);
        let db = FileDatabase::generate(&mut rng);
        let mut factory = DataflowFactory::new(db, 60, rng);
        // CyberShake: large files, many partitions -> indexes matter.
        let df: Dataflow = factory.make(DataflowId(0), App::Cybershake, SimTime::ZERO);
        let db = factory.filedb();
        let sim = Simulator::new(cfg(), db);
        let scheduler = SkylineScheduler::new(SchedulerConfig::default());
        let schedule = scheduler.schedule(&df.dag).remove(0);

        // No indexes.
        let none = sim
            .execute(
                &df.dag,
                &schedule,
                &df.index_uses,
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap();
        // All of this dataflow's indexes fully built.
        let mut avail = IndexAvailability::new();
        for u in &df.index_uses {
            for p in &db.file(u.file).partitions {
                // Index partitions are smaller than the data partitions.
                avail.add(u.index, p.id.part, p.bytes / 8);
            }
        }
        let with = sim
            .execute(&df.dag, &schedule, &df.index_uses, &avail, &BTreeMap::new())
            .unwrap();
        assert!(
            with.makespan < none.makespan,
            "indexes must speed up execution: {} vs {}",
            with.makespan,
            none.makespan
        );
        assert!(with.bytes_from_storage < none.bytes_from_storage);
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        // Two ops on one container reading the same partition.
        let mut rng = SimRng::seed_from_u64(10);
        let db = FileDatabase::generate(&mut rng);
        let pid = db.files()[0].partitions[0].id;
        let dag = Dag::new(
            vec![
                OpSpec {
                    reads: vec![pid],
                    ..OpSpec::new(OpId(0), "r1", SimDuration::from_secs(5))
                },
                OpSpec {
                    reads: vec![pid],
                    ..OpSpec::new(OpId(1), "r2", SimDuration::from_secs(5))
                },
            ],
            vec![Edge {
                from: OpId(0),
                to: OpId(1),
                bytes: 0,
            }],
        )
        .unwrap();
        let schedule = Schedule::from_assignments(vec![
            Assignment {
                op: OpId(0),
                container: ContainerId(0),
                start: SimTime::ZERO,
                end: SimTime::from_secs(5),
                build: None,
            },
            Assignment {
                op: OpId(1),
                container: ContainerId(0),
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(10),
                build: None,
            },
        ]);
        let sim = Simulator::new(cfg(), &db);
        let r = sim
            .execute(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(r.cache_hits, 1);
        assert_eq!(r.cache_misses, 1);
    }

    #[test]
    fn availability_remove_supports_invalidate_and_rebuild() {
        let mut avail = IndexAvailability::new();
        // build -> fail -> invalidate -> rebuild lifecycle.
        avail.add(IndexId(4), 2, 1024);
        assert!(avail.is_built(IndexId(4), 2));
        assert_eq!(avail.remove(IndexId(4), 2), Some(1024));
        assert!(!avail.is_built(IndexId(4), 2));
        assert_eq!(avail.bytes(IndexId(4), 2), None);
        assert_eq!(avail.remove(IndexId(4), 2), None, "already invalidated");
        assert!(avail.is_empty());
        avail.add(IndexId(4), 2, 2048);
        assert_eq!(avail.bytes(IndexId(4), 2), Some(2048));
        assert_eq!(avail.len(), 1);
    }

    /// An always-firing injector whose revocation lands inside c0's
    /// span kills ops there (directly or transitively) while c1's
    /// operator can still finish.
    #[test]
    fn revocation_kills_ops_and_is_accounted() {
        use crate::fault::{FaultConfig, FaultPlan};
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let config = FaultConfig {
            rate: 1.0,
            revocation_share: 1.0,
            storage_share: 0.0,
            straggler_share: 0.0,
            build_failure_share: 0.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        let r = sim
            .execute_with_faults(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut inj,
            )
            .unwrap();
        // Both containers are revoked at rate 1.0; every op is either
        // executed or killed, and every build is accounted somewhere.
        assert_eq!(r.revoked_containers.len(), 2);
        assert_eq!(r.dataflow_ops + r.killed_ops.len(), dag.len());
        assert!(!r.killed_ops.is_empty(), "rate-1.0 revocation killed no op");
        assert!(!r.completed());
        assert_eq!(
            r.build_ops_attempted(),
            schedule.build_assignments().count()
        );
    }

    #[test]
    fn build_failure_is_reported_not_completed() {
        use crate::fault::{FaultConfig, FaultPlan};
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let config = FaultConfig {
            rate: 1.0,
            revocation_share: 0.0,
            storage_share: 0.0,
            straggler_share: 0.0,
            build_failure_share: 1.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        let r = sim
            .execute_with_faults(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut inj,
            )
            .unwrap();
        // The build runs to completion in the gap but the artifact is
        // corrupt: reported as failed, never as completed.
        assert!(r.completed_builds.is_empty());
        assert_eq!(r.failed_builds.len(), 1);
        assert!(r.completed(), "build failure must not kill the dataflow");
        assert_eq!(r.makespan, SimDuration::from_secs(50));
    }

    #[test]
    fn crash_during_build_wastes_partial_compute() {
        use crate::fault::{FaultConfig, FaultPlan};
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let config = FaultConfig {
            rate: 1.0,
            revocation_share: 0.0,
            storage_share: 0.0,
            straggler_share: 0.0,
            build_failure_share: 0.0,
            crash_build_share: 1.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        let r = sim
            .execute_with_faults(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut inj,
            )
            .unwrap();
        // The build dies partway: never completed, its partial runtime
        // is wasted compute, and the dataflow itself is unharmed.
        assert!(r.completed_builds.is_empty());
        assert!(r.failed_builds.is_empty());
        assert_eq!(r.crashed_builds.len(), 1);
        let crash = r.crashed_builds[0];
        assert!((0.05..0.95).contains(&crash.fraction));
        let expect = SimDuration::from_secs(20).mul_f64(crash.fraction);
        assert_eq!(r.wasted_compute, expect);
        assert!(r.completed(), "build crash must not kill the dataflow");
        assert_eq!(r.build_ops_attempted(), 1);
    }

    #[test]
    fn torn_write_still_counts_as_completed() {
        use crate::fault::{FaultConfig, FaultPlan};
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let config = FaultConfig {
            rate: 1.0,
            revocation_share: 0.0,
            storage_share: 0.0,
            straggler_share: 0.0,
            build_failure_share: 0.0,
            torn_write_share: 1.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        let r = sim
            .execute_with_faults(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut inj,
            )
            .unwrap();
        // A torn build looks successful to the executor — the tear is
        // only visible to the recovery scan.
        assert_eq!(r.completed_builds.len(), 1);
        assert_eq!(r.torn_builds, vec![r.completed_builds[0].build]);
        assert_eq!(r.build_ops_attempted(), 1);
        assert_eq!(r.wasted_compute, SimDuration::ZERO);
    }

    #[test]
    fn stragglers_inflate_the_makespan() {
        use crate::fault::{FaultConfig, FaultPlan};
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let config = FaultConfig {
            rate: 1.0,
            revocation_share: 0.0,
            storage_share: 0.0,
            straggler_share: 1.0,
            build_failure_share: 0.0,
            ..Default::default()
        };
        let mut inj = FaultPlan::new(config).injector(0, 0);
        let r = sim
            .execute_with_faults(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut inj,
            )
            .unwrap();
        // Everything straggles ×3: a 0-10/0-40/40-50 plan becomes
        // 0-30/0-120/120-150.
        assert_eq!(r.straggler_ops, 3);
        assert_eq!(r.makespan, SimDuration::from_secs(150));
        assert!(r.completed());
    }

    #[test]
    fn inactive_injector_matches_plain_execute() {
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let (dag, schedule) = stalled_with_build(20);
        let plain = sim
            .execute(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap();
        let mut inj = FaultInjector::none();
        let with = sim
            .execute_with_faults(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
                &mut inj,
            )
            .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{with:?}"));
    }

    #[test]
    fn out_of_order_schedule_is_a_typed_error() {
        let db = filedb();
        let sim = Simulator::new(cfg(), &db);
        let dag = Dag::new(
            vec![
                OpSpec::new(OpId(0), "a", SimDuration::from_secs(10)),
                OpSpec::new(OpId(1), "b", SimDuration::from_secs(10)),
            ],
            vec![Edge {
                from: OpId(0),
                to: OpId(1),
                bytes: 0,
            }],
        )
        .unwrap();
        // The successor is planned *before* its predecessor.
        let schedule = Schedule::from_assignments(vec![
            Assignment {
                op: OpId(1),
                container: ContainerId(0),
                start: SimTime::ZERO,
                end: SimTime::from_secs(10),
                build: None,
            },
            Assignment {
                op: OpId(0),
                container: ContainerId(0),
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(20),
                build: None,
            },
        ]);
        let err = sim
            .execute(
                &dag,
                &schedule,
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("predecessor"), "{err}");
    }

    /// A one-op DAG with `a`, run under `schedule`'s assignments.
    fn one_op_run(assignments: Vec<Assignment>) -> Result<ExecutionReport> {
        let db = filedb();
        let dag = Dag::new(
            vec![OpSpec::new(OpId(0), "a", SimDuration::from_secs(10))],
            vec![],
        )
        .unwrap();
        Simulator::new(cfg(), &db).execute(
            &dag,
            &Schedule::from_assignments(assignments),
            &[],
            &IndexAvailability::new(),
            &BTreeMap::new(),
        )
    }

    fn assignment(op: u32, container: u32, start_secs: u64) -> Assignment {
        Assignment {
            op: OpId(op),
            container: ContainerId(container),
            start: SimTime::from_secs(start_secs),
            end: SimTime::from_secs(start_secs + 10),
            build: None,
        }
    }

    #[test]
    fn an_op_assigned_twice_is_a_typed_error() {
        let err = one_op_run(vec![assignment(0, 0, 0), assignment(0, 1, 10)]).unwrap_err();
        assert!(matches!(err, FlowtuneError::InvalidSchedule(_)), "{err}");
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn an_unassigned_op_is_a_typed_error() {
        // Two independent ops, only the first assigned: the run must not
        // report a completed dataflow that skipped `b`.
        let db = filedb();
        let dag = Dag::new(
            vec![
                OpSpec::new(OpId(0), "a", SimDuration::from_secs(10)),
                OpSpec::new(OpId(1), "b", SimDuration::from_secs(10)),
            ],
            vec![],
        )
        .unwrap();
        let err = Simulator::new(cfg(), &db)
            .execute(
                &dag,
                &Schedule::from_assignments(vec![assignment(0, 0, 0)]),
                &[],
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap_err();
        assert!(matches!(err, FlowtuneError::InvalidSchedule(_)), "{err}");
        assert!(err.to_string().contains("op1 is never assigned"), "{err}");
    }

    #[test]
    fn an_op_outside_the_dag_is_a_typed_error() {
        let err = one_op_run(vec![assignment(0, 0, 0), assignment(7, 0, 10)]).unwrap_err();
        assert!(matches!(err, FlowtuneError::InvalidSchedule(_)), "{err}");
        assert!(err.to_string().contains("op7"), "{err}");
    }

    #[test]
    fn end_to_end_interleaved_scientific_run() {
        let mut rng = SimRng::seed_from_u64(11);
        let db = FileDatabase::generate(&mut rng);
        let mut factory = DataflowFactory::new(db, 100, rng);
        let df = factory.make(DataflowId(0), App::Cybershake, SimTime::ZERO);
        let db = factory.filedb();
        let scheduler = SkylineScheduler::new(SchedulerConfig::default());
        let mut schedule = scheduler.schedule(&df.dag).remove(0);
        let pending: Vec<BuildOp> = (0..40)
            .map(|i| BuildOp {
                id: BuildOpId(i),
                build: BuildRef {
                    index: IndexId(i),
                    part: 0,
                },
                duration: SimDuration::from_secs(5 + (i as u64 % 17)),
                gain: 1.0 + i as f64,
            })
            .collect();
        LpInterleaver::new(Q).interleave(&mut schedule, &pending);
        let sim = Simulator::new(cfg(), db);
        let r = sim
            .execute(
                &df.dag,
                &schedule,
                &df.index_uses,
                &IndexAvailability::new(),
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(r.dataflow_ops, df.dag.len());
        assert!(r.makespan > SimDuration::ZERO);
        assert!(r.leased_quanta > 0);
        // Everything scheduled was either completed or killed.
        assert_eq!(
            r.build_ops_attempted(),
            schedule.build_assignments().count()
        );
        assert!(r.fragmentation > SimDuration::ZERO || r.completed_builds.is_empty());
    }
}
