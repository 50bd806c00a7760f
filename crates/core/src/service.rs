//! The QaaS service loop.
//!
//! Dataflows are issued sequentially (the user "observes the results of
//! a single dataflow before submitting the next one", §3); each issue
//! triggers one round of Algorithm 1: tune → schedule → interleave →
//! execute → record history.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use flowtune_cloud::{perturb_dag, ExecutionReport, FaultConfig, FaultPlan, Simulator};
use flowtune_common::{
    BuildOpId, DataflowId, ExperimentParams, FlowtuneError, IndexId, Quanta, Result, SimDuration,
    SimRng, SimTime,
};
use flowtune_dataflow::{
    filedb::ROW_BYTES, ArrivalClient, Dag, Dataflow, DataflowFactory, FileDatabase, WorkloadKind,
};
use flowtune_index::{measure_io, IndexCatalog, IndexCostModel, IndexSpec};
use flowtune_interleave::{BuildOp, DeferredBuildQueue, LpInterleaver, OnlineInterleaver};
use flowtune_sched::{
    BuildRef, OnlineLoadBalanceScheduler, Schedule, SchedulerConfig, SkylineScheduler,
};
use flowtune_storage::StorageService;
use flowtune_tuner::{dataflow_index_gains, GainModel, HistoryEntry, OnlineTuner};

use crate::lifecycle::{BuildImage, IndexLifecycle};
use crate::policy::{IndexPolicy, InterleaverKind, SchedulerKind};
use crate::recovery::{remnant_dag, RebuildThrottle, RecoveryConfig};
use crate::report::{DataflowRecord, RunReport, TimelinePoint};

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Experiment parameters (Table 3).
    pub params: ExperimentParams,
    /// Index-management policy.
    pub policy: IndexPolicy,
    /// Dataflow scheduler.
    pub scheduler: SchedulerKind,
    /// Interleaving algorithm.
    pub interleaver: InterleaverKind,
    /// Workload mix.
    pub workload: WorkloadKind,
    /// Skyline width during planning (smaller = faster planning; the
    /// service picks the fastest schedule anyway).
    pub max_skyline: usize,
    /// Cap on build operators offered to the interleaver per round.
    pub max_pending_build_ops: usize,
    /// Runtime / data-size estimation error injected at execution
    /// (fractions; (0, 0) = exact estimates).
    pub estimation_error: (f64, f64),
    /// Concurrently executing dataflows. The provider pool (100
    /// containers) holds several ~25-container schedules at once, so the
    /// service drains its queue in parallel lanes.
    pub concurrency: usize,
    /// Learn a fading controller `D` per index from observed reuse
    /// intervals instead of the global `TunerConfig::fading_d` (the
    /// paper's §7 future work).
    pub adaptive_fading: bool,
    /// Defer build operators that fit no idle slot and run them in paid
    /// batches once their accumulated gain covers the dedicated lease
    /// (the paper's §7 "delayed building" future work).
    pub deferred_builds: bool,
    /// Calibrate the index cost models against *measured* page I/O of
    /// a real paged B+Tree build/probe run instead of the analytic
    /// write-size estimate (see `flowtune_index::measured`).
    pub calibrate_index_io: bool,
    /// Fault model injected at execution (rate 0 = the fault-free
    /// simulator, byte-identical to a run without the layer).
    pub faults: FaultConfig,
    /// What the service does with dataflows whose operators were
    /// killed.
    pub recovery: RecoveryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            params: ExperimentParams::default(),
            policy: IndexPolicy::Gain { delete: true },
            scheduler: SchedulerKind::Skyline,
            interleaver: InterleaverKind::Lp,
            workload: WorkloadKind::Random,
            max_skyline: 8,
            max_pending_build_ops: 192,
            estimation_error: (0.0, 0.0),
            concurrency: 4,
            adaptive_fading: false,
            deferred_builds: false,
            calibrate_index_io: false,
            faults: FaultConfig::default(),
            recovery: RecoveryConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// The one configuration gate, called by [`QaasService::run`] first
    /// and by the CLI before it announces a run.
    pub fn validate(&self) -> Result<()> {
        self.params.tuner.validate()?;
        self.faults.validate()?;
        self.recovery.validate()?;
        if self.concurrency == 0 {
            return Err(FlowtuneError::config("concurrency must be at least 1"));
        }
        // A zero-width skyline keeps no schedule to run.
        if self.max_skyline == 0 {
            return Err(FlowtuneError::config("max_skyline must be at least 1"));
        }
        // With no container, the skyline search keeps no schedule and
        // the load-balance scheduler has no container to pick.
        if self.params.cloud.max_containers == 0 {
            return Err(FlowtuneError::config("max_containers must be at least 1"));
        }
        // Each running dataflow holds at least one container of the
        // pool, so more lanes than containers can never all be busy.
        let max_containers = self.params.cloud.max_containers;
        if self.concurrency as u64 > u64::from(max_containers) {
            return Err(FlowtuneError::config(format!(
                "concurrency {} exceeds the pool of {max_containers} containers",
                self.concurrency
            )));
        }
        // Billing, arrivals and the gain model all count in quanta.
        if self.params.cloud.quantum.is_zero() {
            return Err(FlowtuneError::config("quantum must be positive"));
        }
        // A zero horizon issues no dataflow: the run would report
        // nothing and look like a success.
        if self.params.total_quanta == 0 {
            return Err(FlowtuneError::config("total_quanta must be at least 1"));
        }
        // A horizon past `SimDuration::MAX` would wrap to a short run
        // (or panic in a debug build).
        let (quantum, quanta) = (self.params.cloud.quantum, self.params.total_quanta);
        if quantum.checked_mul(quanta).is_none() {
            return Err(FlowtuneError::config(format!(
                "a horizon of {quanta} quanta of {quantum} overflows the simulated clock"
            )));
        }
        // Execution scales each estimate by a factor drawn from
        // `1 ± error`, which must stay positive.
        let (time_err, data_err) = self.estimation_error;
        if !(0.0..1.0).contains(&time_err) || !(0.0..1.0).contains(&data_err) {
            return Err(FlowtuneError::config(format!(
                "estimation error must be in [0,1), got ({time_err}, {data_err})"
            )));
        }
        // A policy that builds indexes with no build operator to offer
        // would run as No Index under another name.
        if self.max_pending_build_ops == 0 && self.policy != IndexPolicy::NoIndex {
            return Err(FlowtuneError::config(
                "max_pending_build_ops must be at least 1 unless the policy is No Index",
            ));
        }
        // Online interleaving is the skyline search with optional build
        // operators (§5.3.2); it has no load-balance form.
        if (self.scheduler, self.interleaver)
            == (SchedulerKind::OnlineLoadBalance, InterleaverKind::Online)
        {
            return Err(FlowtuneError::config(
                "online interleaving needs the skyline scheduler",
            ));
        }
        // No Index builds nothing and Random never runs the tuner's
        // decision, so these knobs would leave the report byte-identical:
        // plain No Index or Random under another name.
        let no_index = self.policy == IndexPolicy::NoIndex;
        let tuned = matches!(self.policy, IndexPolicy::Gain { .. });
        let inert = [
            (
                no_index && self.interleaver == InterleaverKind::Online,
                "interleaver = online",
            ),
            (no_index && self.deferred_builds, "deferred_builds"),
            (no_index && self.calibrate_index_io, "calibrate_index_io"),
            (!tuned && self.adaptive_fading, "adaptive_fading"),
        ]
        .into_iter()
        .find(|&(set, _)| set);
        if let Some((_, knob)) = inert {
            return Err(FlowtuneError::config(format!(
                "{knob} has no effect under the {} policy",
                self.policy.label()
            )));
        }
        Ok(())
    }
}

/// Per-index `(time, money)` gains of one dataflow.
type Gains = BTreeMap<IndexId, (f64, f64)>;

/// One concurrently executing dataflow slot: when it frees up, and the gains
/// of the dataflow running on it (Eq. 4's "currently running" δT = 0 terms).
#[derive(Debug, Clone, Default)]
struct Lane {
    free_at: SimTime,
    gains: Gains,
}

/// What the cloud did with one dataflow, retries included.
#[derive(Debug)]
struct Executed {
    /// The first attempt, which ran the schedule's builds.
    exec: ExecutionReport,
    completed: bool,
    /// Issue instant plus the first attempt's makespan and every retry's
    /// backoff and makespan.
    finish: SimTime,
}

/// The Query-as-a-Service platform.
#[derive(Debug)]
pub struct QaasService {
    config: ServiceConfig,
    /// The one skyline scheduler of the run, inside the online
    /// interleaver: every plan, online or not, and every retry, so its
    /// step buffers serve the whole run.
    planner: OnlineInterleaver,
    factory: DataflowFactory,
    tuner: OnlineTuner,
    rng: SimRng,
    deferred: DeferredBuildQueue,
    /// Catalog, storage meter and page images of the index partitions.
    lifecycle: IndexLifecycle,
    /// Backoff gate for partitions the verification scan invalidated.
    throttle: RebuildThrottle,
}

// A service runs on whichever thread owns it; its kept scheduler
// buffers must not pin it to one.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<QaasService>();
};

impl QaasService {
    /// Build the service: generate the file database, register every
    /// potential index, initialise the tuner and the storage meter.
    pub fn new(config: ServiceConfig) -> Self {
        let mut rng = SimRng::seed_from_u64(config.params.seed);
        let filedb = FileDatabase::generate(&mut rng);
        let mut catalog = build_catalog(&filedb);
        if config.calibrate_index_io {
            // One real paged-tree build/probe run; the observed page
            // traffic replaces the analytic write-size estimate in
            // every registered cost model.
            catalog.calibrate_io(measure_io(5_000, 200, config.params.seed));
        }
        let factory = DataflowFactory::new(filedb, config.params.ops_per_dataflow, rng.fork());
        let cloud = &config.params.cloud;
        let model = GainModel::new(
            config.params.tuner.clone(),
            cloud.quantum,
            cloud.vm_price_per_quantum,
            cloud.storage_price_per_mb_quantum,
        );
        let tuner = if config.adaptive_fading {
            OnlineTuner::with_adaptive_fading(model)
        } else {
            OnlineTuner::new(model)
        };
        let storage = StorageService::new(cloud.storage_price_per_mb_quantum, cloud.quantum);
        let horizon = SimTime::ZERO + config.params.horizon();
        QaasService {
            planner: OnlineInterleaver::new(SkylineScheduler::new(SchedulerConfig::for_cloud(
                cloud,
                config.max_skyline,
            ))),
            deferred: DeferredBuildQueue::new(cloud.quantum, cloud.vm_price_per_quantum),
            lifecycle: IndexLifecycle::new(catalog, storage, horizon),
            throttle: RebuildThrottle::new(),
            config,
            factory,
            tuner,
            rng,
        }
    }

    /// The file database the service operates on.
    pub fn filedb(&self) -> &FileDatabase {
        self.factory.filedb()
    }

    /// The index partitions: catalog, storage meter and page images.
    pub fn lifecycle(&self) -> &IndexLifecycle {
        &self.lifecycle
    }

    /// Run the service until the horizon (Table 3: 720 quanta), one round
    /// of Algorithm 1 per issued dataflow. Errors when the configuration
    /// is invalid or a planned schedule turns out inconsistent — both
    /// non-recoverable, unlike the *injected* cloud faults, which the
    /// recovery policy handles.
    pub fn run(&mut self) -> Result<RunReport> {
        self.config.validate()?;
        let faults = FaultPlan::new(self.config.faults.clone());
        let params = &self.config.params;
        let mean_gap = params.cloud.quantum.mul_f64(params.poisson_lambda_quanta);
        let mut client =
            ArrivalClient::new(self.config.workload.clone(), mean_gap, self.rng.fork());
        let mut lanes = vec![Lane::default(); self.config.concurrency];
        let mut report = RunReport::default();
        while let Some((df, lane)) = self.issue(&mut client, &lanes, &mut report) {
            let (gains, pending) = self.tune(&df, &lanes, &mut report);
            let schedule = self.plan(&df, &pending);
            let run = self.execute(&df, &schedule, &faults, &mut report)?;
            self.settle_builds(&df, &run, &mut report);
            self.learn(&df, &run, &gains);
            self.account(&df, &run, &mut report);
            lanes[lane] = Lane {
                free_at: run.finish,
                gains,
            };
            self.flush_deferred(df.issued_at, &mut report);
        }
        self.lifecycle.settle(self.lifecycle.horizon());
        report.index_storage_cost = self.lifecycle.storage().accrued_cost();
        Ok(report)
    }

    /// Issue the next arrival on the earliest-free lane, as the
    /// dataflow and its lane; `None` once the horizon is reached.
    fn issue(
        &mut self,
        client: &mut ArrivalClient,
        lanes: &[Lane],
        report: &mut RunReport,
    ) -> Option<(Dataflow, usize)> {
        let horizon = self.lifecycle.horizon();
        let (arrival, app) = client.next_arrival();
        let lane = (0..lanes.len()).min_by_key(|&l| lanes[l].free_at)?;
        let issued = arrival.max(lanes[lane].free_at);
        if arrival > horizon || issued >= horizon {
            return None;
        }
        let id = DataflowId(report.dataflows_issued as u32);
        let df = self.factory.make(id, app, issued);
        report.dataflows_issued += 1;
        // Stamp everything this round records (tuner, scheduler,
        // interleaver, simulator) with the issue instant.
        flowtune_obs::set_now(issued);
        flowtune_obs::obs_event!(
            "service.issue",
            dataflow = df.id.0,
            app = df.app.name(),
            lane = lane,
            ops = df.dag.len(),
        );
        flowtune_obs::count("service.dataflows_issued", 1);
        Some((df, lane))
    }

    /// Alg. 1 lines 2-9 and 13-19: the dataflow's index gains, the
    /// policy's index drops, and the build operators offered this round.
    fn tune(
        &mut self,
        df: &Dataflow,
        lanes: &[Lane],
        report: &mut RunReport,
    ) -> (Gains, Vec<BuildOp>) {
        let now = df.issued_at;
        let gains = dataflow_index_gains(df, self.lifecycle.catalog(), &self.config.params.cloud);
        let used: Vec<IndexId> = df.index_uses.iter().map(|u| u.index).collect();
        self.tuner.observe_uses(&used, now);
        let cap = self.config.max_pending_build_ops;
        let pending = match self.config.policy {
            IndexPolicy::NoIndex => Vec::new(),
            IndexPolicy::Random => {
                // The baseline: a few random potential indexes, offered
                // with uninformative gains.
                let catalog = self.lifecycle.catalog();
                let (n, rng) = (catalog.len() as u64, &mut self.rng);
                let picks = (0..3).map(|_| (IndexId(rng.uniform_u64(0, n) as u32), 1.0));
                pending_builds(catalog, &self.throttle, cap, now, picks)
            }
            IndexPolicy::Gain { delete } => {
                // The queued dataflow plus every dataflow still running
                // on another lane (its own lane is free by `now`)
                // contribute at δT = 0.
                let running = lanes.iter().filter(|l| l.free_at > now).map(|l| &l.gains);
                let active: Vec<&Gains> = std::iter::once(&gains).chain(running).collect();
                let decision = self.tuner.decide(now, self.lifecycle.catalog(), &active);
                for &idx in decision.deletions.iter().filter(|_| delete) {
                    let freed = self.lifecycle.drop_index(idx, now);
                    if freed > 0 {
                        report.indexes_deleted += 1;
                        flowtune_obs::obs_event!(
                            "service.index_drop",
                            index = idx.0,
                            freed_bytes = freed,
                            at_ms = now.as_millis(),
                        );
                        // flowtune-allow(obs-discipline): drops need a long horizon with phase shifts; the smoke run never drops
                        flowtune_obs::count("service.index_drops", 1);
                    }
                }
                let picks = decision
                    .beneficial
                    .iter()
                    .map(|(idx, g)| (*idx, g.g.max(1e-6)));
                pending_builds(self.lifecycle.catalog(), &self.throttle, cap, now, picks)
            }
        };
        (gains, pending)
    }

    /// Alg. 1 lines 10-11: interleave the pending builds into the fastest
    /// schedule (§5.2); with deferral on, builds left out wait for a batch.
    fn plan(&mut self, df: &Dataflow, pending: &[BuildOp]) -> Schedule {
        let cloud = &self.config.params.cloud;
        let schedule = match (self.config.interleaver, self.config.scheduler) {
            // `validate` pairs online interleaving with the skyline only.
            (InterleaverKind::Online, _) => self.planner.schedule(&df.dag, pending).remove(0),
            (InterleaverKind::Lp, scheduler) => {
                let mut schedule = if scheduler == SchedulerKind::Skyline {
                    self.planner.scheduler.schedule(&df.dag).remove(0)
                } else {
                    OnlineLoadBalanceScheduler::new(cloud.max_containers, cloud.network_bandwidth)
                        .schedule(&df.dag)
                };
                if !pending.is_empty() {
                    LpInterleaver::new(cloud.quantum).interleave(&mut schedule, pending);
                }
                schedule
            }
        };
        flowtune_obs::obs_event!(
            "service.plan",
            dataflow = df.id.0,
            builds_offered = pending.len(),
            builds_placed = schedule.build_assignments().count(),
            planned_makespan_ms = schedule.makespan().as_millis(),
        );
        if self.config.deferred_builds {
            let placed: BTreeSet<_> = schedule
                .build_assignments()
                .filter_map(|a| a.build)
                .collect();
            let unplaced = pending.iter().filter(|b| !placed.contains(&b.build));
            self.deferred.defer(unplaced.copied());
            for b in &placed {
                self.deferred.remove(b);
            }
        }
        schedule
    }

    /// Run the dataflow on the simulated cloud; re-schedule killed operators
    /// with capped exponential backoff until the recovery policy gives up.
    fn execute(
        &mut self,
        df: &Dataflow,
        schedule: &Schedule,
        faults: &FaultPlan,
        report: &mut RunReport,
    ) -> Result<Executed> {
        let (time_err, data_err) = self.config.estimation_error;
        // The planned DAG runs as is unless estimation error perturbs
        // it, so it is borrowed, not copied.
        let actual = if time_err > 0.0 || data_err > 0.0 {
            Cow::Owned(perturb_dag(&df.dag, time_err, data_err, &mut self.rng))
        } else {
            Cow::Borrowed(&df.dag)
        };
        // Causality: only index partitions built before this dataflow
        // was issued are visible to it (lanes execute logically in
        // parallel but are processed in issue order).
        let indexes = df.index_uses.iter().map(|u| u.index);
        let avail = self.lifecycle.available_at(df.issued_at, indexes);
        let (cloud, recovery) = (&self.config.params.cloud, &self.config.recovery);
        let sim = Simulator::new(cloud.clone(), self.factory.filedb());
        let attempt_run = |dag: &Dag, schedule: &Schedule, attempt: u32| {
            let (uses, mut inj) = (&df.index_uses, faults.injector(df.id.0, attempt));
            sim.execute_with_faults(dag, schedule, uses, &avail, &BTreeMap::new(), &mut inj)
        };
        let exec = attempt_run(&actual, schedule, 0)?;
        absorb_fault_stats(report, &exec, cloud.quantum);
        let mut completed = exec.completed();
        let (mut delay, mut attempt) = (SimDuration::ZERO, 0u32);
        let (mut remnant_src, mut killed_ops) = (actual, exec.killed_ops.clone());
        while !completed {
            if !recovery.policy.retries() || attempt >= recovery.max_retries {
                report.dataflows_failed += 1;
                break;
            }
            attempt += 1;
            report.retries += 1;
            // No builds are interleaved into retries: recovery capacity
            // is not donated to the tuner.
            let (remnant, _original) = remnant_dag(&remnant_src, &killed_ops)?;
            let retry_schedule = self.planner.scheduler.schedule(&remnant).remove(0);
            let retry = attempt_run(&remnant, &retry_schedule, attempt)?;
            absorb_fault_stats(report, &retry, cloud.quantum);
            report.compute_cost += retry.compute_cost;
            report.dataflow_ops += retry.dataflow_ops;
            delay += recovery.backoff_delay(attempt) + retry.makespan;
            completed = retry.completed();
            (remnant_src, killed_ops) = (Cow::Owned(remnant), retry.killed_ops);
        }
        if completed && attempt > 0 {
            let latency = delay.quanta(cloud.quantum).get();
            report.recovery_latency_quanta.push(latency);
        }
        let finish = df.issued_at + exec.makespan + delay;
        flowtune_obs::set_now(finish);
        flowtune_obs::obs_event!(
            "service.complete",
            dataflow = df.id.0,
            completed = completed,
            makespan_ms = exec.makespan.as_millis(),
            recovery_delay_ms = delay.as_millis(),
            attempts = attempt,
        );
        if completed {
            flowtune_obs::count("service.dataflows_completed", 1);
        }
        flowtune_obs::count("service.recovery_attempts", attempt as u64);
        Ok(Executed {
            exec,
            completed,
            finish,
        })
    }

    /// Land what the dataflow's builds left behind, discard the failed
    /// ones, then verify every page image touched this round.
    fn settle_builds(&mut self, df: &Dataflow, run: &Executed, report: &mut RunReport) {
        let exec = &run.exec;
        // Commit completed builds in finish order; killed ones stay
        // pending via the catalog (they are re-derived next round).
        let mut completed: Vec<_> = exec.completed_builds.iter().collect();
        completed.sort_by_key(|cb| cb.finished_at);
        let mut to_verify: Vec<BuildRef> = Vec::new();
        // Builds may finish in the tail idle slot after the last
        // dataflow operator, i.e. later than `finish`.
        let mut round_end = run.finish;
        for cb in completed {
            let at = df.issued_at + (cb.finished_at - SimTime::ZERO);
            round_end = round_end.max(at);
            // A torn final write persists the defect the scan must find.
            let image = if exec.torn_builds.contains(&cb.build) {
                BuildImage::Torn(at)
            } else {
                BuildImage::Clean(at)
            };
            if let Some((at, bytes)) = self.lifecycle.commit(cb.build, image) {
                flowtune_obs::obs_event!(
                    "service.index_commit",
                    index = cb.build.index.0,
                    part = cb.build.part,
                    at_ms = at.as_millis(),
                    bytes = bytes,
                );
                flowtune_obs::count("service.index_commits", 1);
                to_verify.push(cb.build);
            }
        }
        // Crashed builds: the dead container flushed only a prefix of
        // its page image; the debris stays until the scan clears it.
        for crash in &exec.crashed_builds {
            let image = BuildImage::Crashed(crash.fraction);
            if self.lifecycle.commit(crash.build, image).is_some() {
                to_verify.push(crash.build);
            }
        }
        self.lifecycle.settle(round_end);
        // Failed builds: invalidate the corrupt partition so it is never
        // marked available and can be re-attempted.
        for b in &exec.failed_builds {
            self.lifecycle.invalidate(b.index, b.part);
        }

        // Post-crash verification scan: find the bad pages (torn or
        // never flushed) of every image touched this round.
        // Defective partitions are invalidated in the same round they
        // committed, before any later dataflow's availability snapshot —
        // a failing page is never probed.
        to_verify.sort();
        to_verify.dedup();
        let cloud = &self.config.params.cloud;
        for b in &to_verify {
            let Some(verdict) = self.lifecycle.pages().verify_partition(b.index, b.part) else {
                continue;
            };
            report.verify_pages_scanned += verdict.pages_scanned;
            flowtune_obs::count("storage.verify_pages", verdict.pages_scanned);
            if verdict.is_clean() {
                if self.throttle.record_success(b.index, b.part) {
                    report.rebuilds_completed += 1;
                    // flowtune-allow(obs-discipline): only fires after an injected corruption; the smoke run is fault-free
                    flowtune_obs::count("service.rebuilds_completed", 1);
                }
                continue;
            }
            report.bad_pages_detected += verdict.bad_pages.len() as u64;
            report.partitions_invalidated += 1;
            flowtune_obs::obs_event!(
                "service.partition_invalidated",
                index = b.index.0,
                part = b.part,
                bad_pages = verdict.bad_pages.len(),
                pages_scanned = verdict.pages_scanned,
            );
            // flowtune-allow(obs-discipline): only fires after an injected corruption; the smoke run is fault-free
            flowtune_obs::count("service.partitions_invalidated", 1);
            if self.lifecycle.invalidate(b.index, b.part) {
                // The build ran to commit and its output is now
                // discarded: the whole build time was compute spent on
                // work that must be redone.
                let spec = self.lifecycle.catalog().spec(b.index);
                let burnt = spec.partition_build_time(b.part as usize);
                report.wasted_compute_quanta += burnt.quanta(cloud.quantum);
                let burnt_quanta = burnt.as_quanta(cloud.quantum);
                report.wasted_cost += cloud.vm_price_per_quantum.mul_f64(burnt_quanta);
            }
            self.throttle
                .record_failure(b.index, b.part, run.finish, &self.config.recovery);
        }
    }

    /// Record the dataflow in the tuner's gain history (Hd).
    fn learn(&mut self, df: &Dataflow, run: &Executed, gains: &Gains) {
        let (history, exec) = (&mut self.tuner.history, &run.exec);
        let entry = |index_gains| HistoryEntry {
            dataflow: df.id,
            finished_at: run.finish,
            index_gains,
        };
        if run.completed {
            history.record(entry(gains.clone()));
        }
        // Graceful tuner degradation: builds the cloud destroyed or
        // corrupted feed *negative* evidence into the gain history, so
        // the same index is not immediately re-attempted.
        if self.config.recovery.policy.penalises_gain() {
            let penalty = self.config.recovery.gain_penalty;
            let mut negative = Gains::new();
            for b in exec.failed_builds.iter().chain(&exec.fault_killed_builds) {
                let e = negative.entry(b.index).or_insert((0.0, 0.0));
                e.0 -= penalty;
                e.1 -= penalty;
            }
            if !negative.is_empty() {
                history.record(entry(negative));
            }
        }
        let params = &self.config.params;
        let window = params.cloud.quantum.mul_f64(4.0 * params.tuner.window_w);
        history.prune(run.finish, window);
    }

    /// Add the dataflow to the report: costs, its per-dataflow record
    /// and a timeline point.
    fn account(&self, df: &Dataflow, run: &Executed, report: &mut RunReport) {
        let (quantum, exec) = (self.config.params.cloud.quantum, &run.exec);
        let makespan = (run.finish - df.issued_at).quanta(quantum);
        report.compute_cost += exec.compute_cost;
        report.dataflow_ops += exec.dataflow_ops;
        report.builds_completed += exec.completed_builds.len();
        report.builds_killed += exec.killed_builds.len();
        if run.completed && run.finish <= self.lifecycle.horizon() {
            report.dataflows_finished += 1;
            report.total_makespan_quanta += makespan;
        }
        let total_reads = exec.accelerated_reads + exec.plain_reads;
        let indexed = if total_reads == 0 {
            0.0
        } else {
            exec.accelerated_reads as f64 / total_reads as f64
        };
        flowtune_obs::observe("service.makespan_quanta", makespan.get());
        flowtune_obs::observe("service.indexed_fraction", indexed);
        // flowtune-allow(cast-discipline): leased-quanta counts stay far below 2^53, exact in f64
        let cost_quanta = Quanta::new(exec.leased_quanta as f64);
        flowtune_obs::observe("service.cost_quanta", cost_quanta.get());
        report.per_dataflow.push(DataflowRecord {
            app: df.app.name(),
            issued_quanta: df.issued_at.quanta(quantum),
            makespan_quanta: makespan,
            cost_quanta,
            indexed_fraction: indexed,
        });
        let catalog = self.lifecycle.catalog();
        report.timeline.push(TimelinePoint {
            time_quanta: run.finish.quanta(quantum),
            indexes_built: catalog.built_index_count(),
            index_partitions: catalog.built_partition_count(),
            stored_bytes: catalog.total_built_bytes(),
            storage_cost: self.lifecycle.storage().accrued_cost(),
        });
    }

    /// Deferred batch building (paid, gain-justified): run every batch
    /// whose accumulated gain now covers its dedicated lease.
    fn flush_deferred(&mut self, issued: SimTime, report: &mut RunReport) {
        let horizon = self.lifecycle.horizon();
        while let Some(batch) = self.deferred.try_flush() {
            let mut at = issued;
            for op in &batch.ops {
                at += op.duration;
                // Deferred batches run on dedicated paid leases outside
                // the fault layer, so their images land clean.
                self.lifecycle
                    .commit(op.build, BuildImage::Clean(at.min(horizon)));
            }
            report.compute_cost += batch.cost;
            report.builds_completed += batch.ops.len();
        }
    }
}

/// Offer the remaining build operators of each picked index, with its gain,
/// skipping partitions in rebuild backoff; stops at `cap`, drawing no more.
fn pending_builds(
    catalog: &IndexCatalog,
    throttle: &RebuildThrottle,
    cap: usize,
    now: SimTime,
    picks: impl IntoIterator<Item = (IndexId, f64)>,
) -> Vec<BuildOp> {
    let mut ops = Vec::new();
    for (index, gain) in picks {
        for (part, duration, _) in catalog.remaining_build_ops(index) {
            let part = part as u32;
            if ops.len() >= cap {
                return ops;
            }
            // Partitions the recovery scan invalidated sit out their
            // backoff before being offered for rebuild.
            if throttle.is_eligible(index, part, now) {
                let build = BuildRef { index, part };
                ops.push(BuildOp {
                    id: BuildOpId(ops.len() as u32),
                    build,
                    duration,
                    gain,
                });
            }
        }
    }
    ops
}

/// Fold one execution attempt's fault counters into the run report.
/// All increments are zero on a fault-free execution, so rate-0 runs
/// are unaffected.
fn absorb_fault_stats(report: &mut RunReport, exec: &ExecutionReport, quantum: SimDuration) {
    report.ops_killed_by_fault += exec.killed_ops.len();
    report.containers_revoked += exec.revoked_containers.len();
    report.storage_faults += exec.storage_faults;
    report.straggler_ops += exec.straggler_ops;
    report.builds_failed += exec.failed_builds.len();
    report.builds_killed_by_fault += exec.fault_killed_builds.len();
    report.builds_crashed += exec.crashed_builds.len();
    report.wasted_compute_quanta += exec.wasted_compute.quanta(quantum);
    if !exec.completed() {
        // Every quantum leased by an attempt that did not complete is
        // money spent on discarded work.
        report.wasted_cost += exec.compute_cost;
    }
}

/// Register every potential index of the file database, preserving ids.
pub fn build_catalog(filedb: &FileDatabase) -> IndexCatalog {
    let mut catalog = IndexCatalog::new();
    for pi in filedb.potential_indexes() {
        let rows: Vec<u64> = filedb
            .file(pi.file)
            .partitions
            .iter()
            .map(|p| p.rows)
            .collect();
        let id = catalog.add(IndexSpec::single_column(
            pi.id,
            pi.file,
            pi.column,
            IndexCostModel::new(pi.rec_bytes(), ROW_BYTES),
            rows,
        ));
        assert_eq!(id, pi.id, "catalog ids must match file-database ids");
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config(policy: IndexPolicy) -> ServiceConfig {
        let mut c = ServiceConfig::default();
        c.params.total_quanta = 40;
        c.params.seed = 7;
        c.policy = policy;
        c.max_skyline = 4;
        c
    }

    #[test]
    fn no_index_policy_builds_nothing() {
        let mut svc = QaasService::new(short_config(IndexPolicy::NoIndex));
        let r = svc.run().expect("service run failed");
        assert!(r.dataflows_finished > 0);
        assert_eq!(r.builds_completed, 0);
        assert_eq!(r.builds_killed, 0);
        assert_eq!(r.index_storage_cost, flowtune_common::Money::ZERO);
    }

    #[test]
    fn gain_policy_builds_indexes_and_accrues_storage() {
        let mut svc = QaasService::new(short_config(IndexPolicy::Gain { delete: true }));
        let r = svc.run().expect("service run failed");
        assert!(r.dataflows_finished > 0);
        assert!(r.builds_completed > 0, "gain policy never built an index");
        assert!(r.index_storage_cost > flowtune_common::Money::ZERO);
        assert!(!r.timeline.is_empty());
        let built_at_end = r.timeline.last().unwrap().indexes_built;
        assert!(built_at_end > 0);
    }

    #[test]
    fn indexes_reduce_execution_time_versus_no_index() {
        let mut no_index = QaasService::new(short_config(IndexPolicy::NoIndex));
        let base = no_index.run().expect("service run failed");
        let mut gain = QaasService::new(short_config(IndexPolicy::Gain { delete: true }));
        let tuned = gain.run().expect("service run failed");
        // Same seed, same workload: the tuned service must finish at
        // least as many dataflows.
        assert!(
            tuned.dataflows_finished >= base.dataflows_finished,
            "tuned {} vs base {}",
            tuned.dataflows_finished,
            base.dataflows_finished
        );
    }

    #[test]
    fn random_policy_never_deletes() {
        let mut svc = QaasService::new(short_config(IndexPolicy::Random));
        let r = svc.run().expect("service run failed");
        assert_eq!(r.indexes_deleted, 0);
    }

    #[test]
    fn validate_rejects_online_interleaving_under_load_balance() {
        let mut c = short_config(IndexPolicy::Gain { delete: true });
        c.scheduler = SchedulerKind::OnlineLoadBalance;
        c.interleaver = InterleaverKind::Online;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c.clone()).run().is_err());
        c.interleaver = InterleaverKind::Lp;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_pending_builds_under_an_indexing_policy() {
        for policy in [IndexPolicy::Random, IndexPolicy::Gain { delete: true }] {
            let mut c = short_config(policy);
            c.max_pending_build_ops = 0;
            assert!(c.validate().is_err(), "accepted under {policy:?}");
            assert!(QaasService::new(c).run().is_err());
        }
        let mut c = short_config(IndexPolicy::NoIndex);
        c.max_pending_build_ops = 0;
        assert!(c.validate().is_ok());
    }

    /// `knob` is rejected under `policy` and accepted under Gain.
    fn assert_inert_under(policy: IndexPolicy, knob: impl Fn(&mut ServiceConfig)) {
        let mut c = short_config(policy);
        knob(&mut c);
        assert!(c.validate().is_err(), "accepted under {policy:?}");
        assert!(QaasService::new(c).run().is_err());
        let mut c = short_config(IndexPolicy::Gain { delete: true });
        knob(&mut c);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_online_interleaving_under_no_index() {
        assert_inert_under(IndexPolicy::NoIndex, |c| {
            c.interleaver = InterleaverKind::Online;
        });
    }

    #[test]
    fn validate_rejects_deferred_builds_under_no_index() {
        assert_inert_under(IndexPolicy::NoIndex, |c| c.deferred_builds = true);
    }

    #[test]
    fn validate_rejects_adaptive_fading_under_no_index() {
        assert_inert_under(IndexPolicy::NoIndex, |c| c.adaptive_fading = true);
    }

    #[test]
    fn validate_rejects_io_calibration_under_no_index() {
        assert_inert_under(IndexPolicy::NoIndex, |c| c.calibrate_index_io = true);
    }

    #[test]
    fn validate_rejects_adaptive_fading_under_random() {
        assert_inert_under(IndexPolicy::Random, |c| c.adaptive_fading = true);
    }

    #[test]
    fn validate_rejects_estimation_error_outside_unit_interval() {
        for bad in [(1.5, 0.0), (0.0, 1.0), (-0.1, 0.0), (f64::NAN, 0.0)] {
            let mut c = short_config(IndexPolicy::NoIndex);
            c.estimation_error = bad;
            assert!(c.validate().is_err(), "accepted {bad:?}");
            assert!(QaasService::new(c).run().is_err());
        }
        let mut c = short_config(IndexPolicy::NoIndex);
        c.estimation_error = (0.3, 0.99);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_concurrency() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.concurrency = 0;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c).run().is_err());
    }

    #[test]
    fn validate_rejects_more_lanes_than_containers() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.params.cloud.max_containers = 3;
        c.concurrency = 4;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c.clone()).run().is_err());
        c.concurrency = usize::MAX;
        assert!(c.validate().is_err());
        c.concurrency = 3;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_max_skyline() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.max_skyline = 0;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c).run().is_err());
    }

    #[test]
    fn validate_rejects_zero_max_containers_under_the_skyline() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.params.cloud.max_containers = 0;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c).run().is_err());
    }

    #[test]
    fn validate_rejects_zero_max_containers_under_load_balance() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.scheduler = SchedulerKind::OnlineLoadBalance;
        c.params.cloud.max_containers = 0;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c).run().is_err());
    }

    #[test]
    fn validate_rejects_zero_quantum() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.params.cloud.quantum = SimDuration::ZERO;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c).run().is_err());
    }

    #[test]
    fn validate_rejects_zero_horizon() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.params.total_quanta = 0;
        assert!(c.validate().is_err());
        assert!(QaasService::new(c).run().is_err());
    }

    #[test]
    fn validate_rejects_a_horizon_that_overflows() {
        // u64::MAX / 60_000 one-minute quanta is the longest horizon a
        // SimDuration holds. 307_445_734_561_825_861 quanta would wrap
        // to a 44-second horizon.
        let longest = u64::MAX / 60_000;
        for quanta in [u64::MAX, 307_445_734_561_825_861, longest + 1] {
            let mut c = short_config(IndexPolicy::NoIndex);
            c.params.total_quanta = quanta;
            assert!(c.validate().is_err(), "accepted {quanta} quanta");
            assert!(QaasService::new(c).run().is_err());
        }
        let mut c = short_config(IndexPolicy::NoIndex);
        c.params.total_quanta = longest;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_fault_recovery_and_tuner_settings() {
        let mut c = short_config(IndexPolicy::NoIndex);
        c.faults.rate = 1.5;
        assert!(c.validate().is_err());
        let mut c = short_config(IndexPolicy::NoIndex);
        c.recovery.gain_penalty = -1.0;
        assert!(c.validate().is_err());
        let mut c = short_config(IndexPolicy::NoIndex);
        c.params.tuner.alpha = 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn catalog_ids_align_with_filedb() {
        let svc = QaasService::new(short_config(IndexPolicy::NoIndex));
        assert_eq!(
            svc.lifecycle().catalog().len(),
            svc.filedb().potential_indexes().len()
        );
    }
}
