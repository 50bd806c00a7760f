//! Crash-consistency regression suite for the paged index backend.
//!
//! Exercises the two page-level fault kinds (crash-during-build and
//! torn-page-write) end to end through the service: faults corrupt
//! persistent pages, the post-commit verification scan detects them by
//! checksum/epoch, detected partitions are invalidated and rebuilt
//! under the throttle, and a never-probed guarantee holds because
//! invalidation happens before any query can plan against the
//! partition. The headline counters are pinned against a committed
//! golden so any behavioural drift in the detect → invalidate →
//! rebuild pipeline shows up as a reviewable text diff.
//!
//! Regenerate the golden by running the ignored `regen` helper below
//! and copying its output:
//!
//! ```text
//! cargo test -p flowtune-core --test fault_crash_recovery -- --ignored --nocapture regen_golden
//! ```

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns fail fast on a broken fixture"
)]

use std::fmt::Write as _;

use flowtune_cloud::FaultConfig;
use flowtune_common::{FileId, IndexId, Money, SimDuration, SimTime};
use flowtune_core::{
    BuildImage, IndexLifecycle, IndexPolicy, QaasService, RecoveryConfig, RecoveryPolicyKind,
    RunReport, ServiceConfig,
};
use flowtune_dataflow::WorkloadKind;
use flowtune_index::{IndexCatalog, IndexCostModel, IndexSpec};
use flowtune_sched::BuildRef;
use flowtune_storage::StorageService;

fn config(seed: u64, quanta: u64) -> ServiceConfig {
    // Mirror the `flowtune` CLI defaults so these runs line up with
    // `flowtune --quanta N --seed S --crash-share X --torn-share Y`.
    let mut c = ServiceConfig {
        workload: WorkloadKind::paper_phases(),
        policy: IndexPolicy::Gain { delete: true },
        ..Default::default()
    };
    c.params.total_quanta = quanta;
    c.params.seed = seed;
    c
}

/// A lifecycle over `catalog` with the default storage pricing.
fn lifecycle(catalog: IndexCatalog) -> IndexLifecycle {
    let storage = StorageService::new(Money::from_dollars(1e-4), SimDuration::from_secs(60));
    IndexLifecycle::new(catalog, storage, SimTime::from_secs(3600))
}

/// Fault config where *only* the two page-level kinds can fire, so the
/// golden isolates the crash/torn recovery path from revocations,
/// stragglers, and logical build failures.
fn page_faults_only(rate: f64, fault_seed: u64) -> FaultConfig {
    let mut f = FaultConfig::with_rate(rate, fault_seed);
    f.revocation_share = 0.0;
    f.storage_share = 0.0;
    f.straggler_share = 0.0;
    f.build_failure_share = 0.0;
    f.crash_build_share = 0.5;
    f.torn_write_share = 0.5;
    f
}

fn run(c: ServiceConfig) -> RunReport {
    QaasService::new(c).run().expect("service run failed")
}

fn crash_config(rate: f64) -> ServiceConfig {
    let mut c = config(7, 40);
    c.faults = page_faults_only(rate, 0xFA_0175);
    c.recovery = RecoveryConfig::with_policy(RecoveryPolicyKind::Retry);
    c
}

fn crash_run(rate: f64) -> RunReport {
    run(crash_config(rate))
}

fn render(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fault_crash_recovery: quanta 40, seed 7, fault seed 0xFA0175, rate 0.40"
    );
    let _ = writeln!(
        s,
        "faults: crash_build_share 0.50, torn_write_share 0.50, all other shares 0; policy retry"
    );
    let _ = writeln!(s, "dataflows issued        {}", r.dataflows_issued);
    let _ = writeln!(s, "dataflows finished      {}", r.dataflows_finished);
    let _ = writeln!(s, "builds completed        {}", r.builds_completed);
    let _ = writeln!(s, "builds crashed          {}", r.builds_crashed);
    let _ = writeln!(s, "verify pages scanned    {}", r.verify_pages_scanned);
    let _ = writeln!(s, "bad pages detected      {}", r.bad_pages_detected);
    let _ = writeln!(s, "partitions invalidated  {}", r.partitions_invalidated);
    let _ = writeln!(s, "rebuilds completed      {}", r.rebuilds_completed);
    let _ = writeln!(
        s,
        "wasted compute quanta   {:.3}",
        r.wasted_compute_quanta.get()
    );
    let _ = writeln!(s, "wasted cost             {}", r.wasted_cost);
    s
}

#[test]
fn detection_invalidation_and_rebuild_match_the_golden() {
    let r = crash_run(0.4);

    // The detect → invalidate → rebuild pipeline must actually engage:
    // crashes and torn writes leave bad persistent pages, the scan finds
    // them, and the throttle lets rebuilds through within the horizon.
    assert!(r.builds_crashed > 0, "no build ever crashed at rate 0.4");
    assert!(r.verify_pages_scanned > 0, "verification scan never ran");
    assert!(r.bad_pages_detected > 0, "no torn/crashed page detected");
    assert!(
        r.partitions_invalidated > 0,
        "bad pages were detected but nothing was invalidated"
    );
    assert!(
        r.rebuilds_completed > 0,
        "invalidated partitions were never rebuilt"
    );
    // Every bad page lives inside a scanned partition image.
    assert!(r.bad_pages_detected <= r.verify_pages_scanned);
    // Crashed/invalidated builds are accounted as waste, and waste stays
    // a subset of all compute spending.
    assert!(r.wasted_compute_quanta.get() > 0.0);
    assert!(r.wasted_cost <= r.compute_cost);

    assert_eq!(
        render(&r),
        include_str!("golden/fault_crash_recovery.txt"),
        "crash-recovery counters drifted from tests/golden/fault_crash_recovery.txt \
         (regenerate via the regen_golden helper in this file if the change is intended)"
    );
}

#[test]
#[ignore = "golden regeneration helper, not a check"]
fn regen_golden() {
    print!("{}", render(&crash_run(0.4)));
}

#[test]
fn page_store_traffic_of_the_golden_run_is_pinned() {
    // Raw page-store traffic of the golden's faulted run: pages written
    // (clean, torn and the flushed prefix of crashed images), B+Tree
    // page reads (none: the run probes no tree, and the image scan is
    // counted once, below), and the pages the service's recovery scan
    // read back, missing ones included. The fault-free smoke golden pins
    // these only on a run with no torn or crashed image.
    flowtune_obs::install();
    let report = QaasService::new(crash_config(0.4)).run();
    let rec = flowtune_obs::uninstall().expect("recorder was installed");
    let report = report.expect("service run failed");
    let m = rec.metrics();
    let traffic = [
        m.counter("storage.page_writes"),
        m.counter("storage.page_reads"),
        m.counter("storage.verify_pages"),
    ];
    assert_eq!(traffic, [21_235, 0, 24_099]);
    assert_eq!(traffic[2], report.verify_pages_scanned);
}

#[test]
fn same_seed_pair_is_deterministic_under_page_faults() {
    let a = crash_run(0.4);
    let b = crash_run(0.4);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn rate_zero_with_page_shares_set_matches_the_fault_free_run() {
    // Shares alone must never perturb a run: probability is rate x
    // share, so rate 0 with crash/torn shares configured has to be
    // byte-identical to the default fault-free service.
    let baseline = run(config(7, 40));
    let gated = crash_run(0.0);
    assert_eq!(format!("{baseline:?}"), format!("{gated:?}"));
    assert_eq!(gated.builds_crashed, 0);
    assert_eq!(gated.bad_pages_detected, 0);
    assert_eq!(gated.partitions_invalidated, 0);
    assert_eq!(gated.rebuilds_completed, 0);
}

#[test]
fn unmark_built_double_invalidate_is_idempotent_against_storage() {
    // Regression for the recovery path: a partition that fails
    // verification twice in a row (or races a delete) must not panic
    // and must not double-delete storage. The catalog's `unmark_built`
    // return value gates `IndexLifecycle::invalidate` — only the first
    // invalidation may release the billed object.
    let mut cat = IndexCatalog::new();
    let id = cat.add(IndexSpec::single_column(
        IndexId(0),
        FileId(0),
        "orderkey",
        IndexCostModel::new(12.0, 117.0),
        vec![100_000; 2],
    ));
    let mut lc = lifecycle(cat);
    let build = BuildRef { index: id, part: 1 };

    // Build partition 1: catalog state, billed object, page image.
    let now = SimTime::from_secs(600);
    let (_, bytes) = lc.commit(build, BuildImage::Clean(now)).expect("commits");
    assert!(lc.catalog().is_partition_built(id, 1));
    assert!(lc.pages().has_partition(id, 1));
    assert_eq!(lc.storage().stored_bytes(), bytes);

    // First invalidation wins the gate and releases every store.
    assert!(lc.invalidate(id, 1));
    assert!(!lc.catalog().is_partition_built(id, 1));
    assert!(!lc.pages().has_partition(id, 1));
    assert_eq!(lc.storage().object_count(), 0);

    // Second invalidation loses the gate: no panic, no double delete.
    assert!(!lc.invalidate(id, 1), "double invalidate must be a no-op");
    assert_eq!(lc.catalog().built_bytes(id), 0);
    assert_eq!(lc.storage().object_count(), 0);

    // The partition is rebuildable afterwards.
    lc.commit(build, BuildImage::Clean(SimTime::from_secs(1200)))
        .expect("rebuild commits");
    assert!(lc.catalog().is_partition_built(id, 1));
    assert_eq!(lc.storage().object_count(), 1);
    assert!(lc.pages().has_partition(id, 1));
}
