//! Run-level bookkeeping agreement for index partitions.
//!
//! A partition lives in three stores: the catalog marks it built, the
//! storage meter bills it, and the page store holds its image. At the
//! end of every run, under every policy, with and without faults and
//! deferred builds, the three must name exactly the same partitions,
//! every image left must verify clean, and the page store must hold
//! exactly the pages of those images.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns fail fast on a broken fixture"
)]

use std::collections::BTreeSet;

use flowtune_cloud::FaultConfig;
use flowtune_common::IndexId;
use flowtune_core::{
    IndexLifecycle, IndexPolicy, InterleaverKind, QaasService, RecoveryPolicyKind, ServiceConfig,
};
use flowtune_dataflow::WorkloadKind;
use flowtune_index::IndexPageStore;
use flowtune_storage::ObjectKey;

type Parts = BTreeSet<(IndexId, u32)>;

/// Built partitions per catalog, billed ones per storage meter, and
/// imaged ones per page store.
fn views(lc: &IndexLifecycle) -> [Parts; 3] {
    let catalog = lc.catalog();
    let built = catalog
        .ids()
        .flat_map(|i| {
            let parts = catalog.state(i).parts.iter().enumerate();
            parts
                .filter(|(_, p)| p.is_some())
                .map(move |(p, _)| (i, p as u32))
        })
        .collect();
    let billed = lc
        .storage()
        .iter()
        .map(|(&ObjectKey::IndexPart(i, p), _)| (i, p))
        .collect();
    [built, billed, lc.pages().partitions().collect()]
}

fn assert_agreement(svc: &QaasService, what: &str) {
    let lc = svc.lifecycle();
    let [built, billed, imaged] = views(lc);
    assert_eq!(built, billed, "{what}: catalog vs storage meter");
    assert_eq!(built, imaged, "{what}: catalog vs page store");
    for &(i, p) in &imaged {
        let verdict = lc.pages().verify_partition(i, p).expect("image exists");
        assert!(verdict.is_clean(), "{what}: image {i:?}/{p} is defective");
    }
    let image_pages: usize = built
        .iter()
        .map(|&(i, p)| {
            let bytes = lc.catalog().spec(i).partition_bytes(p as usize);
            IndexPageStore::image_pages(bytes)
        })
        .sum();
    assert_eq!(lc.pages().page_count(), image_pages, "{what}: page count");
    // The catalog's running totals, which each round's timeline point
    // reads, against the per-index walk.
    let catalog = lc.catalog();
    let indexes: BTreeSet<IndexId> = built.iter().map(|&(i, _)| i).collect();
    let bytes: u64 = built
        .iter()
        .map(|&(i, p)| catalog.spec(i).partition_bytes(p as usize))
        .sum();
    assert_eq!(
        catalog.built_index_count(),
        indexes.len(),
        "{what}: indexes"
    );
    assert_eq!(
        catalog.built_partition_count(),
        built.len(),
        "{what}: parts"
    );
    assert_eq!(catalog.total_built_bytes(), bytes, "{what}: built bytes");
}

/// The CLI's defaults (phase workload), with a short horizon.
fn config(policy: IndexPolicy, quanta: u64, seed: u64) -> ServiceConfig {
    let mut c = ServiceConfig {
        workload: WorkloadKind::paper_phases(),
        policy,
        ..Default::default()
    };
    c.params.total_quanta = quanta;
    c.params.seed = seed;
    c
}

#[test]
fn catalog_storage_and_page_store_agree_at_the_end_of_every_run() {
    let policies = [
        IndexPolicy::Gain { delete: true },
        IndexPolicy::Gain { delete: false },
        IndexPolicy::Random,
    ];
    for policy in policies {
        for faulted in [false, true] {
            for deferred in [false, true] {
                let mut c = config(policy, 60, 7);
                c.deferred_builds = deferred;
                if faulted {
                    c.faults.rate = 0.6;
                    c.faults.crash_build_share = 0.3;
                    c.faults.torn_write_share = 0.3;
                }
                let mut svc = QaasService::new(c);
                let report = svc.run().expect("service run");
                assert!(report.builds_completed > 0);
                let what = format!("{} faulted={faulted} deferred={deferred}", policy.label());
                assert_agreement(&svc, &what);
            }
        }
    }
}

#[test]
fn the_online_interleaver_under_page_faults_keeps_the_stores_in_agreement() {
    // The shape of the benchmark's faults_online workload: the online
    // interleaver, rebuilds under a gain penalty, and crashed and torn
    // images among the other faults.
    let mut c = config(IndexPolicy::Gain { delete: true }, 60, 7);
    c.interleaver = InterleaverKind::Online;
    c.faults.rate = 0.3;
    c.faults.crash_build_share = 0.3;
    c.faults.torn_write_share = 0.3;
    c.recovery.policy = RecoveryPolicyKind::RetryGainPenalty;
    let mut svc = QaasService::new(c);
    let report = svc.run().expect("service run");
    assert!(report.builds_completed > 0);
    assert!(
        report.partitions_invalidated > 0,
        "no image was ever defective"
    );
    assert_agreement(&svc, "gain, online interleaver, faults 0.3");
}

#[test]
fn a_failed_duplicate_build_leaves_no_page_image() {
    // Random may offer one partition twice in a round; here one copy
    // commits and the other fails validation, which invalidates the
    // partition. Its committed image must go with it.
    let mut c = config(IndexPolicy::Random, 59, 1);
    c.faults = FaultConfig {
        rate: 0.6,
        ..FaultConfig::default()
    };
    let mut svc = QaasService::new(c);
    let report = svc.run().expect("service run");
    assert!(report.builds_failed > 0);
    assert_agreement(&svc, "random, fault rate 0.6");
}
