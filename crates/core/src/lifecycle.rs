//! The one place an index partition changes state.
//!
//! A partition lives in three stores: the catalog marks it built, the
//! storage meter bills it, and the page store holds its checksummed
//! image. [`IndexLifecycle`] owns all three and is the only code that
//! writes to them, so they cannot drift apart.

use flowtune_cloud::IndexAvailability;
use flowtune_common::{IndexId, SimTime};
use flowtune_index::{IndexCatalog, IndexPageStore};
use flowtune_sched::BuildRef;
use flowtune_storage::{ObjectKey, StorageService};

/// What a build left behind in the page store.
#[derive(Debug, Clone, Copy)]
pub enum BuildImage {
    /// The build ran to completion at this instant.
    Clean(SimTime),
    /// The build completed at this instant, but its final page write
    /// tore: the image persists with a defect behind the checksum.
    Torn(SimTime),
    /// The build's container died after flushing this fraction of the
    /// image: debris occupies the page store, nothing is built.
    Crashed(f64),
}

/// Catalog, storage meter and page store of the index partitions,
/// moved in step by [`commit`](Self::commit),
/// [`invalidate`](Self::invalidate) and [`drop_index`](Self::drop_index).
///
/// **Settlement clock.** Storage is billed up to the meter's
/// `settled_to`, which only moves forward and never past the horizon.
/// Lanes finish out of order, and a build may commit in the tail idle
/// slot after its dataflow's last operator, so the clock can already
/// stand past a dataflow's finish: every operation is stamped with at
/// least the settled time, so billing never runs backwards.
#[derive(Debug)]
pub struct IndexLifecycle {
    catalog: IndexCatalog,
    storage: StorageService,
    pages: IndexPageStore,
    horizon: SimTime,
}

impl IndexLifecycle {
    /// Manage `catalog`'s partitions, billed by `storage` up to
    /// `horizon`, with an empty page store.
    pub fn new(catalog: IndexCatalog, storage: StorageService, horizon: SimTime) -> Self {
        IndexLifecycle {
            catalog,
            storage,
            pages: IndexPageStore::new(),
            horizon,
        }
    }

    /// Which partitions are built, and since when.
    pub fn catalog(&self) -> &IndexCatalog {
        &self.catalog
    }

    /// The storage meter: billed objects, settlement clock, cost.
    pub fn storage(&self) -> &StorageService {
        &self.storage
    }

    /// The partitions' page images.
    pub fn pages(&self) -> &IndexPageStore {
        &self.pages
    }

    /// End of the billed horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The partitions of `indexes` that a dataflow issued at `now` may
    /// probe: those built by then. A dataflow only probes its own usable
    /// indexes, so the snapshot holds those and nothing else.
    pub fn available_at(
        &self,
        now: SimTime,
        indexes: impl IntoIterator<Item = IndexId>,
    ) -> IndexAvailability {
        let (catalog, mut avail) = (&self.catalog, IndexAvailability::new());
        for idx in indexes {
            for (part, built) in catalog.state(idx).parts.iter().enumerate() {
                if built.is_some_and(|b| b.built_at <= now) {
                    avail.add(idx, part as u32, catalog.spec(idx).partition_bytes(part));
                }
            }
        }
        avail
    }

    /// Land what a build left behind. A completed image (clean or torn)
    /// marks the partition built and bills it from its commit instant;
    /// crash debris only lands in the page store. Returns the commit
    /// instant and the partition's bytes, or `None` when the partition
    /// is already built (a duplicate build loses).
    pub fn commit(&mut self, build: BuildRef, image: BuildImage) -> Option<(SimTime, u64)> {
        let (index, part) = (build.index, build.part);
        if self.catalog.is_partition_built(index, part as usize) {
            return None;
        }
        let bytes = self.catalog.spec(index).partition_bytes(part as usize);
        let settled = self.storage.settled_to();
        let at = match image {
            BuildImage::Clean(at) | BuildImage::Torn(at) => at.max(settled),
            BuildImage::Crashed(fraction) => {
                self.pages
                    .write_partition_crashed(index, part, bytes, fraction);
                return Some((settled, bytes));
            }
        };
        self.catalog.mark_built(index, part as usize, at, 0);
        let key = ObjectKey::IndexPart(index, part);
        self.storage.put(key, bytes, at.min(self.horizon));
        if let BuildImage::Torn(_) = image {
            self.pages.write_partition_torn(index, part, bytes);
        } else {
            self.pages.write_partition(index, part, bytes);
        }
        Some((at, bytes))
    }

    /// Advance the settlement clock to `to`, capped at the horizon, and
    /// bill storage up to it. An instant behind the clock is a no-op.
    pub fn settle(&mut self, to: SimTime) {
        let to = to.min(self.horizon);
        if to > self.storage.settled_to() {
            self.storage.settle(to);
        }
    }

    /// Discard partition `part` of `index` at the settled time, so it may
    /// be rebuilt. Returns whether it was built; if not, only image
    /// debris is cleared, so a second invalidation is a no-op.
    pub fn invalidate(&mut self, index: IndexId, part: u32) -> bool {
        let was_built = self.catalog.unmark_built(index, part as usize);
        if was_built {
            let key = ObjectKey::IndexPart(index, part);
            self.storage.delete(&key, self.storage.settled_to());
        }
        self.pages.delete_partition(index, part);
        was_built
    }

    /// Invalidate every partition of `index` at `now` (or the settled
    /// time, if later); the index stays registered as a potential
    /// index. Returns the bytes freed, 0 when nothing was built.
    pub fn drop_index(&mut self, index: IndexId, now: SimTime) -> u64 {
        let freed = self.catalog.built_bytes(index);
        if freed > 0 {
            self.settle(now);
            for part in 0..self.catalog.state(index).parts.len() {
                self.invalidate(index, part as u32);
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::{FileId, Money, SimDuration};
    use flowtune_index::{IndexCostModel, IndexSpec};

    fn lifecycle() -> (IndexLifecycle, IndexId) {
        let mut catalog = IndexCatalog::new();
        let id = catalog.add(IndexSpec::single_column(
            IndexId(0),
            FileId(0),
            "orderkey",
            IndexCostModel::new(12.0, 117.0),
            vec![100_000; 3],
        ));
        let storage = StorageService::new(Money::from_dollars(1e-4), SimDuration::from_secs(60));
        (
            IndexLifecycle::new(catalog, storage, SimTime::from_secs(3600)),
            id,
        )
    }

    fn build(index: IndexId, part: u32) -> BuildRef {
        BuildRef { index, part }
    }

    /// Whether any of the three stores still knows `(index, part)`.
    fn traced(lc: &IndexLifecycle, index: IndexId, part: u32) -> [bool; 3] {
        [
            lc.catalog().is_partition_built(index, part as usize),
            lc.storage().contains(&ObjectKey::IndexPart(index, part)),
            lc.pages().has_partition(index, part),
        ]
    }

    #[test]
    fn commit_lands_in_all_three_stores_once() {
        let (mut lc, id) = lifecycle();
        let at = SimTime::from_secs(600);
        let (landed, bytes) = lc.commit(build(id, 1), BuildImage::Clean(at)).unwrap();
        assert_eq!(landed, at);
        assert_eq!(bytes, lc.catalog().spec(id).partition_bytes(1));
        assert_eq!(traced(&lc, id, 1), [true; 3]);
        assert_eq!(lc.storage().settled_to(), at);
        assert!(lc.pages().verify_partition(id, 1).unwrap().is_clean());
        // A duplicate build of a built partition loses.
        assert_eq!(lc.commit(build(id, 1), BuildImage::Torn(at)), None);
        assert!(lc.pages().verify_partition(id, 1).unwrap().is_clean());
    }

    #[test]
    fn availability_holds_the_asked_indexes_built_by_then() {
        let (mut lc, id) = lifecycle();
        lc.commit(build(id, 0), BuildImage::Clean(SimTime::from_secs(600)));
        lc.commit(build(id, 2), BuildImage::Clean(SimTime::from_secs(1200)));
        let avail = lc.available_at(SimTime::from_secs(900), [id]);
        let bytes = lc.catalog().spec(id).partition_bytes(0);
        assert_eq!(avail.bytes(id, 0), Some(bytes));
        assert!(
            !avail.is_built(id, 2),
            "built after the dataflow was issued"
        );
        assert_eq!(avail.len(), 1);
        assert!(lc.available_at(SimTime::from_secs(900), []).is_empty());
    }

    #[test]
    fn commits_never_bill_backwards_or_past_the_horizon() {
        let (mut lc, id) = lifecycle();
        lc.settle(SimTime::from_secs(900));
        let (landed, _) = lc
            .commit(build(id, 0), BuildImage::Clean(SimTime::from_secs(300)))
            .unwrap();
        assert_eq!(landed, SimTime::from_secs(900));
        let late = SimTime::from_secs(7200);
        lc.commit(build(id, 1), BuildImage::Clean(late));
        // The put landed at the horizon: a put settles the meter to its
        // instant, and the meter stopped there.
        assert_eq!(lc.storage().settled_to(), lc.horizon());
        assert_eq!(traced(&lc, id, 1), [true; 3]);
        lc.settle(SimTime::from_secs(60));
        assert_eq!(lc.storage().settled_to(), lc.horizon());
    }

    #[test]
    fn invalidate_leaves_no_trace_and_repeats_as_a_no_op() {
        let (mut lc, id) = lifecycle();
        lc.commit(build(id, 1), BuildImage::Torn(SimTime::from_secs(600)));
        assert!(!lc.pages().verify_partition(id, 1).unwrap().is_clean());
        assert!(lc.invalidate(id, 1));
        assert_eq!(traced(&lc, id, 1), [false; 3]);
        let billed = lc.storage().accrued_cost();
        assert!(!lc.invalidate(id, 1), "second invalidate must be a no-op");
        assert_eq!(traced(&lc, id, 1), [false; 3]);
        assert_eq!(lc.storage().accrued_cost(), billed);
        // The partition is rebuildable afterwards.
        lc.commit(build(id, 1), BuildImage::Clean(SimTime::from_secs(1200)));
        assert_eq!(traced(&lc, id, 1), [true; 3]);
    }

    #[test]
    fn invalidating_crash_debris_clears_the_image() {
        let (mut lc, id) = lifecycle();
        lc.commit(build(id, 2), BuildImage::Crashed(0.5));
        assert_eq!(traced(&lc, id, 2), [false, false, true]);
        assert!(!lc.invalidate(id, 2));
        assert_eq!(traced(&lc, id, 2), [false; 3]);
    }

    #[test]
    fn drop_index_leaves_no_trace_of_any_partition() {
        let (mut lc, id) = lifecycle();
        for part in 0..2 {
            lc.commit(build(id, part), BuildImage::Clean(SimTime::from_secs(600)));
        }
        let freed = lc.drop_index(id, SimTime::from_secs(1200));
        assert_eq!(
            freed,
            (0..2)
                .map(|p| lc.catalog().spec(id).partition_bytes(p))
                .sum()
        );
        for part in 0..3 {
            assert_eq!(traced(&lc, id, part), [false; 3]);
        }
        assert_eq!(lc.storage().settled_to(), SimTime::from_secs(1200));
        assert_eq!(lc.storage().object_count(), 0);
        assert_eq!(lc.pages().page_count(), 0);
        assert_eq!(lc.drop_index(id, SimTime::from_secs(1800)), 0);
        assert_eq!(lc.storage().settled_to(), SimTime::from_secs(1200));
    }
}
