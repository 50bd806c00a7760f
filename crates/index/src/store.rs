//! Paged on-"disk" images of committed index partitions.
//!
//! The execution simulator decides *that* a build finished; this store
//! is where the finished partition materially lands: a run of
//! checksummed, epoch-stamped pages written straight to a
//! [`MemPageStore`]. Because the pages physically exist, the failure
//! modes the fault layer injects become physically detectable instead
//! of being bookkeeping flags:
//!
//! * a **torn write** ([`IndexPageStore::write_partition_torn`])
//!   persists the full image and then flips a byte mid-way through the
//!   last page — exactly what a partial sector write leaves behind;
//! * a **crash during build**
//!   ([`IndexPageStore::write_partition_crashed`]) allocates the whole
//!   page run but persists only the prefix that had been flushed when
//!   the container died, so the tail pages are simply missing.
//!
//! Recovery ([`IndexPageStore::verify_partition`]) re-reads every page
//! of the image from the store and checks it in one pass: one checksum
//! per page plus the epoch comparison. Images are written once and read
//! back only by that scan, so no buffer pool sits in front of the
//! store: a cached frame would never be hit, and the scan has to judge
//! the persistent bytes anyway. The epoch stamp is bumped on every
//! (re)write of a partition, so a stale page from a previous
//! incarnation spliced into a new image is caught even when its
//! checksum is internally consistent.
//!
//! Raw store traffic is counted through `flowtune-obs` as
//! `storage.page_writes` (pages persisted) and `storage.page_reads`
//! (pages the scan read back, missing ones included).

use flowtune_common::{IndexId, PageId};
use flowtune_storage::{MemPageStore, Page, PageCheck, PAGE_PAYLOAD, PAGE_SIZE};
use std::collections::BTreeMap;

/// Page-kind tag for index partition image pages.
pub const IMAGE_KIND: u8 = 3;

/// Cap on pages per partition image, so huge modelled partitions
/// (hundreds of MB) don't materialise hundreds of thousands of
/// simulator pages. The image is a *witness* of the partition — large
/// partitions scale duty per page, not page count.
pub const MAX_IMAGE_PAGES: usize = 64;

/// One committed partition image: its page run and the epoch all pages
/// must carry.
#[derive(Debug, Clone)]
struct PartitionImage {
    pages: Vec<PageId>,
    epoch: u32,
}

/// Outcome of a recovery scan over one partition image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionVerdict {
    /// Pages the scan read back from the persistent store.
    pub pages_scanned: u64,
    /// Pages that failed verification, with the defect found.
    pub bad_pages: Vec<(PageId, PageCheck)>,
}

impl PartitionVerdict {
    /// True when every page of the image verified clean.
    pub fn is_clean(&self) -> bool {
        self.bad_pages.is_empty()
    }
}

/// Paged backing store for committed index partitions; see the module
/// docs.
#[derive(Debug)]
pub struct IndexPageStore {
    pages: MemPageStore,
    parts: BTreeMap<(IndexId, u32), PartitionImage>,
    next_epoch: u32,
}

impl Default for IndexPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexPageStore {
    /// An empty store.
    pub fn new() -> Self {
        IndexPageStore {
            pages: MemPageStore::new(),
            parts: BTreeMap::new(),
            next_epoch: 0,
        }
    }

    /// Number of pages a `bytes`-sized partition image occupies.
    pub fn image_pages(bytes: u64) -> usize {
        let full = bytes.div_ceil(PAGE_SIZE as u64) as usize;
        full.clamp(1, MAX_IMAGE_PAGES)
    }

    /// Persist a clean image for `(index, part)`, replacing any prior
    /// image (and retiring its epoch). Returns the number of pages
    /// written.
    pub fn write_partition(&mut self, index: IndexId, part: u32, bytes: u64) -> usize {
        let (ids, _) = self.write_image(index, part, bytes);
        ids
    }

    /// Persist the image, then tear its last page: one payload byte is
    /// flipped *behind the checksum*, modelling a partial page write
    /// surviving a crash. Returns the torn page id.
    pub fn write_partition_torn(&mut self, index: IndexId, part: u32, bytes: u64) -> PageId {
        let (_, pages) = self.write_image(index, part, bytes);
        #[allow(clippy::expect_used)]
        // flowtune-allow(panic-hygiene): write_image always lays down at least one page
        let victim = *pages.last().expect("image has at least one page");
        self.pages.corrupt(victim, PAGE_SIZE / 2);
        victim
    }

    /// Persist only the prefix of the image that had been flushed when
    /// the build crashed `fraction` of the way through: the page run is
    /// allocated in full, but the tail pages never reach the store and
    /// will scan as [`PageCheck::Missing`]. Returns
    /// `(pages_written, pages_missing)`.
    pub fn write_partition_crashed(
        &mut self,
        index: IndexId,
        part: u32,
        bytes: u64,
        fraction: f64,
    ) -> (usize, usize) {
        self.delete_partition(index, part);
        let epoch = self.bump_epoch();
        let n = Self::image_pages(bytes);
        // At least one page is always missing — a crash that flushed
        // everything would just be a completed build.
        let written = ((n as f64 * fraction.clamp(0.0, 1.0)) as usize).min(n - 1);
        let ids: Vec<PageId> = (0..n).map(|_| self.pages.allocate()).collect();
        self.persist(index, part, epoch, &ids[..written]);
        self.parts
            .insert((index, part), PartitionImage { pages: ids, epoch });
        (written, n - written)
    }

    /// Recovery scan: re-read every page of the image from the
    /// persistent store and verify checksum + epoch, one pass per page.
    /// `None` when no image exists for `(index, part)`.
    pub fn verify_partition(&self, index: IndexId, part: u32) -> Option<PartitionVerdict> {
        let image = self.parts.get(&(index, part))?;
        flowtune_obs::count("storage.page_reads", image.pages.len() as u64);
        let bad_pages = image
            .pages
            .iter()
            .map(|&id| (id, Page::check(self.pages.read(id), image.epoch)))
            .filter(|(_, verdict)| !verdict.is_clean())
            .collect();
        Some(PartitionVerdict {
            pages_scanned: image.pages.len() as u64,
            bad_pages,
        })
    }

    /// Drop the image for `(index, part)` and free its pages.
    /// Idempotent: deleting an absent image is a no-op, which is what
    /// makes double-invalidation safe.
    pub fn delete_partition(&mut self, index: IndexId, part: u32) {
        if let Some(image) = self.parts.remove(&(index, part)) {
            for id in image.pages {
                self.pages.free(id);
            }
        }
    }

    /// Whether an image (clean or not) exists for `(index, part)`.
    pub fn has_partition(&self, index: IndexId, part: u32) -> bool {
        self.parts.contains_key(&(index, part))
    }

    /// Every `(index, part)` with an image, in order.
    pub fn partitions(&self) -> impl Iterator<Item = (IndexId, u32)> + '_ {
        self.parts.keys().copied()
    }

    /// Total pages across all live images.
    pub fn page_count(&self) -> usize {
        self.parts.values().map(|img| img.pages.len()).sum()
    }

    fn bump_epoch(&mut self) -> u32 {
        self.next_epoch += 1;
        self.next_epoch
    }

    /// Lay down a full clean image; returns `(page_count, page_ids)`.
    fn write_image(&mut self, index: IndexId, part: u32, bytes: u64) -> (usize, Vec<PageId>) {
        self.delete_partition(index, part);
        let epoch = self.bump_epoch();
        let n = Self::image_pages(bytes);
        let ids: Vec<PageId> = (0..n).map(|_| self.pages.allocate()).collect();
        self.persist(index, part, epoch, &ids);
        self.parts.insert(
            (index, part),
            PartitionImage {
                pages: ids.clone(),
                epoch,
            },
        );
        (n, ids)
    }

    /// Encode and store image pages `0..ids.len()` under `ids`.
    fn persist(&mut self, index: IndexId, part: u32, epoch: u32, ids: &[PageId]) {
        for (i, &id) in ids.iter().enumerate() {
            let page = Self::image_page(index, part, epoch, i);
            self.pages.write(id, page.encode());
        }
        flowtune_obs::count("storage.page_writes", ids.len() as u64);
    }

    /// Deterministic page payload derived from the image coordinates —
    /// distinct per (index, part, epoch, page), so splicing any other
    /// page into the image cannot masquerade as this one.
    fn image_page(index: IndexId, part: u32, epoch: u32, page_idx: usize) -> Page {
        let mut payload = Vec::with_capacity(512);
        let mut x = (u64::from(index.0) << 40)
            ^ (u64::from(part) << 24)
            ^ (u64::from(epoch) << 8)
            ^ page_idx as u64;
        while payload.len() < 512 {
            // SplitMix64 finalizer: cheap, deterministic byte soup.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            payload.extend_from_slice(&z.to_le_bytes());
        }
        debug_assert!(payload.len() <= PAGE_PAYLOAD);
        #[allow(clippy::expect_used)]
        // flowtune-allow(panic-hygiene): 512-byte payload is far below PAGE_PAYLOAD
        Page::new(IMAGE_KIND, epoch, payload).expect("image payload fits a page")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn clean_write_verifies_clean() {
        let mut store = IndexPageStore::new();
        let n = store.write_partition(IndexId(1), 3, 10 * MB);
        assert!(n >= 1);
        let verdict = store.verify_partition(IndexId(1), 3).unwrap();
        assert!(verdict.is_clean());
        assert_eq!(verdict.pages_scanned, n as u64);
    }

    #[test]
    fn torn_write_is_detected() {
        let mut store = IndexPageStore::new();
        let victim = store.write_partition_torn(IndexId(2), 0, 5 * MB);
        let verdict = store.verify_partition(IndexId(2), 0).unwrap();
        assert_eq!(
            verdict.bad_pages,
            vec![(victim, PageCheck::ChecksumMismatch)]
        );
    }

    #[test]
    fn crashed_write_leaves_missing_tail_pages() {
        let mut store = IndexPageStore::new();
        let (written, missing) = store.write_partition_crashed(IndexId(3), 1, 20 * MB, 0.5);
        assert!(missing >= 1);
        let verdict = store.verify_partition(IndexId(3), 1).unwrap();
        assert_eq!(verdict.bad_pages.len(), missing);
        assert!(verdict
            .bad_pages
            .iter()
            .all(|(_, check)| *check == PageCheck::Missing));
        assert_eq!(verdict.pages_scanned as usize, written + missing);
    }

    #[test]
    fn crash_at_zero_fraction_writes_nothing() {
        let mut store = IndexPageStore::new();
        let (written, missing) = store.write_partition_crashed(IndexId(4), 0, MB, 0.0);
        assert_eq!(written, 0);
        assert!(missing >= 1);
    }

    #[test]
    fn rebuild_after_delete_verifies_clean_again() {
        let mut store = IndexPageStore::new();
        store.write_partition_torn(IndexId(5), 2, 3 * MB);
        store.delete_partition(IndexId(5), 2);
        assert!(!store.has_partition(IndexId(5), 2));
        // Idempotent: a second delete of the same partition is a no-op.
        store.delete_partition(IndexId(5), 2);
        store.write_partition(IndexId(5), 2, 3 * MB);
        assert!(store.verify_partition(IndexId(5), 2).unwrap().is_clean());
    }

    #[test]
    fn stale_epoch_page_cannot_masquerade_as_the_new_image() {
        let mut store = IndexPageStore::new();
        store.write_partition(IndexId(6), 0, MB);
        let old_epoch = store.parts[&(IndexId(6), 0)].epoch;
        store.write_partition(IndexId(6), 0, MB);
        let image = store.parts.get(&(IndexId(6), 0)).unwrap().clone();
        assert_ne!(image.epoch, old_epoch);
        // Splice an internally-consistent page from the *old* epoch
        // into the new image: checksum passes, epoch must not.
        let spliced = IndexPageStore::image_page(IndexId(6), 0, old_epoch, 0);
        store.pages.write(image.pages[0], spliced.encode());
        let verdict = store.verify_partition(IndexId(6), 0).unwrap();
        assert_eq!(
            verdict.bad_pages,
            vec![(image.pages[0], PageCheck::EpochMismatch)]
        );
    }

    #[test]
    fn rewrites_and_deletes_free_their_pages() {
        let mut store = IndexPageStore::new();
        let n = store.write_partition(IndexId(7), 0, 40 * MB);
        let (written, _) = store.write_partition_crashed(IndexId(7), 1, 40 * MB, 0.5);
        assert_eq!(store.pages.page_count(), n + written);
        // Rewriting partition 0 frees its first image; deleting
        // partition 1 frees the crash debris.
        store.write_partition(IndexId(7), 0, 40 * MB);
        store.delete_partition(IndexId(7), 1);
        assert_eq!(store.page_count(), n);
        assert_eq!(store.pages.page_count(), n);
    }

    #[test]
    fn image_pages_scale_and_clamp() {
        assert_eq!(IndexPageStore::image_pages(0), 1);
        assert_eq!(IndexPageStore::image_pages(1), 1);
        assert_eq!(IndexPageStore::image_pages(PAGE_SIZE as u64 + 1), 2);
        assert_eq!(IndexPageStore::image_pages(u64::MAX), MAX_IMAGE_PAGES);
    }
}
