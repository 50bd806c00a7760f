//! Ledger of committed index partition images.
//!
//! The execution simulator decides *that* a build finished; this store
//! records what the build left on "disk": a contiguous run of page ids,
//! how much of the run reached the store, and whether its last page
//! tore. Only the post-commit recovery scan reads an image back, and
//! its verdict is a pure function of what the fault layer did, so each
//! image is one small record rather than the pages themselves:
//!
//! * a **torn write** ([`IndexPageStore::write_partition_torn`])
//!   flushes the whole run, but its last page fails the checksum
//!   ([`PageCheck::ChecksumMismatch`]), as a partial sector write would
//!   leave it;
//! * a **crash during build**
//!   ([`IndexPageStore::write_partition_crashed`]) allocates the whole
//!   run but flushes only the prefix written before the container
//!   died, so the tail pages scan as [`PageCheck::Missing`].
//!
//! Page ids come from one monotonic counter, in the order a byte-backed
//! store would allocate them, and are never reused. A verdict therefore
//! names the same pages, and a stale page of an earlier incarnation can
//! never lie inside a new run: `PageCheck::EpochMismatch` does not arise
//! here. The byte-level checks (the page format, `checksum64`, epochs,
//! [`flowtune_storage::Page::check`]) run where the bytes are real, on
//! the B+Tree's pages. `tests/page_image_oracle.rs` replays seeded
//! write, tear, crash, rewrite, delete and scan sequences through the
//! ledger and through a byte model of `Page`-encoded images in a
//! [`flowtune_storage::MemPageStore`], and holds every verdict equal.
//!
//! Pages that reached the store are counted through `flowtune-obs` as
//! `storage.page_writes`, the count the byte-backed store would make.
//! The scan counts nothing here: the service counts the pages of each
//! verdict once, as `storage.verify_pages`, and `storage.page_reads`
//! stays the B+Tree's own page reads.

use flowtune_common::{IndexId, PageId};
use flowtune_storage::{PageCheck, PAGE_SIZE};
use std::collections::BTreeMap;

/// Cap on pages per partition image, so huge modelled partitions
/// (hundreds of MB) don't take hundreds of thousands of page ids. The
/// image is a *witness* of the partition — large partitions scale duty
/// per page, not page count.
pub const MAX_IMAGE_PAGES: usize = 64;

/// One partition image: its page run, the flushed prefix of it, and
/// whether its last page tore.
#[derive(Debug, Clone, Copy)]
struct ImageRecord {
    first: u32,
    pages: usize,
    flushed: usize,
    torn: bool,
}

impl ImageRecord {
    /// Id of page `i` of the run.
    fn page(self, i: usize) -> PageId {
        PageId(self.first.wrapping_add(i as u32))
    }
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

/// Image ledger for committed index partitions; see the module docs.
#[derive(Debug, Default)]
pub struct IndexPageStore {
    parts: BTreeMap<(IndexId, u32), ImageRecord>,
    next_page: u32,
}

impl IndexPageStore {
    /// An empty store.
    pub fn new() -> Self {
        IndexPageStore::default()
    }

    /// Number of pages a `bytes`-sized partition image occupies.
    pub fn image_pages(bytes: u64) -> usize {
        let full = bytes.div_ceil(PAGE_SIZE as u64) as usize;
        full.clamp(1, MAX_IMAGE_PAGES)
    }

    /// Persist a clean image for `(index, part)`, replacing any prior
    /// image. Returns the number of pages written.
    pub fn write_partition(&mut self, index: IndexId, part: u32, bytes: u64) -> usize {
        let n = Self::image_pages(bytes);
        self.record(index, part, n, n, false);
        n
    }

    /// Persist the image with its last page torn, modelling a partial
    /// page write surviving a crash. Returns the torn page id.
    pub fn write_partition_torn(&mut self, index: IndexId, part: u32, bytes: u64) -> PageId {
        let n = Self::image_pages(bytes);
        self.record(index, part, n, n, true).page(n - 1)
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
        let n = Self::image_pages(bytes);
        // At least one page is always missing — a crash that flushed
        // everything would just be a completed build.
        let written = ((n as f64 * fraction.clamp(0.0, 1.0)) as usize).min(n - 1);
        self.record(index, part, n, written, false);
        (written, n - written)
    }

    /// Recovery scan: read every page of the image back and report the
    /// unflushed tail as missing and a torn last page as failing its
    /// checksum. `None` when no image exists for `(index, part)`.
    pub fn verify_partition(&self, index: IndexId, part: u32) -> Option<PartitionVerdict> {
        let image = *self.parts.get(&(index, part))?;
        let missing = (image.flushed..image.pages).map(|i| (image.page(i), PageCheck::Missing));
        let torn = image
            .torn
            .then(|| (image.page(image.pages - 1), PageCheck::ChecksumMismatch));
        Some(PartitionVerdict {
            pages_scanned: image.pages as u64,
            bad_pages: missing.chain(torn).collect(),
        })
    }

    /// Drop the image for `(index, part)`. Idempotent: deleting an
    /// absent image is a no-op, which is what makes double-invalidation
    /// safe.
    pub fn delete_partition(&mut self, index: IndexId, part: u32) {
        self.parts.remove(&(index, part));
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
        self.parts.values().map(|img| img.pages).sum()
    }

    /// Replace any image of `(index, part)` with a fresh run of `pages`
    /// ids whose first `flushed` pages reach the store.
    fn record(
        &mut self,
        index: IndexId,
        part: u32,
        pages: usize,
        flushed: usize,
        torn: bool,
    ) -> ImageRecord {
        let image = ImageRecord {
            first: self.next_page,
            pages,
            flushed,
            torn,
        };
        self.next_page = self.next_page.wrapping_add(pages as u32);
        self.parts.insert((index, part), image);
        flowtune_obs::count("storage.page_writes", flushed as u64);
        image
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
    fn rewrites_and_deletes_free_their_pages() {
        let mut store = IndexPageStore::new();
        let n = store.write_partition(IndexId(7), 0, 40 * MB);
        let (written, missing) = store.write_partition_crashed(IndexId(7), 1, 40 * MB, 0.5);
        assert_eq!(store.page_count(), n + written + missing);
        // Rewriting partition 0 frees its first image; deleting
        // partition 1 frees the crash debris.
        store.write_partition(IndexId(7), 0, 40 * MB);
        store.delete_partition(IndexId(7), 1);
        assert_eq!(store.page_count(), n);
        // Freed ids are never handed out again: the next run starts
        // after all three runs above.
        let victim = store.write_partition_torn(IndexId(7), 2, 0);
        assert_eq!(victim, PageId::from_index(3 * n));
    }

    #[test]
    fn image_pages_scale_and_clamp() {
        assert_eq!(IndexPageStore::image_pages(0), 1);
        assert_eq!(IndexPageStore::image_pages(1), 1);
        assert_eq!(IndexPageStore::image_pages(PAGE_SIZE as u64 + 1), 2);
        assert_eq!(IndexPageStore::image_pages(u64::MAX), MAX_IMAGE_PAGES);
    }
}
