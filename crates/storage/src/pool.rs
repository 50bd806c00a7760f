//! Deterministic LRU buffer pool over a [`PageStore`].
//!
//! The pool is write-through: every [`BufferPool::write`] encodes the
//! page, persists it to the backing store, and caches the *decoded*
//! page; reads serve from the cache when possible and fall back to a
//! store read (decode + checksum verification) on a miss. Checksums
//! are therefore verified exactly once per store read — a hit is a
//! cheap clone of an already-verified frame, which is what keeps
//! indexed range scans ahead of raw column scans. Eviction is driven
//! by the byte-accounted [`LruCache`] with one frame per page, so
//! hit/miss/eviction order depends only on the access sequence —
//! never on hash iteration order or wall-clock time.
//!
//! Verification ([`BufferPool::check`]) deliberately bypasses the
//! cache: a recovery scan must judge what the *persistent* store
//! holds, because a crash loses buffered memory while leaving torn
//! bytes behind. A page that verifies clean is (re)cached so the
//! probes that follow a successful scan hit warm frames.
//!
//! All pool traffic is counted through `flowtune-obs` from this single
//! site (`storage.pool_hits` / `storage.pool_misses` /
//! `storage.pool_evictions` / `storage.page_reads` /
//! `storage.page_writes`), which is what lets the gain model consume
//! *measured* build/probe I/O instead of asserted constants.

use crate::cache::LruCache;
use crate::page::{Page, PageCheck, PageStore, PAGE_SIZE};
use flowtune_common::{FlowtuneError, PageId, Result};
use std::collections::BTreeMap;

/// Pool traffic counters (also mirrored into `flowtune-obs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Reads served from a cached frame.
    pub hits: u64,
    /// Reads that had to go to the backing store.
    pub misses: u64,
    /// Frames dropped by LRU capacity pressure.
    pub evictions: u64,
    /// Raw page reads issued to the backing store.
    pub page_reads: u64,
    /// Raw page writes issued to the backing store.
    pub page_writes: u64,
}

/// Write-through LRU buffer pool; see the module docs.
#[derive(Debug, Clone)]
pub struct BufferPool<S> {
    store: S,
    cache: LruCache<PageId>,
    frames: BTreeMap<PageId, Page>,
    stats: PoolStats,
}

impl<S: PageStore> BufferPool<S> {
    /// Create a pool holding at most `capacity_pages` cached frames.
    pub fn new(store: S, capacity_pages: usize) -> Self {
        BufferPool {
            store,
            cache: LruCache::new(capacity_pages as u64 * PAGE_SIZE as u64),
            frames: BTreeMap::new(),
            stats: PoolStats::default(),
        }
    }

    /// Allocate a fresh page id from the backing store.
    pub fn allocate(&mut self) -> PageId {
        self.store.allocate()
    }

    /// Encode `page`, persist it, and cache the decoded page.
    pub fn write(&mut self, id: PageId, page: &Page) {
        self.store.write(id, page.encode());
        self.stats.page_writes += 1;
        flowtune_obs::count("storage.page_writes", 1);
        self.cache_frame(id, page.clone());
    }

    /// Read and decode a page, serving from the cache when possible.
    /// A store read verifies the checksum; corrupt or missing pages
    /// yield [`FlowtuneError::Corrupt`] / [`FlowtuneError::NotFound`].
    pub fn read(&mut self, id: PageId) -> Result<Page> {
        if self.cache.get(&id) {
            self.stats.hits += 1;
            // flowtune-allow(obs-discipline): fires on the B+Tree probe path (flowtune-query measurements, --calibrate-io); the smoke service run only writes/verifies images and never probes through the pool
            flowtune_obs::count("storage.pool_hits", 1);
            let frame = self.frames.get(&id).ok_or_else(|| {
                FlowtuneError::storage(format!("cached page {id} lost its frame"))
            })?;
            return Ok(frame.clone());
        }
        self.stats.misses += 1;
        // flowtune-allow(obs-discipline): fires on the B+Tree probe path (flowtune-query measurements, --calibrate-io); the smoke service run only writes/verifies images and never probes through the pool
        flowtune_obs::count("storage.pool_misses", 1);
        self.stats.page_reads += 1;
        flowtune_obs::count("storage.page_reads", 1);
        let bytes = self
            .store
            .read(id)
            .ok_or_else(|| FlowtuneError::not_found(format!("page {id} is not in the store")))?;
        let page = Page::decode(bytes)?;
        self.cache_frame(id, page.clone());
        Ok(page)
    }

    /// Verify one page against `expected_epoch`, reading the backing
    /// store directly (never trusting buffered frames — see module
    /// docs). A clean page refreshes the cache from the bytes just
    /// verified, so each page is hashed once.
    pub fn check(&mut self, id: PageId, expected_epoch: u32) -> PageCheck {
        self.stats.page_reads += 1;
        flowtune_obs::count("storage.page_reads", 1);
        let bytes = self.store.read(id);
        let verdict = Page::check(bytes, expected_epoch);
        match bytes {
            Some(bytes) if verdict.is_clean() => {
                let page = Page::parse(bytes);
                self.cache_frame(id, page);
            }
            _ => self.evict(id),
        }
        verdict
    }

    /// Drop the cached frame for `id` without touching the store —
    /// the crash model: buffered memory is lost, persistent bytes
    /// (torn or not) survive.
    pub fn evict(&mut self, id: PageId) {
        self.cache.remove(&id);
        self.frames.remove(&id);
    }

    /// Drop the page from cache *and* backing store.
    pub fn free(&mut self, id: PageId) {
        self.evict(id);
        self.store.free(id);
    }

    /// Drop every cached frame (cold-cache measurement hook). The
    /// backing store and traffic counters are untouched; drops are
    /// not counted as evictions because no capacity pressure caused
    /// them.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.frames.clear();
    }

    /// Cached-frame insert, folding LRU pressure into eviction stats.
    /// Frames are accounted at [`PAGE_SIZE`] regardless of payload
    /// length — capacity is in pages, matching the backing store.
    fn cache_frame(&mut self, id: PageId, page: Page) {
        let evicted = self.cache.insert(id, PAGE_SIZE as u64);
        for victim in evicted {
            self.frames.remove(&victim);
            self.stats.evictions += 1;
            // flowtune-allow(obs-discipline): fires on the B+Tree probe path (flowtune-query measurements, --calibrate-io); the smoke service run writes/verifies page images without a pool
            flowtune_obs::count("storage.pool_evictions", 1);
        }
        if self.cache.contains(&id) {
            self.frames.insert(id, page);
        }
    }

    /// The backing store (read-only).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The backing store (mutable — fault-injection hooks live here).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Traffic counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::MemPageStore;

    fn page(epoch: u32, fill: u8) -> Page {
        Page::new(1, epoch, vec![fill; 32]).unwrap()
    }

    #[test]
    fn write_then_read_hits_the_cache() {
        let mut pool = BufferPool::new(MemPageStore::new(), 8);
        let id = pool.allocate();
        pool.write(id, &page(1, 0xAA));
        assert_eq!(pool.read(id).unwrap(), page(1, 0xAA));
        let s = pool.stats();
        assert_eq!(
            (s.hits, s.misses, s.page_writes, s.page_reads),
            (1, 0, 1, 0)
        );
    }

    #[test]
    fn capacity_pressure_evicts_and_rereads_from_store() {
        let mut pool = BufferPool::new(MemPageStore::new(), 2);
        let ids: Vec<_> = (0..3)
            .map(|i| {
                let id = pool.allocate();
                pool.write(id, &page(1, i));
                id
            })
            .collect();
        // Pool holds 2 frames; writing the third evicted the first.
        assert_eq!(pool.stats().evictions, 1);
        let got = pool.read(ids[0]).unwrap();
        assert_eq!(got, page(1, 0));
        let s = pool.stats();
        assert_eq!((s.misses, s.page_reads), (1, 1));
        // Re-reading id0 evicted the then-LRU frame (id1).
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn check_bypasses_cached_frames() {
        let mut pool = BufferPool::new(MemPageStore::new(), 8);
        let id = pool.allocate();
        pool.write(id, &page(7, 0x01));
        // Corrupt the persistent bytes while the cached frame stays
        // clean: verification must see the store, not the cache.
        pool.store_mut().corrupt(id, 100);
        assert_eq!(pool.check(id, 7), PageCheck::ChecksumMismatch);
        // The corrupt page was evicted from the cache, so a normal
        // read now surfaces the corruption too.
        assert!(matches!(pool.read(id), Err(FlowtuneError::Corrupt(_))));
    }

    #[test]
    fn clean_check_warms_the_cache() {
        let mut pool = BufferPool::new(MemPageStore::new(), 8);
        let id = pool.allocate();
        pool.write(id, &page(3, 0x02));
        pool.evict(id);
        assert_eq!(pool.check(id, 3), PageCheck::Clean);
        let before = pool.stats();
        assert_eq!(pool.read(id).unwrap(), page(3, 0x02));
        let after = pool.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.page_reads, before.page_reads);
    }

    #[test]
    fn epoch_mismatch_is_detected() {
        let mut pool = BufferPool::new(MemPageStore::new(), 8);
        let id = pool.allocate();
        pool.write(id, &page(4, 0x03));
        assert_eq!(pool.check(id, 5), PageCheck::EpochMismatch);
        assert_eq!(pool.check(PageId(999), 5), PageCheck::Missing);
    }

    #[test]
    fn free_removes_from_store_and_cache() {
        let mut pool = BufferPool::new(MemPageStore::new(), 8);
        let id = pool.allocate();
        pool.write(id, &page(1, 0x04));
        pool.free(id);
        assert!(pool.read(id).is_err());
        assert_eq!(pool.store().page_count(), 0);
    }
}
