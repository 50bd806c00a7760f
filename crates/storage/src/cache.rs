//! Container local-disk cache.
//!
//! Each container caches partitions and index partitions read from the
//! storage service on its local disk (100 GB by default); when the cache
//! fills, the least-recently-used object is evicted (§6.1). A hit means
//! the operator's input transfer time is zero. The simulator keeps one
//! cache per container and counts its own hits.
//!
//! Every lookup and insert takes a fresh tick, and an entry remembers
//! the tick of its last use, so a hit is one hash lookup that rewrites
//! the tick in place. Eviction scans the entries for the minimum tick.
//! Ticks never collide, so that minimum is the unique LRU victim, and
//! the hash map's iteration order cannot change which entry goes. The
//! scan is `O(n)`, but the simulator evicts only when one container
//! reads more than its disk holds within one dataflow, which is rare;
//! hits are on every operator's path.

/// Byte-sized LRU cache keyed by `K`.
#[derive(Debug, Clone)]
pub struct LruCache<K> {
    capacity: u64,
    used: u64,
    /// key -> (bytes, last-use tick); ticks are unique.
    #[expect(
        clippy::disallowed_types,
        reason = "probed by key only; eviction takes the unique minimum tick, so hash order never picks a victim"
    )]
    entries: std::collections::HashMap<K, (u64, u64)>,
    tick: u64,
}

impl<K: std::hash::Hash + Eq + Clone> LruCache<K> {
    /// Create a cache with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            entries: Default::default(),
            tick: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> bool {
        self.tick += 1;
        let Some(entry) = self.entries.get_mut(key) else {
            return false;
        };
        entry.1 = self.tick;
        true
    }

    /// Check presence without touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Remove `key`, releasing its bytes.
    fn take(&mut self, key: &K) {
        if let Some((bytes, _)) = self.entries.remove(key) {
            self.used -= bytes;
        }
    }

    /// Insert an object, evicting least-recently-used entries until it
    /// fits. Objects larger than the whole cache are not cached at all,
    /// and a stale entry they displace leaves the cache.
    pub fn insert(&mut self, key: K, bytes: u64) {
        self.tick += 1;
        self.take(&key);
        if bytes > self.capacity {
            // Can't fit even in an empty cache; treat as uncacheable.
            return;
        }
        while self.used + bytes > self.capacity {
            // Over budget with the new object not yet inserted: at
            // least one entry exists, and the one with the minimum
            // tick is the unique LRU victim.
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.take(&victim);
        }
        self.entries.insert(key, (bytes, self.tick));
        self.used += bytes;
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = LruCache::new(100);
        assert!(!c.get(&"a"));
        c.insert("a", 10);
        assert!(c.get(&"a"));
        assert!(!c.get(&"b"));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(30);
        c.insert("a", 10);
        c.insert("b", 10);
        c.insert("c", 10);
        assert!(c.get(&"a")); // a is now most recent
        c.insert("d", 10);
        assert!(!c.contains(&"b"));
        assert!(c.contains(&"a"));
        assert!(c.contains(&"c"));
        assert!(c.contains(&"d"));
        assert_eq!(c.used_bytes(), 30);
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c = LruCache::new(30);
        c.insert("a", 10);
        c.insert("b", 10);
        c.insert("a", 20);
        // Growing a key in place fits without evicting its neighbour.
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn oversized_objects_are_not_cached() {
        let mut c = LruCache::new(10);
        c.insert("big", 100);
        assert!(!c.contains(&"big"));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn oversized_reinsert_drops_the_old_entry() {
        // Growing a cached object past the whole-cache capacity removes
        // the old entry rather than leaving a stale size behind.
        let mut c = LruCache::new(10);
        c.insert("a", 5);
        c.insert("a", 100);
        assert!(!c.contains(&"a"));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn used_bytes_never_exceeds_capacity() {
        let mut rng = SimRng::seed_from_u64(0x1CACE);
        for _ in 0..150 {
            let n_ops = rng.uniform_u64(1, 200) as usize;
            let mut c = LruCache::new(64);
            for _ in 0..n_ops {
                let k = rng.uniform_u64(0, 20) as u32;
                let sz = rng.uniform_u64(1, 40);
                c.insert(k, sz);
                assert!(c.used_bytes() <= c.capacity);
            }
            // Internal bookkeeping consistent: re-deriving used from entries.
            let derived: u64 = (0u32..20).filter(|k| c.contains(k)).count() as u64;
            assert!(derived as usize == c.len());
        }
    }

    /// Straight-line reference model: a recency-ordered `Vec` of
    /// `(key, bytes)` with front = least recently used.
    struct RefModel {
        capacity: u64,
        order: Vec<(u32, u64)>,
    }

    impl RefModel {
        fn used(&self) -> u64 {
            self.order.iter().map(|&(_, b)| b).sum()
        }

        fn get(&mut self, key: u32) -> bool {
            if let Some(at) = self.order.iter().position(|&(k, _)| k == key) {
                let e = self.order.remove(at);
                self.order.push(e);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, key: u32, bytes: u64) {
            self.order.retain(|&(k, _)| k != key);
            if bytes > self.capacity {
                return;
            }
            while self.used() + bytes > self.capacity {
                self.order.remove(0);
            }
            self.order.push((key, bytes));
        }
    }

    #[test]
    fn matches_reference_model_under_seeded_workload() {
        // Seeded op soup over a small key universe, cross-checked
        // against the straight-line model after every operation:
        // identical membership (so identical eviction order), hit/miss
        // answers and byte accounting — oversized inserts included.
        let mut rng = SimRng::seed_from_u64(0xE71C7);
        for round in 0..60 {
            let capacity = rng.uniform_u64(8, 96);
            let mut c: LruCache<u32> = LruCache::new(capacity);
            let mut m = RefModel {
                capacity,
                order: Vec::new(),
            };
            let n_ops = rng.uniform_u64(50, 400);
            for op in 0..n_ops {
                let key = rng.uniform_u64(0, 12) as u32;
                if rng.uniform_u64(0, 10) <= 5 {
                    // Sizes up to 1.5x capacity exercise the oversized
                    // path too.
                    let sz = rng.uniform_u64(1, capacity + capacity / 2);
                    c.insert(key, sz);
                    m.insert(key, sz);
                } else {
                    assert_eq!(c.get(&key), m.get(key), "round {round} op {op}: get {key}");
                }
                assert_eq!(c.used_bytes(), m.used(), "round {round} op {op}");
                assert_eq!(c.len(), m.order.len(), "round {round} op {op}");
                assert!(c.used_bytes() <= c.capacity);
                for &(k, _) in &m.order {
                    assert!(c.contains(&k), "round {round} op {op}: missing {k}");
                }
            }
        }
    }
}
