//! The cloud storage service.
//!
//! Holds persistent objects (table/file partitions and index partitions)
//! and meters the two quantities the provider charges for: **occupancy**
//! (byte·quanta, priced per MB per quantum) and **transfer volume**. The
//! paper computes the storage bill "by counting the number of bytes
//! transferred and charging appropriately over time".

use flowtune_common::{pricing, IndexId, Money, PartitionId, SimDuration, SimTime};

/// Key of an object in the storage service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectKey {
    /// A table/file partition.
    Partition(PartitionId),
    /// One partition of an index (`index`, table-partition ordinal).
    IndexPart(IndexId, u32),
}

#[derive(Debug, Clone)]
struct StoredObject {
    bytes: u64,
    created: SimTime,
}

/// The storage service: object registry plus cost meter.
#[derive(Debug)]
pub struct StorageService {
    #[expect(
        clippy::disallowed_types,
        reason = "probed by key and folded by integer sums; only `iter` exposes hash order, and its doc says so"
    )]
    objects: std::collections::HashMap<ObjectKey, StoredObject>,
    price_per_mb_quantum: Money,
    quantum: SimDuration,
    /// Cost accrued by `settle` so far.
    accrued: Money,
    /// Time up to which occupancy has been billed.
    settled_to: SimTime,
    bytes_uploaded: u64,
    bytes_downloaded: u64,
}

impl StorageService {
    /// Create an empty storage service with the given pricing.
    pub fn new(price_per_mb_quantum: Money, quantum: SimDuration) -> Self {
        StorageService {
            objects: Default::default(),
            price_per_mb_quantum,
            quantum,
            accrued: Money::ZERO,
            settled_to: SimTime::ZERO,
            bytes_uploaded: 0,
            bytes_downloaded: 0,
        }
    }

    /// Bill occupancy from the last settlement point up to `now`. Must be
    /// called (directly or via put/delete) with non-decreasing times.
    pub fn settle(&mut self, now: SimTime) {
        debug_assert!(now >= self.settled_to, "settle must move forward");
        if now <= self.settled_to {
            return;
        }
        let span_quanta = (now - self.settled_to).as_quanta(self.quantum);
        let bytes = self.stored_bytes();
        self.accrued += pricing::storage_cost(bytes, span_quanta, self.price_per_mb_quantum);
        self.settled_to = now;
    }

    /// Store (or replace) an object of `bytes` bytes at time `now`.
    pub fn put(&mut self, key: ObjectKey, bytes: u64, now: SimTime) {
        self.settle(now);
        self.bytes_uploaded += bytes;
        self.objects.insert(
            key,
            StoredObject {
                bytes,
                created: now,
            },
        );
    }

    /// Record a download of an object (for transfer accounting); returns
    /// its size, or `None` when the object does not exist.
    pub fn get(&mut self, key: &ObjectKey) -> Option<u64> {
        let bytes = self.objects.get(key)?.bytes;
        self.bytes_downloaded += bytes;
        Some(bytes)
    }

    /// Remove an object at time `now`; returns its size if it existed.
    pub fn delete(&mut self, key: &ObjectKey, now: SimTime) -> Option<u64> {
        self.settle(now);
        self.objects.remove(key).map(|o| o.bytes)
    }

    /// True when the object exists.
    pub fn contains(&self, key: &ObjectKey) -> bool {
        self.objects.contains_key(key)
    }

    /// Creation time of an object, if present.
    pub fn object_created(&self, key: &ObjectKey) -> Option<SimTime> {
        self.objects.get(key).map(|o| o.created)
    }

    /// Total bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.bytes).sum()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Time up to which occupancy has been billed.
    pub fn settled_to(&self) -> SimTime {
        self.settled_to
    }

    /// Occupancy cost accrued up to the last settlement.
    pub fn accrued_cost(&self) -> Money {
        self.accrued
    }

    /// Total bytes uploaded since creation.
    pub fn bytes_uploaded(&self) -> u64 {
        self.bytes_uploaded
    }

    /// Total bytes downloaded since creation.
    pub fn bytes_downloaded(&self) -> u64 {
        self.bytes_downloaded
    }

    /// Iterate over stored objects as `(key, bytes)`, in hash order:
    /// the order is unspecified and can differ between runs, so a caller
    /// must collect into an ordered collection (or fold order-free)
    /// before the result reaches any output.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectKey, u64)> {
        self.objects.iter().map(|(k, o)| (k, o.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::FileId;

    const MB: u64 = 1024 * 1024;

    fn service() -> StorageService {
        StorageService::new(Money::from_dollars(1e-4), SimDuration::from_secs(60))
    }

    fn pkey(part: u32) -> ObjectKey {
        ObjectKey::Partition(PartitionId::new(FileId(0), part))
    }

    #[test]
    fn occupancy_is_billed_per_byte_quantum() {
        let mut s = service();
        s.put(pkey(0), 10 * MB, SimTime::ZERO);
        // 10 MB for 2 quanta at $1e-4/MB/quantum = $2e-3.
        s.settle(SimTime::from_secs(120));
        assert_eq!(s.accrued_cost(), Money::from_dollars(2e-3));
    }

    #[test]
    fn deletion_stops_billing() {
        let mut s = service();
        s.put(pkey(0), 10 * MB, SimTime::ZERO);
        assert_eq!(s.delete(&pkey(0), SimTime::from_secs(60)), Some(10 * MB));
        s.settle(SimTime::from_secs(600));
        // Only the first quantum was occupied.
        assert_eq!(s.accrued_cost(), Money::from_dollars(1e-3));
        assert!(!s.contains(&pkey(0)));
    }

    #[test]
    fn partial_quanta_are_prorated() {
        let mut s = service();
        s.put(pkey(0), MB, SimTime::ZERO);
        s.settle(SimTime::from_secs(30));
        assert_eq!(s.accrued_cost(), Money::from_dollars(0.5e-4));
    }

    #[test]
    fn transfer_accounting() {
        let mut s = service();
        s.put(pkey(0), 5 * MB, SimTime::ZERO);
        assert_eq!(s.get(&pkey(0)), Some(5 * MB));
        assert_eq!(s.get(&pkey(0)), Some(5 * MB));
        assert_eq!(s.get(&pkey(9)), None);
        assert_eq!(s.bytes_uploaded(), 5 * MB);
        assert_eq!(s.bytes_downloaded(), 10 * MB);
    }

    #[test]
    fn replace_updates_size() {
        let mut s = service();
        s.put(pkey(0), MB, SimTime::ZERO);
        s.put(pkey(0), 3 * MB, SimTime::ZERO);
        assert_eq!(s.stored_bytes(), 3 * MB);
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn index_and_partition_keys_are_distinct() {
        let mut s = service();
        s.put(pkey(0), MB, SimTime::ZERO);
        s.put(ObjectKey::IndexPart(IndexId(0), 0), 2 * MB, SimTime::ZERO);
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.stored_bytes(), 3 * MB);
        assert!(s.contains(&ObjectKey::IndexPart(IndexId(0), 0)));
        assert_eq!(s.object_created(&pkey(0)), Some(SimTime::ZERO));
    }
}
