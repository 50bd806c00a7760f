//! The cloud storage service.
//!
//! Holds the index partitions the tuner builds and meters what the
//! provider charges for them: **occupancy** (byte·quanta, priced per MB
//! per quantum). The paper computes the storage bill "by counting the
//! number of bytes transferred and charging appropriately over time".

use std::collections::BTreeMap;

use flowtune_common::{pricing, IndexId, Money, SimDuration, SimTime};

/// Key of an object in the storage service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObjectKey {
    /// One partition of an index (`index`, table-partition ordinal).
    IndexPart(IndexId, u32),
}

/// The storage service: object registry plus cost meter.
#[derive(Debug)]
pub struct StorageService {
    /// Size in bytes of every stored object.
    objects: BTreeMap<ObjectKey, u64>,
    /// Sum of `objects`' sizes, kept so `settle` reads it in O(1).
    stored: u64,
    price_per_mb_quantum: Money,
    quantum: SimDuration,
    /// Cost accrued by `settle` so far.
    accrued: Money,
    /// Time up to which occupancy has been billed.
    settled_to: SimTime,
}

impl StorageService {
    /// Create an empty storage service with the given pricing.
    pub fn new(price_per_mb_quantum: Money, quantum: SimDuration) -> Self {
        StorageService {
            objects: BTreeMap::new(),
            stored: 0,
            price_per_mb_quantum,
            quantum,
            accrued: Money::ZERO,
            settled_to: SimTime::ZERO,
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
        self.accrued += pricing::storage_cost(self.stored, span_quanta, self.price_per_mb_quantum);
        self.settled_to = now;
    }

    /// Store (or replace) an object of `bytes` bytes at time `now`.
    pub fn put(&mut self, key: ObjectKey, bytes: u64, now: SimTime) {
        self.settle(now);
        let old = self.objects.insert(key, bytes).unwrap_or(0);
        self.stored = self.stored - old + bytes;
    }

    /// Remove an object at time `now`; returns its size if it existed.
    pub fn delete(&mut self, key: &ObjectKey, now: SimTime) -> Option<u64> {
        self.settle(now);
        let bytes = self.objects.remove(key)?;
        self.stored -= bytes;
        Some(bytes)
    }

    /// True when the object exists.
    pub fn contains(&self, key: &ObjectKey) -> bool {
        self.objects.contains_key(key)
    }

    /// Total bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.stored
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

    /// Iterate over stored objects as `(key, bytes)`, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectKey, u64)> {
        self.objects.iter().map(|(k, &bytes)| (k, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn service() -> StorageService {
        StorageService::new(Money::from_dollars(1e-4), SimDuration::from_secs(60))
    }

    fn pkey(part: u32) -> ObjectKey {
        ObjectKey::IndexPart(IndexId(0), part)
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
    fn replace_updates_size() {
        let mut s = service();
        s.put(pkey(0), MB, SimTime::ZERO);
        s.put(pkey(0), 3 * MB, SimTime::ZERO);
        assert_eq!(s.stored_bytes(), 3 * MB);
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn index_part_keys_are_distinct() {
        let mut s = service();
        s.put(pkey(0), MB, SimTime::ZERO);
        s.put(ObjectKey::IndexPart(IndexId(1), 0), 2 * MB, SimTime::ZERO);
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.stored_bytes(), 3 * MB);
        assert!(s.contains(&ObjectKey::IndexPart(IndexId(1), 0)));
        assert_eq!(s.delete(&pkey(0), SimTime::ZERO), Some(MB));
        assert_eq!(s.stored_bytes(), 2 * MB);
    }
}
