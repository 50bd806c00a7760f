//! Differential oracle for the partition-image ledger.
//!
//! `IndexPageStore` keeps one record per image instead of its pages.
//! This suite holds it to a byte model of the same store: every image
//! is a run of `Page`-encoded pages stamped with the epoch of its
//! (re)write and stored in a `MemPageStore`; a torn write flips a byte
//! of the last page behind its checksum (`MemPageStore::corrupt`); a
//! crash persists only the flushed prefix of the run; and the recovery
//! scan runs `Page::check` on every page of the run. Seeded random
//! sequences of writes, torn writes, crashes, rewrites, deletes and
//! scans go through both stores, and every verdict (page ids included)
//! and every page count must agree.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns fail fast on a broken fixture"
)]

use std::collections::BTreeMap;

use flowtune_common::{IndexId, PageId, SimRng};
use flowtune_index::{IndexPageStore, PartitionVerdict};
use flowtune_storage::{MemPageStore, Page, PageCheck, PAGE_SIZE};

/// Page-kind tag of the model's image pages.
const IMAGE_KIND: u8 = 3;

type Key = (IndexId, u32);

/// Byte-backed partition images: real pages, one epoch per (re)write.
#[derive(Debug, Default)]
struct ByteImages {
    store: MemPageStore,
    parts: BTreeMap<Key, (Vec<PageId>, u32)>,
    epoch: u32,
}

impl ByteImages {
    /// Allocate a run of `n` pages under a fresh epoch, persist its
    /// first `flushed` pages and make it the image of `key`. A replaced
    /// image's pages stay in the store: ids are never reused, so no
    /// later scan can reach them except by a deliberate splice.
    fn lay_down(&mut self, (index, part): Key, n: usize, flushed: usize) -> Vec<PageId> {
        self.epoch += 1;
        let ids: Vec<PageId> = (0..n).map(|_| self.store.allocate()).collect();
        for (i, &id) in ids[..flushed].iter().enumerate() {
            let payload = [index.0, part, self.epoch, i as u32].map(u32::to_le_bytes);
            let page = Page::new(IMAGE_KIND, self.epoch, payload.concat()).unwrap();
            self.store.write(id, page.encode());
        }
        self.parts.insert((index, part), (ids.clone(), self.epoch));
        ids
    }

    fn write(&mut self, key: Key, bytes: u64) -> usize {
        let n = IndexPageStore::image_pages(bytes);
        self.lay_down(key, n, n);
        n
    }

    fn write_torn(&mut self, key: Key, bytes: u64) -> PageId {
        let n = IndexPageStore::image_pages(bytes);
        let victim = *self.lay_down(key, n, n).last().unwrap();
        self.store.corrupt(victim, PAGE_SIZE / 2);
        victim
    }

    fn write_crashed(&mut self, key: Key, bytes: u64, fraction: f64) -> (usize, usize) {
        let n = IndexPageStore::image_pages(bytes);
        let flushed = ((n as f64 * fraction.clamp(0.0, 1.0)) as usize).min(n - 1);
        self.lay_down(key, n, flushed);
        (flushed, n - flushed)
    }

    fn verify(&self, key: Key) -> Option<PartitionVerdict> {
        let (ids, epoch) = self.parts.get(&key)?;
        let bad_pages = ids
            .iter()
            .map(|&id| (id, Page::check(self.store.read(id), *epoch)))
            .filter(|(_, check)| !check.is_clean())
            .collect();
        Some(PartitionVerdict {
            pages_scanned: ids.len() as u64,
            bad_pages,
        })
    }

    fn page_count(&self) -> usize {
        self.parts.values().map(|(ids, _)| ids.len()).sum()
    }
}

/// A partition size: mostly under the page cap, sometimes far over it.
fn draw_bytes(rng: &mut SimRng) -> u64 {
    match rng.uniform_u64(0, 4) {
        0 => rng.uniform_u64(0, 2 * PAGE_SIZE as u64),
        1 => rng.uniform_u64(0, 80 * PAGE_SIZE as u64),
        2 => rng.uniform_u64(0, 1 << 32),
        _ => PAGE_SIZE as u64 * rng.uniform_u64(1, 70),
    }
}

/// A crash point: mostly inside the build, sometimes at or past its ends.
fn draw_fraction(rng: &mut SimRng) -> f64 {
    match rng.uniform_u64(0, 8) {
        0 => 0.0,
        1 => 1.0,
        2 => rng.uniform_range(-0.5, 1.5),
        _ => rng.uniform(),
    }
}

#[test]
fn ledger_verdicts_match_the_byte_model_on_seeded_sequences() {
    let keys: Vec<Key> = (0..3)
        .flat_map(|i| (0..4).map(move |p| (IndexId(i), p)))
        .collect();
    let mut seen = BTreeMap::<&str, usize>::new();
    for seed in 0..20 {
        let mut rng = SimRng::seed_from_u64(seed);
        let (mut ledger, mut bytes) = (IndexPageStore::new(), ByteImages::default());
        for step in 0..250 {
            let key = *rng.choose(&keys);
            let (index, part) = key;
            let what = format!("seed {seed} step {step} {key:?}");
            match rng.uniform_u64(0, 8) {
                0 | 1 => {
                    let b = draw_bytes(&mut rng);
                    let n = ledger.write_partition(index, part, b);
                    assert_eq!(n, bytes.write(key, b), "{what}: write");
                }
                2 => {
                    let b = draw_bytes(&mut rng);
                    let victim = ledger.write_partition_torn(index, part, b);
                    assert_eq!(victim, bytes.write_torn(key, b), "{what}: torn write");
                }
                3 => {
                    let (b, f) = (draw_bytes(&mut rng), draw_fraction(&mut rng));
                    let split = ledger.write_partition_crashed(index, part, b, f);
                    assert_eq!(split, bytes.write_crashed(key, b, f), "{what}: crash");
                }
                4 => {
                    ledger.delete_partition(index, part);
                    bytes.parts.remove(&key);
                }
                _ => {
                    let verdict = ledger.verify_partition(index, part);
                    assert_eq!(verdict, bytes.verify(key), "{what}: verdict");
                    let kind = match verdict {
                        None => "absent",
                        Some(v) if v.is_clean() => "clean",
                        Some(v) if v.bad_pages[0].1 == PageCheck::Missing => "missing",
                        Some(_) => "torn",
                    };
                    *seen.entry(kind).or_default() += 1;
                }
            }
            assert_eq!(ledger.page_count(), bytes.page_count(), "{what}: pages");
        }
        for &(index, part) in &keys {
            let verdict = ledger.verify_partition(index, part);
            assert_eq!(
                verdict,
                bytes.verify((index, part)),
                "seed {seed} final scan"
            );
        }
        let imaged: Vec<Key> = bytes.parts.keys().copied().collect();
        assert_eq!(ledger.partitions().collect::<Vec<_>>(), imaged);
    }
    // Every verdict shape the scan can return was compared many times.
    for kind in ["absent", "clean", "missing", "torn"] {
        assert!(
            seen.get(kind).copied().unwrap_or(0) > 100,
            "{kind}: {seen:?}"
        );
    }
}

#[test]
fn stale_epoch_page_cannot_masquerade_as_the_new_image() {
    // Why the byte model stamps epochs: an internally consistent page of
    // the previous incarnation spliced into the new image passes its
    // checksum, and only the epoch comparison rejects it.
    let key = (IndexId(6), 0);
    let mut model = ByteImages::default();
    model.write(key, 1 << 20);
    let (old_ids, old_epoch) = model.parts[&key].clone();
    model.write(key, 1 << 20);
    let (ids, epoch) = model.parts[&key].clone();
    assert_ne!(epoch, old_epoch);
    let stale = model.store.read(old_ids[0]).unwrap().to_vec();
    model.store.write(ids[0], stale);
    assert_eq!(
        model.verify(key).unwrap().bad_pages,
        vec![(ids[0], PageCheck::EpochMismatch)]
    );
}
