//! Fixed-size pages with per-page checksums and epoch stamps.
//!
//! The page is the unit of I/O, caching, and corruption detection for
//! the paged index backend (DESIGN §5h). Every page carries a 16-byte
//! header:
//!
//! ```text
//! bytes  0..8   checksum64 over bytes 8..PAGE_SIZE
//! bytes  8..12  epoch (u32 LE) — stamp of the build that wrote the page
//! byte   12     kind tag (node type)
//! byte   13     reserved (zero)
//! bytes 14..16  payload length (u16 LE)
//! bytes 16..    payload, zero-padded to PAGE_SIZE
//! ```
//!
//! The checksum covers the epoch, so a torn write that splices an old
//! page body under a new header (or vice versa) fails verification.
//! [`MemPageStore`] is the deterministic in-memory backing every
//! simulation run uses. The raw
//! store accepts arbitrary byte strings so fault injection can model
//! truncated (torn) writes — [`Page::check`] reports them as
//! [`PageCheck::SizeMismatch`].

use flowtune_common::{FlowtuneError, PageId, Result};
use std::collections::BTreeMap;

/// Fixed page size in bytes. Every encoded page is exactly this long.
pub const PAGE_SIZE: usize = 4096;

/// Header bytes reserved at the front of every page.
pub const PAGE_HEADER: usize = 16;

/// Maximum payload bytes a single page can carry.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;

/// Seeds and multipliers of the page checksum (the 64-bit primes of
/// the xxHash family; any odd multipliers keep the bijection argument
/// on [`checksum64`] intact).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One multiply-rotate-multiply step. For a fixed `word` it is a
/// bijection of `acc`, and for a fixed `acc` a bijection of `word`.
#[inline(always)]
fn mix(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Little-endian word from up to 8 bytes, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Word-at-a-time 64-bit checksum (in-repo: the workspace has a strict
/// zero-external-dependency policy).
///
/// Four independent lanes each fold every fourth little-endian 64-bit
/// word through [`mix`], so the CPU overlaps their multiply chains; the
/// lanes, the byte length and any tail words are then folded into one
/// value and finished with an avalanche. Every step is a bijection of
/// the running state for a fixed input and of the input for a fixed
/// state, so a change confined to one aligned 8-byte word (any single
/// byte flip, and the fault injector's mid-page flip in particular)
/// always changes the checksum; wider damage escapes only by a 64-bit
/// collision. Truncation is caught before hashing by the page-size
/// check.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }
    let mut hash = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        hash = mix(hash, lane);
    }
    for word in blocks.remainder().chunks(8) {
        hash = mix(hash, le_word(word));
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// A decoded page: epoch stamp, kind tag, and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Epoch of the build that wrote the page; verification rejects
    /// pages whose epoch does not match the committed partition epoch.
    pub epoch: u32,
    /// Kind tag (leaf or internal node).
    pub kind: u8,
    /// Meaningful payload bytes (at most [`PAGE_PAYLOAD`]).
    pub payload: Vec<u8>,
}

/// Outcome of verifying one raw page against an expected epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCheck {
    /// Header, checksum, and epoch all verify.
    Clean,
    /// The page id is not present in the store at all.
    Missing,
    /// The raw bytes are not exactly [`PAGE_SIZE`] long (torn write).
    SizeMismatch,
    /// The stored checksum does not match the page body (bit rot or a
    /// torn write inside the page).
    ChecksumMismatch,
    /// The page verifies but was written by a different build epoch
    /// (stale page left behind by a crashed or superseded build).
    EpochMismatch,
}

impl PageCheck {
    /// True when the page passed every check.
    pub fn is_clean(self) -> bool {
        self == PageCheck::Clean
    }
}

impl Page {
    /// Construct a page, rejecting oversized payloads.
    pub fn new(kind: u8, epoch: u32, payload: Vec<u8>) -> Result<Page> {
        if payload.len() > PAGE_PAYLOAD {
            return Err(FlowtuneError::storage(format!(
                "page payload of {} bytes exceeds the {PAGE_PAYLOAD}-byte page capacity",
                payload.len()
            )));
        }
        Ok(Page {
            epoch,
            kind,
            payload,
        })
    }

    /// Encode to exactly [`PAGE_SIZE`] bytes with a fresh checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; PAGE_SIZE];
        out[8..12].copy_from_slice(&self.epoch.to_le_bytes());
        out[12] = self.kind;
        #[allow(clippy::expect_used)]
        // flowtune-allow(panic-hygiene): Page::new bounds payload at PAGE_PAYLOAD (< u16::MAX), so the length conversion cannot fail
        let len = u16::try_from(self.payload.len()).expect("payload fits a page");
        out[14..16].copy_from_slice(&len.to_le_bytes());
        out[PAGE_HEADER..PAGE_HEADER + self.payload.len()].copy_from_slice(&self.payload);
        let sum = checksum64(&out[8..]);
        out[0..8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and verify a raw page. Size or checksum defects yield
    /// [`FlowtuneError::Corrupt`]; the epoch is returned for the caller
    /// to compare against the committed partition epoch.
    pub fn decode(bytes: &[u8]) -> Result<Page> {
        match Self::check_raw(bytes) {
            PageCheck::Clean => {}
            defect => {
                return Err(FlowtuneError::corrupt(format!(
                    "page failed verification: {defect:?}"
                )))
            }
        }
        let len = usize::from(u16::from_le_bytes([bytes[14], bytes[15]]));
        Ok(Page {
            epoch: Self::raw_epoch(bytes),
            kind: bytes[12],
            payload: bytes[PAGE_HEADER..PAGE_HEADER + len].to_vec(),
        })
    }

    fn raw_epoch(bytes: &[u8]) -> u32 {
        u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]])
    }

    /// Verify raw bytes without an epoch expectation.
    fn check_raw(bytes: &[u8]) -> PageCheck {
        if bytes.len() != PAGE_SIZE {
            return PageCheck::SizeMismatch;
        }
        let stored = u64::from_le_bytes([
            bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
        ]);
        if stored != checksum64(&bytes[8..]) {
            return PageCheck::ChecksumMismatch;
        }
        let len = usize::from(u16::from_le_bytes([bytes[14], bytes[15]]));
        if len > PAGE_PAYLOAD {
            return PageCheck::ChecksumMismatch;
        }
        PageCheck::Clean
    }

    /// Verify raw bytes (possibly absent) against an expected epoch.
    pub fn check(bytes: Option<&[u8]>, expected_epoch: u32) -> PageCheck {
        let Some(bytes) = bytes else {
            return PageCheck::Missing;
        };
        let verdict = Self::check_raw(bytes);
        if !verdict.is_clean() {
            return verdict;
        }
        if Self::raw_epoch(bytes) != expected_epoch {
            return PageCheck::EpochMismatch;
        }
        PageCheck::Clean
    }
}

/// Deterministic in-memory page store: a `BTreeMap` of raw page images
/// with monotonically allocated ids. Id allocation and read/write
/// behavior depend only on the call sequence.
#[derive(Debug, Clone, Default)]
pub struct MemPageStore {
    pages: BTreeMap<PageId, Vec<u8>>,
    next: u32,
}

impl MemPageStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MemPageStore::default()
    }

    /// Fault-injection hook: XOR one byte of the stored image, leaving
    /// a checksum-detectable flip. No-op when the page or offset is
    /// out of range.
    pub fn corrupt(&mut self, id: PageId, offset: usize) {
        if let Some(bytes) = self.pages.get_mut(&id) {
            if let Some(b) = bytes.get_mut(offset) {
                *b ^= 0xFF;
            }
        }
    }

    /// Ids of every stored page, ascending.
    pub fn ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.keys().copied()
    }

    /// Allocate a fresh page id. Ids are never reused.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.next);
        self.next = self.next.wrapping_add(1);
        id
    }

    /// Write raw bytes for `id`. Arbitrary lengths are accepted so
    /// fault injection can model torn (truncated) writes; verification
    /// catches them later.
    pub fn write(&mut self, id: PageId, bytes: Vec<u8>) {
        self.pages.insert(id, bytes);
    }

    /// Raw bytes for `id`, or `None` when the page was never written.
    pub fn read(&self, id: PageId) -> Option<&[u8]> {
        self.pages.get(&id).map(Vec::as_slice)
    }

    /// Number of pages currently stored.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let page = Page::new(1, 7, b"hello pages".to_vec()).unwrap();
        let bytes = page.encode();
        assert_eq!(bytes.len(), PAGE_SIZE);
        let back = Page::decode(&bytes).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn payload_capacity_is_enforced() {
        assert!(Page::new(0, 0, vec![0u8; PAGE_PAYLOAD]).is_ok());
        assert!(Page::new(0, 0, vec![0u8; PAGE_PAYLOAD + 1]).is_err());
    }

    #[test]
    fn checksum_catches_any_single_byte_flip() {
        let page = Page::new(3, 9, vec![0xAB; 100]).unwrap();
        let clean = page.encode();
        // Flip each byte in turn (header and body alike): every flip
        // must be detected, because the checksum covers epoch + body
        // and the stored checksum itself no longer matches the body.
        for i in 0..PAGE_SIZE {
            let mut torn = clean.clone();
            torn[i] ^= 0x01;
            assert!(
                Page::decode(&torn).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn checksum_catches_any_change_within_one_word() {
        // The bijection argument on `checksum64`: damage confined to one
        // aligned 8-byte word of the checksummed range is always caught,
        // whatever the XOR pattern.
        let clean = Page::new(3, 9, (0..=255).collect()).unwrap().encode();
        let mut rng = flowtune_common::SimRng::seed_from_u64(11);
        for word in (8..PAGE_SIZE).step_by(8) {
            for pattern in [1u64, 1 << 63, u64::MAX, rng.uniform_u64(1, u64::MAX)] {
                let mut torn = clean.clone();
                let bytes = &mut torn[word..word + 8];
                let damaged = u64::from_le_bytes(bytes.try_into().unwrap()) ^ pattern;
                bytes.copy_from_slice(&damaged.to_le_bytes());
                assert_eq!(
                    Page::check(Some(&torn), 9),
                    PageCheck::ChecksumMismatch,
                    "pattern {pattern:#x} at word {word} went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_catches_scattered_damage_and_reordering() {
        let clean = Page::new(4, 2, vec![0x5A; 700]).unwrap().encode();
        let mut rng = flowtune_common::SimRng::seed_from_u64(7);
        let pos = |rng: &mut flowtune_common::SimRng| rng.uniform_u64(8, PAGE_SIZE as u64) as usize;
        for word in (8..PAGE_SIZE - 32).step_by(8) {
            // The top bit of two words 32 bytes apart (same lane): a plain
            // xor-multiply fold carries such a flip unchanged to the end,
            // so the pair would cancel. The rotation prevents that.
            let mut torn = clean.clone();
            torn[word + 7] ^= 0x80;
            torn[word + 32 + 7] ^= 0x80;
            assert!(Page::decode(&torn).is_err(), "top-bit pair at {word}");
        }
        for trial in 0..2000 {
            let mut torn = clean.clone();
            // Two to sixteen byte flips anywhere in the checksummed range.
            for _ in 0..2 + trial % 15 {
                let at = pos(&mut rng);
                torn[at] ^= rng.uniform_u64(1, 256) as u8;
            }
            if torn != clean {
                assert!(
                    Page::decode(&torn).is_err(),
                    "trial {trial} went undetected"
                );
            }
        }
        for _ in 0..500 {
            // Swapping two distinct 8-byte words must change the checksum.
            let (a, b) = (pos(&mut rng) & !7, pos(&mut rng) & !7);
            let mut swapped = clean.clone();
            for i in 0..8 {
                swapped.swap(a + i, b + i);
            }
            if swapped != clean {
                assert!(
                    Page::decode(&swapped).is_err(),
                    "swap {a}<->{b} went undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_covers_length_and_unaligned_tails() {
        // Zero-padded tail words must not make `[0; n]` collide with
        // `[0; n + 1]`: the byte length is folded in.
        let sums: std::collections::BTreeSet<u64> =
            (0..200).map(|n| checksum64(&vec![0u8; n])).collect();
        assert_eq!(sums.len(), 200);
        // Every byte of an odd-length input counts.
        let base: Vec<u8> = (0..77).collect();
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x80;
            assert_ne!(checksum64(&flipped), checksum64(&base), "byte {i}");
        }
    }

    #[test]
    fn check_classifies_defects() {
        let page = Page::new(2, 5, b"abc".to_vec()).unwrap();
        let clean = page.encode();
        assert_eq!(Page::check(Some(&clean), 5), PageCheck::Clean);
        assert_eq!(Page::check(None, 5), PageCheck::Missing);
        assert_eq!(Page::check(Some(&clean[..100]), 5), PageCheck::SizeMismatch);
        let mut flipped = clean.clone();
        flipped[PAGE_HEADER] ^= 0xFF;
        assert_eq!(Page::check(Some(&flipped), 5), PageCheck::ChecksumMismatch);
        // A clean page from another build epoch: checksum passes,
        // epoch comparison rejects.
        assert_eq!(Page::check(Some(&clean), 6), PageCheck::EpochMismatch);
    }

    #[test]
    fn epoch_is_under_the_checksum() {
        // Splicing a different epoch under an otherwise valid page must
        // fail the *checksum*, not just the epoch comparison — a torn
        // header cannot masquerade as a clean page of another epoch.
        let page = Page::new(2, 5, b"abc".to_vec()).unwrap();
        let mut bytes = page.encode();
        bytes[8..12].copy_from_slice(&6u32.to_le_bytes());
        assert_eq!(Page::check(Some(&bytes), 6), PageCheck::ChecksumMismatch);
    }

    #[test]
    fn mem_store_allocates_monotonic_ids_and_never_reuses() {
        let mut s = MemPageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        s.write(b, vec![1, 2, 3]);
        let c = s.allocate();
        assert_eq!(c, PageId(2));
        assert_eq!(s.read(a), None);
        assert_eq!(s.page_count(), 1);
    }

    #[test]
    fn corrupt_and_truncate_are_detected_by_check() {
        let mut s = MemPageStore::new();
        let id = s.allocate();
        let page = Page::new(1, 4, vec![7u8; 64]).unwrap();
        s.write(id, page.encode());
        assert_eq!(Page::check(s.read(id), 4), PageCheck::Clean);
        s.write(id, page.encode()[..1000].to_vec());
        assert_eq!(Page::check(s.read(id), 4), PageCheck::SizeMismatch);
        let id2 = s.allocate();
        s.write(id2, page.encode());
        s.corrupt(id2, PAGE_HEADER + 3);
        assert_eq!(Page::check(s.read(id2), 4), PageCheck::ChecksumMismatch);
    }
}
