//! A from-scratch B+Tree, node-per-page over a paged store.
//!
//! Maps orderable keys to `u32` row ids, allows duplicate keys, supports
//! point lookup, ordered range scans and full in-order traversal — the
//! access paths behind Table 6's query classes (lookup, range select,
//! sorting).
//!
//! A tree is bulk-built once from key-sorted pairs and never mutated,
//! matching the paper's index partitions: each is written whole by its
//! build operator and dropped whole when its gain turns non-positive.
//! Every node is one fixed-size, checksummed, epoch-stamped page in a
//! private [`flowtune_storage::MemPageStore`] the tree owns. There is no
//! separate in-memory arena: the page store is the *only* persistent
//! representation, so the code path the fault-injection and recovery
//! machinery verifies is the same one every query runs (DESIGN §5h).
//! The one cache is a bounded memo of decoded nodes; a load it misses
//! reads, verifies and decodes the page. Leaves are chained for range
//! scans. The tree's page traffic ([`TreeIo`]) is what turns the cost
//! model's asserted build/probe I/O into measured I/O.

use flowtune_common::{FlowtuneError, PageId, Result};
use flowtune_storage::{MemPageStore, Page, PAGE_SIZE};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::rc::Rc;

/// Decoded nodes a tree's memo holds (one per 4 KiB page, 16 MiB of
/// pages). Trees larger than this spill to store reads, which is
/// exactly the traffic the measured-I/O calibration wants to see.
pub const TREE_POOL_PAGES: usize = 4096;

/// Page kind tag for leaf nodes.
const KIND_LEAF: u8 = 1;
/// Page kind tag for internal nodes.
const KIND_INTERNAL: u8 = 2;
/// `next`-pointer sentinel for the last leaf in the chain.
const NO_PAGE: u32 = u32::MAX;

/// Keys a paged B+Tree can store: orderable, and encodable to/from the
/// page payload byte format.
pub trait NodeKey: Ord + Clone + Debug {
    /// Append this key's encoding to `out`.
    fn encode_key(&self, out: &mut Vec<u8>);
    /// Decode one key starting at `*at`, advancing `*at` past it.
    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self>;
}

impl NodeKey for i64 {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_key(bytes: &[u8], at: &mut usize) -> Result<Self> {
        let raw = take(bytes, at, 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(i64::from_le_bytes(buf))
    }
}

/// Slice `n` bytes at `*at`, advancing the cursor.
fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = at.checked_add(n).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(FlowtuneError::corrupt("node payload truncated"));
    };
    let out = &bytes[*at..end];
    *at = end;
    Ok(out)
}

fn read_u16(bytes: &[u8], at: &mut usize) -> Result<u16> {
    let raw = take(bytes, at, 2)?;
    Ok(u16::from_le_bytes([raw[0], raw[1]]))
}

fn read_u32(bytes: &[u8], at: &mut usize) -> Result<u32> {
    let raw = take(bytes, at, 4)?;
    Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
}

/// Decoded in-memory view of one node page.
#[derive(Debug, Clone)]
enum Node<K> {
    Internal {
        /// `keys[i]` is the smallest key reachable under `children[i+1]`.
        keys: Vec<K>,
        children: Vec<PageId>,
    },
    Leaf {
        keys: Vec<K>,
        rows: Vec<u32>,
        next: Option<PageId>,
    },
}

/// Encode a node into `(page kind, payload)`.
///
/// Leaf payload: `n: u16 | next: u32 | n × row: u32 | n × key`.
/// Internal payload: `n: u16 | (n+1) × child: u32 | n × key`.
fn encode_node<K: NodeKey>(node: &Node<K>) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    match node {
        Node::Leaf { keys, rows, next } => {
            #[expect(
                clippy::expect_used,
                reason = "node arity is bounded by the tree order, which store_node caps far below u16::MAX"
            )]
            let n = u16::try_from(keys.len()).expect("leaf arity fits u16");
            out.extend_from_slice(&n.to_le_bytes());
            out.extend_from_slice(&next.map_or(NO_PAGE, |p| p.0).to_le_bytes());
            for row in rows {
                out.extend_from_slice(&row.to_le_bytes());
            }
            for key in keys {
                key.encode_key(&mut out);
            }
            (KIND_LEAF, out)
        }
        Node::Internal { keys, children } => {
            #[expect(
                clippy::expect_used,
                reason = "node arity is bounded by the tree order, which store_node caps far below u16::MAX"
            )]
            let n = u16::try_from(keys.len()).expect("internal arity fits u16");
            out.extend_from_slice(&n.to_le_bytes());
            for child in children {
                out.extend_from_slice(&child.0.to_le_bytes());
            }
            for key in keys {
                key.encode_key(&mut out);
            }
            (KIND_INTERNAL, out)
        }
    }
}

/// Decode a node page written by [`encode_node`].
fn decode_node<K: NodeKey>(page: &Page) -> Result<Node<K>> {
    let bytes = &page.payload;
    let mut at = 0usize;
    let n = usize::from(read_u16(bytes, &mut at)?);
    match page.kind {
        KIND_LEAF => {
            let next = read_u32(bytes, &mut at)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(read_u32(bytes, &mut at)?);
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(K::decode_key(bytes, &mut at)?);
            }
            Ok(Node::Leaf {
                keys,
                rows,
                next: (next != NO_PAGE).then_some(PageId(next)),
            })
        }
        KIND_INTERNAL => {
            let mut children = Vec::with_capacity(n + 1);
            for _ in 0..=n {
                children.push(PageId(read_u32(bytes, &mut at)?));
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(K::decode_key(bytes, &mut at)?);
            }
            Ok(Node::Internal { keys, children })
        }
        kind => Err(FlowtuneError::corrupt(format!(
            "unknown node page kind {kind}"
        ))),
    }
}

/// Page traffic of one tree: the measured-I/O source the cost model
/// calibrates against (see [`crate::measured`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeIo {
    /// Node loads served by the decoded-node memo.
    pub memo_hits: u64,
    /// Node loads that read and decoded their page.
    pub load_misses: u64,
    /// Pages read from the store (load misses plus verification).
    pub page_reads: u64,
    /// Pages written to the store.
    pub page_writes: u64,
}

/// B+Tree from keys to row ids; duplicates allowed. Nodes live in a
/// private checksummed page store under a decoded-node memo.
#[derive(Debug, Clone)]
pub struct BPlusTree<K> {
    store: MemPageStore,
    /// Decoded-node memo over the store: a load served from here is a
    /// shared-`Rc` clone, skipping the page read, checksum and key
    /// decode entirely — which is what keeps warm point lookups ahead
    /// of warm range scans in wall time. Every node is written once,
    /// by [`Self::bulk_build`], so sharing is safe. `RefCell` because
    /// reads (`get`, `range`, `iter`) take `&self`; borrows never
    /// outlive a single node load, so they cannot overlap. The memo is
    /// buffered memory in the crash model — `drop_cache` and
    /// `tear_page` discard it — and is bounded at [`TREE_POOL_PAGES`]
    /// entries by a deterministic full flush.
    memo: RefCell<BTreeMap<PageId, Rc<Node<K>>>>,
    io: Cell<TreeIo>,
    root: PageId,
    len: usize,
    /// Epoch stamped into every page this tree writes.
    epoch: u32,
}

impl<K: NodeKey> BPlusTree<K> {
    /// The only constructor: build from `(key, row)` pairs sorted by
    /// key, with `order` (≥ 3) max keys per node. Leaves are packed to
    /// `order` entries, then internal levels are stacked — O(n).
    ///
    /// Panics if the input is not sorted by key.
    pub fn bulk_build(order: usize, pairs: &[(K, u32)]) -> Self {
        assert!(order >= 3, "B+Tree order must be at least 3");
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_build input must be sorted by key"
        );
        let mut tree = BPlusTree {
            store: MemPageStore::new(),
            memo: RefCell::new(BTreeMap::new()),
            io: Cell::new(TreeIo::default()),
            // Set once the root is written.
            root: PageId(0),
            len: pairs.len(),
            epoch: 0,
        };
        if pairs.is_empty() {
            // An empty tree is a lone empty leaf.
            tree.root = tree.store.allocate();
            let leaf = Node::Leaf {
                keys: Vec::new(),
                rows: Vec::new(),
                next: None,
            };
            tree.store_node(tree.root, &leaf);
            return tree;
        }
        let chunks: Vec<&[(K, u32)]> = pairs.chunks(order).collect();
        let leaf_ids: Vec<PageId> = chunks.iter().map(|_| tree.store.allocate()).collect();
        let mut level: Vec<(K, PageId)> = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            tree.store_node(
                leaf_ids[i],
                &Node::Leaf {
                    keys: chunk.iter().map(|(k, _)| k.clone()).collect(),
                    rows: chunk.iter().map(|(_, r)| *r).collect(),
                    next: leaf_ids.get(i + 1).copied(),
                },
            );
            level.push((chunk[0].0.clone(), leaf_ids[i]));
        }
        // Stack internal levels until a single root remains.
        while level.len() > 1 {
            let mut upper: Vec<(K, PageId)> = Vec::new();
            for chunk in level.chunks(order + 1) {
                let id = tree.store.allocate();
                tree.store_node(
                    id,
                    &Node::Internal {
                        keys: chunk[1..].iter().map(|(k, _)| k.clone()).collect(),
                        children: chunk.iter().map(|(_, c)| *c).collect(),
                    },
                );
                upper.push((chunk[0].0.clone(), id));
            }
            level = upper;
        }
        tree.root = level[0].1;
        tree
    }

    /// Apply `f` to this tree's traffic counters.
    fn tally(&self, f: impl FnOnce(&mut TreeIo)) {
        let mut io = self.io.get();
        f(&mut io);
        self.io.set(io);
    }

    /// Decode the node stored at `id`, serving a shared handle from
    /// the decoded-node memo when possible.
    fn load(&self, id: PageId) -> Rc<Node<K>> {
        if let Some(node) = self.memo.borrow().get(&id) {
            self.tally(|io| io.memo_hits += 1);
            return Rc::clone(node);
        }
        self.tally(|io| {
            io.load_misses += 1;
            io.page_reads += 1;
        });
        // flowtune-allow(obs-discipline): B+Tree page reads come from --calibrate-io and the Table 6 runs; the smoke run probes no tree
        flowtune_obs::count("storage.page_reads", 1);
        #[expect(
            clippy::expect_used,
            reason = "the tree owns its private page store; a page it wrote failing read/decode is memory corruption, unrecoverable at this layer (external corruption is surfaced as a typed error by verify_pages, which recovery runs *before* serving queries)"
        )]
        let page = self
            .store
            .read(id)
            .and_then(|bytes| Page::decode(bytes).ok())
            .expect("tree-owned page must read back cleanly");
        #[expect(
            clippy::expect_used,
            reason = "same invariant as above — pages this tree wrote decode by construction"
        )]
        let node = Rc::new(decode_node(&page).expect("tree-owned page must decode"));
        self.memo_node(id, Rc::clone(&node));
        node
    }

    /// Shared handle to the leaf stored at `id`.
    fn load_leaf(&self, id: PageId) -> Rc<Node<K>> {
        let node = self.load(id);
        debug_assert!(
            matches!(&*node, Node::Leaf { .. }),
            "leaf chain points to internal node"
        );
        node
    }

    /// Encode and persist a node to its page, refreshing the memo.
    fn store_node(&mut self, id: PageId, node: &Node<K>) {
        let (kind, payload) = encode_node(node);
        #[expect(
            clippy::expect_used,
            reason = "an encoded node exceeding one page means the configured order is too large for the key width — a construction-time configuration error, not a runtime condition; every supported (order, key type) pair is pinned by tests"
        )]
        let page = Page::new(kind, self.epoch, payload)
            .expect("node must fit one page: order too large for this key type");
        self.store.write(id, page.encode());
        self.tally(|io| io.page_writes += 1);
        flowtune_obs::count("storage.page_writes", 1);
        self.memo_node(id, Rc::new(node.clone()));
    }

    /// Insert a decoded node into the memo, flushing it wholesale when
    /// it reaches [`TREE_POOL_PAGES`] (deterministic; the persistent
    /// pages are intact).
    fn memo_node(&self, id: PageId, node: Rc<Node<K>>) {
        let mut memo = self.memo.borrow_mut();
        if memo.len() >= TREE_POOL_PAGES && !memo.contains_key(&id) {
            memo.clear();
        }
        memo.insert(id, node);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page traffic accumulated by this tree.
    pub fn io_stats(&self) -> TreeIo {
        self.io.get()
    }

    /// Drop the decoded-node memo so the next probes run cold — the
    /// measurement hook `measured::measure_io` uses to observe real
    /// from-store probe traffic instead of warm-memo hits.
    pub fn drop_cache(&mut self) {
        self.memo.get_mut().clear();
    }

    /// Locate the leaf that may contain `key` (or the first key ≥ it)
    /// and the position within it. `None` descends to the leftmost
    /// leaf at position 0 — the single descent path shared by point
    /// lookups, range scans, and full traversal, so memo
    /// accounting counts every entry point identically.
    fn seek(&self, key: Option<&K>) -> (PageId, usize) {
        let mut node = self.root;
        loop {
            match &*self.load(node) {
                Node::Internal { keys, children } => {
                    node = match key {
                        Some(key) => children[keys.partition_point(|k| k < key)],
                        None => children[0],
                    };
                }
                Node::Leaf { keys, .. } => {
                    let pos = key.map_or(0, |key| keys.partition_point(|k| k < key));
                    return (node, pos);
                }
            }
        }
    }

    /// Row ids of all entries equal to `key`, in build-input order.
    pub fn get<'a>(&'a self, key: &K) -> impl Iterator<Item = u32> + 'a {
        self.range(key.clone(), key.clone()).map(|(_, r)| r)
    }

    /// First row id for `key`, if any.
    pub fn get_first(&self, key: &K) -> Option<u32> {
        self.get(key).next()
    }

    /// Ordered iterator over all `(key, row)` with `lo ≤ key ≤ hi`.
    ///
    /// Bounds are taken by value: callers probing with computed
    /// sentinel keys (e.g. [`crate::TupleKey`] prefix bounds) hand
    /// them to the iterator instead of keeping a borrow alive for its
    /// whole lifetime.
    pub fn range(&self, lo: K, hi: K) -> RangeIter<'_, K> {
        let (leaf, pos) = self.seek(Some(&lo));
        RangeIter {
            tree: self,
            leaf: Some(self.load_leaf(leaf)),
            pos,
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// Ordered iterator over every `(key, row)` entry.
    pub fn iter(&self) -> RangeIter<'_, K> {
        let (leaf, pos) = self.seek(None);
        RangeIter {
            tree: self,
            leaf: Some(self.load_leaf(leaf)),
            pos,
            lo: None,
            hi: None,
        }
    }

    /// Verify structural invariants (sortedness, key/child arity, leaf
    /// chain order). Used by tests and fuzzing; O(n).
    pub fn check_invariants(&self) -> Result<()> {
        // Every leaf's keys sorted; chained leaves globally sorted.
        let mut last: Option<K> = None;
        let mut counted = 0usize;
        for (k, _) in self.iter() {
            if let Some(prev) = &last {
                if prev > &k {
                    return Err(FlowtuneError::corrupt(format!(
                        "keys out of order: {prev:?} > {k:?}"
                    )));
                }
            }
            last = Some(k);
            counted += 1;
        }
        if counted != self.len {
            return Err(FlowtuneError::corrupt(format!(
                "len {} but iterated {counted}",
                self.len
            )));
        }
        self.check_node(self.root, None, None)
    }

    fn check_node(&self, node: PageId, lo: Option<&K>, hi: Option<&K>) -> Result<()> {
        match &*self.load(node) {
            Node::Leaf { keys, rows, .. } => {
                if keys.len() != rows.len() {
                    return Err(FlowtuneError::corrupt("leaf keys/rows length mismatch"));
                }
                for k in keys {
                    if lo.is_some_and(|lo| k < lo) || hi.is_some_and(|hi| k > hi) {
                        return Err(FlowtuneError::corrupt(format!(
                            "leaf key {k:?} outside separator bounds"
                        )));
                    }
                }
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(FlowtuneError::corrupt("internal arity mismatch"));
                }
                if keys.windows(2).any(|w| w[0] > w[1]) {
                    return Err(FlowtuneError::corrupt("internal keys unsorted"));
                }
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    self.check_node(child, child_lo, child_hi)?;
                }
                Ok(())
            }
        }
    }

    /// Verify every page in the backing store against its checksum and
    /// this tree's epoch, bypassing the memo — the scan recovery runs
    /// before a rebuilt or suspect tree is allowed to serve queries.
    /// Returns the first defect found.
    pub fn verify_pages(&self) -> Result<()> {
        for id in self.store.ids() {
            self.tally(|io| io.page_reads += 1);
            // flowtune-allow(obs-discipline): only tree recovery scans its pages; the smoke run never does
            flowtune_obs::count("storage.page_reads", 1);
            let verdict = Page::check(self.store.read(id), self.epoch);
            if !verdict.is_clean() {
                return Err(FlowtuneError::corrupt(format!(
                    "page {id} failed verification: {verdict:?}"
                )));
            }
        }
        Ok(())
    }

    /// Fault-injection hook: corrupt the `nth` stored page (modulo the
    /// page count) in the *persistent* store and drop its memoized
    /// node, modeling a torn write that survives a crash while the
    /// builder's memory does not. Returns the damaged page id.
    pub fn tear_page(&mut self, nth: usize) -> Option<PageId> {
        let count = self.store.page_count();
        let id = self.store.ids().nth(nth.checked_rem(count)?)?;
        self.store.corrupt(id, PAGE_SIZE / 2);
        self.memo.get_mut().remove(&id);
        Some(id)
    }
}

/// Ordered iterator over `(key, row)` pairs of a [`BPlusTree`]. Holds
/// a shared handle to the decoded current leaf so iteration loads each
/// leaf page once.
#[derive(Debug)]
pub struct RangeIter<'a, K: NodeKey> {
    tree: &'a BPlusTree<K>,
    /// Decoded current leaf (always a [`Node::Leaf`]).
    leaf: Option<Rc<Node<K>>>,
    pos: usize,
    lo: Option<K>,
    hi: Option<K>,
}

impl<K: NodeKey> Iterator for RangeIter<'_, K> {
    type Item = (K, u32);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Node::Leaf { keys, rows, next } = &**self.leaf.as_ref()? else {
                unreachable!("leaf chain points to internal node")
            };
            if self.pos < keys.len() {
                let k = &keys[self.pos];
                // A duplicates run can span leaves: entries below
                // `lo` may still appear at the head of a chained
                // leaf. Skip them (keys are globally sorted, so
                // this terminates at the first in-range key).
                if self.lo.as_ref().is_some_and(|lo| k < lo) {
                    self.pos += 1;
                    continue;
                }
                if self.hi.as_ref().is_some_and(|hi| k > hi) {
                    self.leaf = None;
                    return None;
                }
                let item = (k.clone(), rows[self.pos]);
                self.pos += 1;
                return Some(item);
            }
            self.leaf = next.map(|id| self.tree.load_leaf(id));
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;

    /// Levels from the root down to the leaves (1 for a lone leaf).
    fn depth<K: NodeKey>(t: &BPlusTree<K>) -> usize {
        let mut depth = 1;
        let mut node = t.root;
        while let Node::Internal { children, .. } = &*t.load(node) {
            node = children[0];
            depth += 1;
        }
        depth
    }

    /// Sorted `(key, row)` pairs, rows numbered in sorted position —
    /// the oracle every read path is compared against.
    fn sorted_pairs(mut keys: Vec<i64>) -> Vec<(i64, u32)> {
        keys.sort_unstable();
        keys.into_iter().zip(0..).collect()
    }

    #[test]
    fn empty_tree() {
        let t: BPlusTree<i64> = BPlusTree::bulk_build(4, &[]);
        assert!(t.is_empty());
        assert_eq!(depth(&t), 1);
        assert_eq!(t.get_first(&1), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.range(i64::MIN, i64::MAX).count(), 0);
        t.check_invariants().unwrap();
        t.verify_pages().unwrap();
    }

    #[test]
    fn lookup_finds_every_key() {
        let t = BPlusTree::bulk_build(4, &sorted_pairs((0..10).collect()));
        assert_eq!(t.len(), 10);
        for k in 0..10i64 {
            assert_eq!(t.get_first(&k), Some(k as u32), "key {k}");
        }
        assert_eq!(t.get_first(&42), None);
        assert_eq!(t.get_first(&-1), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_are_kept() {
        // Twenty copies of one key at order 4: the run spans five
        // leaves, and lookups must follow the leaf chain across them.
        let mut pairs: Vec<(i64, u32)> = vec![(3, 100)];
        pairs.extend((0..20u32).map(|i| (7i64, i)));
        pairs.push((9, 101));
        let t = BPlusTree::bulk_build(4, &pairs);
        assert_eq!(t.get(&7).collect::<Vec<_>>(), (0..20).collect::<Vec<_>>());
        assert_eq!(t.get(&3).collect::<Vec<_>>(), [100]);
        assert_eq!(t.get(&9).collect::<Vec<_>>(), [101]);
        assert_eq!(t.range(7, 9).count(), 21);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let t = BPlusTree::bulk_build(5, &sorted_pairs((0..200).collect()));
        let got: Vec<i64> = t.range(50, 59).map(|(k, _)| k).collect();
        assert_eq!(got, (50..=59).collect::<Vec<_>>());
        // Empty range.
        assert_eq!(t.range(300, 400).count(), 0);
        // Range covering everything.
        assert_eq!(t.range(-10, 10_000).count(), 200);
    }

    #[test]
    fn bulk_build_matches_sorted_oracle() {
        // Runs of three equal keys at order 8 straddle leaf boundaries.
        let pairs: Vec<(i64, u32)> = (0..500).map(|i| (i / 3, i as u32)).collect();
        let t = BPlusTree::bulk_build(8, &pairs);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 500);
        assert_eq!(t.iter().collect::<Vec<_>>(), pairs);
        for k in -1..=167i64 {
            let want: Vec<u32> = pairs
                .iter()
                .filter(|(pk, _)| *pk == k)
                .map(|(_, r)| *r)
                .collect();
            assert_eq!(t.get(&k).collect::<Vec<_>>(), want, "key {k}");
        }
    }

    #[test]
    fn bulk_build_empty_and_single() {
        let t: BPlusTree<i64> = BPlusTree::bulk_build(4, &[]);
        assert!(t.is_empty());
        let t = BPlusTree::bulk_build(4, &[(9i64, 1)]);
        assert_eq!(t.get_first(&9), Some(1));
        assert_eq!(depth(&t), 1);
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = BPlusTree::bulk_build(64, &sorted_pairs((0..10_000).collect()));
        // 10k entries at order 64: leaves ~157, one or two internal levels.
        assert!(depth(&t) <= 3, "height {}", depth(&t));
        t.check_invariants().unwrap();
    }

    #[test]
    fn matches_sorted_reference() {
        let mut rng = SimRng::seed_from_u64(0xB72);
        for _ in 0..60 {
            let n = rng.uniform_u64(0, 400) as usize;
            let keys: Vec<i64> = (0..n).map(|_| rng.uniform_i64(-1000, 1000)).collect();
            let order = rng.uniform_u64(3, 16) as usize;
            let pairs = sorted_pairs(keys);
            let t = BPlusTree::bulk_build(order, &pairs);
            t.check_invariants().unwrap();
            assert_eq!(t.iter().collect::<Vec<_>>(), pairs);
        }
    }

    #[test]
    fn range_equals_filter() {
        let mut rng = SimRng::seed_from_u64(0xB73);
        for _ in 0..100 {
            let n = rng.uniform_u64(1, 300) as usize;
            let keys: Vec<i64> = (0..n).map(|_| rng.uniform_i64(0, 200)).collect();
            let lo = rng.uniform_i64(0, 200);
            let hi = lo + rng.uniform_i64(0, 100);
            let pairs = sorted_pairs(keys);
            let t = BPlusTree::bulk_build(6, &pairs);
            let got: Vec<(i64, u32)> = t.range(lo, hi).collect();
            let want: Vec<(i64, u32)> = pairs
                .iter()
                .filter(|(k, _)| (lo..=hi).contains(k))
                .copied()
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn range_bounds_need_no_outliving_borrow() {
        // Bounds computed in an inner scope hand ownership to the
        // iterator — the regression the by-value API exists for.
        let pairs: Vec<(i64, u32)> = (0..100).map(|i| (i, i as u32)).collect();
        let t = BPlusTree::bulk_build(8, &pairs);
        let iter = {
            let lo = 10i64 + 5;
            let hi = lo + 20;
            t.range(lo, hi)
        };
        assert_eq!(iter.count(), 21);
    }

    #[test]
    fn nodes_live_in_checksummed_pages() {
        let pairs: Vec<(i64, u32)> = (0..1000).map(|i| (i, i as u32)).collect();
        let t = BPlusTree::bulk_build(8, &pairs);
        // One page per node, each written once, all verifiable.
        let pages = t.store.page_count();
        assert!(pages > 100);
        t.verify_pages().unwrap();
        let io = t.io_stats();
        assert_eq!(io.page_writes as usize, pages);
        assert_eq!(io.page_reads as usize, pages);
    }

    #[test]
    fn torn_page_is_detected_and_never_served() {
        let pairs: Vec<(i64, u32)> = (0..5000).map(|i| (i, i as u32)).collect();
        let mut t = BPlusTree::bulk_build(16, &pairs);
        t.verify_pages().unwrap();
        let torn = t.tear_page(7).unwrap();
        let err = t.verify_pages().unwrap_err();
        assert!(
            matches!(err, FlowtuneError::Corrupt(_)),
            "torn page {torn} must surface as Corrupt, got {err:?}"
        );
    }

    #[test]
    fn probes_hit_the_node_memo() {
        let pairs: Vec<(i64, u32)> = (0..10_000).map(|i| (i, i as u32)).collect();
        let mut t = BPlusTree::bulk_build(64, &pairs);
        let before = t.io_stats();
        for k in (0..10_000i64).step_by(97) {
            assert!(t.get_first(&k).is_some());
        }
        let warm = t.io_stats();
        // The tree fits the memo, so probes after a bulk build are all
        // memo hits — zero store reads.
        assert!(warm.memo_hits > before.memo_hits);
        assert_eq!(warm.page_reads, before.page_reads);
        // With the memo dropped, each node on the path is read once.
        t.drop_cache();
        assert!(t.get_first(&0).is_some());
        let cold = t.io_stats();
        assert_eq!(cold.load_misses - warm.load_misses, depth(&t) as u64);
        assert_eq!(cold.page_reads - warm.page_reads, depth(&t) as u64);
    }

    #[test]
    fn check_invariants_returns_typed_errors() {
        let t: BPlusTree<i64> = BPlusTree::bulk_build(4, &[]);
        // A healthy tree verifies; the error type is FlowtuneError so
        // corruption composes with the workspace Result plumbing.
        let ok: Result<()> = t.check_invariants();
        ok.unwrap();
    }

    #[test]
    #[should_panic(expected = "order too large")]
    fn oversized_node_is_a_construction_error() {
        // 600 keys of 12 encoded bytes (8-byte key + 4-byte row id)
        // cannot fit one 4 KiB page.
        let pairs: Vec<(i64, u32)> = (0..600).map(|i| (i, i as u32)).collect();
        let _ = BPlusTree::bulk_build(600, &pairs);
    }
}
