//! Lookup and range-select operators.
//!
//! The no-index paths are O(n) full scans; the indexed paths are
//! O(log n) B+Tree probes — the complexities the paper cites for its
//! "Lookup" and "Range select" operator categories.

use flowtune_index::BPlusTree;

/// Full-scan equality lookup: all row ids where `col[row] == key`.
pub fn scan_eq(col: &[i64], key: i64) -> Vec<u32> {
    col.iter()
        .enumerate()
        .filter(|(_, v)| **v == key)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Full-scan range select: all row ids where `lo <= col[row] <= hi`.
pub fn scan_range(col: &[i64], lo: i64, hi: i64) -> Vec<u32> {
    col.iter()
        .enumerate()
        .filter(|(_, v)| (lo..=hi).contains(*v))
        .map(|(i, _)| i as u32)
        .collect()
}

/// B+Tree equality lookup.
pub fn btree_eq(index: &BPlusTree, key: i64) -> Vec<u32> {
    index.get(key).collect()
}

/// B+Tree range select: row ids with `lo <= key <= hi`, in key order.
pub fn btree_range(index: &BPlusTree, lo: i64, hi: i64) -> Vec<u32> {
    index.range(lo, hi).map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Vec<i64>, BPlusTree) {
        let col: Vec<i64> = vec![5, 3, 9, 3, 7, 1, 3, 9, 0, 4];
        let mut pairs: Vec<(i64, u32)> = col
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        pairs.sort_unstable();
        let bt = BPlusTree::bulk_build(4, &pairs);
        (col, bt)
    }

    #[test]
    fn all_lookup_paths_agree() {
        let (col, bt) = fixture();
        for key in -1..11 {
            let mut a = scan_eq(&col, key);
            let mut b = btree_eq(&bt, key);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "btree disagrees at {key}");
        }
    }

    #[test]
    fn range_paths_agree() {
        let (col, bt) = fixture();
        for lo in -1..11 {
            for hi in lo..11 {
                let mut a = scan_range(&col, lo, hi);
                let mut b = btree_range(&bt, lo, hi);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "range [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn empty_results() {
        let (col, bt) = fixture();
        assert!(scan_eq(&col, 42).is_empty());
        assert!(btree_eq(&bt, 42).is_empty());
        assert!(btree_range(&bt, 100, 200).is_empty());
    }

    #[test]
    fn btree_range_is_key_ordered() {
        let (col, bt) = fixture();
        let rows = btree_range(&bt, 0, 9);
        let keys: Vec<i64> = rows.iter().map(|&r| col[r as usize]).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rows.len(), col.len());
    }
}
