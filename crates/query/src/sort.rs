//! Sorting operators.
//!
//! No-index sorting is an `O(n log n)` comparison argsort; with a B+Tree
//! the rows come out of an in-order traversal in `O(n)` — the paper's
//! "Sorting" category.

use flowtune_index::BPlusTree;

/// Argsort: row ids ordered by `col` value (stable).
pub fn sort_scan(col: &[i64]) -> Vec<u32> {
    let mut rows: Vec<u32> = (0..col.len() as u32).collect();
    rows.sort_by_key(|&r| col[r as usize]);
    rows
}

/// Row ids in key order via B+Tree in-order traversal.
pub fn sort_index(index: &BPlusTree) -> Vec<u32> {
    index.iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Vec<i64>, BPlusTree) {
        let col: Vec<i64> = vec![50, 10, 40, 10, 30, 20];
        let mut pairs: Vec<(i64, u32)> = col
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        pairs.sort_unstable();
        (col.clone(), BPlusTree::bulk_build(4, &pairs))
    }

    #[test]
    fn both_paths_produce_key_order() {
        let (col, bt) = fixture();
        for rows in [sort_scan(&col), sort_index(&bt)] {
            assert_eq!(rows.len(), col.len());
            let keys: Vec<i64> = rows.iter().map(|&r| col[r as usize]).collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "not sorted: {keys:?}"
            );
        }
    }

    #[test]
    fn paths_agree_up_to_duplicate_ties() {
        let (col, bt) = fixture();
        let a: Vec<i64> = sort_scan(&col).iter().map(|&r| col[r as usize]).collect();
        let b: Vec<i64> = sort_index(&bt).iter().map(|&r| col[r as usize]).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        assert!(sort_scan(&[]).is_empty());
        let bt = BPlusTree::bulk_build(4, &[]);
        assert!(sort_index(&bt).is_empty());
    }
}
