//! Tests of Table 6's lookup and range-select paths: the full scans of
//! `Table6Workload::no_index` against the B+Tree probes of
//! `Table6Workload::with_index`, on a 10-row duplicate-heavy column.

mod tests {
    use crate::exp::table6_speedups::{Table6Query, Table6Workload};

    /// Duplicate-heavy and unsorted, with keys 2, 6 and 8 missing; a
    /// 4-way tree over 10 rows has several leaves.
    fn fixture() -> Table6Workload {
        Table6Workload::from_column(vec![5, 3, 9, 3, 7, 1, 3, 9, 0, 4], 4)
    }

    fn keys(w: &Table6Workload, rows: &[u32]) -> Vec<i64> {
        rows.iter().map(|&r| w.orderkey[r as usize]).collect()
    }

    /// Both paths of `q` return the rows holding exactly the keys `want`
    /// accepts: the scan in row order, the tree in key order.
    fn check(w: &Table6Workload, q: Table6Query, want: impl Fn(i64) -> bool, case: &str) {
        let expected: Vec<u32> = (0..w.orderkey.len() as u32)
            .filter(|&r| want(w.orderkey[r as usize]))
            .collect();
        assert_eq!(w.no_index(q), expected, "scan, {case}");
        let mut probe = w.with_index(q);
        assert!(keys(w, &probe).is_sorted(), "index key order, {case}");
        probe.sort_unstable();
        assert_eq!(probe, expected, "index, {case}");
    }

    #[test]
    fn all_lookup_paths_agree() {
        let mut w = fixture();
        for key in -1..11 {
            w.probe = key;
            check(&w, Table6Query::Lookup, |v| v == key, &format!("key {key}"));
        }
    }

    #[test]
    fn range_paths_agree() {
        let mut w = fixture();
        for lo in -1..11 {
            for hi in lo..11 {
                (w.large, w.small) = ((lo, hi), (lo, hi));
                for q in [Table6Query::LargeRange, Table6Query::SmallRange] {
                    check(&w, q, |v| (lo..=hi).contains(&v), &format!("[{lo}, {hi}]"));
                }
            }
        }
    }

    #[test]
    fn empty_results() {
        let mut w = fixture();
        (w.probe, w.large, w.small) = (42, (100, 200), (100, 200));
        let empty = Table6Workload::from_column(Vec::new(), 4);
        // Every class but order-by.
        for q in Table6Query::ALL[1..].iter().copied() {
            for w in [&w, &empty] {
                assert!(w.no_index(q).is_empty(), "scan, {}", q.name());
                assert!(w.with_index(q).is_empty(), "index, {}", q.name());
            }
        }
    }

    #[test]
    fn btree_range_is_key_ordered() {
        let mut w = fixture();
        w.large = (0, 9);
        let rows = w.with_index(Table6Query::LargeRange);
        assert!(keys(&w, &rows).is_sorted());
        assert_eq!(rows.len(), w.orderkey.len());
    }
}
