//! Tests of Table 6's order-by paths: the stable argsort of
//! `Table6Workload::no_index` against the B+Tree in-order traversal of
//! `Table6Workload::with_index`.

mod tests {
    use crate::exp::table6_speedups::{Table6Query::OrderBy, Table6Workload};

    fn fixture() -> Table6Workload {
        Table6Workload::from_column(vec![50, 10, 40, 10, 30, 20], 4)
    }

    fn keys(w: &Table6Workload, rows: &[u32]) -> Vec<i64> {
        rows.iter().map(|&r| w.orderkey[r as usize]).collect()
    }

    #[test]
    fn both_paths_produce_key_order() {
        let w = fixture();
        for rows in [w.no_index(OrderBy), w.with_index(OrderBy)] {
            assert_eq!(rows.len(), w.orderkey.len());
            assert!(keys(&w, &rows).is_sorted(), "not sorted: {rows:?}");
        }
    }

    #[test]
    fn paths_agree_up_to_duplicate_ties() {
        let w = fixture();
        let by_scan = keys(&w, &w.no_index(OrderBy));
        assert_eq!(by_scan, [10, 10, 20, 30, 40, 50]);
        assert_eq!(keys(&w, &w.with_index(OrderBy)), by_scan);
    }

    #[test]
    fn empty_input() {
        let w = Table6Workload::from_column(Vec::new(), 4);
        assert!(w.no_index(OrderBy).is_empty());
        assert!(w.with_index(OrderBy).is_empty());
    }
}
