//! # flowtune-query
//!
//! Physical query operators executed against real data, with and without
//! indexes. The paper grounds its index-speedup model in four measured
//! query classes on TPC-H `lineitem` (Table 6: order-by 7.44×, large
//! range 94×, small range 307×, lookup 627×); this crate runs those
//! query classes on the synthetic `lineitem` of `flowtune-storage` and the
//! bulk-built B+Trees of `flowtune-index`. It reads no clock: the
//! `flowtune-bench` harness times the calls.
//!
//! The operators cover Table 6's three categories:
//!
//! | Category     | No-index path              | Indexed path                  |
//! |--------------|----------------------------|-------------------------------|
//! | Lookup       | full scan                  | B+Tree probe                  |
//! | Range select | full scan with predicate   | B+Tree range scan             |
//! | Sorting      | comparison argsort         | B+Tree in-order traversal     |
//!
//! `composite` is the one access-path planner, for one-column and
//! composite keys alike (leftmost-prefix rule, covering detection);
//! `multi` executes multi-predicate queries with deterministic
//! touched-row accounting.

pub mod composite;
pub mod lookup;
pub mod multi;
pub mod sort;
pub mod table6;

pub use composite::{
    choose_composite, prefix_match, AccessPath, ColPredicate, CompositePlan, CompositeStats,
    IndexDef, Predicate, QuerySpec,
};
pub use multi::{
    build_composite, composite_select, scan_multi, ExecCounts, ExecResult, MultiTable,
};
pub use table6::{Table6Query, Table6Workload};
