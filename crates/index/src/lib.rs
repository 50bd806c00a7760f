//! # flowtune-index
//!
//! Index substrate: a from-scratch, bulk-built B+Tree over `i64` keys
//! (used by `flowtune-query` to *measure* the speedups of Table 6), the
//! paper's analytic index size/build-time model (§3, "Data Model"), the
//! index catalog that tracks which single-column index partitions exist
//! and when they were built, and the ledger of committed partition
//! images.
//!
//! Indexes are **partitioned**: an index over a table consists of one
//! index partition per table partition, each built by an independent
//! build operator. This is what lets builds fit in idle schedule slots
//! and proceed incrementally and in parallel.

pub mod bptree;
pub mod catalog;
pub mod measured;
pub mod model;
pub mod store;

pub use bptree::BPlusTree;
pub use catalog::{IndexCatalog, IndexSpec, IndexState};
pub use measured::measure_io;
pub use model::{IndexCostModel, MeasuredIo};
pub use store::{IndexPageStore, PartitionVerdict};
