//! # flowtune-storage
//!
//! Data substrate for the flowtune workspace: table schemas with their
//! column statistics, the synthetic TPC-H `lineitem` (the paper uses
//! `lineitem` at scale factor 2 to size indexes and measure speedups),
//! the cloud storage-service cost meter, and the container local-disk
//! LRU cache model.
//!
//! Table and partition metadata (row counts, byte sizes) lives in
//! `flowtune_dataflow::FileDatabase`, which is all the paper's cost
//! models need. The only values this crate generates are the
//! `lineitem.orderkey` column ([`lineitem::orderkeys`]), which the
//! Table 6 experiment indexes with a `flowtune-index` B+Tree to
//! *measure* real index speedups instead of assuming them; the B+Tree
//! runs on the checksummed page layer ([`page`]).

pub mod cache;
pub mod lineitem;
pub mod page;
pub mod schema;
pub mod store;

pub use cache::LruCache;
pub use page::{checksum64, MemPageStore, Page, PageCheck, PAGE_PAYLOAD, PAGE_SIZE};
pub use schema::{Column, ColumnType, Schema};
pub use store::{ObjectKey, StorageService};
