//! # flowtune-storage
//!
//! Data substrate for the flowtune workspace: table schemas, columnar
//! partition data, a synthetic TPC-H `lineitem` generator (the paper uses
//! `lineitem` at scale factor 2 to size indexes and measure speedups), the
//! cloud storage-service cost meter, and the container local-disk LRU
//! cache model.
//!
//! Table and partition metadata (row counts, byte sizes) lives in
//! `flowtune_dataflow::FileDatabase`, which is all the paper's cost
//! models need. This crate holds the actual values
//! ([`column::ColumnData`], [`table::PartitionData`]), used by
//! `flowtune-query` and `flowtune-index` to *measure* real index
//! speedups (Table 6) instead of assuming them, and the checksummed
//! page layer ([`page`], [`pool`]) the B+Tree and the page-image store
//! run on.

pub mod cache;
pub mod column;
pub mod lineitem;
pub mod page;
pub mod pool;
pub mod schema;
pub mod store;
pub mod table;
pub mod value;

pub use cache::LruCache;
pub use column::ColumnData;
pub use lineitem::{LineitemGenerator, LineitemParams};
pub use page::{checksum64, MemPageStore, Page, PageCheck, PAGE_PAYLOAD, PAGE_SIZE};
pub use pool::{BufferPool, PoolStats};
pub use schema::{Column, ColumnType, Schema};
pub use store::{ObjectKey, StorageService};
pub use table::PartitionData;
pub use value::Value;
