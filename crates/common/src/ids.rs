//! Strongly-typed identifiers.
//!
//! Every entity in the system (containers, operators, dataflows, tables,
//! files, partitions, indexes, build operators) gets its own id newtype so
//! the compiler rejects cross-entity mix-ups that plain `u32`s would allow.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw numeric value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a `usize` index (panics on overflow).
            #[inline]
            pub fn from_index(i: usize) -> Self {
                // flowtune-allow(panic-hygiene): documented contract: entity counts in the simulation fit in u32
                $name(u32::try_from(i).expect("id overflow"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// A compute container (VM) leased from the cloud provider.
    ContainerId,
    "c"
);
define_id!(
    /// A dataflow operator within a single dataflow DAG.
    OpId,
    "op"
);
define_id!(
    /// A dataflow instance issued to the QaaS service.
    DataflowId,
    "df"
);
define_id!(
    /// A table in the catalog.
    TableId,
    "t"
);
define_id!(
    /// A file in the file database the dataflows read.
    FileId,
    "f"
);
define_id!(
    /// An index (over one column of one table/file); consists of one index
    /// partition per table/file partition.
    IndexId,
    "idx"
);
define_id!(
    /// A build-index operator: builds one index partition.
    BuildOpId,
    "b"
);
define_id!(
    /// A fixed-size page in a page store (the unit of checksumming,
    /// caching, and torn-write detection).
    PageId,
    "p"
);

/// A partition of a table or file: `(file, part)` where `part` is the
/// ordinal of the partition within the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId {
    /// The file (or table) this partition belongs to.
    pub file: FileId,
    /// Ordinal of the partition within the file.
    pub part: u32,
}

impl PartitionId {
    /// Construct a partition id.
    pub const fn new(file: FileId, part: u32) -> Self {
        PartitionId { file, part }
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.file, self.part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_formats() {
        assert_eq!(ContainerId(3).to_string(), "c3");
        assert_eq!(OpId(0).to_string(), "op0");
        assert_eq!(PartitionId::new(FileId(7), 2).to_string(), "f7.2");
    }

    #[test]
    fn index_round_trip() {
        let id = DataflowId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, DataflowId(42));
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(IndexId(1));
        set.insert(IndexId(1));
        set.insert(IndexId(2));
        assert_eq!(set.len(), 2);
        assert!(PartitionId::new(FileId(1), 0) < PartitionId::new(FileId(1), 1));
        assert!(PartitionId::new(FileId(1), 9) < PartitionId::new(FileId(2), 0));
    }
}
