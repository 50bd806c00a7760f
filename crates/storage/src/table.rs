//! Partition data: the column values of one table partition.
//!
//! Table and partition *metadata* (row counts, byte sizes, partition
//! ids) live in `flowtune_dataflow::FileDatabase`; this module holds
//! the actual values that `flowtune-query` and `flowtune-index` use to
//! measure real index speedups.

use crate::column::ColumnData;

/// Actual column values of one partition (schema-aligned).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionData {
    columns: Vec<ColumnData>,
    rows: usize,
}

impl PartitionData {
    /// Build from columns; all columns must have equal length.
    pub fn new(columns: Vec<ColumnData>) -> Self {
        let rows = columns.first().map_or(0, ColumnData::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), rows, "column {i} length mismatch");
        }
        PartitionData { columns, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_data_checks_alignment() {
        let d = PartitionData::new(vec![
            ColumnData::I64(vec![1, 2]),
            ColumnData::Str(vec!["a".into(), "b".into()]),
        ]);
        assert_eq!(d.rows(), 2);
        assert_eq!(d.column(1).as_str().unwrap(), ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn misaligned_columns_rejected() {
        let _ = PartitionData::new(vec![
            ColumnData::I64(vec![1, 2]),
            ColumnData::Str(vec!["a".into()]),
        ]);
    }
}
