//! Columnar value storage.
//!
//! Partitions store their data column-wise; the query and index crates
//! iterate typed vectors directly, which is what makes the Table 6
//! speedup measurements meaningful (a scan really is a tight loop over a
//! `&[i64]`, a B+Tree lookup really does walk tree nodes).

use crate::value::Value;

/// The values of one column of one partition.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Dates (days since epoch).
    Date(Vec<i32>),
    /// Text values.
    Str(Vec<String>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row` as a dynamically-typed [`Value`].
    ///
    /// Panics if `row` is out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::I32(v) => Value::I32(v[row]),
            ColumnData::I64(v) => Value::I64(v[row]),
            ColumnData::F64(v) => Value::F64(v[row]),
            ColumnData::Date(v) => Value::Date(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Typed access: 64-bit integer column, or `None` if another type.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed access: text column.
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Actual encoded byte size of the column contents.
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            ColumnData::I32(v) => 4 * v.len() as u64,
            ColumnData::I64(v) => 8 * v.len() as u64,
            ColumnData::F64(v) => 8 * v.len() as u64,
            ColumnData::Date(v) => 10 * v.len() as u64,
            ColumnData::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_values() {
        let c = ColumnData::I64(vec![5, 6, 7]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.value(1), Value::I64(6));
        assert_eq!(c.as_i64().unwrap(), &[5, 6, 7]);
        assert!(c.as_str().is_none());
    }

    #[test]
    fn encoded_sizes() {
        assert_eq!(ColumnData::I32(vec![1, 2]).encoded_bytes(), 8);
        assert_eq!(ColumnData::Date(vec![0; 3]).encoded_bytes(), 30);
        let s = ColumnData::Str(vec!["ab".into(), "cde".into()]);
        assert_eq!(s.encoded_bytes(), 5);
    }

    #[test]
    fn empty_column() {
        let c = ColumnData::Str(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.encoded_bytes(), 0);
    }
}
