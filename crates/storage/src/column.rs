//! Columnar value storage.
//!
//! Partitions store their data column-wise; the query and index crates
//! iterate typed vectors directly, which is what makes the Table 6
//! speedup measurements meaningful (a scan really is a tight loop over a
//! `&[i64]`, a B+Tree lookup really does walk tree nodes).

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_values() {
        let c = ColumnData::I64(vec![5, 6, 7]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.as_i64().unwrap(), &[5, 6, 7]);
        assert!(c.as_str().is_none());
    }

    #[test]
    fn empty_column() {
        let c = ColumnData::Str(vec![]);
        assert!(c.is_empty());
        assert!(c.as_str().unwrap().is_empty());
    }
}
