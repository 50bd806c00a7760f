//! Table schemas and column statistics.
//!
//! The paper's index size model (§3, "Data Model") needs only one
//! statistic per column: the **average size of the fields of each column**
//! in bytes. [`ColumnType::avg_value_bytes`] provides it, with an override
//! available per column for measured statistics.

use std::fmt;

/// Logical column type.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnType {
    /// 32-bit integer (4 bytes on disk).
    Int32,
    /// 64-bit integer (8 bytes on disk).
    Int64,
    /// 64-bit float (8 bytes on disk).
    Float64,
    /// Calendar date stored in its textual `YYYY-MM-DD` form (10 bytes),
    /// as TPC-H flat files do.
    Date,
    /// Fixed-width character field; stores the declared width but the
    /// *average* occupied size may be smaller (e.g. `shipinstruct` is
    /// `char(25)` yet its four possible values average 12 bytes).
    Char {
        /// Declared width in bytes.
        width: u32,
        /// Average occupied bytes.
        avg: f64,
    },
    /// Variable-length text with a known average size.
    Text {
        /// Average size in bytes.
        avg: f64,
    },
}

impl ColumnType {
    /// Average on-disk size of one value of this type, in bytes.
    pub fn avg_value_bytes(&self) -> f64 {
        match self {
            ColumnType::Int32 => 4.0,
            ColumnType::Int64 => 8.0,
            ColumnType::Float64 => 8.0,
            ColumnType::Date => 10.0,
            ColumnType::Char { avg, .. } => *avg,
            ColumnType::Text { avg } => *avg,
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int32 => write!(f, "int32"),
            ColumnType::Int64 => write!(f, "int64"),
            ColumnType::Float64 => write!(f, "float64"),
            ColumnType::Date => write!(f, "date"),
            ColumnType::Char { width, .. } => write!(f, "char({width})"),
            ColumnType::Text { .. } => write!(f, "text"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type (carries the average-size statistic).
    pub ty: ColumnType,
}

impl Column {
    /// Construct a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns. Panics on duplicate column names.
    pub fn new(columns: Vec<Column>) -> Self {
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate column name {:?}", a.name);
            }
        }
        Schema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Average on-disk size of one full row, in bytes — the sum of the
    /// per-column averages (the paper's `RecSize` for the base table).
    pub fn avg_row_bytes(&self) -> f64 {
        self.columns.iter().map(|c| c.ty.avg_value_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("orderkey", ColumnType::Int32),
            Column::new("comment", ColumnType::Text { avg: 27.0 }),
            Column::new("commitdate", ColumnType::Date),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("comment"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.column("commitdate").unwrap().ty, ColumnType::Date);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn row_size_is_sum_of_column_sizes() {
        let s = sample();
        assert!((s.avg_row_bytes() - (4.0 + 27.0 + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn char_uses_average_not_width() {
        let ty = ColumnType::Char {
            width: 25,
            avg: 12.0,
        };
        assert!((ty.avg_value_bytes() - 12.0).abs() < 1e-12);
        assert_eq!(ty.to_string(), "char(25)");
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        let _ = Schema::new(vec![
            Column::new("a", ColumnType::Int32),
            Column::new("a", ColumnType::Int64),
        ]);
    }
}
