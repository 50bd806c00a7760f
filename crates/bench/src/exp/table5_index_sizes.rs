//! Table 5: sizes of the four indexes on TPC-H `lineitem` (scale 2).
//!
//! Applies the paper's B+Tree size model (§3) to the synthetic
//! `lineitem` statistics: index record = average column value + 8-byte
//! row pointer, fan-out from an 8 KB block. Prints size in MB and the
//! percentage of the 1.4 GB table, next to the paper's measurements.

use flowtune_core::tablefmt::render_table;
use flowtune_index::IndexCostModel;
use flowtune_storage::lineitem::{self, SF2_ROWS};

use super::*;

/// Paper's Table 5 rows: (column, size MB, % of table).
const PAPER: [(&str, f64, f64); 4] = [
    ("comment", 422.30, 30.16),
    ("shipinstruct", 248.95, 17.78),
    ("commitdate", 225.91, 16.13),
    ("orderkey", 146.99, 10.49),
];

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let schema = lineitem::schema();
    let table_rec = schema.avg_row_bytes();
    let table_bytes = SF2_ROWS as f64 * table_rec;
    writeln!(
        out,
        "table: {} rows x {:.1} B/row = {:.2} GB (paper: 1.4 GB)\n",
        SF2_ROWS,
        table_rec,
        table_bytes / (1024.0f64).powi(3)
    )?;
    let mut rows = vec![vec![
        "column".to_string(),
        "size (MB)".to_string(),
        "% table".to_string(),
        "paper MB".to_string(),
        "paper %".to_string(),
    ]];
    // The model is analytic, so smoke just trims the table to one row.
    let columns: &[(&str, f64, f64)] = if smoke { &PAPER[..1] } else { &PAPER };
    for &(column, paper_mb, paper_pct) in columns {
        let key_bytes = schema
            .column(column)
            .ok_or_else(|| format!("missing column {column}"))?
            .ty
            .avg_value_bytes();
        let model = IndexCostModel::new(key_bytes + 8.0, table_rec);
        let size = model.size_bytes(SF2_ROWS) as f64;
        rows.push(vec![
            column.to_string(),
            format!("{:.2}", size / (1024.0 * 1024.0)),
            format!("{:.2} %", size / table_bytes * 100.0),
            format!("{paper_mb:.2}"),
            format!("{paper_pct:.2} %"),
        ]);
    }
    write!(out, "{}", render_table(&rows))?;
    Ok(())
}
