//! Table 4: basic statistics of the scientific dataflows.
//!
//! Generates a batch of Montage / LIGO / CyberShake dataflows and
//! reports operator-runtime and input-file statistics next to the
//! paper's published numbers.

use flowtune_common::{OnlineStats, SimRng};
use flowtune_core::tablefmt::render_table;
use flowtune_dataflow::{App, FileDatabase};

use super::*;

pub fn run(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut rng = SimRng::seed_from_u64(4);
    let filedb = FileDatabase::generate(&mut rng);

    let mut rows = vec![vec![
        "app".to_string(),
        "metric".to_string(),
        "#".to_string(),
        "min".to_string(),
        "max".to_string(),
        "mean".to_string(),
        "stdev".to_string(),
        "paper (min/max/mean/stdev)".to_string(),
    ]];
    // Runtime stats over 50 generated dataflows per app (8 under smoke).
    let samples = if smoke { 8 } else { 50 };
    for app in App::ALL {
        let mut time = OnlineStats::new();
        for i in 0..samples {
            let dag = app.generate(100, &[], &mut SimRng::seed_from_u64(1000 + i));
            for op in dag.ops() {
                time.push(op.runtime.as_secs_f64());
            }
        }
        let p = app.stats();
        rows.push(vec![
            app.name().to_string(),
            "time (sec)".to_string(),
            "100".to_string(),
            format!("{:.2}", time.min()),
            format!("{:.2}", time.max()),
            format!("{:.2}", time.mean()),
            format!("{:.2}", time.stdev()),
            format!("{} / {} / {} / {}", p.time.0, p.time.1, p.time.2, p.time.3),
        ]);
        // Input file sizes from the generated file database.
        let input = OnlineStats::from_iter(
            filedb
                .files_of(app)
                .map(|f| f.bytes as f64 / (1024.0 * 1024.0)),
        );
        rows.push(vec![
            app.name().to_string(),
            "input (MB)".to_string(),
            format!("{}", input.count()),
            format!("{:.2}", input.min()),
            format!("{:.2}", input.max()),
            format!("{:.2}", input.mean()),
            format!("{:.2}", input.stdev()),
            format!(
                "{} / {} / {} / {}",
                p.input_mb.0, p.input_mb.1, p.input_mb.2, p.input_mb.3
            ),
        ]);
    }
    writeln!(out, "{}", render_table(&rows))?;
    let total_gb = filedb.total_bytes() as f64 / (1024.0f64).powi(3);
    writeln!(
        out,
        "file database: {} files, {:.2} GB, {} partitions (paper: 125 files, 76.69 GB, 713 partitions)",
        filedb.files().len(),
        total_gb,
        filedb.total_partitions()
    )?;
    Ok(())
}
