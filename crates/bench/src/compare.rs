//! The workspace's one bench harness: the optimized-vs-reference
//! comparison behind the pinned perf baselines (`bench_sched`,
//! `bench_interleave`), timed by the calibrated loop in `measure`
//! (no registry dependency — DESIGN §7).
//!
//! Both binaries time an optimized implementation against its retained
//! pre-optimization reference in the same process and serialize the
//! paired rows into a committed `BENCH_*.json` (schemas
//! `flowtune.bench_sched.v1` / `flowtune.bench_interleave.v1`,
//! documented field-by-field in `EXPERIMENTS.md`). The JSON layout is
//! deliberately identical across schemas so `tests/bench_baselines.rs`
//! can enforce speedup bars on either file with one parser.

#![expect(
    clippy::disallowed_types,
    reason = "the bench harness measures wall-clock time"
)]

use std::time::{Duration, Instant};

/// Summary statistics of one timed benchmark, per-iteration times in
/// nanoseconds; [`render_json`] serializes these into `BENCH_*.json`
/// (schema in `EXPERIMENTS.md`).
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark label (`<prefix>/<name>` or `reference/<name>`).
    pub name: String,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time.
    pub max_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
}

/// Time `f`. Warmup doubles as calibration: the iteration count per
/// sample grows 4× until one sample lasts at least 1 ms (capped at
/// 2^20), so timer quantisation is negligible. Then `samples` samples
/// are taken and the median, minimum and maximum per-iteration times
/// reported.
///
/// The sample count is clamped to at least 3: with 2 samples the
/// `len / 2` median index lands on the *maximum*, and with 1 the
/// median, minimum and maximum collapse into one observation. Three is
/// the smallest count where the median is a true middle order
/// statistic.
fn measure<F: FnMut()>(label: &str, samples: usize, mut f: F) -> BenchStats {
    let mut run = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    let mut iters = 1u64;
    while run(iters) < Duration::from_millis(1) && iters < 1 << 20 {
        iters *= 4;
    }
    let mut per_iter: Vec<f64> = (0..samples.max(3))
        .map(|_| run(iters).as_secs_f64() / iters as f64)
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    BenchStats {
        name: label.to_owned(),
        median_ns: per_iter[per_iter.len() / 2] * 1e9,
        min_ns: per_iter[0] * 1e9,
        max_ns: per_iter[per_iter.len() - 1] * 1e9,
        samples: per_iter.len(),
    }
}

/// One optimized-vs-reference pairing of [`BenchStats`] rows.
#[derive(Debug)]
pub struct Comparison {
    /// Scenario name (shared by both rows, minus the label prefix).
    pub name: String,
    /// Stats for the optimized implementation (`<prefix>/<name>`).
    pub optimized: BenchStats,
    /// Stats for the reference implementation (`reference/<name>`).
    pub reference: BenchStats,
}

impl Comparison {
    /// Median-over-median speedup of optimized vs reference.
    pub fn speedup(&self) -> f64 {
        self.reference.median_ns / self.optimized.median_ns
    }
}

/// Benchmark one scenario under both implementations; pushes the
/// paired comparison.
pub fn compare<F: FnMut(), G: FnMut()>(
    prefix: &str,
    name: &str,
    samples: usize,
    fast: F,
    slow: G,
    out: &mut Vec<Comparison>,
) {
    let c = Comparison {
        name: name.to_owned(),
        optimized: measure(&format!("{prefix}/{name}"), samples, fast),
        reference: measure(&format!("reference/{name}"), samples, slow),
    };
    println!(
        "{:<44} optimized {:>10.1} us   reference {:>10.1} us   speedup {:>5.2}x",
        c.name,
        c.optimized.median_ns / 1e3,
        c.reference.median_ns / 1e3,
        c.speedup()
    );
    out.push(c);
}

/// Benchmark an optimized-only scenario (the reference is infeasible at
/// this scale); pushes a standalone stats row.
pub fn measure_standalone<F: FnMut()>(
    prefix: &str,
    name: &str,
    samples: usize,
    fast: F,
    out: &mut Vec<BenchStats>,
) {
    let stats = measure(&format!("{prefix}/{name}"), samples, fast);
    println!(
        "{:<44} optimized {:>10.1} us   (no reference at this scale)",
        name,
        stats.median_ns / 1e3,
    );
    out.push(stats);
}

fn json_f64(v: f64) -> String {
    format!("{v:.1}")
}

fn stats_json(s: &BenchStats) -> String {
    format!(
        "    {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}",
        s.name,
        json_f64(s.median_ns),
        json_f64(s.min_ns),
        json_f64(s.max_ns),
        s.samples
    )
}

/// Render the `BENCH_*.json` document: schema and mode, any
/// schema-specific scalar fields (`extra`, emitted in order as raw
/// JSON values), all stats rows (paired rows first, then standalone
/// optimized-only rows), and the paired comparisons.
pub fn render_json(
    schema: &str,
    mode: &str,
    extra: &[(&str, String)],
    comparisons: &[Comparison],
    standalone: &[BenchStats],
) -> String {
    let mut benchmarks = Vec::new();
    let mut comps = Vec::new();
    for c in comparisons {
        benchmarks.push(stats_json(&c.optimized));
        benchmarks.push(stats_json(&c.reference));
        comps.push(format!(
            "    {{\"name\": \"{}\", \"optimized_median_ns\": {}, \"reference_median_ns\": {}, \"speedup\": {:.2}}}",
            c.name,
            json_f64(c.optimized.median_ns),
            json_f64(c.reference.median_ns),
            c.speedup()
        ));
    }
    for s in standalone {
        benchmarks.push(stats_json(s));
    }
    let extra_fields: String = extra
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v},\n"))
        .collect();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{mode}\",\n{extra_fields}  \"benchmarks\": [\n{}\n  ],\n  \"comparisons\": [\n{}\n  ]\n}}\n",
        benchmarks.join(",\n"),
        comps.join(",\n"),
    )
}

/// Parse `--smoke` / `--out <path>` from the argument list (program
/// name excluded); returns `(smoke, out_path)` with `default_out` when
/// `--out` is absent. A bare `--out` and any other argument are errors,
/// so a typo can neither run the wrong mode nor overwrite the committed
/// baseline in the working directory.
pub fn parse_bench_args(args: &[String], default_out: &str) -> Result<(bool, String), String> {
    let mut smoke = false;
    let mut out_path = default_out.to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) if !p.starts_with("--") => out_path = p.clone(),
                _ => return Err("--out needs a path".to_owned()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((smoke, out_path))
}

/// [`parse_bench_args`] over this process's arguments; on a bad
/// argument prints the error and a usage line for `bin`, then exits
/// with status 2 before any benchmark runs.
pub fn bench_args(bin: &str, default_out: &str) -> (bool, String) {
    parse_bench_args(&crate::command_line(), default_out).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: {bin} [--smoke] [--out <path>]");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn measure_clamps_sample_count_to_three() {
        // With 2 samples the median index (len / 2 == 1) would be the
        // maximum; the clamp keeps a true middle order statistic.
        for requested in [0usize, 1, 2] {
            let stats = measure("clamp", requested, || {
                black_box(1u64 + 1);
            });
            assert_eq!(stats.samples, 3, "requested {requested} samples");
            assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        }
        // Larger requests are untouched.
        let stats = measure("clamp", 5, || {
            black_box(1u64 + 1);
        });
        assert_eq!(stats.samples, 5);
    }

    #[test]
    fn parse_bench_args_accepts_the_two_flags() {
        assert_eq!(
            parse_bench_args(&args(&[]), "BENCH_x.json"),
            Ok((false, "BENCH_x.json".to_owned()))
        );
        assert_eq!(
            parse_bench_args(&args(&["--out", "/tmp/b.json", "--smoke"]), "BENCH_x.json"),
            Ok((true, "/tmp/b.json".to_owned()))
        );
    }

    #[test]
    fn parse_bench_args_rejects_a_bare_out() {
        // Falling back to the default path here would let a smoke run
        // overwrite the committed full-run baseline.
        for bad in [&["--smoke", "--out"][..], &["--out", "--smoke"]] {
            assert_eq!(
                parse_bench_args(&args(bad), "BENCH_x.json"),
                Err("--out needs a path".to_owned()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_bench_args_rejects_unknown_flags() {
        assert_eq!(
            parse_bench_args(&args(&["--smok"]), "BENCH_x.json"),
            Err("unknown argument `--smok`".to_owned())
        );
    }
}
