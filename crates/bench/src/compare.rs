//! The workspace's one bench harness: every wall-clock measurement
//! goes through the calibrated loop in [`measure`] (no registry
//! dependency — DESIGN §7).
//!
//! Its callers are the registry experiments that time real work: the
//! pinned perf baselines `bench_sched` and `bench_interleave`, which
//! time an optimized implementation against its retained
//! pre-optimization reference in the same process and serialize the
//! paired rows into a committed `BENCH_*.json` (schemas
//! `flowtune.bench_sched.v1` / `flowtune.bench_interleave.v1`,
//! documented field-by-field in `EXPERIMENTS.md`), and the Table 6
//! query timings. The JSON layout is deliberately identical across
//! schemas so `tests/bench_baselines.rs` can enforce speedup bars on
//! either file with one parser.

#![expect(
    clippy::disallowed_types,
    reason = "the bench harness measures wall-clock time"
)]

use std::hint::black_box;
use std::io::Write;
use std::time::Duration;
use std::time::Instant;

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

/// Time `f`, whose result passes through [`black_box`] so the work
/// cannot be optimised away. Warmup doubles as calibration: the
/// iteration count per sample grows 4× until one sample lasts at least
/// 1 ms (capped at 2^20), so timer quantisation is negligible. Then
/// `samples` samples are taken and the median, minimum and maximum
/// per-iteration times reported.
///
/// The sample count is clamped to at least 3: with 2 samples the
/// `len / 2` median index lands on the *maximum*, and with 1 the
/// median, minimum and maximum collapse into one observation. Three is
/// the smallest count where the median is a true middle order
/// statistic.
pub fn measure<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) -> BenchStats {
    let mut run = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
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

/// Benchmark one scenario under both implementations and write its
/// row to `out`.
pub fn compare<R, S>(
    prefix: &str,
    name: &str,
    samples: usize,
    fast: impl FnMut() -> R,
    slow: impl FnMut() -> S,
    out: &mut dyn Write,
) -> std::io::Result<Comparison> {
    let c = Comparison {
        name: name.to_owned(),
        optimized: measure(&format!("{prefix}/{name}"), samples, fast),
        reference: measure(&format!("reference/{name}"), samples, slow),
    };
    writeln!(
        out,
        "{:<44} optimized {:>10.1} us   reference {:>10.1} us   speedup {:>5.2}x",
        c.name,
        c.optimized.median_ns / 1e3,
        c.reference.median_ns / 1e3,
        c.speedup()
    )?;
    Ok(c)
}

/// Benchmark an optimized-only scenario (the reference is infeasible at
/// this scale) and write its row to `out`.
pub fn measure_standalone<R>(
    prefix: &str,
    name: &str,
    samples: usize,
    fast: impl FnMut() -> R,
    out: &mut dyn Write,
) -> std::io::Result<BenchStats> {
    let stats = measure(&format!("{prefix}/{name}"), samples, fast);
    writeln!(
        out,
        "{:<44} optimized {:>10.1} us   (no reference at this scale)",
        name,
        stats.median_ns / 1e3,
    )?;
    Ok(stats)
}

/// A time in nanoseconds with four significant digits, in the largest
/// unit (s, ms, us, ns) that keeps the number at or above 1: no measured
/// time prints as zero, and a ratio of two printed times stays within
/// 0.1% of the ratio of the measurements.
pub fn format_ns(ns: f64) -> String {
    let (value, unit) = [(1e9, "s"), (1e6, "ms"), (1e3, "us")]
        .into_iter()
        .find(|(scale, _)| ns >= *scale)
        .map_or((ns, "ns"), |(scale, unit)| (ns / scale, unit));
    let decimals = match value {
        v if v >= 100.0 => 1,
        v if v >= 10.0 => 2,
        _ => 3,
    };
    format!("{value:.decimals$} {unit}")
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

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_analyze::json::{parse, Json};

    #[test]
    fn measure_clamps_sample_count_to_three() {
        // With 2 samples the median index (len / 2 == 1) would be the
        // maximum; the clamp keeps a true middle order statistic.
        for requested in [0usize, 1, 2] {
            let stats = measure("clamp", requested, || 1u64 + 1);
            assert_eq!(stats.samples, 3, "requested {requested} samples");
            assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        }
        // Larger requests are untouched.
        let stats = measure("clamp", 5, || 1u64 + 1);
        assert_eq!(stats.samples, 5);
    }

    #[test]
    fn format_ns_keeps_four_significant_digits() {
        let printed = [
            (280.0, "280.0 ns"),
            (1_200.0, "1.200 us"),
            (7.3e6, "7.300 ms"),
        ];
        for (ns, want) in printed {
            assert_eq!(format_ns(ns), want);
        }
        // Read a printed time back in nanoseconds.
        let back = |s: &str| {
            let (v, unit) = s.split_once(' ').unwrap();
            let scale = match unit {
                "s" => 1e9,
                "ms" => 1e6,
                "us" => 1e3,
                _ => 1.0,
            };
            v.parse::<f64>().unwrap() * scale
        };
        // A speedup recomputed from two printed times lands within 1%.
        for (slow, fast) in [(7.3e6, 280.0), (7.3e6, 1_200.0), (123_456.7, 1.0049)] {
            let printed = back(&format_ns(slow)) / back(&format_ns(fast));
            let exact = slow / fast;
            assert!((printed / exact - 1.0).abs() < 0.01, "{slow} / {fast}");
        }
    }

    fn stats(name: &str, median_ns: f64) -> BenchStats {
        BenchStats {
            name: name.to_owned(),
            median_ns,
            min_ns: median_ns,
            max_ns: median_ns,
            samples: 3,
        }
    }

    #[test]
    fn render_json_parses_and_carries_every_field_the_baseline_bars_read() {
        let comparison = Comparison {
            name: "schedule/Montage".to_owned(),
            optimized: stats("sched/schedule/Montage", 10.0),
            reference: stats("reference/schedule/Montage", 45.0),
        };
        let solo = stats("sched/scale/montage/5000", 7.0);
        let text = render_json(
            "flowtune.bench_x.v1",
            "full",
            &[("dag_ops", "100".to_owned())],
            &[comparison],
            &[solo],
        );
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("flowtune.bench_x.v1")
        );
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("full"));
        assert_eq!(doc.get("dag_ops").and_then(Json::as_int), Some(100));
        let names: Vec<_> = doc
            .get("benchmarks")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|b| b.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "sched/schedule/Montage",
                "reference/schedule/Montage",
                "sched/scale/montage/5000"
            ]
        );
        let comps = doc.get("comparisons").and_then(Json::as_arr).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(
            comps[0].get("name").and_then(Json::as_str),
            Some("schedule/Montage")
        );
        assert_eq!(comps[0].get("speedup"), Some(&Json::Float(4.5)));
    }
}
