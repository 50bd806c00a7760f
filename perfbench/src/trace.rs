//! The traced run: per-layer wall times from the replay, exact work
//! counters from two untimed counting passes, and the fidelity and
//! agreement checks that make both trustworthy.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flowtune_core::{QaasService, RunReport, ServiceConfig};

use crate::replay::{fidelity_mismatches, Replay, Spans, Work};
use crate::stats::{median, tail_percentile};
use crate::Metric;

/// Service runs and replays timed against each other; the fastest of
/// each is kept, so a stray stall does not read as tracing overhead.
const PAIRS: usize = 2;

/// Everything the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The untraced service's report.
    pub report: RunReport,
    /// Fidelity mismatches between service and replay (empty = pass).
    pub mismatches: Vec<String>,
    /// Whether the two counting passes agreed exactly.
    pub counters_agree: bool,
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Raw counters of the first counting pass.
    pub counters: BTreeMap<&'static str, u64>,
    /// The percentile `core.round_ms.tail` reports.
    pub tail_p: f64,
}

/// Counters the per-layer metrics read from the obs registry.
const COUNTERS: [&str; 17] = [
    "cloud.killed_ops",
    "cloud.leased_quanta",
    "interleave.knapsack_nodes",
    "interleave.slots_filled",
    "interleave.slots_offered",
    "sched.candidates",
    "sched.partial_clone_bytes",
    "sched.partials_expanded",
    "sched.pruned",
    "service.partitions_invalidated",
    "storage.page_reads",
    "storage.page_writes",
    "storage.pool_evictions",
    "storage.pool_hits",
    "storage.verify_pages",
    "tuner.decisions",
    "tuner.gain_evals",
];

/// One run of the real service with the `flowtune_obs` recorder
/// installed; never timed. Returns the chosen counters and the whole
/// metrics document for the agreement check.
fn counting_pass(config: &ServiceConfig) -> Result<(BTreeMap<&'static str, u64>, String), String> {
    flowtune_obs::install();
    let run = QaasService::new(config.clone()).run();
    let recorder = flowtune_obs::uninstall().ok_or("obs recorder vanished")?;
    run.map_err(|e| format!("counting pass: {e}"))?;
    let reg = recorder.metrics();
    let counters = COUNTERS.iter().map(|&n| (n, reg.counter(n))).collect();
    Ok((counters, recorder.metrics_json()))
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the traced measurement for one workload seed.
pub fn traced_run(config: &ServiceConfig) -> Result<Traced, String> {
    let mut service_s = Vec::new();
    let mut best: Option<Spans> = None;
    let mut report = RunReport::default();
    let mut replayed = (RunReport::default(), Work::default());
    for _ in 0..PAIRS {
        let mut svc = QaasService::new(config.clone());
        let t = Instant::now();
        report = svc.run().map_err(|e| format!("service run: {e}"))?;
        service_s.push(t.elapsed());
        drop(svc);

        let mut spans = Spans::default();
        let mut replay = Replay::new(config.clone()).map_err(|e| e.to_string())?;
        replayed = replay
            .run(&mut spans)
            .map_err(|e| format!("replay run: {e}"))?;
        if best.as_ref().is_none_or(|b| spans.total < b.total) {
            best = Some(spans);
        }
    }
    let spans = best.unwrap_or_default();
    let (replay_report, work) = replayed;
    let mismatches = fidelity_mismatches(&report, &replay_report);

    let (counters, doc_a) = counting_pass(config)?;
    let (_, doc_b) = counting_pass(config)?;
    let c = |n: &str| counters.get(n).copied().unwrap_or(0);

    let untraced = service_s.iter().min().copied().unwrap_or_default();
    let rounds_ms: Vec<f64> = spans.rounds.iter().map(|d| ms(*d)).collect();
    let (tail_p, tail) = tail_percentile(&rounds_ms);
    let issued = report.dataflows_issued.max(1) as u64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("index.commit_ms", ms(spans.commit), "ms"),
        m("index.verify_ms", ms(spans.verify), "ms"),
        m("index.delete_ms", ms(spans.delete), "ms"),
        m(
            "index.pages_written",
            c("storage.page_writes") as f64,
            "count",
        ),
        m(
            "index.pages_verified",
            c("storage.verify_pages") as f64,
            "count",
        ),
        m("index.bad_pages", report.bad_pages_detected as f64, "count"),
        m(
            "index.invalidations",
            c("service.partitions_invalidated") as f64,
            "count",
        ),
        m("index.live_pages", work.live_pages as f64, "count"),
        m(
            "storage.pool_hit_share",
            share(c("storage.pool_hits"), c("storage.page_reads")),
            "share",
        ),
        m(
            "storage.pool_evictions",
            c("storage.pool_evictions") as f64,
            "count",
        ),
        m("storage.meter_ms", ms(spans.meter), "ms"),
        m("tuner.decide_ms", ms(spans.decide), "ms"),
        m("tuner.gains_ms", ms(spans.gains), "ms"),
        m("tuner.history_ms", ms(spans.history), "ms"),
        m("tuner.gain_evals", c("tuner.gain_evals") as f64, "count"),
        m("tuner.decisions", c("tuner.decisions") as f64, "count"),
        m(
            "tuner.beneficial_share",
            share(work.beneficial, c("tuner.gain_evals")),
            "share",
        ),
        m("sched.skyline_ms", ms(spans.skyline), "ms"),
        m("sched.remnant_ms", ms(spans.remnant), "ms"),
        m("sched.candidates", c("sched.candidates") as f64, "count"),
        m("sched.pruned", c("sched.pruned") as f64, "count"),
        m(
            "sched.partials_expanded",
            c("sched.partials_expanded") as f64,
            "count",
        ),
        m(
            "sched.partial_clone_bytes",
            c("sched.partial_clone_bytes") as f64,
            "bytes",
        ),
        m(
            "sched.expanded_share",
            share(c("sched.partials_expanded"), c("sched.candidates")),
            "share",
        ),
        m("interleave.lp_ms", ms(spans.lp), "ms"),
        m("interleave.online_ms", ms(spans.online), "ms"),
        m(
            "interleave.knapsack_nodes",
            c("interleave.knapsack_nodes") as f64,
            "count",
        ),
        m(
            "interleave.fill_share",
            share(c("interleave.slots_filled"), c("interleave.slots_offered")),
            "share",
        ),
        m(
            "interleave.placed_share",
            share(work.builds_placed, work.builds_offered),
            "share",
        ),
        m("cloud.execute_ms", ms(spans.execute), "ms"),
        m(
            "cloud.leased_quanta",
            c("cloud.leased_quanta") as f64,
            "quanta",
        ),
        m("cloud.killed_ops", c("cloud.killed_ops") as f64, "count"),
        m("cloud.retry_attempts", report.retries as f64, "count"),
        m("dataflow.make_ms", ms(spans.make), "ms"),
        m("dataflow.ops", work.ops as f64, "count"),
        m("core.round_ms.p50", median(&rounds_ms), "ms"),
        m("core.round_ms.tail", tail, "ms"),
        m("core.glue_ms", ms(spans.glue), "ms"),
        m(
            "trace.overhead_share",
            spans.total.as_secs_f64() / untraced.as_secs_f64().max(1e-9) - 1.0,
            "share",
        ),
        m(
            "failed_share",
            share(report.dataflows_failed as u64, issued),
            "share",
        ),
    ];
    Ok(Traced {
        report,
        mismatches,
        counters_agree: doc_a == doc_b,
        metrics,
        counters,
        tail_p,
    })
}
