//! # flowtune-bench
//!
//! Experiment harness: one `exp_*` binary per table/figure of the
//! paper's evaluation (§6), plus the pinned perf baselines
//! `bench_sched` and `bench_interleave` built on the in-repo
//! [`compare`] harness (no registry dependencies — DESIGN §7). Run them
//! with `cargo run --release -p flowtune-bench --bin <name>`.
//!
//! Every binary prints the paper's reported values next to the measured
//! ones; `EXPERIMENTS.md` at the repository root records a full
//! comparison. Every `exp_*` binary takes `--smoke` for a CI-sized run
//! (the §6.5 workload experiments shrink their 720-quanta horizon to
//! 60).
//!
//! Every `exp_*` binary also honours `--trace-out <path>` / `--metrics-out
//! <path>` (see [`obs_guard`]): when either flag is present the run is
//! recorded through `flowtune-obs` and the trace (JSONL) / metrics
//! summary (JSON) are written on exit. The metrics summary is the
//! machine-readable seed for `BENCH_*.json`.

#![expect(
    clippy::disallowed_methods,
    reason = "measurement tooling: every binary reads its own command line"
)]

pub mod compare;
pub mod table6_composite;

/// Writes the observability outputs when dropped (end of `main`).
#[derive(Debug, Default)]
pub struct ObsGuard {
    trace: Option<String>,
    metrics: Option<String>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let Some(rec) = flowtune_obs::uninstall() else {
            return;
        };
        if let Some(path) = &self.trace {
            if let Err(e) = std::fs::write(path, rec.trace_jsonl()) {
                eprintln!("error: writing trace {path}: {e}");
            }
        }
        if let Some(path) = &self.metrics {
            if let Err(e) = std::fs::write(path, rec.metrics_json()) {
                eprintln!("error: writing metrics {path}: {e}");
            }
        }
    }
}

/// Parse `--trace-out` / `--metrics-out` from the command line and, when
/// either is present, install a `flowtune-obs` recorder for the rest of
/// the process. Call once at the top of an experiment's `main` and keep
/// the guard alive; files are written when it drops.
pub fn obs_guard() -> ObsGuard {
    let mut guard = ObsGuard::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => guard.trace = args.next(),
            "--metrics-out" => guard.metrics = args.next(),
            _ => {}
        }
    }
    if guard.trace.is_some() || guard.metrics.is_some() {
        flowtune_obs::install();
    }
    guard
}

/// Was `--smoke` passed? Every experiment honours it by shrinking its
/// horizon and sweep grids to a CI-sized run (bin-hygiene in
/// `flowtune-analyze` enforces that each `exp_*` binary wires this).
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// The simulated horizon (quanta) of the §6.5 workload experiments:
/// the paper's 720, or 60 under `--smoke`.
pub fn horizon_quanta() -> u64 {
    if smoke() {
        60
    } else {
        720
    }
}

/// Standard header each experiment prints.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("=== {experiment} ===");
    println!("reproduces: {paper_ref}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // The test harness never passes `--smoke`.
        assert_eq!(horizon_quanta(), 720);
    }
}
