//! # flowtune-bench
//!
//! Experiment harness: the paper's evaluation (§6) as a library of
//! experiments behind one [`exp::REGISTRY`], run by name through the
//! `flowtune-exp` binary, plus the pinned perf baselines `bench_sched`
//! and `bench_interleave` built on the in-repo [`compare`] harness (no
//! registry dependencies — DESIGN §7).
//!
//! `flowtune-exp <name> [--smoke] [--trace-out <path>] [--metrics-out
//! <path>]`: `--smoke` selects the CI-sized run, and either output flag
//! records the run through `flowtune-obs` and writes the trace (JSONL)
//! or metrics summary (JSON) when it ends. The metrics summary is the
//! machine-readable seed for `BENCH_*.json`.

pub mod compare;
pub mod exp;

/// The header every experiment and benchmark report starts with.
pub fn banner(title: &str, reproduces: &str) -> String {
    format!("=== {title} ===\nreproduces: {reproduces}\n\n")
}

/// This process's arguments after the program name: the input boundary
/// of the crate's three binaries, and the crate's one read of the
/// command line.
pub fn command_line() -> Vec<String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the command line is the bench binaries' input boundary"
    )]
    std::env::args().skip(1).collect()
}
