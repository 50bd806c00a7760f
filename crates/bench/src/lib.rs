//! # flowtune-bench
//!
//! Experiment harness: the paper's evaluation (§6) and the pinned perf
//! baselines `bench_sched` and `bench_interleave` as a library of
//! experiments behind one [`exp::REGISTRY`], run by name through the
//! `flowtune-exp` binary. Every wall-clock measurement goes through the
//! in-repo [`compare`] harness (no registry dependencies — DESIGN §7).
//!
//! `flowtune-exp <name> [--smoke] [--trace-out <path>] [--metrics-out
//! <path>]`: `--smoke` selects the CI-sized run, and either output flag
//! records the run through `flowtune-obs` and writes the trace (JSONL)
//! or metrics summary (JSON) when it ends. The metrics summary is the
//! machine-readable seed for `BENCH_*.json`.

pub mod compare;
pub mod exp;

#[cfg(test)]
mod lookup;
#[cfg(test)]
mod sort;
