//! The paper's evaluation (§6) as a library: one module per table or
//! figure, plus the two pinned perf baselines, each exposing
//! `run(smoke, out)`, and the [`REGISTRY`] that names them. The `flowtune-exp` binary runs one entry by name, and
//! `tests/exp_goldens.rs` runs every [`Golden::Smoke`] entry in process
//! and diffs its report against `tests/golden/exp/<name>_smoke.txt`.
//!
//! Every experiment prints the paper's reported values next to the
//! measured ones; `EXPERIMENTS.md` records a full comparison. `smoke`
//! shrinks the horizon, grids or DAGs to a CI-sized run (the §6.5
//! workload experiments go from 720 quanta to 60). An `Err` is a broken
//! run or a failed check, such as the Table 6 speedup ordering.
//!
//! Each experiment module takes the harness vocabulary from here with
//! `use super::*`: `Write`, `Error`, and the private `horizon_quanta`,
//! `write_horizon` and `ensure` helpers.

use std::error::Error;
use std::io::Write;

/// An experiment's body: writes its report, minus the banner, to `out`.
pub type Run = fn(smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>>;

/// How an experiment's smoke report is pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// Deterministic: diffed against `tests/golden/exp/<name>_smoke.txt`.
    Smoke,
    /// Not pinned; the reason says what differs from run to run.
    WallTime(&'static str),
}

/// One table or figure of the evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// Command-line name, also the stem of its smoke golden.
    pub name: &'static str,
    /// Banner title: the table or figure it reproduces.
    pub title: &'static str,
    /// Banner subtitle: what the paper shows there.
    pub reproduces: &'static str,
    pub run: Run,
    pub golden: Golden,
}

impl Experiment {
    /// The banner, then the experiment's own report, flushed.
    pub fn report(&self, smoke: bool, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
        write!(
            out,
            "=== {} ===\nreproduces: {}\n\n",
            self.title, self.reproduces
        )?;
        (self.run)(smoke, out)?;
        Ok(out.flush()?)
    }
}

/// The simulated horizon (quanta) of the §6.5 workload experiments:
/// the paper's 720, or 60 under smoke.
fn horizon_quanta(smoke: bool) -> u64 {
    if smoke {
        60
    } else {
        720
    }
}

/// `Err(what)` unless `holds`: a check an experiment's finding rests on.
fn ensure(holds: bool, what: &str) -> Result<(), Box<dyn Error>> {
    holds.then_some(()).ok_or_else(|| what.into())
}

/// The horizon line (and blank line) the workload experiments open
/// with; `note` follows the quanta and the smoke tag.
fn write_horizon(out: &mut dyn Write, quanta: u64, smoke: bool, note: &str) -> std::io::Result<()> {
    let tag = if smoke { " (smoke)" } else { "" };
    writeln!(out, "horizon: {quanta} quanta{tag}{note}\n")
}

/// Declares each experiment module and its [`REGISTRY`] entry in one
/// place, so an entry's name is always its module's name.
macro_rules! registry {
    ($($name:ident: $title:literal, $reproduces:literal, $golden:expr;)+) => {
        $(pub mod $name;)+

        /// Every experiment, in the paper's order, then the extensions and
        /// the perf baselines.
        pub const REGISTRY: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            title: $title,
            reproduces: $reproduces,
            run: $name::run,
            golden: $golden,
        }),+];
    };
}

registry! {
    table4_dataflow_stats: "Table 4", "basic statistics of the scientific dataflows", Golden::Smoke;
    table5_index_sizes: "Table 5", "indexes on table lineitem (SF 2, ~12 M rows)", Golden::Smoke;
    table6_speedups: "Table 6", "index speedup (measured on real B+Tree)",
        Golden::WallTime("prints measured query times; checks only their ordering");
    fig3_gain_example: "Figure 3 / Table 2", "gain over time of indexes A and B (§4)", Golden::Smoke;
    fig4_ranking: "Figure 4", "index ordering based on α (§5.1)", Golden::Smoke;
    fig6_estimation_errors: "Figure 6", "offline scheduler robustness to estimation errors",
        Golden::Smoke;
    fig7_scheduler_comparison: "Figure 7", "online load-balance vs offline skyline scheduler",
        Golden::Smoke;
    fig8_interleaving: "Figure 8", "indexes scheduled for the Montage dataflow (§6.4)",
        Golden::Smoke;
    fig9_timeline: "Figure 9", "Montage timeline with build-index operators (green = '+')",
        Golden::Smoke;
    fig11_knapsack_quality: "Figures 10-11", "knapsack packing vs Graham baseline and upper bound",
        Golden::Smoke;
    fig12_phase_workload: "Figure 12 / Table 7",
        "phase workload: dataflows finished, cost per dataflow, killed ops", Golden::Smoke;
    fig13_adaptation: "Figure 13", "indexes built and storage cost over time (phase workload)",
        Golden::Smoke;
    fig14_random_workload: "Figure 14",
        "random workload: dataflows finished and cost per dataflow", Golden::Smoke;
    ablation_alpha: "Ablation: α sweep", "the Eq. 1 trade-off knob (paper fixes α = 0.5)",
        Golden::Smoke;
    ablation_adaptive_d: "Ablation: fading controller",
        "global D vs per-index adaptive learning (§7 future work)", Golden::Smoke;
    ablation_deferred: "Ablation: deferred batch builds",
        "slot-only interleaving vs gain-justified paid batches (§7)", Golden::Smoke;
    fault_matrix: "Fault matrix", "robustness extension: fault rate x recovery policy",
        Golden::Smoke;
    hetero_pool: "Exploration: heterogeneous pools",
        "skyline scheduling over mixed VM types (§7 future work)", Golden::Smoke;
    bench_sched: "bench_sched",
        "DESIGN 5f/5i: incremental skyline search vs retained reference",
        Golden::WallTime("a perf baseline: prints measured times and speedups");
    bench_interleave: "bench_interleave",
        "DESIGN 5i: run-cut, memoized-bound, dominance-pruning knapsack vs retained reference",
        Golden::WallTime("a perf baseline: prints measured times and speedups");
}
