//! # flowtune-interleave
//!
//! Index-build interleaving: packing build-index operators into the idle
//! slots of dataflow execution schedules without affecting the dataflow's
//! execution time or monetary cost (§5.3).
//!
//! Two algorithms, as in the paper:
//!
//! * **LP-based interleaving** ([`lp::LpInterleaver`], Algorithm 2) —
//!   schedule the dataflow first, enumerate the idle slots largest-first,
//!   and solve a 0/1 knapsack per slot (Algorithm 3: LP relaxation +
//!   branch and bound) to pick the build operators that maximise total
//!   gain.
//! * **Online interleaving** ([`online::OnlineInterleaver`], §5.3.2) —
//!   offer *optional* build operators along the skyline scheduler's
//!   steps, replayed over each finished plain schedule; the skyline
//!   search itself schedules dataflow operators only.
//!
//! Plus the evaluation baselines of §6.4: a Graham-style greedy packer
//! and the merged-slot knapsack upper bound.
//!
//! The knapsack search is accelerated by memoized Dantzig bounds and
//! dominance pruning (DESIGN §5i); the pre-optimization solver is
//! retained in `reference` (`cfg(test)` or the `reference` cargo
//! feature) and golden tests pin element-wise identical solutions. The
//! same suite pins the online interleaver against the in-search offers
//! of `flowtune_sched::reference`.

pub mod buildop;
pub mod deferred;
mod equivalence_tests;
pub mod knapsack;
pub mod lp;
pub mod online;
#[cfg(any(test, feature = "reference"))]
pub mod reference;

pub use buildop::{BuildOp, BUILD_OP_ID_BASE};
pub use deferred::{BatchBuild, DeferredBuildQueue};
pub use knapsack::{graham_greedy, merged_upper_bound, solve_knapsack, KnapsackSolution};
pub use lp::LpInterleaver;
pub use online::OnlineInterleaver;
