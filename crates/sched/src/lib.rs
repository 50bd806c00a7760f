//! # flowtune-sched
//!
//! Dataflow scheduling: the schedule model (assignments of operators to
//! containers with quantum-granular billing), idle-slot/fragmentation
//! analysis, the **skyline (Pareto) dataflow scheduler** of §5.3.1
//! (Algorithm 4, after Chronis et al.) and the **online load-balance**
//! baseline scheduler the paper compares against in §6.3.
//!
//! A schedule's two objectives are its **execution time** (first
//! operator start to last operator finish) and **monetary cost** (whole
//! leased quanta across containers). The skyline scheduler maintains the
//! set of non-dominated partial schedules as it assigns operators in
//! dependency order; ties on both objectives are broken towards the
//! schedule with the *most sequential idle time*, because long idle
//! slots are where index builds go.
//!
//! The skyline search keeps its objectives (`money` and the idle
//! tie-break) as incrementally maintained caches and expands
//! candidates as cheap deltas, materializing full partial
//! schedules only for reduction survivors (DESIGN §5f). The
//! pre-optimization implementation is retained in `reference`
//! (`cfg(test)` or the `reference` cargo feature) and golden tests pin
//! the two byte-identical.

#[cfg(test)]
mod equivalence_tests;
pub mod hetero;
pub mod online_lb;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod schedule;
pub mod skyline;
pub mod slots;

pub use hetero::{HeteroSchedule, HeterogeneousScheduler, VmType};
pub use online_lb::OnlineLoadBalanceScheduler;
pub use schedule::{Assignment, BuildRef, Schedule};
pub use skyline::{OptionalOp, SchedulerConfig, SkylineScheduler};
pub use slots::{idle_slots, total_fragmentation, IdleSlot};
