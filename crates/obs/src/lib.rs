//! Deterministic observability: structured event log + metrics registry.
//!
//! This crate is the telemetry loop of the repro (ISSUE 4): a sim-time-
//! stamped JSONL trace and a metrics registry (counters, gauges,
//! distributions) that any layer can cheaply write into. Everything is
//! deterministic by construction — no wall clock, no hash-map
//! iteration, hand-rolled JSON with a stable field order — so that two
//! runs with identical seeds produce byte-identical `--trace-out` /
//! `--metrics-out` files, pinned by golden tests.
//!
//! # Usage
//!
//! The run owner installs a recorder, the layers emit, the owner takes
//! the recorder back and writes the files:
//!
//! ```
//! use flowtune_common::SimTime;
//!
//! flowtune_obs::install();
//! flowtune_obs::set_now(SimTime::from_secs(60));
//! flowtune_obs::obs_event!("sched.step", step = 1u64, width = 4usize);
//! flowtune_obs::count("sched.steps", 1);
//! flowtune_obs::observe("sched.width", 4.0);
//! if let Some(rec) = flowtune_obs::uninstall() {
//!     assert_eq!(rec.trace_jsonl().lines().count(), 1);
//! }
//! ```
//!
//! With no recorder installed every call is a cold branch on a
//! thread-local flag.

mod event;
mod metrics;
mod recorder;

pub use event::{Event, Value};
pub use metrics::{Distribution, MetricsRegistry};
pub use recorder::{
    count, emit, gauge, install, is_enabled, observe, set_now, uninstall, write_outputs, Recorder,
};
