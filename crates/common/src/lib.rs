//! # flowtune-common
//!
//! Foundational types shared by every crate in the flowtune workspace:
//! simulation time, money, identifiers, pricing formulas, deterministic
//! random number generation, descriptive statistics and configuration.
//!
//! The workspace reproduces *"Automated Management of Indexes for Dataflow
//! Processing Engines in IaaS Clouds"* (EDBT 2020). All quantities follow the
//! paper's units: time is ultimately reported in *quanta* (the VM billing
//! granularity, 60 s by default) and money in dollars, but internally time is
//! kept as integer milliseconds and money as integer micro-dollars so that
//! simulations are exactly reproducible across runs and platforms.

pub mod config;
pub mod error;
pub mod histogram;
pub mod ids;
pub mod money;
pub mod pricing;
pub mod rng;
pub mod stats;
pub mod time;

pub use config::{CloudConfig, ExperimentParams, TunerConfig};
pub use error::{FlowtuneError, Result};
pub use histogram::Histogram;
pub use ids::{BuildOpId, ContainerId, DataflowId, FileId, IndexId, OpId, PageId, PartitionId};
pub use money::Money;
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use time::{Quanta, SimDuration, SimTime};
