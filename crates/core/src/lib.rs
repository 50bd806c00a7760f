//! # flowtune-core
//!
//! The QaaS service (Fig. 1): data scientists issue dataflows
//! sequentially; the service tunes indexes online (Alg. 1), schedules
//! each dataflow (skyline or load-balance scheduler), interleaves
//! build-index operators into the schedule's idle slots (LP or online
//! interleaving), executes on the simulated cloud, and maintains the
//! evolving index set `I(t)` — creating indexes when they become
//! beneficial and deleting them when they stop being so.
//!
//! This crate is the public entry point of the workspace:
//!
//! ```
//! use flowtune_core::{IndexPolicy, ServiceConfig, QaasService};
//! use flowtune_dataflow::WorkloadKind;
//!
//! let mut config = ServiceConfig::default();
//! config.params.total_quanta = 40; // short demo horizon
//! config.workload = WorkloadKind::Random;
//! config.policy = IndexPolicy::Gain { delete: true };
//! let report = QaasService::new(config).run().expect("run failed");
//! assert!(report.dataflows_issued > 0);
//! ```

pub mod experiment;
pub mod lifecycle;
pub mod policy;
pub mod recovery;
pub mod report;
pub mod service;
pub mod tablefmt;

pub use lifecycle::{BuildImage, IndexLifecycle};
pub use policy::{IndexPolicy, InterleaverKind, SchedulerKind};
pub use recovery::{remnant_dag, RebuildThrottle, RecoveryConfig, RecoveryPolicyKind};
pub use report::{paired_objective, DataflowRecord, RunReport, TimelinePoint};
pub use service::{QaasService, ServiceConfig};
