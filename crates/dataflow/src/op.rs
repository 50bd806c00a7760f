//! Dataflow operators.
//!
//! An operator is `op(cpu, memory, disk, time)` (§3): resource demands
//! plus an estimated runtime. Operators that read base-table partitions
//! list them in `reads`; these are the operators an index can
//! accelerate.

use std::borrow::Cow;

use flowtune_common::{OpId, PartitionId, SimDuration};

/// One dataflow operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpec {
    /// Identity within the dataflow.
    pub id: OpId,
    /// Stage name (e.g. `mProject`, `Inspiral`). The generators pass
    /// static stage names, which borrow instead of allocating per op.
    pub name: Cow<'static, str>,
    /// CPU demand as a fraction of one container CPU, in `(0, 1]`.
    pub cpu: f64,
    /// Memory demand as a fraction of container memory, in `(0, 1]`.
    pub memory: f64,
    /// Scratch disk demand in bytes.
    pub disk_bytes: u64,
    /// Estimated runtime on one container.
    pub runtime: SimDuration,
    /// Base-table partitions this operator reads (empty for operators
    /// consuming only intermediate data).
    pub reads: Vec<PartitionId>,
}

impl OpSpec {
    /// Convenience constructor with unit CPU, modest memory, no reads.
    pub fn new(id: OpId, name: impl Into<Cow<'static, str>>, runtime: SimDuration) -> Self {
        OpSpec {
            id,
            name: name.into(),
            cpu: 1.0,
            memory: 0.25,
            disk_bytes: 0,
            runtime,
            reads: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let op = OpSpec::new(OpId(3), "mProject", SimDuration::from_secs(11));
        assert_eq!(op.id, OpId(3));
        assert_eq!(op.cpu, 1.0);
        assert!(op.reads.is_empty());
    }
}
