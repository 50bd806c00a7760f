//! Dataflow operators.
//!
//! The paper's operator is `op(cpu, memory, disk, time)` (§3), but the
//! scheduler, the interleaver and the simulator read only its `time`: an
//! operator holds one whole container for its runtime. So an [`OpSpec`]
//! keeps the estimated runtime and no resource demands.
//! Operators that read base-table partitions list them in `reads`; these
//! are the operators an index can accelerate.

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
    /// Estimated runtime on one container.
    pub runtime: SimDuration,
    /// Base-table partitions this operator reads (empty for operators
    /// consuming only intermediate data).
    pub reads: Vec<PartitionId>,
}

impl OpSpec {
    /// An operator that reads no base-table partition.
    pub fn new(id: OpId, name: impl Into<Cow<'static, str>>, runtime: SimDuration) -> Self {
        OpSpec {
            id,
            name: name.into(),
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
        assert_eq!(op.runtime, SimDuration::from_secs(11));
        assert!(op.reads.is_empty());
    }
}
