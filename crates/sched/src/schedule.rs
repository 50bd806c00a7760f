//! The schedule model.
//!
//! An execution schedule `Sd` is a set of assignments of operators to
//! containers (§3, "Dataflow and Index Management"). Assignments carry
//! estimated start/end times; the simulator later replays them against
//! (possibly perturbed) actual runtimes. Optional assignments are
//! build-index operators interleaved into idle slots — they must never
//! change the schedule's execution time or monetary cost.

use flowtune_common::{ContainerId, FlowtuneError, Money, OpId, Result, SimDuration, SimTime};
use flowtune_dataflow::Dag;

/// Identifies the index partition a build operator constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BuildRef {
    /// The index being built.
    pub index: flowtune_common::IndexId,
    /// The table-partition ordinal the index partition covers.
    pub part: u32,
}

/// End of the lease billed for a container's dataflow span `[s, e]`:
/// the quantum boundary at or after `e`, and at least one quantum past
/// the boundary at or before `s`.
pub fn lease_end(s: SimTime, e: SimTime, quantum: SimDuration) -> SimTime {
    e.quantum_ceil(quantum)
        .max(s.quantum_floor(quantum) + quantum)
}

/// One operator-to-container assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The dataflow operator (for optional assignments, a synthetic id
    /// unique among build ops of this schedule).
    pub op: OpId,
    /// Target container.
    pub container: ContainerId,
    /// Estimated start time.
    pub start: SimTime,
    /// Estimated end time.
    pub end: SimTime,
    /// `Some` when this is an optional build-index operator.
    pub build: Option<BuildRef>,
}

impl Assignment {
    /// True for interleaved build-index operators.
    pub fn is_optional(&self) -> bool {
        self.build.is_some()
    }

    /// Estimated duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A complete execution schedule.
///
/// Equality is exact over the assignment list — op ids, containers,
/// times, build refs, *and order* — which is what the scheduler
/// equivalence suite (DESIGN §5f) means by "byte-identical" schedules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    assignments: Vec<Assignment>,
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Build from assignments.
    pub fn from_assignments(assignments: Vec<Assignment>) -> Self {
        Schedule { assignments }
    }

    /// All assignments (dataflow and build operators).
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Dataflow (non-optional) assignments only.
    pub fn dataflow_assignments(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.iter().filter(|a| !a.is_optional())
    }

    /// Build (optional) assignments only.
    pub fn build_assignments(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.iter().filter(|a| a.is_optional())
    }

    /// Append an assignment (no constraint checking; see
    /// [`Schedule::try_insert_build`] for the checked optional-op path).
    pub fn push(&mut self, a: Assignment) {
        self.assignments.push(a);
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no operator is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Containers used by dataflow operators, ascending.
    pub fn containers(&self) -> Vec<ContainerId> {
        let mut cs: Vec<ContainerId> = self.dataflow_assignments().map(|a| a.container).collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    }

    /// Assignments on one container, sorted by start time.
    pub fn on_container(&self, c: ContainerId) -> Vec<Assignment> {
        let mut v: Vec<Assignment> = self
            .assignments
            .iter()
            .filter(|a| a.container == c)
            .copied()
            .collect();
        v.sort_by_key(|a| (a.start, a.end));
        v
    }

    /// Execution time `td`: from the first dataflow operator's start to
    /// the last dataflow operator's finish. Optional build operators do
    /// not count — they only occupy already-leased idle time.
    pub fn makespan(&self) -> SimDuration {
        let (mut first, mut last) = (SimTime::MAX, SimTime::ZERO);
        for a in self.dataflow_assignments() {
            first = first.min(a.start);
            last = last.max(a.end);
        }
        if first == SimTime::MAX {
            SimDuration::ZERO
        } else {
            last - first
        }
    }

    /// The quanta leased for one container: from the quantum containing
    /// its first dataflow operator to the quantum boundary after its
    /// last. Resources are prepaid for whole quanta.
    pub fn leased_span(&self, c: ContainerId, quantum: SimDuration) -> Option<(SimTime, SimTime)> {
        let (mut first, mut last) = (SimTime::MAX, SimTime::ZERO);
        for a in self.dataflow_assignments().filter(|a| a.container == c) {
            first = first.min(a.start);
            last = last.max(a.end);
        }
        if first == SimTime::MAX {
            return None;
        }
        Some((
            first.quantum_floor(quantum),
            lease_end(first, last, quantum),
        ))
    }

    /// Total leased quanta across containers.
    pub fn leased_quanta(&self, quantum: SimDuration) -> u64 {
        self.containers()
            .into_iter()
            .filter_map(|c| self.leased_span(c, quantum))
            .map(|(s, e)| (e - s).as_millis() / quantum.as_millis())
            .sum()
    }

    /// Monetary cost `md`: leased quanta × per-quantum VM price.
    pub fn money(&self, quantum: SimDuration, vm_price: Money) -> Money {
        vm_price * self.leased_quanta(quantum) as i64
    }

    /// Try to insert an optional build operator. Fails unless the slot
    /// `[start, end)` on the container is inside the leased span and
    /// overlaps no existing assignment — the "do not affect dataflow
    /// execution time or money" constraint of the optimization problem.
    pub fn try_insert_build(
        &mut self,
        container: ContainerId,
        start: SimTime,
        end: SimTime,
        op: OpId,
        build: BuildRef,
        quantum: SimDuration,
    ) -> Result<()> {
        if end <= start {
            return Err(FlowtuneError::invalid_schedule("empty build slot"));
        }
        let (lease_start, lease_end) = self
            .leased_span(container, quantum)
            .ok_or_else(|| FlowtuneError::invalid_schedule("container not leased"))?;
        if start < lease_start || end > lease_end {
            return Err(FlowtuneError::invalid_schedule(format!(
                "build op outside leased span on {container}"
            )));
        }
        for a in self.assignments.iter().filter(|a| a.container == container) {
            if start < a.end && a.start < end {
                return Err(FlowtuneError::invalid_schedule(format!(
                    "build op overlaps {} on {container}",
                    a.op
                )));
            }
        }
        self.assignments.push(Assignment {
            op,
            container,
            start,
            end,
            build: Some(build),
        });
        Ok(())
    }

    /// Validate a schedule against its dataflow: every operator assigned
    /// exactly once, no per-container overlap, and every operator starts
    /// no earlier than each predecessor's end.
    pub fn validate(&self, dag: &Dag) -> Result<()> {
        let mut seen = vec![false; dag.len()];
        for a in self.dataflow_assignments() {
            let i = a.op.index();
            if i >= dag.len() {
                return Err(FlowtuneError::invalid_schedule(format!(
                    "unknown op {}",
                    a.op
                )));
            }
            if seen[i] {
                return Err(FlowtuneError::invalid_schedule(format!(
                    "op {} assigned twice",
                    a.op
                )));
            }
            seen[i] = true;
        }
        if !seen.iter().all(|s| *s) {
            return Err(FlowtuneError::invalid_schedule(
                "not all operators assigned",
            ));
        }
        // Per-container overlap (all assignments, optional included).
        for c in self
            .assignments
            .iter()
            .map(|a| a.container)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let timeline = self.on_container(c);
            for w in timeline.windows(2) {
                if w[1].start < w[0].end {
                    return Err(FlowtuneError::invalid_schedule(format!(
                        "overlap on {c}: {} and {}",
                        w[0].op, w[1].op
                    )));
                }
            }
        }
        // Dependency order.
        let mut end_of = vec![SimTime::ZERO; dag.len()];
        for a in self.dataflow_assignments() {
            end_of[a.op.index()] = a.end;
        }
        for a in self.dataflow_assignments() {
            for p in dag.preds(a.op) {
                if a.start < end_of[p.index()] {
                    return Err(FlowtuneError::invalid_schedule(format!(
                        "{} starts before predecessor {} ends",
                        a.op, p
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::IndexId;
    use flowtune_dataflow::{Edge, OpSpec};

    const Q: SimDuration = SimDuration::from_secs(60);

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn chain_dag() -> Dag {
        // 0 -> 1 -> 2
        Dag::new(
            vec![
                OpSpec::new(OpId(0), "a", SimDuration::from_secs(10)),
                OpSpec::new(OpId(1), "b", SimDuration::from_secs(20)),
                OpSpec::new(OpId(2), "c", SimDuration::from_secs(10)),
            ],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(1),
                    bytes: 0,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(2),
                    bytes: 0,
                },
            ],
        )
        .unwrap()
    }

    fn asg(op: u32, c: u32, s: u64, e: u64) -> Assignment {
        Assignment {
            op: OpId(op),
            container: ContainerId(c),
            start: secs(s),
            end: secs(e),
            build: None,
        }
    }

    fn valid_schedule() -> Schedule {
        Schedule::from_assignments(vec![asg(0, 0, 0, 10), asg(1, 0, 10, 30), asg(2, 1, 30, 40)])
    }

    #[test]
    fn makespan_and_money() {
        let s = valid_schedule();
        assert_eq!(s.makespan(), SimDuration::from_secs(40));
        // c0 leased quantum [0,60); c1 first op at 30 -> leased [0,60).
        assert_eq!(s.leased_quanta(Q), 2);
        assert_eq!(
            s.money(Q, Money::from_dollars(0.1)),
            Money::from_dollars(0.2)
        );
        assert_eq!(s.containers(), vec![ContainerId(0), ContainerId(1)]);
    }

    #[test]
    fn validation_accepts_good_schedule() {
        valid_schedule().validate(&chain_dag()).unwrap();
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        let dag = chain_dag();
        // Missing op.
        let s = Schedule::from_assignments(vec![asg(0, 0, 0, 10)]);
        assert!(s.validate(&dag).is_err());
        // Overlap.
        let s =
            Schedule::from_assignments(vec![asg(0, 0, 0, 10), asg(1, 0, 5, 30), asg(2, 1, 30, 40)]);
        assert!(s
            .validate(&dag)
            .unwrap_err()
            .to_string()
            .contains("overlap"));
        // Dependency violation.
        let s =
            Schedule::from_assignments(vec![asg(0, 0, 0, 10), asg(1, 1, 5, 25), asg(2, 1, 25, 35)]);
        assert!(s
            .validate(&dag)
            .unwrap_err()
            .to_string()
            .contains("predecessor"));
        // Duplicate assignment.
        let s = Schedule::from_assignments(vec![
            asg(0, 0, 0, 10),
            asg(0, 1, 0, 10),
            asg(1, 0, 10, 30),
            asg(2, 1, 30, 40),
        ]);
        assert!(s.validate(&dag).unwrap_err().to_string().contains("twice"));
    }

    #[test]
    fn build_op_insertion_respects_constraints() {
        let mut s = valid_schedule();
        let build = BuildRef {
            index: IndexId(0),
            part: 0,
        };
        // Fits in c0's idle tail [30, 60).
        s.try_insert_build(ContainerId(0), secs(30), secs(50), OpId(100), build, Q)
            .unwrap();
        // Money and makespan unchanged.
        assert_eq!(s.makespan(), SimDuration::from_secs(40));
        assert_eq!(s.leased_quanta(Q), 2);
        // Overlap with the build op itself is rejected.
        let err = s
            .try_insert_build(ContainerId(0), secs(45), secs(55), OpId(101), build, Q)
            .unwrap_err();
        assert!(err.to_string().contains("overlaps"));
        // Outside the leased span is rejected.
        let err = s
            .try_insert_build(ContainerId(0), secs(55), secs(70), OpId(102), build, Q)
            .unwrap_err();
        assert!(err.to_string().contains("leased"));
        // Unleased container is rejected.
        let err = s
            .try_insert_build(ContainerId(7), secs(0), secs(10), OpId(103), build, Q)
            .unwrap_err();
        assert!(err.to_string().contains("not leased"));
    }

    #[test]
    fn build_ops_do_not_count_towards_makespan() {
        let mut s = valid_schedule();
        let build = BuildRef {
            index: IndexId(1),
            part: 2,
        };
        s.try_insert_build(ContainerId(1), secs(40), secs(59), OpId(100), build, Q)
            .unwrap();
        assert_eq!(s.makespan(), SimDuration::from_secs(40));
        assert_eq!(s.build_assignments().count(), 1);
        assert_eq!(s.dataflow_assignments().count(), 3);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert_eq!(s.makespan(), SimDuration::ZERO);
        assert_eq!(s.leased_quanta(Q), 0);
        assert!(s.containers().is_empty());
    }
}
