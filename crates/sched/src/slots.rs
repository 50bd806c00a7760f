//! Idle-slot and fragmentation analysis.
//!
//! An idle slot `f(id, q, c, Sd)` is a continuous period inside a leased
//! quantum of a container with no operator running (§3). The
//! *fragmentation* of a schedule is the set of all idle slots — paid-for
//! compute that does no dataflow work, and exactly where build-index
//! operators go.

use flowtune_common::{ContainerId, SimDuration, SimTime};

use crate::schedule::Schedule;

/// One idle slot on a leased container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleSlot {
    /// The container.
    pub container: ContainerId,
    /// Slot start.
    pub start: SimTime,
    /// Slot end.
    pub end: SimTime,
}

impl IdleSlot {
    /// Slot length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// All idle slots of a schedule, per container in time order.
///
/// The leased span of each container is determined by its *dataflow*
/// operators (builds can only live inside an already-leased span); gaps
/// are computed against **all** assignments, so interleaved build
/// operators reduce the reported fragmentation — this is how the Fig. 9
/// "7.14 → 1.6 quanta" measurement is taken.
pub fn idle_slots(schedule: &Schedule, quantum: SimDuration) -> Vec<IdleSlot> {
    let mut slots = Vec::new();
    for c in schedule.containers() {
        let Some((lease_start, lease_end)) = schedule.leased_span(c, quantum) else {
            continue;
        };
        let mut cursor = lease_start;
        for a in schedule.on_container(c) {
            if a.start > cursor {
                slots.push(IdleSlot {
                    container: c,
                    start: cursor,
                    end: a.start,
                });
            }
            cursor = cursor.max(a.end);
        }
        if lease_end > cursor {
            slots.push(IdleSlot {
                container: c,
                start: cursor,
                end: lease_end,
            });
        }
    }
    slots
}

/// Total idle time across all slots (the schedule's fragmentation).
pub fn total_fragmentation(schedule: &Schedule, quantum: SimDuration) -> SimDuration {
    idle_slots(schedule, quantum)
        .iter()
        .map(IdleSlot::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Assignment, BuildRef, Schedule};
    use flowtune_common::{IndexId, OpId};

    const Q: SimDuration = SimDuration::from_secs(60);

    /// The longest single idle slot — the skyline scheduler's
    /// tie-break ("the schedule with the most sequential idle compute
    /// time is selected"), recomputed from the schedule.
    fn longest_idle_slot(schedule: &Schedule, quantum: SimDuration) -> SimDuration {
        idle_slots(schedule, quantum)
            .iter()
            .map(IdleSlot::duration)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn asg(op: u32, c: u32, s: u64, e: u64) -> Assignment {
        Assignment {
            op: OpId(op),
            container: ContainerId(c),
            start: SimTime::from_secs(s),
            end: SimTime::from_secs(e),
            build: None,
        }
    }

    #[test]
    fn gaps_and_tail_are_idle() {
        // c0: op [0,10), op [30,50) -> idle [10,30) and [50,60).
        let s = Schedule::from_assignments(vec![asg(0, 0, 0, 10), asg(1, 0, 30, 50)]);
        let slots = idle_slots(&s, Q);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].start, SimTime::from_secs(10));
        assert_eq!(slots[0].end, SimTime::from_secs(30));
        assert_eq!(slots[1].duration(), SimDuration::from_secs(10));
        assert_eq!(total_fragmentation(&s, Q), SimDuration::from_secs(30));
        assert_eq!(longest_idle_slot(&s, Q), SimDuration::from_secs(20));
    }

    #[test]
    fn head_gap_when_first_op_starts_mid_quantum() {
        // First op at 70s -> leased from 60s; idle head [60,70).
        let s = Schedule::from_assignments(vec![asg(0, 0, 70, 110)]);
        let slots = idle_slots(&s, Q);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].start, SimTime::from_secs(60));
        assert_eq!(slots[0].end, SimTime::from_secs(70));
        assert_eq!(slots[1].start, SimTime::from_secs(110));
        assert_eq!(slots[1].end, SimTime::from_secs(120));
    }

    #[test]
    fn perfectly_packed_container_has_no_idle() {
        let s = Schedule::from_assignments(vec![asg(0, 0, 0, 30), asg(1, 0, 30, 60)]);
        assert!(idle_slots(&s, Q).is_empty());
        assert_eq!(total_fragmentation(&s, Q), SimDuration::ZERO);
        assert_eq!(longest_idle_slot(&s, Q), SimDuration::ZERO);
    }

    #[test]
    fn build_ops_consume_idle_time() {
        let mut s = Schedule::from_assignments(vec![asg(0, 0, 0, 10), asg(1, 0, 30, 50)]);
        let before = total_fragmentation(&s, Q);
        s.try_insert_build(
            ContainerId(0),
            SimTime::from_secs(12),
            SimTime::from_secs(28),
            OpId(100),
            BuildRef {
                index: IndexId(0),
                part: 0,
            },
            Q,
        )
        .unwrap();
        let after = total_fragmentation(&s, Q);
        assert_eq!(before - after, SimDuration::from_secs(16));
    }

    #[test]
    fn scheduler_tie_break_cache_agrees_with_idle_slot_analysis() {
        // The skyline scheduler's incrementally maintained tie-break
        // value (DESIGN §5f) must agree with this module's independent
        // from-schedule idle-slot analysis on dataflow-only schedules:
        // two implementations, one invariant. (Durations are kept
        // nonzero: for a container whose only ops are zero-duration the
        // tie-break deliberately ignores the lease while the slot
        // analysis reports it idle.)
        use crate::skyline::SkylineScheduler;
        use flowtune_common::SimDuration as D;
        use flowtune_common::SimRng;
        use flowtune_dataflow::{Dag, Edge, OpSpec};

        let sched = SkylineScheduler::default();
        let q = sched.config.quantum;
        let mut rng = SimRng::seed_from_u64(0x51075);
        for _ in 0..40 {
            let n = 2 + rng.uniform_u64(1, 10) as usize;
            let ops: Vec<OpSpec> = (0..n)
                .map(|i| {
                    OpSpec::new(
                        OpId(i as u32),
                        format!("op{i}"),
                        D::from_secs(1 + rng.uniform_u64(0, 89)),
                    )
                })
                .collect();
            let edges: Vec<Edge> = (1..n)
                .map(|i| Edge {
                    from: OpId(rng.uniform_u64(0, i as u64) as u32),
                    to: OpId(i as u32),
                    bytes: 0,
                })
                .collect();
            let dag = Dag::new(ops, edges).unwrap();
            let mut p = crate::skyline::Partial::new();
            for i in 0..n {
                let c = rng.uniform_u64(0, p.containers_used() as u64 + 1) as usize;
                p = sched.assign_dataflow_op(&p, &dag, OpId(i as u32), c);
            }
            let cached = p.idle_cached();
            let schedule = p.into_schedule_by_id();
            assert_eq!(
                cached,
                longest_idle_slot(&schedule, q),
                "incremental tie-break disagrees with idle-slot analysis"
            );
        }
    }

    #[test]
    fn multi_container_fragmentation_sums() {
        let s = Schedule::from_assignments(vec![asg(0, 0, 0, 60), asg(1, 1, 0, 45)]);
        // c0 fully packed; c1 idle [45,60).
        assert_eq!(total_fragmentation(&s, Q), SimDuration::from_secs(15));
        let slots = idle_slots(&s, Q);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].container, ContainerId(1));
    }
}
