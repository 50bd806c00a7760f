//! Linear-program-based interleaving — Algorithm 2.
//!
//! The dataflow is scheduled first (the skyline is an input); then, for
//! each schedule, the idle slots are enumerated in decreasing size and a
//! 0/1 knapsack (Algorithm 3) is solved per slot over the still-unplaced
//! build operators. Within a slot, operators run in decreasing gain
//! order so that when a quantum expires or a dataflow operator arrives
//! early (runtime estimation error), the *least* useful build is the one
//! that gets stopped.

use flowtune_common::SimDuration;
use flowtune_sched::{idle_slots, Schedule};

use crate::buildop::BuildOp;
use crate::knapsack::solve_knapsack;

/// The LP interleaver.
#[derive(Debug, Clone)]
pub struct LpInterleaver {
    /// Billing quantum (defines leased spans and slot boundaries).
    pub quantum: SimDuration,
}

impl LpInterleaver {
    /// Create an interleaver.
    pub fn new(quantum: SimDuration) -> Self {
        LpInterleaver { quantum }
    }

    /// Pack build operators into one schedule's idle slots. Returns the
    /// build ops actually placed (a subset of `pending`); the schedule
    /// is extended in place with the corresponding optional assignments.
    pub fn interleave(&self, schedule: &mut Schedule, pending: &[BuildOp]) -> Vec<BuildOp> {
        let mut slots = idle_slots(schedule, self.quantum);
        slots.sort_by_key(|s| std::cmp::Reverse(s.duration()));
        let slots_offered = slots.len();
        let mut slots_filled = 0usize;
        let mut knapsack_nodes = 0u64;
        let mut knapsack_pruned = 0u64;
        let mut remaining: Vec<BuildOp> = pending.to_vec();
        let mut placed = Vec::new();
        for slot in slots {
            if remaining.is_empty() {
                break;
            }
            let sizes: Vec<u64> = remaining.iter().map(|b| b.duration.as_millis()).collect();
            let gains: Vec<f64> = remaining.iter().map(|b| b.gain).collect();
            let sol = solve_knapsack(slot.duration().as_millis(), &sizes, &gains);
            knapsack_nodes += sol.nodes as u64;
            knapsack_pruned += sol.pruned as u64;
            flowtune_obs::observe("interleave.knapsack_nodes", sol.nodes as f64);
            flowtune_obs::observe("interleave.knapsack_pruned", sol.pruned as f64);
            if sol.chosen.is_empty() {
                continue;
            }
            slots_filled += 1;
            // Schedule the chosen ops inside the slot by decreasing gain.
            let mut chosen: Vec<BuildOp> = sol.chosen.iter().map(|&i| remaining[i]).collect();
            chosen.sort_by(|a, b| b.gain.total_cmp(&a.gain));
            let mut cursor = slot.start;
            for op in &chosen {
                #[expect(
                    clippy::expect_used,
                    reason = "the knapsack capacity equals the slot, so chosen ops fit it"
                )]
                schedule
                    .try_insert_build(
                        slot.container,
                        cursor,
                        cursor + op.duration,
                        op.schedule_op_id(),
                        op.build,
                        self.quantum,
                    )
                    .expect("knapsack-chosen ops must fit their slot");
                cursor += op.duration;
            }
            // Remove placed ops from the pool.
            let placed_ids: std::collections::BTreeSet<_> = chosen.iter().map(|b| b.id).collect();
            remaining.retain(|b| !placed_ids.contains(&b.id));
            placed.extend(chosen);
        }
        flowtune_obs::obs_event!(
            "interleave.pack",
            slots_offered = slots_offered,
            slots_filled = slots_filled,
            pending = pending.len(),
            placed = placed.len(),
            knapsack_nodes = knapsack_nodes,
            knapsack_pruned = knapsack_pruned,
        );
        flowtune_obs::count("interleave.slots_offered", slots_offered as u64);
        flowtune_obs::count("interleave.slots_filled", slots_filled as u64);
        flowtune_obs::count("interleave.placed", placed.len() as u64);
        // flowtune-allow(obs-discipline): intentional dual recording — per-slot distribution above, per-call counter here; the golden pins both
        flowtune_obs::count("interleave.knapsack_nodes", knapsack_nodes);
        placed
    }

    /// Algorithm 2 over a whole skyline: interleave every schedule
    /// independently (each starts from the full pending pool). Returns
    /// per-schedule placed ops.
    pub fn interleave_skyline(
        &self,
        skyline: &mut [Schedule],
        pending: &[BuildOp],
    ) -> Vec<Vec<BuildOp>> {
        skyline
            .iter_mut()
            .map(|s| self.interleave(s, pending))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::{BuildOpId, ContainerId, IndexId, Money, OpId, SimRng, SimTime};
    use flowtune_dataflow::App;
    use flowtune_sched::{
        total_fragmentation, Assignment, BuildRef, SchedulerConfig, SkylineScheduler,
    };

    const Q: SimDuration = SimDuration::from_secs(60);

    fn build_op(i: u32, secs: u64, gain: f64) -> BuildOp {
        BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i),
                part: 0,
            },
            duration: SimDuration::from_secs(secs),
            gain,
        }
    }

    fn gapy_schedule() -> Schedule {
        // c0: [0,10) busy, [10,40) idle, [40,50) busy, [50,60) idle tail.
        Schedule::from_assignments(vec![
            Assignment {
                op: OpId(0),
                container: ContainerId(0),
                start: SimTime::ZERO,
                end: SimTime::from_secs(10),
                build: None,
            },
            Assignment {
                op: OpId(1),
                container: ContainerId(0),
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(50),
                build: None,
            },
        ])
    }

    #[test]
    fn fills_largest_slot_first() {
        let mut s = gapy_schedule();
        let ops = vec![build_op(0, 25, 10.0), build_op(1, 8, 5.0)];
        let placed = LpInterleaver::new(Q).interleave(&mut s, &ops);
        assert_eq!(placed.len(), 2);
        // The 25 s op only fits the 30 s middle gap; the 8 s op takes the
        // tail.
        let builds: Vec<_> = s.build_assignments().collect();
        assert_eq!(builds.len(), 2);
        assert_no_overlap(&s);
    }

    #[test]
    fn money_and_time_are_unchanged() {
        let mut s = gapy_schedule();
        let before_time = s.makespan();
        let before_money = s.money(Q, Money::from_dollars(0.1));
        let ops: Vec<BuildOp> = (0..10).map(|i| build_op(i, 7, 1.0 + i as f64)).collect();
        LpInterleaver::new(Q).interleave(&mut s, &ops);
        assert_eq!(s.makespan(), before_time);
        assert_eq!(s.money(Q, Money::from_dollars(0.1)), before_money);
    }

    #[test]
    fn fragmentation_drops_after_interleaving() {
        let mut s = gapy_schedule();
        let before = total_fragmentation(&s, Q);
        let ops: Vec<BuildOp> = (0..6).map(|i| build_op(i, 9, 5.0)).collect();
        LpInterleaver::new(Q).interleave(&mut s, &ops);
        let after = total_fragmentation(&s, Q);
        assert!(after < before, "fragmentation {before} -> {after}");
    }

    #[test]
    fn prefers_higher_gain_when_capacity_is_scarce() {
        let mut s = gapy_schedule();
        // Both fit individually in the 30 s gap but not together.
        let ops = vec![build_op(0, 20, 1.0), build_op(1, 20, 50.0)];
        let placed = LpInterleaver::new(Q).interleave(&mut s, &ops);
        let placed_gains: Vec<f64> = placed.iter().map(|b| b.gain).collect();
        assert!(placed_gains.contains(&50.0));
        assert!(!placed_gains.contains(&1.0));
    }

    #[test]
    fn within_slot_order_is_by_descending_gain() {
        let mut s = gapy_schedule();
        let ops = vec![build_op(0, 10, 1.0), build_op(1, 10, 9.0)];
        LpInterleaver::new(Q).interleave(&mut s, &ops);
        let mut builds: Vec<_> = s.build_assignments().copied().collect();
        builds.sort_by_key(|a| a.start);
        // Higher gain (id 1) runs first.
        assert_eq!(builds[0].op, OpId(crate::buildop::BUILD_OP_ID_BASE + 1));
    }

    #[test]
    fn interleaves_real_scientific_schedules() {
        let mut rng = SimRng::seed_from_u64(3);
        let dag = App::Montage.generate(100, &[], &mut rng);
        let scheduler = SkylineScheduler::new(SchedulerConfig::default());
        let mut skyline = scheduler.schedule(&dag);
        let ops: Vec<BuildOp> = (0..50)
            .map(|i| build_op(i, 5 + (i as u64 % 20), 1.0 + i as f64 * 0.1))
            .collect();
        let placed = LpInterleaver::new(Q).interleave_skyline(&mut skyline, &ops);
        let max_placed = placed.iter().map(Vec::len).max().unwrap();
        assert!(max_placed > 0, "no build op placed in any schedule");
        for s in &skyline {
            s.validate(&dag).unwrap();
        }
    }

    /// Test helper: assert no overlapping assignments per container.
    fn assert_no_overlap(s: &Schedule) {
        for c in s.containers() {
            let t = s.on_container(c);
            for w in t.windows(2) {
                assert!(w[1].start >= w[0].end, "overlap on {c}");
            }
        }
    }
}
