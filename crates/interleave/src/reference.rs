//! Reference knapsack solver and packer — the pre-optimization
//! Algorithm 3.
//!
//! This is the original branch-and-bound knapsack implementation,
//! retained verbatim (minus observability instrumentation) as the
//! behavioural baseline for the memoized-bound + dominance-pruning
//! solver in [`crate::knapsack`] (DESIGN §5i):
//!
//! * the golden equivalence tests in `equivalence_tests.rs` run it
//!   side-by-side with the optimized solver and assert element-wise
//!   identical solutions (chosen set, value, size);
//! * `bench_interleave` (crate `flowtune-bench`, feature `reference`)
//!   times both in the same process and records the speedup in
//!   `BENCH_interleave.json`.
//!
//! It recomputes the Dantzig bound from scratch at every search node
//! and re-explores every state-equivalent subtree — two prefixes that
//! reach the same `(depth, remaining-capacity)` state each pay for the
//! full suffix search — exactly the costs the optimized solver
//! eliminates. Do not "improve" this module: its value is that it
//! stays the simple, obviously-correct formulation of the search.
//!
//! [`pack_reference`] replays the Algorithm 2 per-schedule packing loop
//! of [`crate::lp::LpInterleaver::interleave`] on top of the reference
//! solver, so pack-level equivalence tests isolate the solver as the
//! only possible source of divergence.

use flowtune_common::SimDuration;
use flowtune_sched::{idle_slots, Schedule};

use crate::buildop::BuildOp;
use crate::knapsack::KnapsackSolution;

fn density(value: f64, size: u64) -> f64 {
    if size == 0 {
        f64::INFINITY
    } else {
        value / size as f64
    }
}

/// Pre-optimization exact 0/1 knapsack: depth-first branch and bound
/// with the Dantzig bound recomputed at every node and no state
/// dominance. `pruned` is always 0 — the concept does not exist here.
pub fn solve_knapsack_budgeted(
    capacity: u64,
    sizes: &[u64],
    values: &[f64],
    node_budget: usize,
) -> KnapsackSolution {
    assert_eq!(sizes.len(), values.len(), "sizes/values length mismatch");
    // Order by density for tight bounds and a good greedy incumbent;
    // ties broken towards larger items, which matters on subset-sum-like
    // instances (equal densities) where big items must be placed first.
    let mut order: Vec<usize> = (0..sizes.len()).filter(|&i| values[i] > 0.0).collect();
    order.sort_by(|&a, &b| {
        density(values[b], sizes[b])
            .total_cmp(&density(values[a], sizes[a]))
            .then(sizes[b].cmp(&sizes[a]))
    });

    // Greedy incumbent.
    let mut best_chosen: Vec<usize> = Vec::new();
    let mut best_value = 0.0f64;
    {
        let mut remaining = capacity;
        for &i in &order {
            if sizes[i] <= remaining {
                best_chosen.push(i);
                best_value += values[i];
                remaining -= sizes[i];
            }
        }
    }

    struct Search<'a> {
        order: &'a [usize],
        sizes: &'a [u64],
        values: &'a [f64],
        best_value: f64,
        best_chosen: Vec<usize>,
        stack: Vec<usize>,
        nodes: usize,
        budget: usize,
        /// LP bound at the root; reaching it proves optimality and ends
        /// the search (crucial for subset-sum-like instances whose equal
        /// densities defeat bound pruning).
        root_bound: f64,
        done: bool,
    }

    impl Search<'_> {
        fn bound_from(&self, depth: usize, remaining: u64) -> f64 {
            let mut cap = remaining;
            let mut bound = 0.0;
            for &i in &self.order[depth..] {
                if self.sizes[i] <= cap {
                    bound += self.values[i];
                    cap -= self.sizes[i];
                } else {
                    bound += self.values[i] * cap as f64 / self.sizes[i].max(1) as f64;
                    break;
                }
            }
            bound
        }

        fn dfs(&mut self, depth: usize, value: f64, remaining: u64) {
            self.nodes += 1;
            if self.done || self.nodes > self.budget {
                return;
            }
            if value > self.best_value {
                self.best_value = value;
                self.best_chosen = self.stack.clone();
                if self.best_value + 1e-9 >= self.root_bound {
                    self.done = true;
                    return;
                }
            }
            if depth == self.order.len() {
                return;
            }
            if value + self.bound_from(depth, remaining) <= self.best_value {
                return; // pruned by LP bound
            }
            let i = self.order[depth];
            // Branch: take item i (if it fits), then skip it.
            if self.sizes[i] <= remaining {
                self.stack.push(i);
                self.dfs(depth + 1, value + self.values[i], remaining - self.sizes[i]);
                self.stack.pop();
            }
            self.dfs(depth + 1, value, remaining);
        }
    }

    let mut search = Search {
        order: &order,
        sizes,
        values,
        best_value,
        best_chosen,
        stack: Vec::new(),
        nodes: 0,
        budget: node_budget,
        root_bound: 0.0,
        done: false,
    };
    search.root_bound = search.bound_from(0, capacity);
    if search.best_value + 1e-9 >= search.root_bound {
        // The greedy incumbent already matches the LP bound.
        search.done = true;
    }
    search.dfs(0, 0.0, capacity);
    let mut chosen = search.best_chosen;
    chosen.sort_unstable();
    let size = chosen.iter().map(|&i| sizes[i]).sum();
    KnapsackSolution {
        chosen,
        value: search.best_value,
        size,
        nodes: search.nodes,
        pruned: 0,
    }
}

/// Pre-optimization exact 0/1 knapsack (default node budget of 2
/// million, matching [`crate::knapsack::solve_knapsack`]).
pub fn solve_knapsack(capacity: u64, sizes: &[u64], values: &[f64]) -> KnapsackSolution {
    solve_knapsack_budgeted(capacity, sizes, values, 2_000_000)
}

/// Pre-optimization per-schedule pack: the Algorithm 2 main loop of
/// [`crate::lp::LpInterleaver::interleave`], verbatim minus
/// observability, on top of the reference solver. Slot enumeration,
/// in-slot ordering, and pool maintenance are identical, so any
/// divergence from the optimized interleaver is the knapsack solver's.
pub fn pack_reference(
    quantum: SimDuration,
    schedule: &mut Schedule,
    pending: &[BuildOp],
) -> Vec<BuildOp> {
    let mut slots = idle_slots(schedule, quantum);
    slots.sort_by_key(|s| std::cmp::Reverse(s.duration()));
    let mut remaining: Vec<BuildOp> = pending.to_vec();
    let mut placed = Vec::new();
    for slot in slots {
        if remaining.is_empty() {
            break;
        }
        let sizes: Vec<u64> = remaining.iter().map(|b| b.duration.as_millis()).collect();
        let gains: Vec<f64> = remaining.iter().map(|b| b.gain).collect();
        let sol = solve_knapsack(slot.duration().as_millis(), &sizes, &gains);
        if sol.chosen.is_empty() {
            continue;
        }
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
                    quantum,
                )
                .expect("knapsack-chosen ops must fit their slot");
            cursor += op.duration;
        }
        // Remove placed ops from the pool.
        let placed_ids: std::collections::BTreeSet<_> = chosen.iter().map(|b| b.id).collect();
        remaining.retain(|b| !placed_ids.contains(&b.id));
        placed.extend(chosen);
    }
    placed
}
