//! 0/1 knapsack machinery (Algorithm 3 and the §6.4 baselines).
//!
//! Packing build operators into one idle slot is a 0/1 knapsack: item
//! sizes are build durations, item values are index gains, capacity is
//! the slot length. Algorithm 3 solves the LP relaxation and then a
//! branch-and-bound search for integral weights; we implement exactly
//! that — depth-first branch and bound with the fractional (Dantzig)
//! bound, plus a node budget that degrades gracefully to the greedy
//! solution on adversarial instances (never reached at the paper's
//! sizes).
//!
//! # Scale state (DESIGN §5i)
//!
//! The search keeps a per-`(depth, remaining-capacity)` state table
//! that serves two purposes at once: **dominance pruning** (a prefix
//! that reaches a state an earlier, at-least-as-valuable prefix already
//! reached cannot improve the incumbent — its whole subtree is cut and
//! counted in [`KnapsackSolution::pruned`]) and **bound memoization**
//! (the Dantzig bound is a pure function of the state, so it is
//! computed once per state instead of once per node). The table
//! engages lazily, only after the search crosses a node threshold, so
//! tiny searches (the common per-slot case) pay nothing for it.
//!
//! A **run cut** handles identical items (same size, same value bits),
//! which sort next to each other: the service offers every unbuilt
//! partition of an index as its own build op with the index's gain.
//! Skipping one item of such a run skips the rest of it, so the search
//! tries each count of the run once instead of every subset.
//!
//! All three techniques are exact: unbudgeted solves are element-wise
//! identical to the retained pre-optimization solver in
//! `crate::reference`, pinned by the golden equivalence suite in
//! `equivalence_tests.rs`.

/// Result of a knapsack solve.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackSolution {
    /// Indices of the chosen items (into the caller's slices).
    pub chosen: Vec<usize>,
    /// Total value of the chosen items.
    pub value: f64,
    /// Total size of the chosen items.
    pub size: u64,
    /// Branch-and-bound nodes expanded (0 when the greedy incumbent
    /// already met the LP bound and the search never ran a full pass).
    pub nodes: usize,
    /// Nodes cut by dominance pruning: visits to a
    /// (depth, remaining-capacity) state that an earlier, at-least-as-
    /// valuable prefix had already explored. Always 0 in the
    /// `crate::reference` solver, which has no state table.
    pub pruned: usize,
}

fn density(value: f64, size: u64) -> f64 {
    if size == 0 {
        f64::INFINITY
    } else {
        value / size as f64
    }
}

/// Exact 0/1 knapsack via branch and bound with the LP-relaxation bound
/// (Algorithm 3), accelerated by per-state bound memoization and
/// dominance pruning (module docs). Items with non-positive value are
/// never chosen.
///
/// `node_budget` caps the search; on exhaustion the best solution found
/// so far (at least as good as density-greedy) is returned. The default
/// entry point [`solve_knapsack`] uses a budget far above anything the
/// paper's instance sizes need.
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

    /// Per-(depth, remaining-capacity) search state: the best prefix
    /// value that has reached it (dominance) and the memoized Dantzig
    /// bound of its completion (a pure function of the key, so caching
    /// cannot change any prune decision).
    struct StateEntry {
        prefix: f64,
        bound: Option<f64>,
    }

    /// The state table engages only once the search has expanded this
    /// many nodes. Small searches — the common per-slot case at the
    /// paper's sizes, where bound pruning alone keeps the tree tiny —
    /// pay one integer compare per node instead of a map insertion;
    /// adversarial searches (equal densities, heavy state collisions)
    /// blow through the threshold and get the full dominance +
    /// memoization machinery, which caps them at O(items x capacity)
    /// further states. Deterministic: node counts are a pure function
    /// of the instance.
    const STATE_TABLE_MIN_NODES: usize = 2048;

    struct Search<'a> {
        order: &'a [usize],
        sizes: &'a [u64],
        values: &'a [f64],
        best_value: f64,
        best_chosen: Vec<usize>,
        stack: Vec<usize>,
        nodes: usize,
        pruned: usize,
        budget: usize,
        states: std::collections::BTreeMap<(usize, u64), StateEntry>,
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

        /// State-table lookup for an engaged (large) search: dominance
        /// prune (`None`) or the memoized Dantzig bound (`Some`).
        ///
        /// Dominance: an earlier visit reached this exact
        /// (depth, remaining) state with at least this prefix value.
        /// The completions from here are the same item suffix over the
        /// same capacity, so nothing below can beat what that visit's
        /// subtree already established — `<=` is safe because
        /// incumbent updates require a *strict* improvement (exactness
        /// argument in DESIGN §5i). Lazy engagement only *withholds*
        /// table entries for the first visits, never invents prunes,
        /// so it cannot affect exactness either.
        ///
        /// Kept out of line so the table machinery does not bloat the
        /// `dfs` hot path that small, never-engaging searches run.
        #[inline(never)]
        fn table_bound(&mut self, depth: usize, value: f64, remaining: u64) -> Option<f64> {
            let cached_bound = match self.states.entry((depth, remaining)) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let s = e.get_mut();
                    if value <= s.prefix {
                        self.pruned += 1;
                        return None;
                    }
                    s.prefix = value;
                    s.bound
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(StateEntry {
                        prefix: value,
                        bound: None,
                    });
                    None
                }
            };
            Some(match cached_bound {
                Some(b) => b,
                None => {
                    let b = self.bound_from(depth, remaining);
                    if let Some(s) = self.states.get_mut(&(depth, remaining)) {
                        s.bound = Some(b);
                    }
                    b
                }
            })
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
            let bound = if self.nodes > STATE_TABLE_MIN_NODES {
                match self.table_bound(depth, value, remaining) {
                    Some(b) => b,
                    None => return, // dominance-pruned
                }
            } else {
                self.bound_from(depth, remaining)
            };
            if value + bound <= self.best_value {
                return; // pruned by the (memoized) LP bound
            }
            let i = self.order[depth];
            // Branch: take item i (if it fits), then skip it together
            // with the rest of its run of identical items. A pattern
            // that skips i and takes a later twin reaches the same
            // value bits and remaining capacity as the pattern taking i
            // instead, which this DFS visits first; incumbent updates
            // need a strict improvement, so the later pattern can never
            // change the result (exactness argument in DESIGN §5i).
            if self.sizes[i] <= remaining {
                self.stack.push(i);
                self.dfs(depth + 1, value + self.values[i], remaining - self.sizes[i]);
                self.stack.pop();
            }
            let (size, bits) = (self.sizes[i], self.values[i].to_bits());
            let mut next = depth + 1;
            while self
                .order
                .get(next)
                .is_some_and(|&j| self.sizes[j] == size && self.values[j].to_bits() == bits)
            {
                next += 1;
            }
            self.dfs(next, value, remaining);
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
        pruned: 0,
        budget: node_budget,
        states: std::collections::BTreeMap::new(),
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
        pruned: search.pruned,
    }
}

/// Exact 0/1 knapsack (default node budget of 2 million).
pub fn solve_knapsack(capacity: u64, sizes: &[u64], values: &[f64]) -> KnapsackSolution {
    solve_knapsack_budgeted(capacity, sizes, values, 2_000_000)
}

/// Graham-inspired greedy multi-slot packer (the §6.4 baseline): order
/// operators by descending duration and assign each to the slot with the
/// most remaining time; operators that fit nowhere are skipped.
///
/// Returns `assignments[i] = Some(slot)` per item and the total value
/// packed.
pub fn graham_greedy(slots: &[u64], sizes: &[u64], values: &[f64]) -> (Vec<Option<usize>>, f64) {
    assert_eq!(sizes.len(), values.len(), "sizes/values length mismatch");
    let mut remaining: Vec<u64> = slots.to_vec();
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]));
    let mut assignment = vec![None; sizes.len()];
    let mut total = 0.0;
    for i in order {
        let Some((slot, _)) = remaining
            .iter()
            .enumerate()
            .filter(|(_, r)| **r >= sizes[i])
            .max_by_key(|(_, r)| **r)
        else {
            continue;
        };
        remaining[slot] -= sizes[i];
        assignment[i] = Some(slot);
        total += values[i];
    }
    (assignment, total)
}

/// Theoretical upper bound used in Fig. 11: merge all idle slots into one
/// continuous segment and solve a single knapsack over it. No real
/// packing can beat it because merging only removes fragmentation
/// constraints.
pub fn merged_upper_bound(slots: &[u64], sizes: &[u64], values: &[f64]) -> f64 {
    let capacity: u64 = slots.iter().sum();
    solve_knapsack(capacity, sizes, values).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;

    #[test]
    fn knapsack_known_optimum() {
        // Classic instance: capacity 10, optimum = items 1+2 (values 9).
        let sizes = [6, 4, 5, 3];
        let values = [7.0, 5.0, 4.0, 2.5];
        let sol = solve_knapsack(10, &sizes, &values);
        assert_eq!(sol.chosen, vec![0, 1]);
        assert!((sol.value - 12.0).abs() < 1e-9);
        assert_eq!(sol.size, 10);
    }

    #[test]
    fn knapsack_beats_density_greedy_when_needed() {
        // Density greedy takes item 0 (density 1.0) and fails; optimum is
        // items 1+2.
        let sizes = [10, 6, 5];
        let values = [10.0, 5.9, 4.9];
        let sol = solve_knapsack(11, &sizes, &values);
        assert!((sol.value - 10.8).abs() < 1e-9);
        assert_eq!(sol.chosen, vec![1, 2]);
    }

    #[test]
    fn nonpositive_values_never_chosen() {
        let sol = solve_knapsack(100, &[1, 1, 1], &[-1.0, 0.0, 2.0]);
        assert_eq!(sol.chosen, vec![2]);
    }

    #[test]
    fn zero_capacity() {
        let sol = solve_knapsack(0, &[1, 2], &[1.0, 2.0]);
        assert!(sol.chosen.is_empty());
        assert_eq!(sol.value, 0.0);
    }

    #[test]
    fn zero_size_items_are_free() {
        let sol = solve_knapsack(1, &[0, 5], &[3.0, 10.0]);
        assert_eq!(sol.chosen, vec![0]);
    }

    #[test]
    fn graham_assigns_to_largest_remaining_slot() {
        let slots = [10, 6];
        let sizes = [7, 5, 4];
        let values = [7.0, 5.0, 4.0];
        let (assignment, total) = graham_greedy(&slots, &sizes, &values);
        // 7 -> slot0 (10 left), 5 -> slot1 (6 left), 4 -> none (3,1 left).
        assert_eq!(assignment, vec![Some(0), Some(1), None]);
        assert!((total - 12.0).abs() < 1e-9);
    }

    #[test]
    fn merged_bound_is_at_least_graham() {
        let slots = [10, 6];
        let sizes = [7, 5, 4];
        let values = [7.0, 5.0, 4.0];
        let (_, graham) = graham_greedy(&slots, &sizes, &values);
        let ub = merged_upper_bound(&slots, &sizes, &values);
        assert!(ub >= graham - 1e-9);
        // Merged capacity 16 fits everything: 16.0.
        assert!((ub - 16.0).abs() < 1e-9);
    }

    fn random_items(rng: &mut SimRng, max_n: u64) -> (Vec<u64>, Vec<f64>, Vec<u64>) {
        let n = rng.uniform_u64(0, max_n) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 30)).collect();
        let raw_values: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 100)).collect();
        let values: Vec<f64> = raw_values.iter().map(|&v| v as f64).collect();
        (sizes, values, raw_values)
    }

    #[test]
    fn bnb_matches_dp_reference() {
        let mut rng = SimRng::seed_from_u64(0x1CA7);
        for _ in 0..120 {
            let (sizes, values, raw_values) = random_items(&mut rng, 14);
            let capacity = rng.uniform_u64(0, 120);
            let sol = solve_knapsack(capacity, &sizes, &values);
            // Integer DP reference.
            let cap = capacity as usize;
            let mut dp = vec![0u64; cap + 1];
            for i in 0..sizes.len() {
                let (sz, v) = (sizes[i] as usize, raw_values[i]);
                for c in (sz..=cap).rev() {
                    dp[c] = dp[c].max(dp[c - sz] + v);
                }
            }
            assert!(
                (sol.value - dp[cap] as f64).abs() < 1e-6,
                "bnb {} vs dp {}",
                sol.value,
                dp[cap]
            );
            // Chosen set is feasible and value-consistent.
            let sz: u64 = sol.chosen.iter().map(|&i| sizes[i]).sum();
            assert!(sz <= capacity);
            let val: f64 = sol.chosen.iter().map(|&i| values[i]).sum();
            assert!((val - sol.value).abs() < 1e-6);
        }
    }
}
