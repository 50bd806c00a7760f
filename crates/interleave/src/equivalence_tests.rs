//! Golden equivalence suite: the run-cut, memoized-bound, dominance-pruning
//! knapsack solver must produce **element-wise identical** solutions to
//! the retained pre-optimization implementation ([`crate::reference`])
//! — same chosen index set, bit-identical value, same packed size —
//! across capacities and item counts, and the whole Algorithm 2 pack
//! built on it must place the same build operators into the same slots
//! (DESIGN §5i).
//!
//! The online interleaver, a pass over the finished plain skyline, must
//! return **byte-identical** skylines to the retained in-search offers
//! of `flowtune_sched::reference` (`schedule_with_optional`): same
//! schedules, same assignment order, same front order, for every `App`
//! workload across sizes, offer counts and skyline widths.
//!
//! Any behavioural drift in the state-table rework or the offer replay
//! shows up here as a precise diff, not as a downstream gain anomaly.

// Redundant with the `#[cfg(test)]` on the module declaration, but
// carries the gate in-file where flowtune-analyze's per-file scan
// (its test-region exemptions) can see it.
#![cfg(test)]

use flowtune_common::{
    BuildOpId, CloudConfig, DataflowId, IndexId, OpId, SimDuration, SimRng, SimTime,
};
use flowtune_dataflow::{App, Dag, DataflowFactory, FileDatabase};
use flowtune_sched::reference::{OptionalOp, ReferenceSkylineScheduler};
use flowtune_sched::{BuildRef, Schedule, SchedulerConfig, SkylineScheduler};

use crate::buildop::BuildOp;
use crate::knapsack::{solve_knapsack_budgeted, KnapsackSolution};
use crate::lp::LpInterleaver;
use crate::online::OnlineInterleaver;
use crate::reference;

const Q: SimDuration = SimDuration::from_secs(60);

/// Element-wise solution equality: chosen set, value (bit-identical —
/// both solvers accumulate the same f64 sums along the same take
/// path), size. Node counts legitimately differ (that is the point).
fn assert_same(got: &KnapsackSolution, want: &KnapsackSolution, label: &str) {
    assert_eq!(got.chosen, want.chosen, "{label}: chosen sets differ");
    assert!(
        got.value == want.value,
        "{label}: values differ ({} vs {})",
        got.value,
        want.value
    );
    assert_eq!(got.size, want.size, "{label}: packed sizes differ");
}

fn random_instance(rng: &mut SimRng, max_n: u64, max_size: u64) -> (Vec<u64>, Vec<f64>) {
    let n = rng.uniform_u64(0, max_n) as usize;
    let sizes: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, max_size)).collect();
    let values: Vec<f64> = (0..n).map(|_| rng.uniform_u64(0, 100) as f64).collect();
    (sizes, values)
}

#[test]
fn equivalent_across_capacities_and_item_counts() {
    let mut rng = SimRng::seed_from_u64(0x1B01);
    for n in [0u64, 2, 5, 9, 14, 18] {
        for capacity in [0u64, 1, 13, 40, 90, 200] {
            let (sizes, values) = random_instance(&mut rng, n + 1, 30);
            let got = solve_knapsack_budgeted(capacity, &sizes, &values, 2_000_000);
            let want = reference::solve_knapsack_budgeted(capacity, &sizes, &values, 2_000_000);
            assert_same(&got, &want, &format!("n<={n} cap={capacity}"));
        }
    }
}

#[test]
fn dominance_pruning_never_changes_the_chosen_set() {
    // Collision-heavy instances: sizes drawn from 1..=6 so many DFS
    // prefixes land on the same (depth, remaining) state and the
    // dominance table fires constantly. 18 items keeps the reference's
    // worst case (< 2^19 nodes) far under the node budget, so both
    // searches run to completion and must agree exactly.
    let mut rng = SimRng::seed_from_u64(0x1B02);
    for round in 0..200 {
        let (sizes, values) = random_instance(&mut rng, 18, 6);
        let capacity = rng.uniform_u64(0, 40);
        let got = solve_knapsack_budgeted(capacity, &sizes, &values, 2_000_000);
        let want = reference::solve_knapsack_budgeted(capacity, &sizes, &values, 2_000_000);
        assert_same(&got, &want, &format!("round {round}"));
        // The optimized visit sequence is a subsequence of the
        // reference's, so pruning can only shrink the node count.
        assert!(
            got.nodes <= want.nodes,
            "round {round}: optimized expanded more nodes ({} vs {})",
            got.nodes,
            want.nodes
        );
    }
}

#[test]
fn dominance_collapses_equal_density_instances() {
    // 16 distinct items of one density (size 3k, value 7k: every
    // `7k / 3k` rounds to the same f64) with a capacity no subset
    // fills: equal densities defeat bound pruning and the fractional
    // root bound is integrally unreachable, so the reference
    // re-explores every subset that fits, while the state table
    // collapses the prefixes that reach one (depth, remaining) state.
    // No two items are identical, so the run cut never applies and
    // the search crosses the table's engagement threshold.
    let sizes: Vec<u64> = (1..=16).map(|k| 3 * k).collect();
    let values: Vec<f64> = (1..=16).map(|k| 7.0 * k as f64).collect();
    assert!(
        values
            .iter()
            .zip(&sizes)
            .all(|(v, s)| (v / *s as f64).to_bits() == (7.0f64 / 3.0).to_bits()),
        "the fixture's densities must tie"
    );
    let got = solve_knapsack_budgeted(181, &sizes, &values, 2_000_000);
    let want = reference::solve_knapsack_budgeted(181, &sizes, &values, 2_000_000);
    assert_same(&got, &want, "equal-density");
    assert_eq!(got.value, 420.0, "optimum fills 180 of 181");
    assert!(got.pruned > 0, "dominance never fired");
    assert!(
        got.nodes < want.nodes,
        "state table should shrink the search ({} vs {})",
        got.nodes,
        want.nodes
    );
}

/// Both solvers, unbudgeted, on one instance: element-wise the same
/// solution, and the run cut and the state table only remove nodes.
fn assert_same_in_fewer_nodes(
    capacity: u64,
    sizes: &[u64],
    values: &[f64],
    label: &str,
) -> (KnapsackSolution, KnapsackSolution) {
    let got = solve_knapsack_budgeted(capacity, sizes, values, 2_000_000);
    let want = reference::solve_knapsack_budgeted(capacity, sizes, values, 2_000_000);
    assert_same(&got, &want, label);
    assert!(
        got.nodes <= want.nodes,
        "{label}: optimized expanded more nodes ({} vs {})",
        got.nodes,
        want.nodes
    );
    (got, want)
}

/// `(count, size, value)` runs of identical items, flattened.
fn runs(spec: &[(usize, u64, f64)]) -> (Vec<u64>, Vec<f64>) {
    spec.iter()
        .flat_map(|&(n, size, value)| std::iter::repeat_n((size, value), n))
        .unzip()
}

#[test]
fn run_cut_matches_the_reference_on_runs_of_identical_items() {
    // Four runs, interleaved in the input, as the service offers the
    // unbuilt partitions of several indexes.
    let (mut sizes, mut values) = runs(&[(6, 5, 11.0), (5, 3, 6.5), (4, 7, 15.0), (3, 2, 4.25)]);
    let mut rng = SimRng::seed_from_u64(0x1B08);
    for i in (1..sizes.len()).rev() {
        let j = rng.uniform_u64(0, i as u64 + 1) as usize;
        sizes.swap(i, j);
        values.swap(i, j);
    }
    let mut shrunk = 0;
    for capacity in [0u64, 1, 10, 23, 37, 60, 89, 200] {
        let (got, want) =
            assert_same_in_fewer_nodes(capacity, &sizes, &values, &format!("cap={capacity}"));
        shrunk += usize::from(got.nodes < want.nodes);
    }
    assert!(shrunk > 0, "the run cut never removed a node");
}

#[test]
fn run_cut_keeps_equal_density_items_of_other_sizes() {
    // A run of (3, 7.0) between items of the same density (7/3) but
    // other sizes: they tie on density, so only size and value tell
    // them apart.
    let (sizes, values) = runs(&[(3, 6, 14.0), (8, 3, 7.0), (2, 9, 21.0), (2, 3, 7.0)]);
    for capacity in [0u64, 2, 10, 16, 31, 47, 100] {
        assert_same_in_fewer_nodes(capacity, &sizes, &values, &format!("cap={capacity}"));
    }
}

#[test]
fn run_cut_never_merges_values_one_ulp_apart() {
    // 7.0 and the next f64 up divide by 3 to the same density, so the
    // two size-3 items sort next to each other; the heavier one is the
    // optimum, and only a search that keeps them apart takes it.
    let heavier = 7.0f64.next_up();
    assert_eq!((7.0f64 / 3.0).to_bits(), (heavier / 3.0).to_bits());
    let sizes = [3u64, 3, 2];
    let values = [7.0, heavier, 4.0];
    let (got, _) = assert_same_in_fewer_nodes(4, &sizes, &values, "ulp");
    assert_eq!(got.chosen, vec![1], "the heavier twin is the optimum");
}

#[test]
fn run_cut_with_every_item_oversized_or_no_capacity() {
    let (sizes, values) = runs(&[(5, 50, 9.0), (3, 60, 11.0), (4, 41, 2.0)]);
    let (got, _) = assert_same_in_fewer_nodes(40, &sizes, &values, "oversized");
    assert!(got.chosen.is_empty());
    let (sizes, values) = runs(&[(6, 5, 11.0), (5, 3, 6.5), (4, 1, 0.5)]);
    let (got, _) = assert_same_in_fewer_nodes(0, &sizes, &values, "capacity 0");
    assert!(got.chosen.is_empty());
}

#[test]
fn node_budget_degradation_path_is_identical() {
    // Budget 0: both searches charge the root visit, exhaust the
    // budget, and fall back to the greedy incumbent — element-wise
    // identical including the node count (the state table never gets a
    // look-in before the budget check).
    let mut rng = SimRng::seed_from_u64(0x1B03);
    for round in 0..40 {
        let (sizes, values) = random_instance(&mut rng, 14, 30);
        let capacity = rng.uniform_u64(0, 120);
        let got = solve_knapsack_budgeted(capacity, &sizes, &values, 0);
        let want = reference::solve_knapsack_budgeted(capacity, &sizes, &values, 0);
        assert_same(&got, &want, &format!("budget0 round {round}"));
        assert_eq!(got.nodes, want.nodes, "budget0 round {round}: node counts");
        assert_eq!(got.pruned, 0, "budget0 round {round}: nothing was searched");
    }
}

#[test]
fn budgeted_solves_never_fall_below_the_reference() {
    // Under a mid-size budget the searches spend their nodes
    // differently, but the optimized visit order is the reference's
    // with useless subtrees removed — at equal budget it has always
    // seen every incumbent update the reference has, so its value
    // dominates. Both stay feasible.
    let mut rng = SimRng::seed_from_u64(0x1B04);
    for round in 0..60 {
        let (sizes, values) = random_instance(&mut rng, 16, 8);
        let capacity = rng.uniform_u64(0, 60);
        for budget in [5usize, 17, 64] {
            let got = solve_knapsack_budgeted(capacity, &sizes, &values, budget);
            let want = reference::solve_knapsack_budgeted(capacity, &sizes, &values, budget);
            assert!(
                got.value >= want.value - 1e-12,
                "round {round} budget {budget}: optimized {} < reference {}",
                got.value,
                want.value
            );
            assert!(got.size <= capacity, "round {round} budget {budget}");
            let val: f64 = got.chosen.iter().map(|&i| values[i]).sum();
            assert!(
                (val - got.value).abs() < 1e-6,
                "round {round} budget {budget}: value inconsistent with chosen set"
            );
        }
    }
}

/// A per-schedule pack outcome: what was placed, and the schedule it
/// left behind. Element-wise equality of these pins the whole
/// Algorithm 2 loop.
#[derive(Debug, PartialEq)]
struct PackResult {
    placed: Vec<BuildOp>,
    schedule: Schedule,
}

fn build_ops(n: u32, seed: u64) -> Vec<BuildOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(1 + rng.uniform_u64(0, 40)),
            gain: 0.5 + rng.uniform_u64(0, 1000) as f64 / 100.0,
        })
        .collect()
}

#[test]
fn pack_equivalent_on_real_schedules() {
    for (app, n_ops, n_builds, seed) in [
        (App::Montage, 60, 24u32, 0x1B05u64),
        (App::Cybershake, 80, 64, 0x1B06),
        (App::Ligo, 60, 120, 0x1B07),
    ] {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = app.generate(n_ops, &[], &mut rng);
        let scheduler = SkylineScheduler::new(SchedulerConfig::default());
        let skyline = scheduler.schedule(&dag);
        let pending = build_ops(n_builds, seed ^ 0xFF);
        for (i, s) in skyline.iter().enumerate() {
            let label = format!("{}:{n_ops}ops:{n_builds}builds:sched{i}", app.name());
            let mut opt_schedule = s.clone();
            let opt_placed = LpInterleaver::new(Q).interleave(&mut opt_schedule, &pending);
            let mut ref_schedule = s.clone();
            let ref_placed = reference::pack_reference(Q, &mut ref_schedule, &pending);
            let got = PackResult {
                placed: opt_placed,
                schedule: opt_schedule,
            };
            let want = PackResult {
                placed: ref_placed,
                schedule: ref_schedule,
            };
            assert_eq!(got, want, "{label}: pack diverged");
        }
    }
}

/// `n` pending builds of 1–120 s. Gains take few values, so the ranking
/// meets ties and must keep them in queue order.
fn offers(n: u32, seed: u64) -> Vec<BuildOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(1 + rng.uniform_u64(0, 120)),
            gain: rng.uniform_u64(0, 8) as f64,
        })
        .collect()
}

/// The online interleaver against the reference's in-search offers of
/// the same builds in decreasing gain order. Returns the builds placed.
fn assert_online_identical(
    dag: &Dag,
    config: &SchedulerConfig,
    pending: &[BuildOp],
    label: &str,
) -> usize {
    let mut ranked = pending.to_vec();
    ranked.sort_by(|a, b| b.gain.total_cmp(&a.gain));
    let optional: Vec<OptionalOp> = ranked
        .iter()
        .map(|b| OptionalOp {
            op: b.schedule_op_id(),
            duration: b.duration,
            build: b.build,
        })
        .collect();
    let got = OnlineInterleaver::new(SkylineScheduler::new(config.clone())).schedule(dag, pending);
    let want =
        ReferenceSkylineScheduler::new(config.clone()).schedule_with_optional(dag, &optional);
    assert_eq!(got.len(), want.len(), "{label}: skyline widths differ");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{label}: schedule {i} differs");
    }
    got.iter().map(|s| s.build_assignments().count()).sum()
}

fn app_dag(app: App, ops: usize, seed: u64) -> Dag {
    let mut rng = SimRng::seed_from_u64(seed);
    app.generate(ops, &[], &mut rng)
}

fn width(max_skyline: usize) -> SchedulerConfig {
    SchedulerConfig {
        max_skyline,
        ..SchedulerConfig::default()
    }
}

#[test]
fn equivalent_on_all_apps_at_60_ops() {
    let mut placed = 0;
    for app in App::ALL {
        let dag = app_dag(app, 60, 0xE0);
        let label = format!("{}:60:optional", app.name());
        placed += assert_online_identical(&dag, &width(8), &offers(24, 0xE1), &label);
    }
    assert!(placed > 0, "no offer placed a build");
}

#[test]
fn equivalent_on_all_apps_at_100_ops() {
    let mut placed = 0;
    for app in App::ALL {
        let dag = app_dag(app, 100, 0xE2);
        let label = format!("{}:100:optional", app.name());
        placed += assert_online_identical(&dag, &width(8), &offers(32, 0xE3), &label);
    }
    assert!(placed > 0, "no offer placed a build");
}

#[test]
fn equivalent_on_service_shaped_dataflows() {
    // DAGs as the service builds them: `DataflowFactory::make` over a
    // generated file database (operators carry partition reads), for
    // every app, planned at the service's cloud config and width 8,
    // with 24 offers and the service's full queue of 192.
    let mut rng = SimRng::seed_from_u64(0xE9);
    let filedb = FileDatabase::generate(&mut rng);
    let mut factory = DataflowFactory::new(filedb, 100, rng.fork());
    let config = SchedulerConfig::for_cloud(&CloudConfig::default(), 8);
    let (some, full_queue) = (offers(24, 0xEE), offers(192, 0xEF));
    let mut placed = 0;
    for (i, app) in App::ALL.into_iter().cycle().take(6).enumerate() {
        let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
        assert!(df.dag.ops().iter().any(|op| !op.reads.is_empty()));
        let label = format!("{}:service{i}", app.name());
        placed += assert_online_identical(&df.dag, &config, &some, &format!("{label}:optional"));
        placed += assert_online_identical(
            &df.dag,
            &config,
            &full_queue,
            &format!("{label}:optional192"),
        );
    }
    assert!(placed > 0, "no offer placed a build");
}

#[test]
fn equivalent_at_default_width_with_heavy_optional_load() {
    // The default 24-wide skyline with more builds than slots:
    // stresses first-fit placement on full leases and preemption of
    // placed tails.
    let dag = app_dag(App::Montage, 60, 0xE4);
    let config = SchedulerConfig::default();
    let placed = assert_online_identical(&dag, &config, &offers(48, 0xE5), "montage:60:wide");
    assert!(placed > 0, "no offer placed a build");
}

#[test]
fn equivalent_across_skyline_widths_including_one() {
    // Width 1 exercises the fixed division-by-zero cap in both
    // implementations; widths 2/4 exercise the even-spread keep list.
    let dag = app_dag(App::Cybershake, 60, 0xE6);
    for w in [1usize, 2, 4, 16] {
        let label = format!("cybershake:width{w}:optional");
        assert_online_identical(&dag, &width(w), &offers(12, 0xE7), &label);
    }
}

#[test]
fn equivalent_on_zero_duration_and_tight_quantum_edge_cases() {
    // Zero-duration ops produce (s, s) container spans, which take no
    // build, and a 7s quantum misaligns every lease boundary.
    use flowtune_dataflow::{Edge, OpSpec};
    let ops: Vec<OpSpec> = (0..12)
        .map(|i| {
            OpSpec::new(
                OpId(i),
                format!("op{i}"),
                SimDuration::from_secs((i as u64 * 5) % 3),
            )
        })
        .collect();
    let edges: Vec<Edge> = (1..12)
        .map(|i| Edge {
            from: OpId((i / 2) as u32),
            to: OpId(i as u32),
            bytes: (i as u64 % 3) * 800_000_000,
        })
        .collect();
    let dag = Dag::new(ops, edges).unwrap();
    let config = SchedulerConfig {
        quantum: SimDuration::from_secs(7),
        max_skyline: 6,
        ..SchedulerConfig::default()
    };
    assert_online_identical(&dag, &config, &offers(10, 0xE8), "edge:optional");
}
