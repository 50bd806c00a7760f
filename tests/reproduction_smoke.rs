//! Qualitative reproduction checks: small-scale versions of the
//! paper's headline findings, asserted as tests so regressions in any
//! crate surface immediately.

use flowtune_common::{ExperimentParams, SimRng};
use flowtune_core::experiment::ExperimentSetup;
use flowtune_dataflow::App;
use flowtune_index::IndexCostModel;
use flowtune_interleave::{graham_greedy, merged_upper_bound, solve_knapsack};
use flowtune_sched::{OnlineLoadBalanceScheduler, SkylineScheduler};
use flowtune_storage::lineitem::SF2_ROWS;
use flowtune_storage::LineitemGenerator;

/// Table 5's ordering: index size percentage by column.
#[test]
fn table5_index_size_ordering_reproduces() {
    let schema = LineitemGenerator::schema();
    let table_rec = schema.avg_row_bytes();
    let pct = |column: &str| {
        let key = schema.column(column).unwrap().ty.avg_value_bytes();
        IndexCostModel::new(key + 8.0, table_rec).size_bytes(SF2_ROWS) as f64
            / (SF2_ROWS as f64 * table_rec)
            * 100.0
    };
    let comment = pct("comment");
    let shipinstruct = pct("shipinstruct");
    let commitdate = pct("commitdate");
    let orderkey = pct("orderkey");
    // Paper: 30.16 > 17.78 > 16.13 > 10.49.
    assert!(comment > shipinstruct && shipinstruct > commitdate && commitdate > orderkey);
    assert!((25.0..35.0).contains(&comment), "comment {comment:.1}%");
    assert!((8.0..13.0).contains(&orderkey), "orderkey {orderkey:.1}%");
}

/// Fig. 7's data-intensive finding: load balancing ignores placement,
/// so as data grows the online scheduler's money cost blows up and its
/// time advantage inverts.
#[test]
fn fig7_offline_scheduler_wins_on_data_intensive_dataflows() {
    let setup = ExperimentSetup::new(ExperimentParams::default());
    let quantum = setup.params.cloud.quantum;
    let offline = SkylineScheduler::new(setup.scheduler_config(8));
    let online = OnlineLoadBalanceScheduler::default();
    let mut rng = SimRng::seed_from_u64(77);
    let base = App::Cybershake.generate(100, &[], &mut rng);
    let scaled = |factor: u64| {
        let ops = base.ops().to_vec();
        let edges = base
            .edges()
            .iter()
            .map(|e| flowtune_dataflow::Edge {
                from: e.from,
                to: e.to,
                bytes: e.bytes * factor,
            })
            .collect();
        flowtune_dataflow::Dag::new(ops, edges).unwrap()
    };
    // Online always pays more (leases per parallelism, blind to data).
    let mut money_gap = Vec::new();
    for factor in [1u64, 20, 100] {
        let dag = scaled(factor);
        let off = offline.schedule(&dag).remove(0);
        let on = online.schedule(&dag);
        assert!(
            on.leased_quanta(quantum) > off.leased_quanta(quantum),
            "x{factor}: online money must exceed offline"
        );
        money_gap.push(on.leased_quanta(quantum) as f64 / off.leased_quanta(quantum) as f64);
    }
    // The money gap widens as the dataflow gets more data-intensive.
    assert!(
        money_gap[2] > money_gap[0],
        "money gap should grow with data intensity: {money_gap:?}"
    );
    // At extreme data intensity the online scheduler is also slower.
    let dag = scaled(100);
    let off = offline.schedule(&dag).remove(0);
    let on = online.schedule(&dag);
    assert!(
        on.makespan() >= off.makespan(),
        "x100: online {} still beat offline {}",
        on.makespan(),
        off.makespan()
    );
}

/// Fig. 11's finding: LP-quality packing is near the merged upper
/// bound and never below Graham.
#[test]
fn fig11_lp_packing_dominates_graham_and_nears_upper_bound() {
    // The Fig. 10 instance: 8 idle segments of 0.10-0.55 quanta, 24
    // build operators of 0.02-0.20 quanta, gain = execution time.
    let slots: Vec<u64> = [0.55, 0.48, 0.40, 0.33, 0.28, 0.22, 0.15, 0.10]
        .iter()
        .map(|q| (q * 60_000.0) as u64)
        .collect();
    let ops_quanta = [
        0.02, 0.03, 0.03, 0.04, 0.05, 0.05, 0.06, 0.07, 0.08, 0.08, 0.09, 0.10, 0.10, 0.11, 0.12,
        0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19, 0.19, 0.20,
    ];
    let sizes: Vec<u64> = ops_quanta
        .iter()
        .map(|q: &f64| (q * 60_000.0) as u64)
        .collect();
    let values: Vec<f64> = sizes.iter().map(|&s| s as f64 / 60_000.0).collect();
    let (_, graham) = graham_greedy(&slots, &sizes, &values);
    // LP-style: knapsack per slot, largest first.
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(slots[i]));
    let mut available = vec![true; sizes.len()];
    let mut lp = 0.0;
    for &s in &order {
        let idx: Vec<usize> = (0..sizes.len()).filter(|&i| available[i]).collect();
        let sz: Vec<u64> = idx.iter().map(|&i| sizes[i]).collect();
        let vl: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        let sol = solve_knapsack(slots[s], &sz, &vl);
        for &c in &sol.chosen {
            available[idx[c]] = false;
        }
        lp += sol.value;
    }
    let upper = merged_upper_bound(&slots, &sizes, &values);
    assert!(lp >= graham - 1e-9, "LP {lp} < Graham {graham}");
    assert!(lp <= upper + 1e-9);
    assert!(lp >= 0.90 * upper, "LP {lp} far from bound {upper}");
}

/// Fig. 8's finding at unit scale: on the same dataflow, LP interleaving
/// places at least as many build operators as online interleaving.
#[test]
fn fig8_lp_places_at_least_as_many_builds_as_online() {
    use flowtune_common::{BuildOpId, IndexId, SimDuration};
    use flowtune_interleave::{BuildOp, LpInterleaver, OnlineInterleaver};
    use flowtune_sched::BuildRef;

    let setup = ExperimentSetup::new(ExperimentParams::default());
    let scheduler = SkylineScheduler::new(setup.scheduler_config(8));
    let mut rng = SimRng::seed_from_u64(88);
    let dag = App::Montage.generate(100, &[], &mut rng);
    let pending: Vec<BuildOp> = (0..60u32)
        .map(|i| BuildOp {
            id: BuildOpId(i),
            build: BuildRef {
                index: IndexId(i / 4),
                part: i % 4,
            },
            duration: SimDuration::from_secs(5 + (i as u64 * 13) % 26),
            gain: 1.0 + (i as f64 * 0.29) % 4.0,
        })
        .collect();
    let mut lp_skyline = scheduler.schedule(&dag);
    let lp_best = LpInterleaver::new(setup.params.cloud.quantum)
        .interleave_skyline(&mut lp_skyline, &pending)
        .iter()
        .map(Vec::len)
        .max()
        .unwrap();
    let online_best = OnlineInterleaver::new(scheduler)
        .schedule(&dag, &pending)
        .iter()
        .map(|s| s.build_assignments().count())
        .max()
        .unwrap();
    assert!(
        lp_best >= online_best,
        "LP {lp_best} < online {online_best}"
    );
    assert!(lp_best > 0);
}
