//! Property tests over random DAGs: every scheduler output is valid,
//! billing is consistent, and the Pareto front is well-formed.
//!
//! Inputs are generated from a seeded `SimRng`, so every case is
//! reproducible: a failure report's seed pins the exact DAG.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] fns fail fast on a broken fixture"
)]

use flowtune_common::{Money, OpId, SimDuration, SimRng};
use flowtune_dataflow::{App, Dag, Edge, OpSpec};
use flowtune_sched::{
    idle_slots, total_fragmentation, OnlineLoadBalanceScheduler, SchedulerConfig, SkylineScheduler,
};

const Q: SimDuration = SimDuration::from_secs(60);

/// Random layered DAG: `widths` defines ops per layer; each op gets a
/// random subset of the previous layer as predecessors.
fn layered_dag(widths: &[u8], runtimes: &[u16], edge_choices: &[u8]) -> Dag {
    let mut ops = Vec::new();
    let mut edges = Vec::new();
    let mut prev_layer: Vec<OpId> = Vec::new();
    let mut rt = runtimes.iter().cycle();
    let mut ec = edge_choices.iter().cycle();
    for &w in widths {
        let w = (w % 6) + 1;
        let mut layer = Vec::new();
        for _ in 0..w {
            let id = OpId::from_index(ops.len());
            let secs = (*rt.next().unwrap() % 300) as u64 + 1;
            ops.push(OpSpec::new(
                id,
                format!("op{}", id.0),
                SimDuration::from_secs(secs),
            ));
            // Connect to 1..=2 predecessors from the previous layer.
            if !prev_layer.is_empty() {
                let n_preds = (*ec.next().unwrap() % 2) as usize + 1;
                for k in 0..n_preds.min(prev_layer.len()) {
                    let p = prev_layer[(*ec.next().unwrap() as usize + k) % prev_layer.len()];
                    let bytes = (*ec.next().unwrap() as u64) * 1_000_000;
                    if !edges.iter().any(|e: &Edge| e.from == p && e.to == id) {
                        edges.push(Edge {
                            from: p,
                            to: id,
                            bytes,
                        });
                    }
                }
            }
            layer.push(id);
        }
        prev_layer = layer;
    }
    Dag::new(ops, edges).expect("layered construction is acyclic")
}

fn random_u8_vec(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let n = rng.uniform_u64(lo, hi) as usize;
    (0..n).map(|_| rng.uniform_u64(0, 256) as u8).collect()
}

fn random_u16_vec(rng: &mut SimRng, lo: u64, hi: u64, max: u64) -> Vec<u16> {
    let n = rng.uniform_u64(lo, hi) as usize;
    (0..n).map(|_| rng.uniform_u64(1, max + 1) as u16).collect()
}

#[test]
fn skyline_front_is_valid_and_sorted() {
    let mut rng = SimRng::seed_from_u64(0x5CED1);
    for _ in 0..24 {
        let widths = random_u8_vec(&mut rng, 2, 6);
        let runtimes = random_u16_vec(&mut rng, 4, 12, 500);
        let edge_choices = random_u8_vec(&mut rng, 8, 32);
        let dag = layered_dag(&widths, &runtimes, &edge_choices);
        let scheduler = SkylineScheduler::new(SchedulerConfig {
            max_skyline: 6,
            ..Default::default()
        });
        let front = scheduler.schedule(&dag);
        assert!(!front.is_empty());
        let mut last: Option<(SimDuration, u64)> = None;
        for s in &front {
            s.validate(&dag).unwrap();
            // Makespan can never beat the critical path.
            assert!(s.makespan() >= dag.critical_path());
            // Billing covers at least the busy time.
            let busy: SimDuration = dag.ops().iter().map(|o| o.runtime).sum();
            let leased = Q * s.leased_quanta(Q);
            assert!(leased >= busy.saturating_sub(SimDuration::from_millis(1)));
            // Front strictly improves money as time grows.
            let point = (s.makespan(), s.leased_quanta(Q));
            if let Some(prev) = last {
                assert!(point.0 > prev.0, "front must be time-sorted");
                assert!(point.1 < prev.1, "front must be money-improving");
            }
            last = Some(point);
        }
    }
}

#[test]
fn fragmentation_is_lease_minus_busy() {
    let mut rng = SimRng::seed_from_u64(0x5CED2);
    for _ in 0..24 {
        let widths = random_u8_vec(&mut rng, 2, 5);
        let runtimes = random_u16_vec(&mut rng, 4, 10, 400);
        let edge_choices = random_u8_vec(&mut rng, 8, 24);
        let dag = layered_dag(&widths, &runtimes, &edge_choices);
        let schedule = OnlineLoadBalanceScheduler::default().schedule(&dag);
        let leased_ms: u64 = schedule.leased_quanta(Q) * Q.as_millis();
        let busy_ms: u64 = dag.ops().iter().map(|o| o.runtime.as_millis()).sum();
        let frag = total_fragmentation(&schedule, Q).as_millis();
        assert_eq!(leased_ms, busy_ms + frag, "lease = busy + idle");
        // Idle slots never overlap operators.
        for slot in idle_slots(&schedule, Q) {
            for a in schedule.on_container(slot.container) {
                assert!(a.end <= slot.start || a.start >= slot.end);
            }
        }
    }
}

#[test]
fn both_schedulers_agree_on_work_conservation() {
    for seed in (0u64..1000).step_by(40) {
        let mut rng = SimRng::seed_from_u64(seed);
        let app = *rng.choose(&App::ALL);
        let dag = app.generate(40, &[], &mut rng);
        let lb = OnlineLoadBalanceScheduler::default().schedule(&dag);
        let sky = SkylineScheduler::new(SchedulerConfig {
            max_skyline: 4,
            ..Default::default()
        })
        .schedule(&dag)
        .remove(0);
        for s in [&lb, &sky] {
            s.validate(&dag).unwrap();
            assert_eq!(s.dataflow_assignments().count(), dag.len());
            assert!(s.money(Q, Money::from_dollars(0.1)) > Money::ZERO);
        }
        // The skyline's fastest schedule is never slower than load
        // balance by more than the communication it saves... just check
        // both respect the critical path.
        assert!(lb.makespan() >= dag.critical_path());
        assert!(sky.makespan() >= dag.critical_path());
    }
}
