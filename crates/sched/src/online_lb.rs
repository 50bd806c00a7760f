//! The online load-balance baseline scheduler.
//!
//! "An online load balance scheduler (online) typically deployed in
//! elastic clouds" (§6): it examines the dataflow graph in an online
//! greedy fashion, assigning each ready operator to the least-loaded
//! container so that load balance is achieved. It produces a single
//! schedule and, crucially, ignores data placement — which is why it
//! loses badly on data-intensive dataflows (Fig. 7).

#[cfg(test)]
use flowtune_common::OpId;
use flowtune_common::{ContainerId, SimDuration, SimTime};
use flowtune_dataflow::Dag;

use crate::schedule::{Assignment, Schedule};

/// The baseline scheduler.
#[derive(Debug, Clone)]
pub struct OnlineLoadBalanceScheduler {
    /// Pool size: containers to balance across. The paper's elastic
    /// setting sizes the pool to the dataflow's parallelism, bounded by
    /// the provider cap.
    pub max_containers: u32,
    /// Network bandwidth (bytes/s) for inter-container transfers — the
    /// transfers still *happen*, the scheduler just doesn't optimise for
    /// them.
    pub network_bandwidth: f64,
}

impl Default for OnlineLoadBalanceScheduler {
    fn default() -> Self {
        OnlineLoadBalanceScheduler {
            max_containers: 100,
            network_bandwidth: 1e9 / 8.0,
        }
    }
}

impl OnlineLoadBalanceScheduler {
    /// Create a baseline scheduler.
    pub fn new(max_containers: u32, network_bandwidth: f64) -> Self {
        OnlineLoadBalanceScheduler {
            max_containers,
            network_bandwidth,
        }
    }

    /// Produce the single greedy schedule.
    pub fn schedule(&self, dag: &Dag) -> Schedule {
        if dag.is_empty() {
            return Schedule::new();
        }
        let pool = (dag.width().max(1) as u32).min(self.max_containers) as usize;
        let mut free = vec![SimTime::ZERO; pool];
        let mut load = vec![SimDuration::ZERO; pool];
        let mut op_end = vec![SimTime::ZERO; dag.len()];
        let mut op_container = vec![0usize; dag.len()];
        let mut assignments = Vec::with_capacity(dag.len());
        for op in dag.topo_order() {
            // Least loaded container (ties: lowest id) — load balance,
            // blind to where the inputs live.
            #[expect(
                clippy::expect_used,
                reason = "ServiceConfig::validate rejects a zero container pool"
            )]
            let c = (0..pool)
                .min_by_key(|&c| (load[c], c))
                .expect("pool is non-empty");
            let mut ready = SimTime::ZERO;
            for &pred in dag.preds(op) {
                let mut t = op_end[pred.index()];
                if op_container[pred.index()] != c {
                    t += SimDuration::from_secs_f64(
                        dag.edge_bytes(pred, op) as f64 / self.network_bandwidth,
                    );
                }
                ready = ready.max(t);
            }
            let start = ready.max(free[c]);
            let end = start + dag.op(op).runtime;
            assignments.push(Assignment {
                op,
                container: ContainerId(c as u32),
                start,
                end,
                build: None,
            });
            free[c] = end;
            load[c] += dag.op(op).runtime;
            op_end[op.index()] = end;
            op_container[op.index()] = c;
        }
        Schedule::from_assignments(assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;
    use flowtune_dataflow::{App, Edge, OpSpec};

    fn op(i: u32, secs: u64) -> OpSpec {
        OpSpec::new(OpId(i), format!("op{i}"), SimDuration::from_secs(secs))
    }

    #[test]
    fn produces_valid_schedules() {
        let sched = OnlineLoadBalanceScheduler::default();
        let mut rng = SimRng::seed_from_u64(1);
        for app in App::ALL {
            let dag = app.generate(100, &[], &mut rng);
            let s = sched.schedule(&dag);
            s.validate(&dag).unwrap();
        }
    }

    #[test]
    fn parallel_ops_are_spread() {
        // Three independent 30 s ops: load balancing uses 3 containers.
        let dag = Dag::new(vec![op(0, 30), op(1, 30), op(2, 30)], vec![]).unwrap();
        let s = OnlineLoadBalanceScheduler::default().schedule(&dag);
        assert_eq!(s.containers().len(), 3);
        assert_eq!(s.makespan(), SimDuration::from_secs(30));
    }

    #[test]
    fn respects_container_cap() {
        let dag = Dag::new((0..10).map(|i| op(i, 10)).collect(), vec![]).unwrap();
        let s = OnlineLoadBalanceScheduler::new(2, 1e9 / 8.0).schedule(&dag);
        assert!(s.containers().len() <= 2);
        s.validate(&dag).unwrap();
    }

    #[test]
    fn ignores_data_placement_unlike_skyline() {
        // Chain with an enormous edge: LB may place the consumer on an
        // idle container and eat the transfer; either way the schedule
        // stays *valid*, it's just slower than co-location.
        let dag = Dag::new(
            vec![op(0, 10), op(1, 5), op(2, 10)],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 12_500_000_000,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(2),
                    bytes: 0,
                },
            ],
        )
        .unwrap();
        let s = OnlineLoadBalanceScheduler::default().schedule(&dag);
        s.validate(&dag).unwrap();
    }

    #[test]
    fn empty_dag() {
        let dag = Dag::new(vec![], vec![]).unwrap();
        assert!(OnlineLoadBalanceScheduler::default()
            .schedule(&dag)
            .is_empty());
    }
}
