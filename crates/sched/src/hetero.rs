//! Heterogeneous VM pools — the paper's §7 future work ("evaluate the
//! benefits of index management for scenarios with heterogeneous cloud
//! resources") and §3's remark that "the scheduler can consider slots
//! at different VM types".
//!
//! [`HeterogeneousScheduler`] generalises the skyline search: each
//! candidate assignment may open a fresh container of *any* VM type;
//! operator runtimes scale with the type's speed factor and leased
//! quanta are billed at the type's price. The result is a
//! [`HeteroSchedule`] — a plain [`Schedule`] plus the per-container
//! type assignment, with its own billing.

use flowtune_common::{ContainerId, Money, OpId, SimDuration, SimTime};
use flowtune_dataflow::Dag;

use crate::schedule::{lease_end, Assignment, Schedule};

/// One VM type on offer.
#[derive(Debug, Clone, PartialEq)]
pub struct VmType {
    /// Display name (e.g. "standard", "fast", "eco").
    pub name: String,
    /// Relative CPU speed; operator runtime = base / speed.
    pub speed: f64,
    /// Price per leased quantum.
    pub price_per_quantum: Money,
}

impl VmType {
    /// Construct a type.
    pub fn new(name: impl Into<String>, speed: f64, price_per_quantum: Money) -> Self {
        assert!(speed > 0.0, "VM speed must be positive");
        VmType {
            name: name.into(),
            speed,
            price_per_quantum,
        }
    }

    /// The paper's homogeneous container (speed 1, $0.1/quantum).
    pub fn standard() -> Self {
        VmType::new("standard", 1.0, Money::from_dollars(0.1))
    }
}

/// A schedule over a typed container pool.
#[derive(Debug, Clone)]
pub struct HeteroSchedule {
    /// The operator assignments (container ids index into
    /// `container_types`).
    pub schedule: Schedule,
    /// VM-type index (into the scheduler's type list) per container.
    pub container_types: Vec<usize>,
    /// The type list the indexes refer to.
    pub types: Vec<VmType>,
}

impl HeteroSchedule {
    /// Execution time (same definition as the homogeneous schedule).
    pub fn makespan(&self) -> SimDuration {
        self.schedule.makespan()
    }

    /// Monetary cost: leased quanta per container, billed at the
    /// container's type price.
    pub fn money(&self, quantum: SimDuration) -> Money {
        self.schedule
            .containers()
            .into_iter()
            .filter_map(|c| {
                let (s, e) = self.schedule.leased_span(c, quantum)?;
                let quanta = ((e - s).as_millis() / quantum.as_millis()) as i64;
                let ty = &self.types[self.container_types[c.index()]];
                Some(ty.price_per_quantum * quanta)
            })
            .sum()
    }
}

/// Skyline scheduler over a heterogeneous pool.
#[derive(Debug, Clone)]
pub struct HeterogeneousScheduler {
    /// Available VM types (at least one).
    pub types: Vec<VmType>,
    /// Maximum total containers.
    pub max_containers: u32,
    /// Skyline width cap.
    pub max_skyline: usize,
    /// Billing quantum.
    pub quantum: SimDuration,
    /// Network bandwidth for inter-container transfers (bytes/s).
    pub network_bandwidth: f64,
}

impl HeterogeneousScheduler {
    /// Scheduler over the given types with the paper's other defaults.
    pub fn new(types: Vec<VmType>) -> Self {
        assert!(!types.is_empty(), "need at least one VM type");
        HeterogeneousScheduler {
            types,
            max_containers: 100,
            max_skyline: 12,
            quantum: SimDuration::from_secs(60),
            network_bandwidth: 1e9 / 8.0,
        }
    }

    /// Skyline of typed schedules, sorted by ascending execution time.
    pub fn schedule(&self, dag: &Dag) -> Vec<HeteroSchedule> {
        if dag.is_empty() {
            return vec![HeteroSchedule {
                schedule: Schedule::new(),
                container_types: Vec::new(),
                types: self.types.clone(),
            }];
        }
        let mut skyline = vec![Partial::new(dag.len())];
        for op in dag.topo_order() {
            let mut expanded = Vec::new();
            for p in &skyline {
                // Existing containers plus one fresh container per type.
                for c in 0..p.container_type.len() {
                    expanded.push(self.assign(p, dag, op, c, p.container_type[c]));
                }
                if (p.container_type.len() as u32) < self.max_containers {
                    for ty in 0..self.types.len() {
                        expanded.push(self.assign(p, dag, op, p.container_type.len(), ty));
                    }
                }
            }
            skyline = self.reduce(expanded);
        }
        skyline.sort_by(|a, b| {
            a.makespan
                .cmp(&b.makespan)
                .then(a.money(self).cmp(&b.money(self)))
        });
        skyline
            .into_iter()
            .map(|p| HeteroSchedule {
                schedule: Schedule::from_assignments(p.assignments),
                container_types: p.container_type,
                types: self.types.clone(),
            })
            .collect()
    }

    fn assign(&self, p: &Partial, dag: &Dag, op: OpId, c: usize, ty: usize) -> Partial {
        let mut q = p.clone();
        if c == q.container_type.len() {
            q.container_type.push(ty);
            q.container_free.push(SimTime::ZERO);
            q.container_span.push((SimTime::MAX, SimTime::ZERO));
        }
        let mut ready = SimTime::ZERO;
        for &pred in dag.preds(op) {
            let mut t = q.op_end[pred.index()];
            if q.op_container[pred.index()] != c as u32 {
                t += SimDuration::from_secs_f64(
                    dag.edge_bytes(pred, op) as f64 / self.network_bandwidth,
                );
            }
            ready = ready.max(t);
        }
        let start = ready.max(q.container_free[c]);
        let runtime = dag.op(op).runtime.mul_f64(1.0 / self.types[ty].speed);
        let end = start + runtime;
        q.assignments.push(Assignment {
            op,
            container: ContainerId(c as u32),
            start,
            end,
            build: None,
        });
        q.container_free[c] = end;
        let (s, e) = q.container_span[c];
        q.container_span[c] = (s.min(start), e.max(end));
        q.op_end[op.index()] = end;
        q.op_container[op.index()] = c as u32;
        q.makespan = q.makespan.max(end - SimTime::ZERO);
        q
    }

    fn reduce(&self, mut partials: Vec<Partial>) -> Vec<Partial> {
        partials.sort_by(|a, b| {
            a.makespan
                .cmp(&b.makespan)
                .then(a.money(self).cmp(&b.money(self)))
        });
        partials.dedup_by(|b, a| a.makespan == b.makespan && a.money(self) == b.money(self));
        let mut front: Vec<Partial> = Vec::new();
        let mut best_money = Money::from_micros(i64::MAX);
        for p in partials {
            let m = p.money(self);
            if m < best_money {
                best_money = m;
                front.push(p);
            }
        }
        if front.len() > self.max_skyline {
            let n = front.len();
            let keep: Vec<usize> = (0..self.max_skyline)
                .map(|i| i * (n - 1) / (self.max_skyline - 1))
                .collect();
            front = front
                .into_iter()
                .enumerate()
                .filter(|(i, _)| keep.contains(i))
                .map(|(_, p)| p)
                .collect();
        }
        front
    }
}

#[derive(Debug, Clone)]
struct Partial {
    assignments: Vec<Assignment>,
    container_type: Vec<usize>,
    container_free: Vec<SimTime>,
    container_span: Vec<(SimTime, SimTime)>,
    op_end: Vec<SimTime>,
    op_container: Vec<u32>,
    makespan: SimDuration,
}

impl Partial {
    fn new(n_ops: usize) -> Self {
        Partial {
            assignments: Vec::new(),
            container_type: Vec::new(),
            container_free: Vec::new(),
            container_span: Vec::new(),
            op_end: vec![SimTime::ZERO; n_ops],
            op_container: vec![u32::MAX; n_ops],
            makespan: SimDuration::ZERO,
        }
    }

    fn money(&self, sched: &HeterogeneousScheduler) -> Money {
        let quantum = sched.quantum;
        self.container_span
            .iter()
            .zip(&self.container_type)
            .filter(|((s, e), _)| e > s)
            .map(|((s, e), &ty)| {
                let (ls, le) = (s.quantum_floor(quantum), lease_end(*s, *e, quantum));
                let quanta = ((le - ls).as_millis() / quantum.as_millis()) as i64;
                sched.types[ty].price_per_quantum * quanta
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;
    use flowtune_dataflow::{App, Edge, OpSpec};

    fn mixed_pool() -> Vec<VmType> {
        vec![
            VmType::new("eco", 0.5, Money::from_dollars(0.04)),
            VmType::standard(),
            VmType::new("fast", 2.0, Money::from_dollars(0.25)),
        ]
    }

    fn chain(n: u32, secs: u64) -> Dag {
        let ops = (0..n)
            .map(|i| OpSpec::new(OpId(i), format!("op{i}"), SimDuration::from_secs(secs)))
            .collect();
        let edges = (1..n)
            .map(|i| Edge {
                from: OpId(i - 1),
                to: OpId(i),
                bytes: 0,
            })
            .collect();
        Dag::new(ops, edges).unwrap()
    }

    #[test]
    fn fast_type_shortens_the_fast_end_of_the_front() {
        // A pure chain: only a faster VM can beat the critical path.
        let dag = chain(5, 30);
        let homo = HeterogeneousScheduler::new(vec![VmType::standard()]);
        let hetero = HeterogeneousScheduler::new(mixed_pool());
        let fastest_homo = homo.schedule(&dag).remove(0);
        let fastest_hetero = hetero.schedule(&dag).remove(0);
        assert_eq!(fastest_homo.makespan(), SimDuration::from_secs(150));
        assert_eq!(fastest_hetero.makespan(), SimDuration::from_secs(75));
        let first_type = fastest_hetero.container_types[0];
        assert_eq!(fastest_hetero.types[first_type].name, "fast");
    }

    #[test]
    fn eco_type_cheapens_the_cheap_end_of_the_front() {
        let dag = chain(4, 20);
        let homo = HeterogeneousScheduler::new(vec![VmType::standard()]);
        let hetero = HeterogeneousScheduler::new(mixed_pool());
        let q = SimDuration::from_secs(60);
        let cheapest_homo = homo.schedule(&dag).pop().unwrap().money(q);
        let cheapest_hetero = hetero.schedule(&dag).pop().unwrap().money(q);
        assert!(
            cheapest_hetero < cheapest_homo,
            "hetero {cheapest_hetero} >= homo {cheapest_homo}"
        );
    }

    #[test]
    fn single_standard_type_matches_homogeneous_billing() {
        let mut rng = SimRng::seed_from_u64(4);
        let dag = App::Montage.generate(60, &[], &mut rng);
        let hetero = HeterogeneousScheduler::new(vec![VmType::standard()]);
        let q = SimDuration::from_secs(60);
        for hs in hetero.schedule(&dag) {
            hs.schedule.validate(&dag).unwrap();
            // Money via typed billing equals the homogeneous formula.
            assert_eq!(hs.money(q), hs.schedule.money(q, Money::from_dollars(0.1)));
        }
    }

    #[test]
    fn typed_fronts_are_valid_and_pareto() {
        let mut rng = SimRng::seed_from_u64(5);
        let dag = App::Cybershake.generate(60, &[], &mut rng);
        let hetero = HeterogeneousScheduler::new(mixed_pool());
        let q = SimDuration::from_secs(60);
        let front = hetero.schedule(&dag);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].makespan() < w[1].makespan());
            assert!(w[0].money(q) > w[1].money(q));
        }
        for hs in &front {
            hs.schedule.validate(&dag).unwrap();
            assert_eq!(hs.container_types.len(), hs.schedule.containers().len());
        }
    }

    #[test]
    fn empty_dag() {
        let hetero = HeterogeneousScheduler::new(mixed_pool());
        let front = hetero.schedule(&Dag::new(vec![], vec![]).unwrap());
        assert_eq!(front.len(), 1);
        assert!(front[0].schedule.is_empty());
    }
}
