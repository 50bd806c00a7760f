//! Reference skyline scheduler — the pre-optimization Algorithm 4.
//!
//! This is the original, clone-heavy implementation of
//! [`crate::skyline::SkylineScheduler`], retained verbatim (minus
//! observability instrumentation) as the behavioural baseline for the
//! incremental scheduler (DESIGN §5f):
//!
//! * the golden equivalence tests of this crate run it side-by-side
//!   with the optimized scheduler and assert byte-identical skylines;
//! * its [`ReferenceSkylineScheduler::schedule_with_optional`], which
//!   offers build operators between the search steps as §5.3.2
//!   describes, is the oracle of `flowtune-interleave`'s online
//!   interleaver, a pass over the finished plain skyline;
//! * `bench_sched` (crate `flowtune-bench`, feature `reference`) times
//!   both in the same process and records the speedup in
//!   `BENCH_sched.json`.
//!
//! It recomputes `money_quanta` from the container spans inside every
//! sort comparator, re-collects and re-sorts all assignments on every
//! idle tie-break, and deep-clones the entire partial schedule
//! (assignments plus per-op vectors) for every (partial × candidate
//! container) expansion — exactly the costs the optimized scheduler
//! eliminates. Do not "improve" this module: its value is that it stays
//! the simple, obviously-correct formulation of the search.
//!
//! The only delta from the historical code is the `max_skyline == 1`
//! width-cap fix (the even-spread index formula divided by
//! `max_skyline - 1`), applied identically in both implementations so
//! the equivalence suite can cover that configuration.

use flowtune_common::{ContainerId, OpId, SimDuration, SimTime};
use flowtune_dataflow::Dag;

use crate::schedule::{Assignment, BuildRef, Schedule};
use crate::skyline::SchedulerConfig;

/// An optional build-index operator offered to
/// [`ReferenceSkylineScheduler::schedule_with_optional`].
#[derive(Debug, Clone, Copy)]
pub struct OptionalOp {
    /// Synthetic id (must not collide with dataflow op ids).
    pub op: OpId,
    /// Estimated build duration.
    pub duration: SimDuration,
    /// What it builds.
    pub build: BuildRef,
}

/// The reference (pre-optimization) skyline scheduler.
#[derive(Debug, Clone, Default)]
pub struct ReferenceSkylineScheduler {
    /// Configuration (shared with the optimized scheduler).
    pub config: SchedulerConfig,
}

#[derive(Debug, Clone)]
struct Partial {
    assignments: Vec<Assignment>,
    /// Next free time per used container.
    container_free: Vec<SimTime>,
    /// Span of *dataflow* ops per container (billing basis).
    container_span: Vec<(SimTime, SimTime)>,
    /// Next free time per container counting optional (build) tail ops.
    opt_free: Vec<SimTime>,
    /// End time of each dataflow op assigned so far (ZERO = unassigned).
    op_end: Vec<SimTime>,
    /// Container of each dataflow op.
    op_container: Vec<u32>,
    makespan: SimDuration,
    optional_count: usize,
    /// Order-sensitive hash of the dataflow assignments; equal hashes =>
    /// identical dataflow skeletons (optional ops excluded).
    skeleton: u64,
}

impl Partial {
    fn new(n_ops: usize) -> Self {
        Partial {
            assignments: Vec::new(),
            container_free: Vec::new(),
            container_span: Vec::new(),
            opt_free: Vec::new(),
            op_end: vec![SimTime::ZERO; n_ops],
            op_container: vec![u32::MAX; n_ops],
            makespan: SimDuration::ZERO,
            optional_count: 0,
            skeleton: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn money_quanta(&self, quantum: SimDuration) -> u64 {
        // `e >= s` (not `>`): a container whose only ops are
        // zero-duration has span (s, s) but is still leased and billed
        // one quantum. The unused-container sentinel (MAX, ZERO) stays
        // excluded.
        self.container_span
            .iter()
            .filter(|(s, e)| e >= s)
            .map(|(s, e)| {
                let lease_start = s.quantum_floor(quantum);
                let lease_end = e.quantum_ceil(quantum).max(lease_start + quantum);
                (lease_end - lease_start).as_millis() / quantum.as_millis()
            })
            .sum()
    }

    /// Longest single idle gap across containers (tie-break criterion).
    fn longest_sequential_idle(&self, quantum: SimDuration) -> SimDuration {
        let mut best = SimDuration::ZERO;
        for (c, &(s, e)) in self.container_span.iter().enumerate() {
            if e <= s {
                continue;
            }
            let lease_start = s.quantum_floor(quantum);
            let lease_end = e.quantum_ceil(quantum).max(lease_start + quantum);
            // Dataflow assignments only: optional build ops are
            // preemptible filler and must not perturb the tie-break.
            let mut ops: Vec<(SimTime, SimTime)> = self
                .assignments
                .iter()
                .filter(|a| a.container.index() == c && a.build.is_none())
                .map(|a| (a.start, a.end))
                .collect();
            ops.sort_unstable();
            let mut cursor = lease_start;
            for (os, oe) in ops {
                if os > cursor {
                    best = best.max(os - cursor);
                }
                cursor = cursor.max(oe);
            }
            if lease_end > cursor {
                best = best.max(lease_end - cursor);
            }
        }
        best
    }
}

impl ReferenceSkylineScheduler {
    /// Create a reference scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        ReferenceSkylineScheduler { config }
    }

    /// Schedule a dataflow, returning the skyline of non-dominated
    /// schedules sorted by ascending execution time.
    pub fn schedule(&self, dag: &Dag) -> Vec<Schedule> {
        self.schedule_with_optional(dag, &[])
    }

    /// Schedule a dataflow while opportunistically placing optional
    /// build operators (the online interleaving algorithm of §5.3.2).
    pub fn schedule_with_optional(&self, dag: &Dag, optional: &[OptionalOp]) -> Vec<Schedule> {
        if dag.is_empty() {
            return vec![Schedule::new()];
        }
        let order = dag.topo_order();
        let n = order.len();
        let mut skyline = vec![Partial::new(dag.len())];
        // Offer optional ops evenly across the assignment steps.
        let mut next_opt = 0usize;
        for (step, &op) in order.iter().enumerate() {
            // Expand every partial with every candidate container.
            let mut expanded: Vec<Partial> = Vec::new();
            for p in &skyline {
                let used = p.container_free.len();
                let candidates = if (used as u32) < self.config.max_containers {
                    used + 1
                } else {
                    used
                };
                for c in 0..candidates {
                    expanded.push(self.assign_dataflow_op(p, dag, op, c));
                }
            }
            skyline = self.reduce(expanded);
            // Offer a proportional share of the optional queue.
            let opt_until = optional.len() * (step + 1) / n;
            while next_opt < opt_until {
                skyline = self.offer_optional(skyline, &optional[next_opt]);
                next_opt += 1;
            }
        }
        while next_opt < optional.len() {
            skyline = self.offer_optional(skyline, &optional[next_opt]);
            next_opt += 1;
        }
        let quantum = self.config.quantum;
        skyline.sort_by_key(|p| (p.makespan, p.money_quanta(quantum)));
        skyline
            .into_iter()
            .map(|p| Schedule::from_assignments(p.assignments))
            .collect()
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.config.network_bandwidth)
    }

    fn assign_dataflow_op(&self, p: &Partial, dag: &Dag, op: OpId, c: usize) -> Partial {
        let mut q = p.clone();
        if c == q.container_free.len() {
            q.container_free.push(SimTime::ZERO);
            q.container_span.push((SimTime::MAX, SimTime::ZERO));
            q.opt_free.push(SimTime::ZERO);
        }
        // Data-ready: every predecessor done, plus transfer when remote.
        let mut ready = SimTime::ZERO;
        for &pred in dag.preds(op) {
            let mut t = q.op_end[pred.index()];
            if q.op_container[pred.index()] != c as u32 {
                t += self.transfer_time(dag.edge_bytes(pred, op));
            }
            ready = ready.max(t);
        }
        // Dataflow ops see only other dataflow ops: an optional build op
        // occupying the container is preempted, so it never delays the
        // dataflow.
        let start = ready.max(q.container_free[c]);
        let end = start + dag.op(op).runtime;
        // Preempt optional tail ops that would overlap.
        q.assignments
            .retain(|a| !(a.build.is_some() && a.container.index() == c && a.end > start));
        q.optional_count = q.assignments.iter().filter(|a| a.build.is_some()).count();
        q.assignments.push(Assignment {
            op,
            container: ContainerId(c as u32),
            start,
            end,
            build: None,
        });
        q.container_free[c] = end;
        q.opt_free[c] = q.opt_free[c].max(end);
        let (s, e) = q.container_span[c];
        q.container_span[c] = (s.min(start), e.max(end));
        q.op_end[op.index()] = end;
        q.op_container[op.index()] = c as u32;
        q.makespan = q.makespan.max(end - SimTime::ZERO);
        for word in [op.0 as u64, c as u64, start.as_millis()] {
            q.skeleton ^= word;
            q.skeleton = q.skeleton.wrapping_mul(0x1000_0000_01b3);
        }
        q
    }

    /// Union each partial with versions that place `opt` on some
    /// container's free tail inside the current leased span.
    fn offer_optional(&self, skyline: Vec<Partial>, opt: &OptionalOp) -> Vec<Partial> {
        let quantum = self.config.quantum;
        let mut out = Vec::with_capacity(skyline.len() * 2);
        for p in &skyline {
            for c in 0..p.container_free.len() {
                let (s, e) = p.container_span[c];
                if e <= s {
                    continue;
                }
                let lease_start = s.quantum_floor(quantum);
                let lease_end = e.quantum_ceil(quantum).max(lease_start + quantum);
                let start = p.opt_free[c].max(p.container_free[c]);
                let end = start + opt.duration;
                if end <= lease_end {
                    let mut q = p.clone();
                    q.assignments.push(Assignment {
                        op: opt.op,
                        container: ContainerId(c as u32),
                        start,
                        end,
                        build: Some(opt.build),
                    });
                    q.opt_free[c] = end;
                    q.optional_count += 1;
                    out.push(q);
                }
            }
        }
        out.extend(skyline);
        self.reduce(out)
    }

    /// Skyline reduction: collapse equal (time, money) groups with the
    /// tie-break (more operators, then most sequential idle), drop
    /// dominated partials, cap the width.
    fn reduce(&self, mut partials: Vec<Partial>) -> Vec<Partial> {
        let quantum = self.config.quantum;
        partials.sort_by_key(|p| (p.makespan, p.money_quanta(quantum)));
        // Collapse ties.
        let mut collapsed: Vec<Partial> = Vec::new();
        for p in partials {
            match collapsed.last_mut() {
                Some(last)
                    if last.makespan == p.makespan
                        && last.money_quanta(quantum) == p.money_quanta(quantum) =>
                {
                    // Primary tie-break: most sequential idle over the
                    // dataflow skeleton. Only between skeleton-equivalent
                    // candidates does the optional-operator count decide.
                    let p_idle = p.longest_sequential_idle(quantum);
                    let last_idle = last.longest_sequential_idle(quantum);
                    let better = match p_idle.cmp(&last_idle) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => {
                            p.skeleton == last.skeleton && p.optional_count > last.optional_count
                        }
                    };
                    if better {
                        *last = p;
                    }
                }
                _ => collapsed.push(p),
            }
        }
        // Drop dominated: sorted by time asc, keep strictly decreasing money.
        let mut front: Vec<Partial> = Vec::new();
        let mut best_money = u64::MAX;
        for p in collapsed {
            let m = p.money_quanta(quantum);
            if m < best_money {
                best_money = m;
                front.push(p);
            }
        }
        // Cap width, keeping extremes and an even spread. A cap of one
        // keeps the fastest schedule (the historical even-spread index
        // formula divided by `max_skyline - 1`).
        if front.len() > self.config.max_skyline {
            if self.config.max_skyline <= 1 {
                front.truncate(self.config.max_skyline);
                return front;
            }
            let n = front.len();
            let keep: Vec<usize> = (0..self.config.max_skyline)
                .map(|i| i * (n - 1) / (self.config.max_skyline - 1))
                .collect();
            let mut kept = Vec::with_capacity(self.config.max_skyline);
            let mut front_iter = front.into_iter().enumerate();
            let mut keep_iter = keep.into_iter().peekable();
            for (i, p) in front_iter.by_ref() {
                if keep_iter.peek() == Some(&i) {
                    kept.push(p);
                    keep_iter.next();
                }
            }
            front = kept;
        }
        front
    }
}
