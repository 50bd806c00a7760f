//! The skyline (Pareto) dataflow scheduler — Algorithm 4.
//!
//! Operators are assigned in dependency order; after each assignment the
//! set of non-dominated partial schedules over (execution time, monetary
//! cost) is recomputed. Between schedules equal in both objectives, the
//! one with the most sequential idle compute time wins (idle slots are
//! where index builds go). The search places dataflow operators only:
//! online interleaving (§5.3.2) is a pass over the finished skyline in
//! `flowtune-interleave`, next to LP interleaving.
//!
//! Two pragmatic bounds keep the exponential search tractable, both
//! standard for this scheduler family: candidate containers are the
//! already-used ones plus one fresh container (symmetry breaking), and
//! the skyline is capped at [`SchedulerConfig::max_skyline`] schedules
//! (evenly spaced along the time axis, extremes always kept).
//!
//! # Search state (DESIGN §5f, §5i)
//!
//! This is the inner loop of every run, so the state is built for cheap
//! expansion; the output is byte-identical to `crate::reference`,
//! pinned by the golden tests in `equivalence_tests`.
//!
//! * **Cached objectives.** A partial schedule carries its billed quanta
//!   and one 32-byte record per used container (span, free time, the
//!   longest idle gap before the billing tail, the lease end), so
//!   pricing an op is an add and a compare, and the idle tie-break
//!   reads cached fields.
//! * **The history is the placement table.** At step `k` every partial
//!   holds the 24-byte placements (container, start, end) of the first
//!   `k` ops of the topological order. The transfer table stores each
//!   predecessor's step position, and expansion reads its container
//!   and end time there. Full chunks of 32 placements are shared behind
//!   `Rc`, so copying a partial copies a pointer table and a short
//!   tail. The assignments are rebuilt only for the final skyline.
//! * **Delta expansion.** `SkylineScheduler::expand_parent` turns one
//!   parent into one 40-byte candidate per container: the parent's
//!   index, the placement and the objectives. The reduction runs on
//!   candidates; only its survivors become partial schedules.
//! * **Money-level reduce over member chains.** Pass 1 files each
//!   candidate under its money value and chains, in enumeration order,
//!   the candidates at the level's fastest makespan. A sweep in
//!   ascending money keeps the levels strictly faster than every
//!   cheaper one; pass 2 walks only their chains, fastest first, and
//!   folds the idle tie-break (memoized per parent as its two largest
//!   per-container contributions) over each.
//! * **Survivors take their parent.** The last survivor of a parent
//!   moves it and applies its delta in place; earlier ones refill a
//!   retired spare with `clone_from`. `sched.partial_clone_bytes`
//!   counts only the copies made. All scratch lives in one buffer set
//!   per call, cleared rather than freed between steps.

use std::rc::Rc;

use flowtune_common::{CloudConfig, ContainerId, Money, OpId, SimDuration, SimTime};
use flowtune_dataflow::Dag;

use crate::schedule::{lease_end, Assignment, Schedule};

/// Scheduler parameters.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum containers a schedule may lease (Table 3: 100).
    pub max_containers: u32,
    /// Skyline width cap.
    pub max_skyline: usize,
    /// Billing quantum.
    pub quantum: SimDuration,
    /// Per-quantum VM price.
    pub vm_price: Money,
    /// Network bandwidth (bytes/s) for inter-container edge transfers.
    pub network_bandwidth: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_containers: 100,
            max_skyline: 24,
            quantum: SimDuration::from_secs(60),
            vm_price: Money::from_dollars(0.1),
            network_bandwidth: 1e9 / 8.0,
        }
    }
}

impl SchedulerConfig {
    /// The configuration for `cloud`'s containers, quantum, VM price
    /// and bandwidth, with skyline width `max_skyline`.
    pub fn for_cloud(cloud: &CloudConfig, max_skyline: usize) -> Self {
        SchedulerConfig {
            max_containers: cloud.max_containers,
            max_skyline,
            quantum: cloud.quantum,
            vm_price: cloud.vm_price_per_quantum,
            network_bandwidth: cloud.network_bandwidth,
        }
    }
}

/// The skyline dataflow scheduler.
#[derive(Debug, Clone, Default)]
pub struct SkylineScheduler {
    /// Configuration.
    pub config: SchedulerConfig,
}

/// Billed quanta for one container's dataflow span.
fn lease_quanta(s: SimTime, e: SimTime, quantum: SimDuration) -> u64 {
    (lease_end(s, e, quantum) - s.quantum_floor(quantum)).as_millis() / quantum.as_millis()
}

/// One dataflow placement of a partial's history. The op is the one at
/// the same position of the topological order, and a dataflow op builds
/// nothing, so [`Partial::into_schedule`] rebuilds the [`Assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placed {
    container: u32,
    start: SimTime,
    end: SimTime,
}

const _: () = assert!(size_of::<Placed>() == 24);

/// Placements per frozen [`History`] chunk.
const HISTORY_CHUNK: usize = 32;

/// Append-only placement history with a frozen, structurally shared
/// prefix. The dataflow history of a partial schedule is only appended
/// to, so full chunks are frozen behind `Rc` and shared by every
/// descendant; a clone copies the pointer table plus the short open
/// tail instead of the whole history.
#[derive(Debug, Default)]
struct History {
    frozen: Vec<Rc<[Placed; HISTORY_CHUNK]>>,
    tail: Vec<Placed>,
}

impl Clone for History {
    fn clone(&self) -> Self {
        History {
            frozen: self.frozen.clone(),
            tail: self.tail.clone(),
        }
    }

    /// Refill in place, reusing the pointer table and tail allocations.
    fn clone_from(&mut self, source: &Self) {
        self.frozen.clone_from(&source.frozen);
        self.tail.clone_from(&source.tail);
    }
}

impl History {
    #[cfg(test)]
    fn len(&self) -> usize {
        self.frozen.len() * HISTORY_CHUNK + self.tail.len()
    }

    fn push(&mut self, placed: Placed) {
        self.tail.push(placed);
        if self.tail.len() == HISTORY_CHUNK {
            let chunk: [Placed; HISTORY_CHUNK] = std::array::from_fn(|i| self.tail[i]);
            self.frozen.push(Rc::new(chunk));
            self.tail.clear();
        }
    }

    /// The placement made at step `k`.
    fn get(&self, k: usize) -> Placed {
        let frozen = self.frozen.len() * HISTORY_CHUNK;
        if k < frozen {
            self.frozen[k / HISTORY_CHUNK][k % HISTORY_CHUNK]
        } else {
            self.tail[k - frozen]
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Placed> {
        self.frozen
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Bytes a clone memcpys: the frozen pointer table plus the tail.
    fn heap_bytes(&self) -> usize {
        self.frozen.len() * size_of::<usize>() + self.tail.len() * size_of::<Placed>()
    }
}

/// One used container of a [`Partial`]: four words, 32 bytes (pinned
/// by the assertion below), which is what `sched.partial_clone_bytes`
/// charges per container of a copied partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Container {
    /// Start of the container's first dataflow op: the start of its
    /// billed span. The span ends at `free`: ops on a container start
    /// no earlier than it is free, so an assignment only ever moves the
    /// span's end.
    start: SimTime,
    /// End of the container's last dataflow op: its next free time and
    /// the end of its billed span.
    free: SimTime,
    /// The longest idle gap strictly before the billing tail — the
    /// head gap from the lease start to the first dataflow op plus
    /// every gap between consecutive dataflow ops. Established on first
    /// assignment, extended on each later one.
    gap: SimDuration,
    /// Cache: `lease_end(start, free, quantum)`, the end of the billed
    /// lease. Set in [`SkylineScheduler::apply`], where it moves only
    /// when an op overruns it.
    lease_end: SimTime,
}

const _: () = assert!(size_of::<Container>() == 32);

impl Container {
    /// The container's contribution to the idle tie-break: its longest
    /// internal gap or its billing-tail gap, zero for an empty span.
    /// Reads only cached fields, so it divides nothing.
    fn idle(&self) -> SimDuration {
        if self.free <= self.start {
            return SimDuration::ZERO;
        }
        self.gap.max(self.lease_end - self.free)
    }
}

#[derive(Debug)]
pub(crate) struct Partial {
    /// Dataflow placements, one per step: entry `k` places the `k`-th
    /// op of the topological order. Append-only.
    dataflow: History,
    /// The used containers, by container id.
    containers: Vec<Container>,
    makespan: SimDuration,
    /// Cache: total billed quanta across containers. Updated by the
    /// touched container's lease-contribution delta on each assignment;
    /// always equals [`Partial::money_quanta`] recomputed from spans.
    money: u64,
}

impl Clone for Partial {
    fn clone(&self) -> Self {
        Partial {
            dataflow: self.dataflow.clone(),
            containers: self.containers.clone(),
            makespan: self.makespan,
            money: self.money,
        }
    }

    /// Refill a spare partial in place: every `Vec` keeps its
    /// allocation, so recycling a retired partial allocates nothing.
    /// The source is destructured, so a new field fails to compile
    /// until it is copied here too.
    fn clone_from(&mut self, source: &Self) {
        let Partial {
            dataflow,
            containers,
            makespan,
            money,
        } = source;
        self.dataflow.clone_from(dataflow);
        self.containers.clone_from(containers);
        self.makespan = *makespan;
        self.money = *money;
    }
}

impl Partial {
    /// A partial that has placed nothing and owns no allocation: the
    /// search's root, and the stand-in left in a parent's slot when a
    /// survivor takes the parent and no spare is at hand.
    pub(crate) fn new() -> Self {
        Partial {
            dataflow: History::default(),
            containers: Vec::new(),
            makespan: SimDuration::ZERO,
            money: 0,
        }
    }

    /// Recompute the billed quanta from the container spans — the
    /// ground truth the cached [`Partial::money`] field must equal
    /// (checked by tests and debug assertions).
    ///
    /// A container whose only ops are zero-duration has span (s, s) but
    /// is still leased and billed one quantum. `Schedule::leased_span`
    /// bills the same way, so the search's money objective matches the
    /// reported money.
    fn money_quanta(&self, quantum: SimDuration) -> u64 {
        self.containers
            .iter()
            .map(|c| lease_quanta(c.start, c.free, quantum))
            .sum()
    }

    /// Whether every container's cached lease end equals the lease end
    /// recomputed from its span, and the span starts at or before its
    /// free time: the invariants the lease-end pricing of
    /// [`SkylineScheduler::expand_parent`] relies on.
    fn leases_match(&self, quantum: SimDuration) -> bool {
        self.containers
            .iter()
            .all(|c| c.start <= c.free && c.lease_end == lease_end(c.start, c.free, quantum))
    }

    /// Longest single idle gap across containers (tie-break criterion)
    /// from the incremental per-container cache: O(containers). The
    /// search itself now reads [`IdleTops::best`]; tests pin this fold
    /// (and thereby the memo) against `longest_sequential_idle`.
    #[cfg(test)]
    pub(crate) fn idle_cached(&self) -> SimDuration {
        self.containers
            .iter()
            .map(Container::idle)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Reference recomputation of the idle tie-break from the raw
    /// dataflow placements (the pre-cache algorithm); tests pin
    /// `idle_cached` against it.
    #[cfg(test)]
    fn longest_sequential_idle(&self, quantum: SimDuration) -> SimDuration {
        let mut best = SimDuration::ZERO;
        for (c, u) in self.containers.iter().enumerate() {
            let (s, e) = (u.start, u.free);
            if e <= s {
                continue;
            }
            let lease_start = s.quantum_floor(quantum);
            let lease_end = lease_end(s, e, quantum);
            let mut ops: Vec<(SimTime, SimTime)> = self
                .dataflow
                .iter()
                .filter(|a| a.container as usize == c)
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

    /// Approximate heap bytes a clone of this partial copies (for the
    /// `sched.partial_clone_bytes` counter): the history's pointer
    /// table and open tail, and the containers.
    fn heap_bytes(&self) -> usize {
        self.dataflow.heap_bytes() + self.containers.len() * size_of::<Container>()
    }

    /// Number of containers leased so far.
    #[cfg(test)]
    pub(crate) fn containers_used(&self) -> usize {
        self.containers.len()
    }

    /// Rebuild the assignments in step order, with `order[k]` the op
    /// placed at step `k`.
    pub(crate) fn into_schedule(self, order: &[OpId]) -> Schedule {
        let out = (self.dataflow.iter().zip(order))
            .map(|(placed, &op)| Assignment {
                op,
                container: ContainerId(placed.container),
                start: placed.start,
                end: placed.end,
                build: None,
            })
            .collect();
        Schedule::from_assignments(out)
    }

    /// [`Partial::into_schedule`] for a partial that placed op `k` at
    /// step `k`, as the hand-built partials of the tests do.
    #[cfg(test)]
    pub(crate) fn into_schedule_by_id(self) -> Schedule {
        let order = id_order(self.dataflow.len());
        self.into_schedule(&order)
    }
}

/// A candidate expansion: the step's op placed on one container of a
/// parent partial, plus the objective values reduction needs. No
/// partial is cloned until a candidate survives the reduction.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Index of the parent in the current skyline.
    parent: u32,
    /// The container the op runs on, over `[start, end)`.
    container: u32,
    start: SimTime,
    end: SimTime,
    makespan: SimDuration,
    money: u64,
}

const _: () = assert!(size_of::<Cand>() == 40);

/// End of a level's member chain in [`StepBuffers::link`].
const NIL: u32 = u32::MAX;

/// Scratch for the steps of one `schedule()` call. Every buffer is
/// cleared, not freed, between steps, so each step reuses the
/// allocations of the one before.
#[derive(Default)]
struct StepBuffers {
    /// The step's candidates, in enumeration order.
    cands: Vec<Cand>,
    /// `(container, end, end + transfer)` of each predecessor of the
    /// op being assigned, read from the parent being expanded.
    preds: Vec<(u32, SimTime, SimTime)>,
    /// The step's distinct candidate money values, in first-seen order.
    levels: Vec<Level>,
    /// `(money, index into levels)` of every level, ascending in money.
    by_money: Vec<(u64, u32)>,
    /// Per candidate, the next member of its level's chain, or [`NIL`].
    link: Vec<u32>,
    /// The non-dominated levels, ascending in money.
    kept: Vec<u32>,
    /// Per-parent idle memo, filled the first time a parent's candidate
    /// meets a tie.
    tops: Vec<Option<IdleTops>>,
    /// The reduced front: the candidates that survive the step.
    front: Vec<Cand>,
    /// Per parent, the position in `front` of its last survivor.
    last_of: Vec<usize>,
    /// The next skyline while it is built; swapped with the current one.
    next: Vec<Partial>,
    /// Retired partials, refilled by the survivors that copy a parent.
    spares: Vec<Partial>,
}

/// One distinct money value among a step's candidates, with the chain
/// of candidates at its fastest makespan: its (makespan, money) group.
#[derive(Debug, Clone, Copy)]
struct Level {
    money: u64,
    /// Fastest makespan among the candidates at this money value.
    makespan: SimDuration,
    /// First and last member of the group, in enumeration order.
    head: u32,
    tail: u32,
}

/// Per-(op, predecessor) transfer durations, computed once per call
/// into one flat table aligned with [`Dag::preds`]: op `i`'s entries
/// are `items[off[i]..off[i + 1]]`, each the predecessor's step
/// position in the assignment order and the transfer duration. The
/// division producing each duration is the same one a per-candidate
/// recomputation would run, so every placement sees bit-identical
/// times.
struct XferTable {
    off: Vec<usize>,
    items: Vec<(u32, SimDuration)>,
}

impl XferTable {
    /// The table for assigning `dag`'s ops in `order`.
    fn new(sched: &SkylineScheduler, dag: &Dag, order: &[OpId]) -> Self {
        let mut step_of = vec![0u32; dag.len()];
        for (k, op) in order.iter().enumerate() {
            step_of[op.index()] = k as u32;
        }
        let mut off = Vec::with_capacity(dag.len() + 1);
        let mut items = Vec::with_capacity(dag.edges().len());
        off.push(0);
        for i in 0..dag.len() {
            let preds = dag.preds_with_bytes(OpId::from_index(i));
            items.extend(preds.map(|(p, b)| (step_of[p.index()], sched.transfer_time(b))));
            off.push(items.len());
        }
        XferTable { off, items }
    }

    fn of(&self, op: OpId) -> &[(u32, SimDuration)] {
        &self.items[self.off[op.index()]..self.off[op.index() + 1]]
    }
}

/// The op one step assigns, with what each expansion of it reads.
struct StepOp<'a> {
    runtime: SimDuration,
    /// Per-predecessor (step position, transfer duration).
    xfer: &'a [(u32, SimDuration)],
}

impl<'a> StepOp<'a> {
    fn new(dag: &Dag, op: OpId, xfer: &'a [(u32, SimDuration)]) -> Self {
        StepOp {
            runtime: dag.op(op).runtime,
            xfer,
        }
    }
}

/// `n` op ids in id order: the assignment order of the tests'
/// hand-built partials.
#[cfg(test)]
fn id_order(n: usize) -> Vec<OpId> {
    (0..n).map(OpId::from_index).collect()
}

/// Cap the front at `cap` schedules, keeping the extremes and an even
/// spread. A cap of one keeps the fastest schedule (the even-spread
/// index formula divides by `cap - 1`). The kept indices strictly
/// increase and never fall below their slot, so the front is compacted
/// in place.
fn cap_width(front: &mut Vec<Cand>, cap: usize) {
    if front.len() > cap {
        if cap > 1 {
            let n = front.len();
            for slot in 0..cap {
                front[slot] = front[slot * (n - 1) / (cap - 1)];
            }
        }
        front.truncate(cap);
    }
}

/// Per-parent memo for the idle tie-break: the two largest
/// per-container idle contributions plus the container holding the
/// largest. A dataflow delta changes exactly one container's
/// contribution, so the candidate's tie-break value is
/// `max(new contribution, best over the others)` — and "best over the
/// others" is `best` unless the touched container held it, in which
/// case it is `second`. One O(containers) pass per parent replaces an
/// O(containers) pass per tied candidate.
#[derive(Debug, Clone, Copy)]
struct IdleTops {
    /// Largest contribution (equals [`Partial::idle_cached`]).
    best: SimDuration,
    /// Container holding `best` (`usize::MAX` when no container
    /// contributes, so no candidate container ever matches it).
    best_c: usize,
    /// Largest contribution over the remaining containers; equals
    /// `best` when two containers tie.
    second: SimDuration,
}

impl IdleTops {
    fn of(p: &Partial) -> IdleTops {
        let mut tops = IdleTops {
            best: SimDuration::ZERO,
            best_c: usize::MAX,
            second: SimDuration::ZERO,
        };
        for (c, container) in p.containers.iter().enumerate() {
            let v = container.idle();
            if v > tops.best {
                tops.second = tops.best;
                tops.best = v;
                tops.best_c = c;
            } else if v > tops.second {
                tops.second = v;
            }
        }
        tops
    }
}

impl SkylineScheduler {
    /// Create a scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        SkylineScheduler { config }
    }

    /// Schedule a dataflow, returning the skyline of non-dominated
    /// schedules sorted by ascending execution time. Each schedule lists
    /// its assignments in step order: the topological order the search
    /// assigned the ops in.
    pub fn schedule(&self, dag: &Dag) -> Vec<Schedule> {
        if dag.is_empty() {
            return vec![Schedule::new()];
        }
        let order = dag.topo_order();
        let pred_xfer = XferTable::new(self, dag, &order);
        let mut skyline = self.run_steps(dag, &order, &pred_xfer);
        skyline.sort_by_key(|p| (p.makespan, p.money));
        skyline
            .into_iter()
            .map(|p| p.into_schedule(&order))
            .collect()
    }

    /// Candidate containers for expanding `p`: every used container
    /// plus one fresh container while under the fleet cap.
    fn candidate_containers(&self, p: &Partial) -> usize {
        let used = p.containers.len();
        if (used as u32) < self.config.max_containers {
            used + 1
        } else {
            used
        }
    }

    /// The assignment main loop: expand, reduce, materialize.
    fn run_steps(&self, dag: &Dag, order: &[OpId], pred_xfer: &XferTable) -> Vec<Partial> {
        let mut skyline = vec![Partial::new()];
        let mut buf = StepBuffers::default();
        for (step, &op) in order.iter().enumerate() {
            let assign = StepOp::new(dag, op, pred_xfer.of(op));
            // Expand every partial with every candidate container —
            // as cheap deltas, not clones.
            buf.cands.clear();
            for (pi, p) in skyline.iter().enumerate() {
                self.expand_parent(p, pi as u32, &assign, &mut buf.preds, &mut buf.cands);
            }
            let generated = buf.cands.len();
            self.advance(&mut skyline, &mut buf);
            flowtune_obs::obs_event!(
                "sched.step",
                step = step,
                op = op.0,
                candidates = generated,
                width = skyline.len(),
            );
            flowtune_obs::count("sched.steps", 1);
            flowtune_obs::count("sched.candidates", generated as u64);
            flowtune_obs::count(
                "sched.pruned",
                generated.saturating_sub(skyline.len()) as u64,
            );
            flowtune_obs::observe("sched.skyline_width", skyline.len() as f64);
        }
        skyline
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.config.network_bandwidth)
    }

    /// The expansion kernel: append to `out` one [`Cand`] per candidate
    /// container of `p` (skyline index `parent`), assigning the step's
    /// op there, without cloning anything. Placement times come from
    /// the predecessors' placements, read from `p`'s history into
    /// `preds` once per parent; money from the touched container's
    /// lease. The step loop and the tests both expand through here.
    fn expand_parent(
        &self,
        p: &Partial,
        parent: u32,
        assign: &StepOp<'_>,
        preds: &mut Vec<(u32, SimTime, SimTime)>,
        out: &mut Vec<Cand>,
    ) {
        let quantum = self.config.quantum;
        preds.clear();
        preds.extend(assign.xfer.iter().map(|&(k, dt)| {
            let placed = p.dataflow.get(k as usize);
            (placed.container, placed.end, placed.end + dt)
        }));
        for c in 0..self.candidate_containers(p) {
            // Data-ready: every predecessor done, plus transfer when remote.
            let mut ready = SimTime::ZERO;
            for &(on, local, remote) in preds.iter() {
                ready = ready.max(if on == c as u32 { local } else { remote });
            }
            let used = p.containers.get(c);
            let start = ready.max(used.map_or(SimTime::ZERO, |u| u.free));
            let end = start + assign.runtime;
            // Only container `c`'s lease changes. A used container's span
            // ends at `free <= start`, so the op only moves the span's
            // end, and adds quanta only when it ends past the cached
            // lease end — the one case that divides. The lease end is a
            // quantum boundary, so the quanta past it are
            // `ceil((end - lease_end) / quantum)`.
            let money = match used {
                None => p.money + lease_quanta(start, end, quantum),
                Some(u) if end <= u.lease_end => p.money,
                Some(u) => {
                    p.money
                        + (end - u.lease_end)
                            .as_millis()
                            .div_ceil(quantum.as_millis())
                }
            };
            out.push(Cand {
                parent,
                container: c as u32,
                start,
                end,
                makespan: p.makespan.max(end - SimTime::ZERO),
                money,
            });
        }
    }

    /// Container `used` (`None` = a fresh one) after a dataflow op runs
    /// on it over `[start, end)`. The gap the op leaves behind it is
    /// final (later ops start no earlier). The lease end is the cached
    /// one unless the op overruns it; only then, or on a fresh
    /// container, does this divide.
    fn touched(&self, used: Option<&Container>, start: SimTime, end: SimTime) -> Container {
        let quantum = self.config.quantum;
        match used {
            None => Container {
                start,
                free: end,
                gap: start - start.quantum_floor(quantum),
                lease_end: lease_end(start, end, quantum),
            },
            Some(u) => Container {
                start: u.start,
                free: end,
                gap: u.gap.max(start - u.free),
                lease_end: if end <= u.lease_end {
                    u.lease_end
                } else {
                    end.quantum_ceil(quantum)
                },
            },
        }
    }

    /// The candidate's idle tie-break value, from the parent's
    /// memoized top-2 per-container idle contributions with the touched
    /// container's entry (and a possible fresh container) overridden —
    /// O(1) per candidate instead of O(containers).
    fn cand_idle(&self, tops: IdleTops, p: &Partial, cand: &Cand) -> SimDuration {
        let oc = cand.container as usize;
        // Contribution of the touched container after the assignment.
        let touched = self
            .touched(p.containers.get(oc), cand.start, cand.end)
            .idle();
        // Max over the untouched containers: the parent's best, unless
        // the touched container held it — then the runner-up.
        let others = if oc == tops.best_c {
            tops.second
        } else {
            tops.best
        };
        touched.max(others)
    }

    /// Materialize a surviving candidate from a copy of its parent —
    /// refilling `spare` in place when one is given — plus the delta.
    fn materialize(&self, parent: &Partial, cand: &Cand, spare: Option<Partial>) -> Partial {
        flowtune_obs::count("sched.partial_clone_bytes", parent.heap_bytes() as u64);
        let mut q = match spare {
            Some(mut q) => {
                q.clone_from(parent);
                q
            }
            None => parent.clone(),
        };
        self.apply(&mut q, cand);
        q
    }

    /// Apply a surviving candidate in place to `q`, which holds (a copy
    /// of, or the moved) parent.
    fn apply(&self, q: &mut Partial, cand: &Cand) {
        flowtune_obs::count("sched.partials_expanded", 1);
        let Cand {
            container,
            start,
            end,
            ..
        } = *cand;
        let c = container as usize;
        let touched = self.touched(q.containers.get(c), start, end);
        if c == q.containers.len() {
            q.containers.push(touched);
        } else {
            q.containers[c] = touched;
        }
        q.dataflow.push(Placed {
            container,
            start,
            end,
        });
        q.makespan = cand.makespan;
        q.money = cand.money;
        debug_assert_eq!(q.money, q.money_quanta(self.config.quantum));
        // The lease-end pricing in `expand_parent` relies on this.
        debug_assert!(q.leases_match(self.config.quantum));
    }

    /// Reduce `buf.cands` against `parents` and replace them with the
    /// survivors. The last survivor of each parent takes the parent
    /// itself and applies its delta in place; earlier survivors of that
    /// parent refill a spare with a copy. The retired partials become
    /// spares for the next step.
    fn advance(&self, parents: &mut Vec<Partial>, buf: &mut StepBuffers) {
        self.reduce(parents, buf);
        let StepBuffers {
            front,
            last_of,
            next,
            spares,
            ..
        } = buf;
        last_of.clear();
        last_of.resize(parents.len(), usize::MAX);
        for (i, cand) in front.iter().enumerate() {
            last_of[cand.parent as usize] = i;
        }
        for (i, cand) in front.iter().enumerate() {
            let parent = cand.parent as usize;
            let q = if last_of[parent] == i {
                let stand_in = spares.pop().unwrap_or_else(Partial::new);
                let mut q = std::mem::replace(&mut parents[parent], stand_in);
                self.apply(&mut q, cand);
                q
            } else {
                self.materialize(&parents[parent], cand, spares.pop())
            };
            next.push(q);
        }
        std::mem::swap(parents, next);
        spares.append(next);
    }

    /// Skyline reduction of `buf.cands` into `buf.front`, without a
    /// sort. Pass 1 records the fastest makespan at each distinct money
    /// value and chains, in enumeration order, the candidates at it. A
    /// sweep in ascending money keeps a level only if it is strictly
    /// faster than every cheaper level: exactly the (time, money) groups
    /// a scan sorted by (time, money) keeps when it drops every group
    /// whose money is not below every faster group's. Pass 2 walks each
    /// kept level's chain and collapses the group to one winner with the
    /// idle tie-break (most sequential idle; the first member wins an
    /// equal value), meeting the members in enumeration order, as the
    /// sorted scan did; dominated candidates never reach a tie-break.
    /// Then the width is capped. Runs entirely on deltas.
    fn reduce(&self, skyline: &[Partial], buf: &mut StepBuffers) {
        let StepBuffers {
            cands,
            levels,
            by_money,
            link,
            kept,
            tops,
            front,
            ..
        } = buf;
        levels.clear();
        by_money.clear();
        link.clear();
        // Pass 1. A parent's candidates mostly share its money, so the
        // previous candidate's level is checked first; only a new money
        // value searches the (short) ascending index.
        let mut last = usize::MAX;
        for (k, c) in cands.iter().enumerate() {
            let k = k as u32;
            link.push(NIL);
            let i = match levels.get(last) {
                Some(l) if l.money == c.money => last,
                _ => match by_money.binary_search_by_key(&c.money, |&(m, _)| m) {
                    Ok(j) => by_money[j].1 as usize,
                    Err(j) => {
                        by_money.insert(j, (c.money, levels.len() as u32));
                        levels.push(Level {
                            money: c.money,
                            makespan: c.makespan,
                            head: k,
                            tail: k,
                        });
                        last = levels.len() - 1;
                        continue;
                    }
                },
            };
            let level = &mut levels[i];
            if c.makespan < level.makespan {
                // A faster group at this money: restart the chain.
                *level = Level {
                    makespan: c.makespan,
                    head: k,
                    tail: k,
                    ..*level
                };
            } else if c.makespan == level.makespan {
                link[level.tail as usize] = k;
                level.tail = k;
            }
            last = i;
        }
        kept.clear();
        let mut fastest: Option<SimDuration> = None;
        for &(_, i) in by_money.iter() {
            let makespan = levels[i as usize].makespan;
            if fastest.is_none_or(|f| makespan < f) {
                fastest = Some(makespan);
                kept.push(i);
            }
        }
        // Lazy per-parent top-2 idle memo: computed once for a parent
        // the first time one of its candidates hits a tie.
        tops.clear();
        tops.resize(skyline.len(), None);
        let mut idle_of = |c: &Cand| {
            let parent = c.parent as usize;
            let t = *tops[parent].get_or_insert_with(|| IdleTops::of(&skyline[parent]));
            self.cand_idle(t, &skyline[parent], c)
        };
        // Pass 2. Kept levels get slower as they get cheaper; the front
        // lists them fastest first.
        front.clear();
        for &i in kept.iter().rev() {
            let level = levels[i as usize];
            let mut win = &cands[level.head as usize];
            let mut win_idle: Option<SimDuration> = None;
            let mut k = link[level.head as usize];
            while k != NIL {
                let p = &cands[k as usize];
                k = link[k as usize];
                // An equal value keeps the incumbent. No further key is
                // needed: no two members share a placement history (the
                // parents form a strict front, and one parent's members
                // differ in container).
                let p_idle = idle_of(p);
                let last_idle = *win_idle.get_or_insert_with(|| idle_of(win));
                if p_idle > last_idle {
                    flowtune_obs::count("sched.tiebreak_idle", 1);
                    win = p;
                    win_idle = Some(p_idle);
                }
            }
            front.push(*win);
        }
        cap_width(front, self.config.max_skyline);
    }

    /// The candidate assigning `op` to container `c` of `p`, from the
    /// expansion kernel. Op `k` must be the one placed at step `k`:
    /// the transfer table maps the ops in id order.
    #[cfg(test)]
    fn cand_for(&self, p: &Partial, dag: &Dag, op: OpId, c: usize) -> Cand {
        assert_eq!(op.index(), p.dataflow.len(), "ops are assigned in id order");
        let xfer = XferTable::new(self, dag, &id_order(dag.len()));
        let mut out = Vec::new();
        self.expand_parent(
            p,
            0,
            &StepOp::new(dag, op, xfer.of(op)),
            &mut Vec::new(),
            &mut out,
        );
        out[c]
    }

    /// Test-only convenience mirroring the legacy single-shot
    /// assignment: evaluate the candidate and materialize it.
    #[cfg(test)]
    pub(crate) fn assign_dataflow_op(&self, p: &Partial, dag: &Dag, op: OpId, c: usize) -> Partial {
        let cand = self.cand_for(p, dag, op, c);
        self.materialize(p, &cand, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;
    use flowtune_dataflow::{App, Edge, OpSpec};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn op(i: u32, secs: u64) -> OpSpec {
        OpSpec::new(OpId(i), format!("op{i}"), SimDuration::from_secs(secs))
    }

    /// Fork-join: 0 -> {1,2,3} -> 4.
    fn fork_join() -> Dag {
        Dag::new(
            vec![op(0, 10), op(1, 30), op(2, 30), op(3, 30), op(4, 10)],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(1),
                    bytes: 0,
                },
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 0,
                },
                Edge {
                    from: OpId(0),
                    to: OpId(3),
                    bytes: 0,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(4),
                    bytes: 0,
                },
                Edge {
                    from: OpId(2),
                    to: OpId(4),
                    bytes: 0,
                },
                Edge {
                    from: OpId(3),
                    to: OpId(4),
                    bytes: 0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn skyline_schedules_are_valid() {
        let sched = SkylineScheduler::new(cfg());
        let dag = fork_join();
        let skyline = sched.schedule(&dag);
        assert!(!skyline.is_empty());
        for s in &skyline {
            s.validate(&dag).unwrap();
        }
    }

    #[test]
    fn skyline_is_nondominated_and_sorted() {
        let sched = SkylineScheduler::new(cfg());
        let skyline = sched.schedule(&fork_join());
        let pts: Vec<(SimDuration, u64)> = skyline
            .iter()
            .map(|s| (s.makespan(), s.leased_quanta(SimDuration::from_secs(60))))
            .collect();
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0, "time must strictly increase: {pts:?}");
            assert!(w[0].1 > w[1].1, "money must strictly decrease: {pts:?}");
        }
    }

    #[test]
    fn fork_join_extremes() {
        let sched = SkylineScheduler::new(cfg());
        let skyline = sched.schedule(&fork_join());
        // Fastest: 3 parallel branches -> 10 + 30 + 10 = 50 s.
        let fastest = skyline.first().unwrap();
        assert_eq!(fastest.makespan(), SimDuration::from_secs(50));
        // Cheapest end of the front: the partial-schedule skyline is a
        // heuristic (prefixes of the globally cheapest schedule can be
        // dominated mid-search), so assert a bound rather than the
        // 2-quanta optimum.
        let cheapest = skyline.last().unwrap();
        assert!(cheapest.leased_quanta(SimDuration::from_secs(60)) <= 3);
        assert!(
            cheapest.leased_quanta(SimDuration::from_secs(60))
                <= skyline[0].leased_quanta(SimDuration::from_secs(60))
        );
    }

    #[test]
    fn communication_cost_discourages_pointless_spread() {
        // 0 -> 1 with a huge edge: remote placement adds transfer time.
        let dag = Dag::new(
            vec![op(0, 10), op(1, 10)],
            vec![Edge {
                from: OpId(0),
                to: OpId(1),
                bytes: 5_000_000_000,
            }],
        )
        .unwrap();
        let sched = SkylineScheduler::new(cfg());
        let skyline = sched.schedule(&dag);
        // The fastest schedule co-locates: makespan exactly 20 s.
        assert_eq!(skyline[0].makespan(), SimDuration::from_secs(20));
        assert_eq!(skyline[0].containers().len(), 1);
    }

    #[test]
    fn respects_max_containers() {
        let mut c = cfg();
        c.max_containers = 2;
        let sched = SkylineScheduler::new(c);
        let skyline = sched.schedule(&fork_join());
        for s in &skyline {
            assert!(s.containers().len() <= 2);
        }
    }

    #[test]
    fn skyline_width_is_capped() {
        let mut c = cfg();
        c.max_skyline = 3;
        let sched = SkylineScheduler::new(c);
        let mut rng = SimRng::seed_from_u64(1);
        let dag = App::Montage.generate(60, &[], &mut rng);
        let skyline = sched.schedule(&dag);
        assert!(skyline.len() <= 3);
        for s in &skyline {
            s.validate(&dag).unwrap();
        }
    }

    #[test]
    fn max_skyline_of_one_keeps_the_fastest_schedule() {
        // Regression: the even-spread width cap divided by
        // `max_skyline - 1` and panicked when the cap was 1.
        let mut c = cfg();
        c.max_skyline = 1;
        let sched = SkylineScheduler::new(c);
        let dag = fork_join();
        let skyline = sched.schedule(&dag);
        assert_eq!(skyline.len(), 1);
        skyline[0].validate(&dag).unwrap();
        // The time extreme survives every reduction, so the single kept
        // schedule is the fastest: 10 + 30 + 10 = 50 s.
        assert_eq!(skyline[0].makespan(), SimDuration::from_secs(50));
        // A larger seeded dataflow.
        let mut rng = SimRng::seed_from_u64(11);
        let dag = App::Montage.generate(60, &[], &mut rng);
        let skyline = sched.schedule(&dag);
        assert_eq!(skyline.len(), 1);
        skyline[0].validate(&dag).unwrap();
    }

    #[test]
    fn scales_to_100_op_scientific_dataflows() {
        let sched = SkylineScheduler::new(cfg());
        let mut rng = SimRng::seed_from_u64(2);
        for app in App::ALL {
            let dag = app.generate(100, &[], &mut rng);
            let skyline = sched.schedule(&dag);
            assert!(!skyline.is_empty(), "{}", app.name());
            for s in &skyline {
                s.validate(&dag).unwrap();
                assert!(s.makespan() >= dag.critical_path(), "{}", app.name());
            }
        }
    }

    #[test]
    fn zero_duration_op_still_bills_one_quantum() {
        // Regression: the old `e > s` billing filter dropped containers
        // whose only assignments are zero-duration, yielding a leased
        // container with zero billed quanta.
        let sched = SkylineScheduler::new(cfg());
        let dag = Dag::new(vec![op(0, 0)], vec![]).unwrap();
        let p = sched.assign_dataflow_op(&Partial::new(), &dag, OpId(0), 0);
        assert_eq!(p.containers.len(), 1);
        assert_eq!(p.money_quanta(SimDuration::from_secs(60)), 1);
        assert_eq!(p.money, 1, "cached money must bill the zero-span lease");
    }

    #[test]
    fn property_every_leased_container_is_billed() {
        // Random chains with zero-duration ops mixed in, assigned to
        // random containers: every container that received an op must
        // be billed at least one quantum, and the search's money
        // objective must agree with the reported leased quanta.
        let sched = SkylineScheduler::new(cfg());
        let quantum = SimDuration::from_secs(60);
        let mut rng = SimRng::seed_from_u64(0xB111);
        for _ in 0..100 {
            let n = 1 + rng.uniform_u64(1, 9) as usize;
            let ops: Vec<OpSpec> = (0..n)
                .map(|i| op(i as u32, rng.uniform_u64(0, 3)))
                .collect();
            let edges: Vec<Edge> = (1..n)
                .map(|i| Edge {
                    from: OpId(i as u32 - 1),
                    to: OpId(i as u32),
                    bytes: 0,
                })
                .collect();
            let dag = Dag::new(ops, edges).unwrap();
            let mut p = Partial::new();
            for i in 0..n {
                let used = p.containers.len();
                let c = rng.uniform_u64(0, used as u64 + 1) as usize;
                p = sched.assign_dataflow_op(&p, &dag, OpId(i as u32), c);
            }
            let leased = p.containers.len() as u64;
            assert!(
                p.money_quanta(quantum) >= leased,
                "container leased but unbilled: {} quanta for {leased} containers",
                p.money_quanta(quantum),
            );
            assert_eq!(
                p.money,
                p.money_quanta(quantum),
                "cached money objective drifted from the span recomputation"
            );
            let schedule = p.clone().into_schedule_by_id();
            assert_eq!(
                p.money_quanta(quantum),
                schedule.leased_quanta(quantum),
                "search money objective disagrees with reported billing"
            );
        }
    }

    #[test]
    fn property_cached_state_matches_recomputation() {
        // Random fork-ish dags scheduled through the public API *and*
        // random manual expansion sequences: the incremental caches
        // (money, per-container idle gaps) must always equal a from-
        // scratch recomputation — the invariants of DESIGN §5f.
        let sched = SkylineScheduler::new(cfg());
        let quantum = SimDuration::from_secs(60);
        let mut rng = SimRng::seed_from_u64(0xCACE);
        for round in 0..50 {
            let n = 2 + rng.uniform_u64(1, 12) as usize;
            let ops: Vec<OpSpec> = (0..n)
                .map(|i| op(i as u32, rng.uniform_u64(0, 40)))
                .collect();
            let edges: Vec<Edge> = (1..n)
                .map(|i| Edge {
                    from: OpId(rng.uniform_u64(0, i as u64) as u32),
                    to: OpId(i as u32),
                    bytes: rng.uniform_u64(0, 2) * 1_000_000,
                })
                .collect();
            let dag = Dag::new(ops, edges).unwrap();
            let mut p = Partial::new();
            for i in 0..n {
                let used = p.containers.len();
                let c = rng.uniform_u64(0, used as u64 + 1) as usize;
                // The candidate's objectives must match what its
                // materialization then caches.
                let cand = sched.cand_for(&p, &dag, OpId(i as u32), c);
                p = sched.materialize(&p, &cand, None);
                assert_eq!(p.money, p.money_quanta(quantum), "round {round} step {i}");
                for (c, u) in p.containers.iter().enumerate() {
                    assert!(u.start <= u.free, "round {round} step {i} container {c}");
                    assert_eq!(
                        u.lease_end,
                        lease_end(u.start, u.free, quantum),
                        "cached lease end drifted at round {round} step {i} container {c}"
                    );
                }
                assert_eq!(
                    p.idle_cached(),
                    p.longest_sequential_idle(quantum),
                    "idle cache drifted at round {round} step {i}"
                );
            }
        }
    }

    /// A partial of an `n`-op chain with op `i` on container
    /// `i % containers`.
    fn chain_partial(sched: &SkylineScheduler, n: usize, containers: usize) -> Partial {
        let ops: Vec<OpSpec> = (0..n).map(|i| op(i as u32, 10)).collect();
        let edges: Vec<Edge> = (1..n)
            .map(|i| Edge {
                from: OpId(i as u32 - 1),
                to: OpId(i as u32),
                bytes: 0,
            })
            .collect();
        let dag = Dag::new(ops, edges).unwrap();
        let mut p = Partial::new();
        for i in 0..n {
            p = sched.assign_dataflow_op(&p, &dag, OpId(i as u32), i % containers);
        }
        p
    }

    #[test]
    fn clone_from_over_a_dirty_spare_equals_clone() {
        // Recycling refills retired partials with `clone_from`; a field
        // it forgot would leak the spare's old state into the search.
        let sched = SkylineScheduler::new(cfg());
        let big = chain_partial(&sched, 150, 7);
        let small = chain_partial(&sched, 5, 2);
        assert!(big.containers.len() > small.containers.len());
        assert!(big.dataflow.tail.len() > small.dataflow.tail.len());
        for (spare, parent) in [(&big, &small), (&small, &big)] {
            let mut q = spare.clone();
            q.clone_from(parent);
            assert_eq!(format!("{q:?}"), format!("{:?}", parent.clone()));
            assert_eq!(
                q.into_schedule_by_id(),
                parent.clone().into_schedule_by_id()
            );
        }
    }

    /// A random `n`-op dataflow: every op after the first has one
    /// earlier predecessor, some edges carry data.
    fn random_dag(n: usize, rng: &mut SimRng) -> Dag {
        let ops: Vec<OpSpec> = (0..n)
            .map(|i| op(i as u32, 1 + rng.uniform_u64(0, 90)))
            .collect();
        let edges: Vec<Edge> = (1..n)
            .map(|i| Edge {
                from: OpId(rng.uniform_u64(0, i as u64) as u32),
                to: OpId(i as u32),
                bytes: rng.uniform_u64(0, 2) * 2_000_000_000,
            })
            .collect();
        Dag::new(ops, edges).unwrap()
    }

    /// The reduction `reduce` replaced: sort `(makespan, money, index)`,
    /// keep a (makespan, money) group only if its money is below every
    /// faster group's, fold the idle tie-break over the group in sorted
    /// order, cap the width. Returns the front and the tie-break wins.
    fn sorted_reduce(
        sched: &SkylineScheduler,
        skyline: &[Partial],
        cands: &[Cand],
    ) -> (Vec<Cand>, u64) {
        let idle = |c: &Cand| {
            let p = &skyline[c.parent as usize];
            sched.cand_idle(IdleTops::of(p), p, c)
        };
        let mut keys: Vec<(SimDuration, u64, usize)> = (cands.iter().enumerate())
            .map(|(k, c)| (c.makespan, c.money, k))
            .collect();
        keys.sort_unstable();
        let (mut front, mut idle_wins) = (Vec::new(), 0);
        let mut best_money = u64::MAX;
        for group in keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if group[0].1 >= best_money {
                continue;
            }
            best_money = group[0].1;
            let mut win = cands[group[0].2];
            for &(_, _, k) in &group[1..] {
                let p = cands[k];
                if idle(&p) > idle(&win) {
                    idle_wins += 1;
                    win = p;
                }
            }
            front.push(win);
        }
        cap_width(&mut front, sched.config.max_skyline);
        (front, idle_wins)
    }

    #[test]
    fn money_level_reduce_matches_a_sort_based_oracle() {
        // Synthetic candidate sets over real parents: few makespan and
        // money values (exact ties across parents, equal makespans at
        // several money levels, repeated candidates with equal idle
        // values), single-candidate steps, steps with far more than 40
        // money levels, and widths 1, 2, 3 and 24.
        let mut rng = SimRng::seed_from_u64(0x5EED_0F00);
        let mut idle_total = 0;
        for round in 0..400 {
            let sched = SkylineScheduler::new(SchedulerConfig {
                max_skyline: [1, 2, 3, 24][round % 4],
                ..cfg()
            });
            let n = 3 + rng.uniform_u64(0, 8) as usize;
            let dag = random_dag(n, &mut rng);
            let skyline: Vec<Partial> = (0..1 + rng.uniform_u64(0, 5))
                .map(|_| {
                    let mut p = Partial::new();
                    for i in 0..n - 1 {
                        let c = rng.uniform_u64(0, p.containers_used() as u64 + 1) as usize;
                        p = sched.assign_dataflow_op(&p, &dag, OpId(i as u32), c);
                    }
                    p
                })
                .collect();
            let xfer = XferTable::new(&sched, &dag, &id_order(n));
            let assign = StepOp::new(&dag, OpId(n as u32 - 1), xfer.of(OpId(n as u32 - 1)));
            let mut real = Vec::new();
            for (pi, p) in skyline.iter().enumerate() {
                sched.expand_parent(p, pi as u32, &assign, &mut Vec::new(), &mut real);
            }
            let many_levels = round % 5 == 1;
            let size = match round % 5 {
                0 => 1,
                1 => 300,
                _ => 2 + rng.uniform_u64(0, 60) as usize,
            };
            let money_levels = 1 + rng.uniform_u64(0, 6);
            let cands: Vec<Cand> = (0..size)
                .map(|_| {
                    let mut c = real[rng.uniform_u64(0, real.len() as u64) as usize];
                    if many_levels {
                        c.money = rng.uniform_u64(0, 90);
                        let slower = 90 - c.money + rng.uniform_u64(0, 3);
                        c.makespan = SimDuration::from_secs(10 * slower);
                    } else {
                        c.money = rng.uniform_u64(0, money_levels);
                        c.makespan = SimDuration::from_secs(10 * rng.uniform_u64(1, 5));
                    }
                    c
                })
                .collect();
            let mut buf = StepBuffers {
                cands: cands.clone(),
                ..StepBuffers::default()
            };
            flowtune_obs::install();
            sched.reduce(&skyline, &mut buf);
            let rec = flowtune_obs::uninstall().unwrap();
            if many_levels {
                assert!(buf.levels.len() > 40, "round {round}: too few money levels");
            }
            let (want, idle_wins) = sorted_reduce(&sched, &skyline, &cands);
            let fields = |c: &Cand| (c.parent, c.container, c.start, c.end, c.makespan, c.money);
            let got: Vec<_> = buf.front.iter().map(fields).collect();
            let want: Vec<_> = want.iter().map(fields).collect();
            assert_eq!(got, want, "round {round}: fronts differ");
            let counter = |name| rec.metrics().counter(name);
            assert_eq!(counter("sched.tiebreak_idle"), idle_wins, "round {round}");
            idle_total += idle_wins;
        }
        assert!(idle_total > 0, "the tie-break never ran");
    }

    #[test]
    fn empty_dag_yields_empty_schedule() {
        let sched = SkylineScheduler::new(cfg());
        let dag = Dag::new(vec![], vec![]).unwrap();
        let skyline = sched.schedule(&dag);
        assert_eq!(skyline.len(), 1);
        assert!(skyline[0].is_empty());
    }
}
