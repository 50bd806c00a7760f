//! The skyline (Pareto) dataflow scheduler — Algorithm 4.
//!
//! Operators are assigned in dependency order; after each assignment the
//! set of non-dominated partial schedules over (execution time, monetary
//! cost) is recomputed. Between schedules equal in both objectives, the
//! one with the most sequential idle compute time wins (idle slots are
//! where index builds go); when optional build operators are offered
//! (§5.3.2, online interleaving), schedules with more operators win ties
//! instead.
//!
//! Two pragmatic bounds keep the exponential search tractable, both
//! standard for this scheduler family: candidate containers are the
//! already-used ones plus one fresh container (symmetry breaking), and
//! the skyline is capped at [`SchedulerConfig::max_skyline`] schedules
//! (evenly spaced along the time axis, extremes always kept).
//!
//! # Incremental search state (DESIGN §5f)
//!
//! This is the inner loop of every run, so the search state is built
//! for cheap expansion (byte-identical to [`crate::reference`], pinned
//! by golden tests in `equivalence_tests`):
//!
//! * **Cached objectives.** [`Partial::money`] carries the billed
//!   quanta; assigning an operator changes only the touched container's
//!   lease, so the objective is an add instead of an O(containers)
//!   rescan. Each used container is one [`Container`] record in
//!   [`Partial::containers`]: span start, free time, optional-tail free
//!   time, the longest idle gap strictly before the billing tail, and
//!   the lease end, cached so that pricing and the idle tie-break read
//!   it instead of dividing. The idle tie-break is computed only inside
//!   non-dominated (time, money) groups.
//! * **Delta expansion.** A candidate expansion is a [`Cand`]: parent
//!   index plus a [`Delta`] and the already-computed objective values.
//!   The reduction (dominance, tie-collapse, width cap) runs entirely on
//!   candidates; only the survivors — at most `max_skyline` per step,
//!   not width × containers — become [`Partial`]s.
//! * **Split assignment lists.** Dataflow assignments are append-only
//!   and kept apart from the preemptible optional (build) tail ops, so
//!   preempting an optional op never rewrites dataflow history; the
//!   final assignment order of the legacy single list is reproduced at
//!   the end from each optional op's interleave position.
//!
//! # Scale state (DESIGN §5i)
//!
//! * **Chunked copy-on-write state.** [`OpState`] (per-op placement)
//!   and [`AsgList`] (assignment history) store fixed-size chunks
//!   behind `Arc`; copying a partial copies pointer tables instead of
//!   O(n_ops) payloads, so the cost of a survivor stops growing with
//!   DAG size.
//! * **O(1) tie-break.** [`IdleTops`] memoizes each parent's two
//!   largest per-container idle contributions once per reduction; a
//!   candidate's tie-break value is a constant-time combine instead of
//!   an O(containers) rescan.
//! * **Deterministic parallel expansion.** Above
//!   [`SchedulerConfig::expand_threshold`] candidates per step, an
//!   [`ExpandPool`] gives each worker a contiguous range of parents and
//!   concatenates the results in parent order — the candidate vector is
//!   byte-identical to the sequential enumeration for every thread
//!   count. The pool is spawned on the first step that reaches the
//!   threshold, so a call that never does starts no thread.
//!
//! # Lean steps (DESIGN §5i)
//!
//! * **One expansion kernel.** [`SkylineScheduler::expand_parent`]
//!   serves the sequential loop, the pool workers and the tests. It
//!   reads each predecessor's placement once per parent, and prices a
//!   used container with one compare against its cached lease end: the
//!   op adds nothing when it ends inside the lease; only an overrun
//!   divides, to count the quanta past it.
//! * **Money-level reduce, no sort, no search per candidate.** Pass 1
//!   appends each distinct money value to a level list in first-seen
//!   order (a handful per step), checking the previous candidate's
//!   level first, and records each candidate's level index; a sweep
//!   over a small money-sorted index list keeps a level only if it is
//!   strictly faster than every cheaper one; pass 2 reads each
//!   candidate's recorded level and folds the idle tie-break inside
//!   each kept group in enumeration order.
//! * **Survivors take their parent.** The last survivor of each parent
//!   moves the parent out of the skyline and applies its delta in
//!   place; earlier survivors of the same parent refill a retired spare
//!   with `clone_from`. `sched.partial_clone_bytes` counts only the
//!   copies actually made.
//! * **Reused buffers, flat tables.** Candidates, money levels, groups,
//!   the idle memo, the front and the next skyline live in one
//!   [`StepBuffers`] per call. The per-predecessor transfer durations
//!   are one flat [`XferTable`] aligned with the DAG's flat predecessor
//!   array, built once per call.

use std::cell::OnceCell;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

use flowtune_common::{CloudConfig, ContainerId, Money, OpId, SimDuration, SimTime};
use flowtune_dataflow::Dag;

use crate::schedule::{Assignment, BuildRef, Schedule};

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
    /// Worker threads for parallel candidate expansion: `0` = one per
    /// available core (capped at 8), `1` = always sequential. The
    /// output is byte-identical for every value — threads only shard
    /// the candidate enumeration (DESIGN §5i).
    pub expand_threads: usize,
    /// Minimum candidates in one step before the worker pool engages;
    /// below it the per-step channel round-trip costs more than the
    /// expansion itself. The pool is spawned on the first step of a
    /// `schedule()` call that reaches this count and joined when the
    /// call returns; a call whose steps all stay below it spawns no
    /// thread.
    pub expand_threshold: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_containers: 100,
            max_skyline: 24,
            quantum: SimDuration::from_secs(60),
            vm_price: Money::from_dollars(0.1),
            network_bandwidth: 1e9 / 8.0,
            expand_threads: 0,
            expand_threshold: 512,
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
            ..SchedulerConfig::default()
        }
    }
}

/// An optional build-index operator offered to the online interleaving
/// variant of the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct OptionalOp {
    /// Synthetic id (must not collide with dataflow op ids).
    pub op: OpId,
    /// Estimated build duration.
    pub duration: SimDuration,
    /// What it builds.
    pub build: BuildRef,
}

/// The skyline dataflow scheduler.
#[derive(Debug, Clone, Default)]
pub struct SkylineScheduler {
    /// Configuration.
    pub config: SchedulerConfig,
}

/// End of the lease billed for one container's dataflow span `[s, e]`:
/// the quantum boundary at or after `e`, and at least one quantum past
/// the boundary at or before `s`.
fn lease_end(s: SimTime, e: SimTime, quantum: SimDuration) -> SimTime {
    e.quantum_ceil(quantum)
        .max(s.quantum_floor(quantum) + quantum)
}

/// Billed quanta for one container's dataflow span.
fn lease_quanta(s: SimTime, e: SimTime, quantum: SimDuration) -> u64 {
    (lease_end(s, e, quantum) - s.quantum_floor(quantum)).as_millis() / quantum.as_millis()
}

/// Per-op placement record: end time of the op and the container it ran
/// on (`u32::MAX` = unassigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpSlot {
    end: SimTime,
    container: u32,
}

impl OpSlot {
    const UNASSIGNED: OpSlot = OpSlot {
        end: SimTime::ZERO,
        container: u32::MAX,
    };
}

/// Ops per shared [`OpState`] chunk. 64 slots × 16 bytes = 1 KiB — big
/// enough to amortize the `Arc` bookkeeping, small enough that the
/// copy-on-write clone of one chunk stays cheap.
const OP_CHUNK: usize = 64;

/// Chunked copy-on-write per-op placement state. Cloning a [`Partial`]
/// used to memcpy two dense `n_ops`-sized vectors; at 10k ops that is
/// ~120 KiB per surviving candidate per step. Chunks behind `Arc`
/// shrink the clone to a pointer table (`n_ops / 64` words) — an
/// assignment touches exactly one chunk, so `Arc::make_mut` copies at
/// most 1 KiB no matter how large the DAG is.
#[derive(Debug)]
struct OpState {
    chunks: Vec<Arc<[OpSlot; OP_CHUNK]>>,
}

impl Clone for OpState {
    fn clone(&self) -> Self {
        OpState {
            chunks: self.chunks.clone(),
        }
    }

    /// Refill in place, reusing the chunk table's allocation.
    fn clone_from(&mut self, source: &Self) {
        self.chunks.clone_from(&source.chunks);
    }
}

impl OpState {
    fn new(n_ops: usize) -> Self {
        // Every chunk starts as a handle on one shared zeroed chunk;
        // construction is O(n_ops / 64), not O(n_ops).
        let zero: Arc<[OpSlot; OP_CHUNK]> = Arc::new([OpSlot::UNASSIGNED; OP_CHUNK]);
        OpState {
            chunks: vec![zero; n_ops.div_ceil(OP_CHUNK)],
        }
    }

    fn get(&self, i: usize) -> OpSlot {
        self.chunks[i / OP_CHUNK][i % OP_CHUNK]
    }

    fn set(&mut self, i: usize, slot: OpSlot) {
        Arc::make_mut(&mut self.chunks[i / OP_CHUNK])[i % OP_CHUNK] = slot;
    }

    /// Bytes a clone of this state memcpys (the pointer table only —
    /// chunk payloads are shared until written).
    fn heap_bytes(&self) -> usize {
        size_of::<usize>() * self.chunks.len()
    }
}

/// Assignments per frozen [`AsgList`] chunk.
const ASG_CHUNK: usize = 32;

/// Append-only assignment list with a frozen, structurally shared
/// prefix. The dataflow history of a partial schedule is immutable —
/// only appended to — so full chunks are frozen behind `Arc` and shared
/// by every descendant; a clone copies the pointer table plus the small
/// mutable tail instead of the whole history.
#[derive(Debug, Default)]
struct AsgList {
    frozen: Vec<Arc<[Assignment; ASG_CHUNK]>>,
    tail: Vec<Assignment>,
}

impl Clone for AsgList {
    fn clone(&self) -> Self {
        AsgList {
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

impl AsgList {
    fn len(&self) -> usize {
        self.frozen.len() * ASG_CHUNK + self.tail.len()
    }

    fn push(&mut self, a: Assignment) {
        self.tail.push(a);
        if self.tail.len() == ASG_CHUNK {
            let chunk: [Assignment; ASG_CHUNK] = std::array::from_fn(|i| self.tail[i]);
            self.frozen.push(Arc::new(chunk));
            self.tail.clear();
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Assignment> {
        self.frozen
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Bytes a clone memcpys: the frozen pointer table plus the tail.
    fn heap_bytes(&self) -> usize {
        self.frozen.len() * size_of::<usize>() + self.tail.len() * size_of::<Assignment>()
    }
}

/// One used container of a [`Partial`]: five words, 40 bytes (pinned
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
    /// Next free time counting optional (build) tail ops.
    opt_free: SimTime,
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

const _: () = assert!(size_of::<Container>() == 40);

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
    /// Dataflow assignments, in assignment (topological-step) order.
    /// Append-only: preemption never touches this list.
    dataflow: AsgList,
    /// Surviving optional (build) assignments, each tagged with the
    /// number of dataflow ops assigned before it was placed — its
    /// interleave position when the final assignment list is merged.
    /// Positions are non-decreasing along the list.
    optional: Vec<(u32, Assignment)>,
    /// The used containers, by container id.
    containers: Vec<Container>,
    /// Placement (end time, container) of each dataflow op assigned so
    /// far, in chunked copy-on-write storage.
    ops: OpState,
    makespan: SimDuration,
    /// Cache: total billed quanta across containers. Updated by the
    /// touched container's lease-contribution delta on each assignment;
    /// always equals [`Partial::money_quanta`] recomputed from spans.
    money: u64,
    /// Order-sensitive hash of the dataflow assignments; equal hashes =>
    /// identical dataflow skeletons (optional ops excluded).
    skeleton: u64,
}

impl Clone for Partial {
    fn clone(&self) -> Self {
        Partial {
            dataflow: self.dataflow.clone(),
            optional: self.optional.clone(),
            containers: self.containers.clone(),
            ops: self.ops.clone(),
            makespan: self.makespan,
            money: self.money,
            skeleton: self.skeleton,
        }
    }

    /// Refill a spare partial in place: every `Vec` keeps its
    /// allocation, so recycling a retired partial allocates nothing.
    /// The source is destructured, so a new field fails to compile
    /// until it is copied here too.
    fn clone_from(&mut self, source: &Self) {
        let Partial {
            dataflow,
            optional,
            containers,
            ops,
            makespan,
            money,
            skeleton,
        } = source;
        self.dataflow.clone_from(dataflow);
        self.optional.clone_from(optional);
        self.containers.clone_from(containers);
        self.ops.clone_from(ops);
        self.makespan = *makespan;
        self.money = *money;
        self.skeleton = *skeleton;
    }
}

impl Partial {
    pub(crate) fn new(n_ops: usize) -> Self {
        Partial {
            ops: OpState::new(n_ops),
            skeleton: 0xcbf2_9ce4_8422_2325,
            ..Partial::empty()
        }
    }

    /// A partial that owns no allocation: the stand-in left in a
    /// parent's slot when a survivor takes the parent and no spare is
    /// at hand.
    fn empty() -> Self {
        Partial {
            dataflow: AsgList::default(),
            optional: Vec::new(),
            containers: Vec::new(),
            ops: OpState { chunks: Vec::new() },
            makespan: SimDuration::ZERO,
            money: 0,
            skeleton: 0,
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
    /// dataflow assignments (the pre-cache algorithm); tests pin
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
                .filter(|a| a.container.index() == c)
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
    /// `sched.partial_clone_bytes` counter). With chunked
    /// copy-on-write storage this is the pointer tables plus the small
    /// mutable tails, not the full per-op history.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dataflow.heap_bytes()
            + self.optional.len() * size_of::<(u32, Assignment)>()
            + self.containers.len() * size_of::<Container>()
            + self.ops.heap_bytes()
    }

    /// Number of surviving optional (build) assignments.
    fn optional_count(&self) -> usize {
        self.optional.len()
    }

    /// Number of containers leased so far.
    #[cfg(test)]
    pub(crate) fn containers_used(&self) -> usize {
        self.containers.len()
    }

    /// Merge the split assignment lists back into the legacy insertion
    /// order: each optional op re-enters just before the dataflow op
    /// whose index equals its recorded interleave position.
    pub(crate) fn into_schedule(self) -> Schedule {
        let mut out = Vec::with_capacity(self.dataflow.len() + self.optional.len());
        let mut opts = self.optional.iter().copied().peekable();
        for (i, &a) in self.dataflow.iter().enumerate() {
            while let Some((pos, oa)) = opts.peek().copied() {
                if pos as usize > i {
                    break;
                }
                out.push(oa);
                opts.next();
            }
            out.push(a);
        }
        out.extend(opts.map(|(_, oa)| oa));
        Schedule::from_assignments(out)
    }
}

/// How a [`Cand`] differs from its parent partial.
#[derive(Debug, Clone, Copy)]
enum Delta {
    /// Assign dataflow op `op` to `container` over `[start, end)`.
    Dataflow {
        op: OpId,
        container: usize,
        start: SimTime,
        end: SimTime,
    },
    /// Place optional build op `op` on `container` over `[start, end)`.
    Optional {
        op: OptionalOp,
        container: usize,
        start: SimTime,
        end: SimTime,
    },
    /// Keep the parent unchanged (offer-optional identity candidate).
    Keep,
}

/// A candidate expansion: a delta against a parent partial plus the
/// objective values reduction needs. No partial is cloned until a
/// candidate survives the reduction.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Index of the parent in the current skyline.
    parent: usize,
    delta: Delta,
    makespan: SimDuration,
    money: u64,
    skeleton: u64,
    optional_count: usize,
}

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
    by_money: Vec<(u64, usize)>,
    /// Per candidate, the index of its money level.
    level_of: Vec<usize>,
    /// One tie-break fold per non-dominated group, in ascending money.
    groups: Vec<Group>,
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

/// `Level::slot` of a money level whose group is dominated.
const DOMINATED: usize = usize::MAX;

/// One distinct money value among a step's candidates.
#[derive(Debug, Clone, Copy)]
struct Level {
    money: u64,
    /// Fastest makespan among the candidates at this money value.
    makespan: SimDuration,
    /// Rank of the (makespan, money) group among the kept groups in
    /// ascending money, or [`DOMINATED`] when a cheaper level is at
    /// least as fast.
    slot: usize,
}

/// The tie-break fold of one non-dominated (makespan, money) group.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The current winner's index in the step's candidates
    /// (`usize::MAX` until the group's first member is seen).
    win: usize,
    /// The winner's idle tie-break value, once a tie needed it.
    win_idle: Option<SimDuration>,
}

/// Per-(op, predecessor) transfer durations, computed once per call
/// into one flat table aligned with [`Dag::preds`]: op `i`'s entries
/// are `items[off[i]..off[i + 1]]`. The division producing each
/// duration is the same one a per-candidate recomputation would run, so
/// every placement sees bit-identical times.
struct XferTable {
    off: Vec<usize>,
    items: Vec<(OpId, SimDuration)>,
}

impl XferTable {
    fn new(sched: &SkylineScheduler, dag: &Dag) -> Self {
        let mut off = Vec::with_capacity(dag.len() + 1);
        let mut items = Vec::with_capacity(dag.edges().len());
        off.push(0);
        for i in 0..dag.len() {
            let preds = dag.preds_with_bytes(OpId::from_index(i));
            items.extend(preds.map(|(p, b)| (p, sched.transfer_time(b))));
            off.push(items.len());
        }
        XferTable { off, items }
    }

    fn of(&self, op: OpId) -> &[(OpId, SimDuration)] {
        &self.items[self.off[op.index()]..self.off[op.index() + 1]]
    }
}

/// The op one step assigns, with what each expansion of it reads.
struct StepOp<'a> {
    op: OpId,
    runtime: SimDuration,
    /// Per-predecessor transfer durations (precomputed per call).
    xfer: &'a [(OpId, SimDuration)],
}

impl<'a> StepOp<'a> {
    fn new(dag: &Dag, op: OpId, xfer: &'a [(OpId, SimDuration)]) -> Self {
        StepOp {
            op,
            runtime: dag.op(op).runtime,
            xfer,
        }
    }
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
    /// schedules sorted by ascending execution time.
    pub fn schedule(&self, dag: &Dag) -> Vec<Schedule> {
        self.schedule_with_optional(dag, &[])
    }

    /// Schedule a dataflow while opportunistically placing optional
    /// build operators (the online interleaving algorithm of §5.3.2).
    /// Optional operators never delay dataflow operators in surviving
    /// schedules: a schedule where one did is dominated by its sibling
    /// without the operator.
    pub fn schedule_with_optional(&self, dag: &Dag, optional: &[OptionalOp]) -> Vec<Schedule> {
        if dag.is_empty() {
            return vec![Schedule::new()];
        }
        let order = dag.topo_order();
        let pred_xfer = XferTable::new(self, dag);
        let threads = self.effective_expand_threads();
        let mut skyline = if threads > 1 {
            // The worker pool lives for the rest of the call once the
            // first step reaches `expand_threshold` — per-step thread
            // spawning would cost more than the steps — and is never
            // spawned for a call that stays below it.
            std::thread::scope(|scope| {
                let cell = OnceCell::new();
                let pool = || {
                    cell.get_or_init(|| ExpandPool::spawn(scope, threads, self, dag, &pred_xfer))
                };
                self.run_steps(dag, optional, &order, &pred_xfer, Some(&pool))
            })
        } else {
            self.run_steps(dag, optional, &order, &pred_xfer, None)
        };
        skyline.sort_by_key(|p| (p.makespan, p.money));
        skyline.into_iter().map(Partial::into_schedule).collect()
    }

    /// Resolved expansion thread count (see
    /// [`SchedulerConfig::expand_threads`]). The count never changes
    /// the output, only how the candidate enumeration is sharded.
    fn effective_expand_threads(&self) -> usize {
        // Resolved once per process: asking the host for its
        // parallelism reads cgroup files on Linux, which costs more
        // than a small `schedule()` call.
        static AUTO: OnceLock<usize> = OnceLock::new();
        match self.config.expand_threads {
            0 => *AUTO.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            }),
            n => n.min(32),
        }
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

    /// The assignment main loop: expand (sequentially or through the
    /// pool, which `pool` spawns on first use), reduce, materialize,
    /// interleave optional offers.
    fn run_steps<'p>(
        &self,
        dag: &Dag,
        optional: &[OptionalOp],
        order: &[OpId],
        pred_xfer: &XferTable,
        pool: Option<&dyn Fn() -> &'p ExpandPool>,
    ) -> Vec<Partial> {
        let n = order.len();
        let mut skyline = Arc::new(vec![Partial::new(dag.len())]);
        let mut buf = StepBuffers::default();
        // Offer optional ops evenly across the assignment steps.
        let mut next_opt = 0usize;
        for (step, &op) in order.iter().enumerate() {
            let total: usize = skyline.iter().map(|p| self.candidate_containers(p)).sum();
            let assign = StepOp::new(dag, op, pred_xfer.of(op));
            // Expand every partial with every candidate container —
            // as cheap deltas, not clones.
            buf.cands.clear();
            match pool {
                Some(pool) if total >= self.config.expand_threshold => {
                    // flowtune-allow(obs-discipline): the pool engages only above the candidate threshold, which the smoke workload never reaches
                    flowtune_obs::count("sched.parallel_steps", 1);
                    pool().expand(self, &assign, &skyline, &mut buf.cands);
                }
                _ => {
                    for (pi, p) in skyline.iter().enumerate() {
                        self.expand_parent(p, pi, &assign, &mut buf.preds, &mut buf.cands);
                    }
                }
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
            // Offer a proportional share of the optional queue.
            let opt_until = optional.len() * (step + 1) / n;
            while next_opt < opt_until {
                self.offer_optional(&mut skyline, &optional[next_opt], &mut buf);
                next_opt += 1;
            }
        }
        while next_opt < optional.len() {
            self.offer_optional(&mut skyline, &optional[next_opt], &mut buf);
            next_opt += 1;
        }
        // The workers dropped their handles when their last job ended,
        // so the unwrap is ordinarily free; the fallback clone keeps
        // this panic-free regardless.
        Arc::try_unwrap(skyline).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.config.network_bandwidth)
    }

    /// The expansion kernel: append to `out` one [`Cand`] per candidate
    /// container of `p` (skyline index `parent`), assigning `assign.op`
    /// there, without cloning anything. Placement times come from the
    /// predecessors' placements, read into `preds` once per parent;
    /// money from the touched container's lease; the skeleton hash is
    /// folded forward; the optional-op count is taken after preemption.
    /// The sequential loop, the pool workers and the tests all expand
    /// through here.
    fn expand_parent(
        &self,
        p: &Partial,
        parent: usize,
        assign: &StepOp<'_>,
        preds: &mut Vec<(u32, SimTime, SimTime)>,
        out: &mut Vec<Cand>,
    ) {
        let quantum = self.config.quantum;
        preds.clear();
        preds.extend(assign.xfer.iter().map(|&(pred, dt)| {
            let slot = p.ops.get(pred.index());
            (slot.container, slot.end, slot.end + dt)
        }));
        for c in 0..self.candidate_containers(p) {
            // Data-ready: every predecessor done, plus transfer when remote.
            let mut ready = SimTime::ZERO;
            for &(on, local, remote) in preds.iter() {
                ready = ready.max(if on == c as u32 { local } else { remote });
            }
            // Dataflow ops see only other dataflow ops: an optional build
            // op occupying the container is preempted (priority -1 in the
            // execution model), so it never delays the dataflow.
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
            let mut skeleton = p.skeleton;
            for word in [assign.op.0 as u64, c as u64, start.as_millis()] {
                skeleton ^= word;
                skeleton = skeleton.wrapping_mul(0x1000_0000_01b3);
            }
            // Optional tail ops on `c` that this dataflow op would preempt.
            let dropped = p
                .optional
                .iter()
                .filter(|(_, a)| a.container.index() == c && a.end > start)
                .count();
            out.push(Cand {
                parent,
                delta: Delta::Dataflow {
                    op: assign.op,
                    container: c,
                    start,
                    end,
                },
                makespan: p.makespan.max(end - SimTime::ZERO),
                money,
                skeleton,
                optional_count: p.optional.len() - dropped,
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
                opt_free: end,
                gap: start - start.quantum_floor(quantum),
                lease_end: lease_end(start, end, quantum),
            },
            Some(u) => Container {
                start: u.start,
                free: end,
                opt_free: u.opt_free.max(end),
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
    /// O(1) per candidate instead of O(containers). Optional placements
    /// and identity candidates inherit the parent's value unchanged:
    /// the tie-break only sees dataflow ops.
    fn cand_idle(&self, tops: IdleTops, p: &Partial, delta: &Delta) -> SimDuration {
        let (oc, ostart, oend) = match *delta {
            Delta::Dataflow {
                container,
                start,
                end,
                ..
            } => (container, start, end),
            // The parent's best contribution IS its `idle_cached` value.
            Delta::Optional { .. } | Delta::Keep => return tops.best,
        };
        // Contribution of the touched container after the assignment.
        let touched = self.touched(p.containers.get(oc), ostart, oend).idle();
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

    /// Apply a surviving candidate's delta in place to `q`, which holds
    /// (a copy of, or the moved) parent.
    fn apply(&self, q: &mut Partial, cand: &Cand) {
        flowtune_obs::count("sched.partials_expanded", 1);
        match cand.delta {
            Delta::Dataflow {
                op,
                container: c,
                start,
                end,
            } => {
                let touched = self.touched(q.containers.get(c), start, end);
                if c == q.containers.len() {
                    q.containers.push(touched);
                } else {
                    q.containers[c] = touched;
                }
                // Preempt optional tail ops that would overlap: drop the
                // ones not yet started, truncation of a running one is
                // the simulator's business.
                q.optional
                    .retain(|(_, a)| !(a.container.index() == c && a.end > start));
                q.dataflow.push(Assignment {
                    op,
                    container: ContainerId(c as u32),
                    start,
                    end,
                    build: None,
                });
                q.ops.set(
                    op.index(),
                    OpSlot {
                        end,
                        container: c as u32,
                    },
                );
            }
            Delta::Optional {
                op,
                container: c,
                start,
                end,
            } => {
                q.optional.push((
                    q.dataflow.len() as u32,
                    Assignment {
                        op: op.op,
                        container: ContainerId(c as u32),
                        start,
                        end,
                        build: Some(op.build),
                    },
                ));
                q.containers[c].opt_free = end;
            }
            Delta::Keep => {}
        }
        q.makespan = cand.makespan;
        q.money = cand.money;
        q.skeleton = cand.skeleton;
        debug_assert_eq!(q.money, q.money_quanta(self.config.quantum));
        debug_assert_eq!(q.optional_count(), cand.optional_count);
        // The lease-end pricing in `expand_parent` relies on this.
        debug_assert!(q.leases_match(self.config.quantum));
    }

    /// Reduce `buf.cands` against `skyline` and replace the skyline with
    /// the survivors. When the caller owns the skyline, the last
    /// survivor of each parent takes the parent itself and applies its
    /// delta in place; earlier survivors of that parent refill a spare
    /// with a copy. The retired partials become spares for the next
    /// step. The caller always owns the skyline here (pool workers drop
    /// their snapshot before reporting a shard), so `Arc::make_mut`
    /// copies nothing; were a handle still held, it would copy the
    /// skyline once and leave that snapshot untouched.
    fn advance(&self, skyline: &mut Arc<Vec<Partial>>, buf: &mut StepBuffers) {
        self.reduce(skyline, buf);
        let StepBuffers {
            front,
            last_of,
            next,
            spares,
            ..
        } = buf;
        let parents = Arc::make_mut(skyline);
        last_of.clear();
        last_of.resize(parents.len(), usize::MAX);
        for (i, cand) in front.iter().enumerate() {
            last_of[cand.parent] = i;
        }
        for (i, cand) in front.iter().enumerate() {
            let q = if last_of[cand.parent] == i {
                let stand_in = spares.pop().unwrap_or_else(Partial::empty);
                let mut q = std::mem::replace(&mut parents[cand.parent], stand_in);
                self.apply(&mut q, cand);
                q
            } else {
                self.materialize(&parents[cand.parent], cand, spares.pop())
            };
            next.push(q);
        }
        std::mem::swap(parents, next);
        spares.append(next);
    }

    /// Union each partial with versions that place `opt` on some
    /// container's free tail inside the current leased span.
    fn offer_optional(
        &self,
        skyline: &mut Arc<Vec<Partial>>,
        opt: &OptionalOp,
        buf: &mut StepBuffers,
    ) {
        let cands = &mut buf.cands;
        cands.clear();
        for (pi, p) in skyline.iter().enumerate() {
            for (c, u) in p.containers.iter().enumerate() {
                if u.free <= u.start {
                    continue;
                }
                let start = u.opt_free.max(u.free);
                let end = start + opt.duration;
                if end <= u.lease_end {
                    cands.push(Cand {
                        parent: pi,
                        delta: Delta::Optional {
                            op: *opt,
                            container: c,
                            start,
                            end,
                        },
                        makespan: p.makespan,
                        money: p.money,
                        skeleton: p.skeleton,
                        optional_count: p.optional.len() + 1,
                    });
                }
            }
        }
        for (pi, p) in skyline.iter().enumerate() {
            cands.push(Cand {
                parent: pi,
                delta: Delta::Keep,
                makespan: p.makespan,
                money: p.money,
                skeleton: p.skeleton,
                optional_count: p.optional.len(),
            });
        }
        self.advance(skyline, buf);
    }

    /// Skyline reduction of `buf.cands` into `buf.front`, without a
    /// sort. Pass 1 records the fastest makespan at each distinct money
    /// value. A sweep in ascending money keeps a level only if it is
    /// strictly faster than every cheaper level: exactly the (time,
    /// money) groups a scan sorted by (time, money) keeps when it drops
    /// every group whose money is not below every faster group's. Pass
    /// 2 collapses each kept group to one winner with the tie-break
    /// (most sequential idle, then — between identical dataflow
    /// skeletons — more optional operators), meeting the members in
    /// enumeration order, as the sorted scan did; dominated candidates
    /// never reach a tie-break. Then the width is capped. Runs entirely
    /// on deltas.
    fn reduce(&self, skyline: &[Partial], buf: &mut StepBuffers) {
        let StepBuffers {
            cands,
            levels,
            by_money,
            level_of,
            groups,
            tops,
            front,
            ..
        } = buf;
        levels.clear();
        by_money.clear();
        level_of.clear();
        // Pass 1. A parent's candidates mostly share its money, so the
        // previous candidate's level is checked first; only a new money
        // value searches the (short) ascending index.
        let mut last = usize::MAX;
        for c in cands.iter() {
            let i = match levels.get(last) {
                Some(l) if l.money == c.money => last,
                _ => match by_money.binary_search_by_key(&c.money, |&(m, _)| m) {
                    Ok(k) => by_money[k].1,
                    Err(k) => {
                        by_money.insert(k, (c.money, levels.len()));
                        levels.push(Level {
                            money: c.money,
                            makespan: c.makespan,
                            slot: DOMINATED,
                        });
                        levels.len() - 1
                    }
                },
            };
            levels[i].makespan = levels[i].makespan.min(c.makespan);
            level_of.push(i);
            last = i;
        }
        let mut fastest: Option<SimDuration> = None;
        let mut kept = 0;
        for &(_, i) in by_money.iter() {
            let level = &mut levels[i];
            if fastest.is_none_or(|f| level.makespan < f) {
                fastest = Some(level.makespan);
                level.slot = kept;
                kept += 1;
            }
        }
        groups.clear();
        groups.resize(
            kept,
            Group {
                win: usize::MAX,
                win_idle: None,
            },
        );
        // Lazy per-parent top-2 idle memo: computed once for a parent
        // the first time one of its candidates hits a tie.
        tops.clear();
        tops.resize(skyline.len(), None);
        let mut idle_of = |c: &Cand| {
            let t = *tops[c.parent].get_or_insert_with(|| IdleTops::of(&skyline[c.parent]));
            self.cand_idle(t, &skyline[c.parent], &c.delta)
        };
        for (k, (p, &i)) in cands.iter().zip(level_of.iter()).enumerate() {
            let level = levels[i];
            if level.slot == DOMINATED || p.makespan != level.makespan {
                continue;
            }
            let group = &mut groups[level.slot];
            if group.win == usize::MAX {
                group.win = k;
                continue;
            }
            let win = &cands[group.win];
            // Primary tie-break: most sequential idle over the dataflow
            // skeleton (as the plain scheduler). Only between
            // skeleton-equivalent candidates does the optional-operator
            // count decide (§5.3.2).
            let p_idle = idle_of(p);
            let last_idle = *group.win_idle.get_or_insert_with(|| idle_of(win));
            let better = match p_idle.cmp(&last_idle) {
                std::cmp::Ordering::Greater => {
                    flowtune_obs::count("sched.tiebreak_idle", 1);
                    true
                }
                std::cmp::Ordering::Less => false,
                // The operator count only decides between *identical*
                // dataflow skeletons; across different skeletons we keep
                // the incumbent exactly as the plain scheduler would, so
                // offering optional ops never changes how the front
                // evolves.
                std::cmp::Ordering::Equal => {
                    let wins = p.skeleton == win.skeleton && p.optional_count > win.optional_count;
                    if wins {
                        // flowtune-allow(obs-discipline): needs an optional-count tiebreak win, which the smoke workload never produces
                        flowtune_obs::count("sched.tiebreak_optcount", 1);
                    }
                    wins
                }
            };
            if better {
                group.win = k;
                group.win_idle = Some(p_idle);
            }
        }
        // Kept levels get slower as they get cheaper; the front lists
        // them fastest first.
        front.clear();
        front.extend(groups.iter().rev().map(|g| cands[g.win]));
        cap_width(front, self.config.max_skyline);
    }

    /// The candidate assigning `op` to container `c` of `p`, from the
    /// expansion kernel.
    #[cfg(test)]
    fn cand_for(&self, p: &Partial, dag: &Dag, op: OpId, c: usize) -> Cand {
        let xfer = XferTable::new(self, dag);
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

/// One expansion job: a contiguous range of the step's parents, against
/// a shared snapshot of the skyline.
struct ExpandJob {
    skyline: Arc<Vec<Partial>>,
    op: OpId,
    parents: Range<usize>,
}

/// Deterministic parallel candidate expansion (DESIGN §5i).
///
/// Workers are spawned inside the `std::thread::scope` of one
/// `schedule()` call, on its first step with at least
/// [`SchedulerConfig::expand_threshold`] candidates, and joined when the
/// call returns; a call that never reaches the threshold spawns none.
/// Each parallel step feeds every worker one contiguous range of the
/// skyline's parents, expanded with [`SkylineScheduler::expand_parent`].
/// Because the ranges partition the parents in worker order and the
/// results are concatenated in the same order, the candidate vector is
/// byte-identical to the sequential enumeration — for any thread count,
/// on any machine. The workers never touch observability (the recorder
/// is thread-local to the caller) and never mutate shared state: they
/// read the skyline snapshot and return owned `Cand` vectors.
struct ExpandPool {
    jobs: Vec<mpsc::Sender<ExpandJob>>,
    results: mpsc::Receiver<(usize, Vec<Cand>)>,
}

#[cfg(test)]
thread_local! {
    /// Workers [`ExpandPool::spawn`] has started from this thread.
    static SPAWNED_WORKERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl ExpandPool {
    fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        threads: usize,
        sched: &'env SkylineScheduler,
        dag: &'env Dag,
        pred_xfer: &'env XferTable,
    ) -> ExpandPool {
        #[cfg(test)]
        SPAWNED_WORKERS.with(|n| n.set(n.get() + threads));
        let (result_tx, results) = mpsc::channel::<(usize, Vec<Cand>)>();
        let mut jobs = Vec::with_capacity(threads);
        for w in 0..threads {
            let (tx, rx) = mpsc::channel::<ExpandJob>();
            jobs.push(tx);
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                let mut preds = Vec::new();
                while let Ok(job) = rx.recv() {
                    let assign = StepOp::new(dag, job.op, pred_xfer.of(job.op));
                    let mut out = Vec::new();
                    for pi in job.parents.clone() {
                        sched.expand_parent(&job.skyline[pi], pi, &assign, &mut preds, &mut out);
                    }
                    // Release the skyline snapshot before reporting, so
                    // the caller owns the skyline alone again once the
                    // last shard arrives and its survivors can take
                    // their parents.
                    drop(job);
                    if result_tx.send((w, out)).is_err() {
                        break;
                    }
                }
            });
        }
        // Drop the main-thread result sender so `recv` can observe
        // disconnection instead of blocking forever if workers die.
        drop(result_tx);
        ExpandPool { jobs, results }
    }

    /// Expand one step's candidates across the pool, appending them to
    /// `cands`. Always appends the full, ordered candidate vector: any
    /// shard a worker failed to deliver (unreachable in practice — the
    /// workers run pure computation) is expanded inline.
    fn expand(
        &self,
        sched: &SkylineScheduler,
        assign: &StepOp<'_>,
        skyline: &Arc<Vec<Partial>>,
        cands: &mut Vec<Cand>,
    ) {
        let threads = self.jobs.len();
        let width = skyline.len();
        let chunk = width.div_ceil(threads.max(1));
        let shard = |w: usize| (w * chunk).min(width)..((w + 1) * chunk).min(width);
        let mut sent = 0usize;
        for (w, tx) in self.jobs.iter().enumerate() {
            let parents = shard(w);
            if parents.is_empty() {
                continue;
            }
            let job = ExpandJob {
                skyline: Arc::clone(skyline),
                op: assign.op,
                parents,
            };
            if tx.send(job).is_ok() {
                sent += 1;
            }
        }
        let mut shards: Vec<Option<Vec<Cand>>> = (0..threads).map(|_| None).collect();
        for _ in 0..sent {
            match self.results.recv() {
                Ok((w, out)) => shards[w] = Some(out),
                Err(_) => break,
            }
        }
        let mut preds = Vec::new();
        for (w, out) in shards.into_iter().enumerate() {
            match out {
                Some(out) => cands.extend(out),
                None => {
                    for pi in shard(w) {
                        sched.expand_parent(&skyline[pi], pi, assign, &mut preds, cands);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::IndexId;
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
        // Larger seeded dataflow, with and without optional ops.
        let mut rng = SimRng::seed_from_u64(11);
        let dag = App::Montage.generate(60, &[], &mut rng);
        let optional: Vec<OptionalOp> = (0..8)
            .map(|i| OptionalOp {
                op: OpId(2000 + i),
                duration: SimDuration::from_secs(5),
                build: BuildRef {
                    index: IndexId(i),
                    part: 0,
                },
            })
            .collect();
        let skyline = sched.schedule_with_optional(&dag, &optional);
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
    fn optional_ops_never_hurt_time_or_money() {
        let sched = SkylineScheduler::new(cfg());
        let dag = fork_join();
        let baseline = sched.schedule(&dag);
        let optional: Vec<OptionalOp> = (0..6)
            .map(|i| OptionalOp {
                op: OpId(1000 + i),
                duration: SimDuration::from_secs(8),
                build: BuildRef {
                    index: IndexId(i),
                    part: 0,
                },
            })
            .collect();
        let with_opt = sched.schedule_with_optional(&dag, &optional);
        // Pareto front must not regress.
        let q = SimDuration::from_secs(60);
        for b in &baseline {
            let covered = with_opt
                .iter()
                .any(|s| s.makespan() <= b.makespan() && s.leased_quanta(q) <= b.leased_quanta(q));
            assert!(covered, "optional ops regressed the skyline");
        }
        // And at least one schedule carries build ops.
        let built: usize = with_opt
            .iter()
            .map(|s| s.build_assignments().count())
            .max()
            .unwrap();
        assert!(built > 0, "no optional op was ever placed");
    }

    #[test]
    fn zero_duration_op_still_bills_one_quantum() {
        // Regression: the old `e > s` billing filter dropped containers
        // whose only assignments are zero-duration, yielding a leased
        // container with zero billed quanta.
        let sched = SkylineScheduler::new(cfg());
        let dag = Dag::new(vec![op(0, 0)], vec![]).unwrap();
        let p = sched.assign_dataflow_op(&Partial::new(1), &dag, OpId(0), 0);
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
            let mut p = Partial::new(n);
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
            let schedule = p.clone().into_schedule();
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
            let mut p = Partial::new(n);
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

    #[test]
    fn preemption_keeps_optional_accounting_consistent() {
        // Seeded random expansion sequences interleaving dataflow
        // assignments with optional offers: after `assign_dataflow_op`
        // drops overlapping optional tails, the candidate's predicted
        // `optional_count` and the partial's accounting must both match
        // the surviving build assignments, and no surviving build may
        // overlap a dataflow op on its container.
        let sched = SkylineScheduler::new(cfg());
        let mut rng = SimRng::seed_from_u64(0x0FF3);
        for round in 0..30 {
            let n = 3 + rng.uniform_u64(1, 10) as usize;
            let ops: Vec<OpSpec> = (0..n)
                .map(|i| op(i as u32, 5 + rng.uniform_u64(0, 50)))
                .collect();
            let edges: Vec<Edge> = (1..n)
                .map(|i| Edge {
                    from: OpId(rng.uniform_u64(0, i as u64) as u32),
                    to: OpId(i as u32),
                    bytes: 0,
                })
                .collect();
            let dag = Dag::new(ops, edges).unwrap();
            let mut skyline = Arc::new(vec![Partial::new(n)]);
            let mut buf = StepBuffers::default();
            let mut opt_id = 5000u32;
            for i in 0..n {
                // Expand one random container choice per partial.
                let mut next = Vec::new();
                for p in skyline.iter() {
                    let used = p.containers.len();
                    let c = rng.uniform_u64(0, used as u64 + 1) as usize;
                    let cand = sched.cand_for(p, &dag, OpId(i as u32), c);
                    let q = sched.materialize(p, &cand, None);
                    assert_eq!(
                        cand.optional_count,
                        q.optional_count(),
                        "candidate preemption prediction drifted (round {round})"
                    );
                    next.push(q);
                }
                skyline = Arc::new(next);
                // Randomly offer an optional op between steps.
                if rng.uniform_u64(0, 2) == 0 {
                    let opt = OptionalOp {
                        op: OpId(opt_id),
                        duration: SimDuration::from_secs(1 + rng.uniform_u64(0, 90)),
                        build: BuildRef {
                            index: IndexId(opt_id),
                            part: 0,
                        },
                    };
                    opt_id += 1;
                    sched.offer_optional(&mut skyline, &opt, &mut buf);
                }
                for p in skyline.iter() {
                    let schedule = p.clone().into_schedule();
                    assert_eq!(
                        p.optional_count(),
                        schedule.build_assignments().count(),
                        "optional accounting drifted (round {round})"
                    );
                    for (_, b) in &p.optional {
                        for a in p.dataflow.iter() {
                            assert!(
                                a.container != b.container || b.end <= a.start || a.end <= b.start,
                                "surviving build overlaps dataflow op (round {round})"
                            );
                        }
                    }
                }
            }
        }
    }

    fn spawned_workers() -> usize {
        SPAWNED_WORKERS.with(|n| n.get())
    }

    #[test]
    fn expand_pool_is_spawned_only_when_a_step_reaches_the_threshold() {
        let mut rng = SimRng::seed_from_u64(7);
        let dag = App::Montage.generate(100, &[], &mut rng);
        let seq = SkylineScheduler::new(SchedulerConfig {
            expand_threads: 1,
            ..cfg()
        });
        let want = seq.schedule(&dag);
        // Default threshold: no step of a 100-op dataflow reaches it.
        let lazy = SkylineScheduler::new(SchedulerConfig {
            expand_threads: 2,
            ..cfg()
        });
        let before = spawned_workers();
        assert_eq!(lazy.schedule(&dag), want);
        assert_eq!(spawned_workers(), before, "an idle pool was spawned");
        // Threshold 1: the first step engages the pool, once per call.
        let eager = SkylineScheduler::new(SchedulerConfig {
            expand_threads: 3,
            expand_threshold: 1,
            ..cfg()
        });
        for call in 1..=2 {
            assert_eq!(eager.schedule(&dag), want);
            assert_eq!(spawned_workers(), before + 3 * call);
        }
    }

    /// A partial of an `n`-op chain with op `i` on container
    /// `i % containers`, then offered `optional` build ops.
    fn chain_partial(
        sched: &SkylineScheduler,
        n: usize,
        containers: usize,
        optional: u32,
    ) -> Partial {
        let ops: Vec<OpSpec> = (0..n).map(|i| op(i as u32, 10)).collect();
        let edges: Vec<Edge> = (1..n)
            .map(|i| Edge {
                from: OpId(i as u32 - 1),
                to: OpId(i as u32),
                bytes: 0,
            })
            .collect();
        let dag = Dag::new(ops, edges).unwrap();
        let mut p = Partial::new(n);
        for i in 0..n {
            p = sched.assign_dataflow_op(&p, &dag, OpId(i as u32), i % containers);
        }
        let mut skyline = Arc::new(vec![p]);
        let mut buf = StepBuffers::default();
        for i in 0..optional {
            let opt = OptionalOp {
                op: OpId(9000 + i),
                duration: SimDuration::from_secs(5),
                build: BuildRef {
                    index: IndexId(i),
                    part: i,
                },
            };
            sched.offer_optional(&mut skyline, &opt, &mut buf);
        }
        Arc::try_unwrap(skyline).unwrap().remove(0)
    }

    #[test]
    fn clone_from_over_a_dirty_spare_equals_clone() {
        // Recycling refills retired partials with `clone_from`; a field
        // it forgot would leak the spare's old state into the search.
        let sched = SkylineScheduler::new(cfg());
        let big = chain_partial(&sched, 150, 7, 4);
        let small = chain_partial(&sched, 5, 2, 0);
        assert!(
            big.optional_count() > 0,
            "the dirty spare carries no builds"
        );
        assert!(big.dataflow.tail.len() > small.dataflow.tail.len());
        assert!(big.ops.chunks.len() > small.ops.chunks.len());
        for (spare, parent) in [(&big, &small), (&small, &big)] {
            let mut q = spare.clone();
            q.clone_from(parent);
            assert_eq!(format!("{q:?}"), format!("{:?}", parent.clone()));
            assert_eq!(q.into_schedule(), parent.clone().into_schedule());
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
    /// faster group's, fold the tie-break over the group in sorted
    /// order, cap the width. Returns the front and the idle and
    /// optional-count tie-break wins.
    fn sorted_reduce(
        sched: &SkylineScheduler,
        skyline: &[Partial],
        cands: &[Cand],
    ) -> (Vec<Cand>, u64, u64) {
        let idle = |c: &Cand| {
            let p = &skyline[c.parent];
            sched.cand_idle(IdleTops::of(p), p, &c.delta)
        };
        let mut keys: Vec<(SimDuration, u64, usize)> = (cands.iter().enumerate())
            .map(|(k, c)| (c.makespan, c.money, k))
            .collect();
        keys.sort_unstable();
        let (mut front, mut idle_wins, mut opt_wins) = (Vec::new(), 0, 0);
        let mut best_money = u64::MAX;
        for group in keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if group[0].1 >= best_money {
                continue;
            }
            best_money = group[0].1;
            let mut win = cands[group[0].2];
            for &(_, _, k) in &group[1..] {
                let p = cands[k];
                let better = match idle(&p).cmp(&idle(&win)) {
                    std::cmp::Ordering::Greater => {
                        idle_wins += 1;
                        true
                    }
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        let wins =
                            p.skeleton == win.skeleton && p.optional_count > win.optional_count;
                        opt_wins += u64::from(wins);
                        wins
                    }
                };
                if better {
                    win = p;
                }
            }
            front.push(win);
        }
        cap_width(&mut front, sched.config.max_skyline);
        (front, idle_wins, opt_wins)
    }

    #[test]
    fn money_level_reduce_matches_a_sort_based_oracle() {
        // Synthetic candidate sets over real parents: few makespan and
        // money values (exact ties across parents, equal makespans at
        // several money levels), skeletons from a two-value set
        // (optional-count ties), single-candidate steps, steps with far
        // more than 40 money levels, and widths 1, 2, 3 and 24.
        let mut rng = SimRng::seed_from_u64(0x5EED_0F00);
        let (mut idle_total, mut opt_total) = (0, 0);
        for round in 0..400 {
            let sched = SkylineScheduler::new(SchedulerConfig {
                max_skyline: [1, 2, 3, 24][round % 4],
                ..cfg()
            });
            let n = 3 + rng.uniform_u64(0, 8) as usize;
            let dag = random_dag(n, &mut rng);
            let skyline: Vec<Partial> = (0..1 + rng.uniform_u64(0, 5))
                .map(|_| {
                    let mut p = Partial::new(n);
                    for i in 0..n - 1 {
                        let c = rng.uniform_u64(0, p.containers_used() as u64 + 1) as usize;
                        p = sched.assign_dataflow_op(&p, &dag, OpId(i as u32), c);
                    }
                    p
                })
                .collect();
            let xfer = XferTable::new(&sched, &dag);
            let assign = StepOp::new(&dag, OpId(n as u32 - 1), xfer.of(OpId(n as u32 - 1)));
            let mut real = Vec::new();
            for (pi, p) in skyline.iter().enumerate() {
                sched.expand_parent(p, pi, &assign, &mut Vec::new(), &mut real);
                real.push(Cand {
                    delta: Delta::Keep,
                    ..real[real.len() - 1]
                });
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
                    c.skeleton = rng.uniform_u64(1, 3);
                    c.optional_count = rng.uniform_u64(0, 3) as usize;
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
            let (want, idle_wins, opt_wins) = sorted_reduce(&sched, &skyline, &cands);
            let fields = |c: &Cand| {
                let delta = format!("{:?}", c.delta);
                (
                    c.parent,
                    c.makespan,
                    c.money,
                    c.skeleton,
                    c.optional_count,
                    delta,
                )
            };
            let got: Vec<_> = buf.front.iter().map(fields).collect();
            let want: Vec<_> = want.iter().map(fields).collect();
            assert_eq!(got, want, "round {round}: fronts differ");
            let counter = |name| rec.metrics().counter(name);
            assert_eq!(counter("sched.tiebreak_idle"), idle_wins, "round {round}");
            assert_eq!(
                counter("sched.tiebreak_optcount"),
                opt_wins,
                "round {round}"
            );
            idle_total += idle_wins;
            opt_total += opt_wins;
        }
        assert!(
            idle_total > 0 && opt_total > 0,
            "a tie-break kind never ran"
        );
    }

    #[test]
    fn advance_past_a_held_skyline_handle_matches_an_owned_skyline() {
        // Two identical searches, step by step: one owns its skyline;
        // the other advances while a second handle is held, so
        // `Arc::make_mut` must copy. Both must reach the same next
        // skyline, and the held snapshot must be left as it was.
        let sched = SkylineScheduler::new(cfg());
        let mut rng = SimRng::seed_from_u64(5);
        let dag = App::Montage.generate(60, &[], &mut rng);
        let pred_xfer = XferTable::new(&sched, &dag);
        let mut owned = Arc::new(vec![Partial::new(dag.len())]);
        let mut shared = Arc::new(vec![Partial::new(dag.len())]);
        let (mut owned_buf, mut shared_buf) = (StepBuffers::default(), StepBuffers::default());
        for (step, op) in dag.topo_order().into_iter().enumerate() {
            let assign = StepOp::new(&dag, op, pred_xfer.of(op));
            let opt = OptionalOp {
                op: OpId(7000 + step as u32),
                duration: SimDuration::from_secs(5),
                build: BuildRef {
                    index: IndexId(step as u32),
                    part: 0,
                },
            };
            for (skyline, buf, hold) in [
                (&mut owned, &mut owned_buf, false),
                (&mut shared, &mut shared_buf, true),
            ] {
                buf.cands.clear();
                for (pi, p) in skyline.iter().enumerate() {
                    sched.expand_parent(p, pi, &assign, &mut buf.preds, &mut buf.cands);
                }
                let held = hold.then(|| (Arc::clone(skyline), format!("{skyline:?}")));
                sched.advance(skyline, buf);
                if step % 7 == 3 {
                    sched.offer_optional(skyline, &opt, buf);
                }
                if let Some((handle, before)) = held {
                    assert_eq!(format!("{handle:?}"), before, "step {step}");
                    assert!(!Arc::ptr_eq(&handle, skyline));
                }
            }
            assert_eq!(format!("{owned:?}"), format!("{shared:?}"), "step {step}");
        }
        let schedules = |s: &Arc<Vec<Partial>>| -> Vec<Schedule> {
            s.iter().map(|p| p.clone().into_schedule()).collect()
        };
        assert_eq!(schedules(&owned), schedules(&shared));
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
