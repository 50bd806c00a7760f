//! Online interleaving — §5.3.2.
//!
//! The paper offers *optional* build operators between the skyline
//! scheduler's dataflow steps. A build moves neither objective, so the
//! offers never change the dataflow placements, and at step `k` every
//! partial schedule holds the placements of the first `k` ops of the
//! topological order. Replaying the offers step by step along each
//! finished plain schedule therefore places, keeps and drops exactly the
//! builds the in-search offers did; `equivalence_tests` pins it against
//! the retained in-search version in `flowtune_sched::reference`. The
//! fragmentation is not known up front, so fewer builds get placed than
//! with LP interleaving (Fig. 8).

use flowtune_common::{ContainerId, SimDuration, SimTime};
use flowtune_dataflow::Dag;
use flowtune_sched::schedule::lease_end;
use flowtune_sched::{Assignment, Schedule, SkylineScheduler};

use crate::buildop::BuildOp;

/// The online interleaver.
#[derive(Debug, Clone, Default)]
pub struct OnlineInterleaver {
    /// The underlying skyline scheduler.
    pub scheduler: SkylineScheduler,
}

impl OnlineInterleaver {
    /// Create an online interleaver around a configured scheduler.
    pub fn new(scheduler: SkylineScheduler) -> Self {
        OnlineInterleaver { scheduler }
    }

    /// Schedule the dataflow, then offer the pending build operators to
    /// every schedule of the skyline in decreasing gain order.
    pub fn schedule(&self, dag: &Dag, pending: &[BuildOp]) -> Vec<Schedule> {
        let mut ranked: Vec<&BuildOp> = pending.iter().collect();
        ranked.sort_by(|a, b| b.gain.total_cmp(&a.gain));
        let quantum = self.scheduler.config.quantum;
        let skyline: Vec<Schedule> = (self.scheduler.schedule(dag).into_iter())
            .map(|plain| offer_builds(plain, &ranked, quantum))
            .collect();
        // Mirror the LP path's offered/placed accounting so Fig. 8's
        // online-vs-LP gap is readable straight off the metrics summary.
        // flowtune-allow(obs-discipline): the smoke run schedules via the LP path, never the online interleaver
        flowtune_obs::count("interleave.online_offered", ranked.len() as u64);
        let placed = skyline
            .iter()
            .map(|s| s.build_assignments().count())
            .max()
            .unwrap_or(0);
        // flowtune-allow(obs-discipline): the smoke run schedules via the LP path, never the online interleaver
        flowtune_obs::count("interleave.online_placed", placed as u64);
        skyline
    }
}

/// One used container while a schedule is replayed.
struct Slot {
    /// Start of its first dataflow op.
    start: SimTime,
    /// End of its last dataflow op.
    free: SimTime,
    /// Where the next build would start: the latest end of its dataflow
    /// ops and placed builds, so never before `free`. A build a later
    /// op drops still counts, as it did inside the search.
    opt_free: SimTime,
    /// End of the billed lease of the dataflow span `[start, free]`.
    lease_end: SimTime,
}

/// `plain` (a skyline schedule, assignments in step order) with the
/// online offers of `ranked` placed. After step `k` of `n` the builds up
/// to `ranked.len() * (k + 1) / n` are offered; each goes on the first
/// container whose lease still fits it after the container's last op,
/// dataflow or build. A later dataflow op that starts before a build on
/// its container ends drops that build, so builds never delay the
/// dataflow. Each surviving build is merged back in before the dataflow
/// op that followed its offer.
fn offer_builds(plain: Schedule, ranked: &[&BuildOp], quantum: SimDuration) -> Schedule {
    if ranked.is_empty() {
        return plain;
    }
    let steps = plain.assignments();
    let n = steps.len();
    let mut slots: Vec<Slot> = Vec::new();
    // Each placed build with the number of dataflow ops before it.
    let mut builds: Vec<(usize, Assignment)> = Vec::new();
    let mut offered = 0;
    for (k, a) in steps.iter().enumerate() {
        builds.retain(|(_, b)| !(b.container == a.container && b.end > a.start));
        match slots.get_mut(a.container.index()) {
            Some(slot) => {
                slot.free = a.end;
                slot.opt_free = slot.opt_free.max(a.end);
                slot.lease_end = lease_end(slot.start, a.end, quantum);
            }
            None => slots.push(Slot {
                start: a.start,
                free: a.end,
                opt_free: a.end,
                lease_end: lease_end(a.start, a.end, quantum),
            }),
        }
        let until = ranked.len() * (k + 1) / n;
        for b in &ranked[offered..until] {
            builds.extend(place(&mut slots, b).map(|placed| (k + 1, placed)));
        }
        offered = until;
    }
    let mut out = Vec::with_capacity(n + builds.len());
    let mut builds = builds.into_iter().peekable();
    for (k, a) in steps.iter().enumerate() {
        while let Some((_, b)) = builds.next_if(|&(pos, _)| pos <= k) {
            out.push(b);
        }
        out.push(*a);
    }
    out.extend(builds.map(|(_, b)| b));
    Schedule::from_assignments(out)
}

/// Place `b` on the first container whose lease still fits it after
/// the container's last op. A container whose dataflow span is empty
/// (zero-duration ops only) takes none.
fn place(slots: &mut [Slot], b: &BuildOp) -> Option<Assignment> {
    let (c, slot) = (slots.iter_mut().enumerate())
        .find(|(_, slot)| slot.free > slot.start && slot.opt_free + b.duration <= slot.lease_end)?;
    let start = slot.opt_free;
    slot.opt_free += b.duration;
    Some(Assignment {
        op: b.schedule_op_id(),
        container: ContainerId(c as u32),
        start,
        end: slot.opt_free,
        build: Some(b.build),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpInterleaver;
    use flowtune_common::{
        BuildOpId, CloudConfig, DataflowId, IndexId, SimDuration, SimRng, SimTime,
    };
    use flowtune_dataflow::{App, DataflowFactory, FileDatabase};
    use flowtune_sched::{BuildRef, SchedulerConfig};

    fn pending(n: u32) -> Vec<BuildOp> {
        (0..n)
            .map(|i| BuildOp {
                id: BuildOpId(i),
                build: BuildRef {
                    index: IndexId(i / 4),
                    part: i % 4,
                },
                duration: SimDuration::from_secs(4 + (i as u64 * 7) % 25),
                gain: 1.0 + (i as f64 * 0.37) % 5.0,
            })
            .collect()
    }

    #[test]
    fn online_schedules_are_valid_and_carry_builds() {
        let mut rng = SimRng::seed_from_u64(5);
        let dag = App::Montage.generate(100, &[], &mut rng);
        let il = OnlineInterleaver::default();
        let skyline = il.schedule(&dag, &pending(40));
        assert!(!skyline.is_empty());
        let mut any_builds = 0usize;
        for s in &skyline {
            s.validate(&dag).unwrap();
            any_builds += s.build_assignments().count();
        }
        assert!(
            any_builds > 0,
            "online interleaving never placed a build op"
        );
    }

    #[test]
    fn lp_places_at_least_as_many_as_online_on_same_schedule_count() {
        // The paper's Fig. 8 observation: LP sees the fragmentation up
        // front and schedules significantly more build operators.
        let mut rng = SimRng::seed_from_u64(7);
        let dag = App::Montage.generate(100, &[], &mut rng);
        let ops = pending(60);

        let il = OnlineInterleaver::default();
        let online_best = il
            .schedule(&dag, &ops)
            .iter()
            .map(|s| s.build_assignments().count())
            .max()
            .unwrap();

        let mut lp_skyline = il.scheduler.schedule(&dag);
        let lp = LpInterleaver::new(il.scheduler.config.quantum);
        let lp_best = lp
            .interleave_skyline(&mut lp_skyline, &ops)
            .iter()
            .map(Vec::len)
            .max()
            .unwrap();
        assert!(
            lp_best >= online_best,
            "LP placed {lp_best}, online placed {online_best}"
        );
    }

    /// Every service-shaped factory DAG (60, all apps, the service's
    /// width 8) with its plain skyline and the online skyline of
    /// `n` ∈ {0, 8, 24, 64, 192} offers, the last the service's full
    /// queue.
    fn factory_cases(mut check: impl FnMut(&str, &Dag, &[Schedule], &[Schedule])) {
        let mut rng = SimRng::seed_from_u64(8);
        let filedb = FileDatabase::generate(&mut rng);
        let mut factory = DataflowFactory::new(filedb, 100, rng.fork());
        let config = SchedulerConfig::for_cloud(&CloudConfig::default(), 8);
        let il = OnlineInterleaver::new(SkylineScheduler::new(config));
        for (i, app) in App::ALL.into_iter().cycle().take(60).enumerate() {
            let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
            let plain = il.scheduler.schedule(&df.dag);
            for n in [0, 8, 24, 64, 192] {
                let online = il.schedule(&df.dag, &pending(n));
                let label = format!("{} dataflow {i}, {n} offers", app.name());
                assert_eq!(online.len(), plain.len(), "{label}: widths differ");
                check(&label, &df.dag, &plain, &online);
            }
        }
    }

    #[test]
    fn empty_pending_degenerates_to_plain_scheduling() {
        // Offers only add builds: with them stripped, the online skyline
        // is the plain one, schedule for schedule and assignment for
        // assignment.
        let mut placed = 0;
        factory_cases(|label, _, plain, online| {
            for (k, (s, want)) in online.iter().zip(plain).enumerate() {
                placed += s.build_assignments().count();
                let dataflow = s.dataflow_assignments().copied().collect();
                let got = Schedule::from_assignments(dataflow);
                assert_eq!(&got, want, "{label}: schedule {k} differs");
            }
        });
        assert!(placed > 0, "no offer placed a build");
    }

    #[test]
    fn optional_ops_never_hurt_time_or_money() {
        // The paper's promise for interleaved builds, as an equality:
        // every online schedule keeps its plain schedule's makespan and
        // leased quanta, and no build overlaps an op on its container.
        let q = CloudConfig::default().quantum;
        factory_cases(|label, dag, plain, online| {
            for (k, (s, want)) in online.iter().zip(plain).enumerate() {
                assert_eq!(s.makespan(), want.makespan(), "{label}: schedule {k}");
                assert_eq!(
                    s.leased_quanta(q),
                    want.leased_quanta(q),
                    "{label}: schedule {k}"
                );
                s.validate(dag).unwrap();
            }
        });
    }
}
