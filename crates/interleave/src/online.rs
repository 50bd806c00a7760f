//! Online interleaving — §5.3.2.
//!
//! A thin orchestration layer over
//! [`SkylineScheduler::schedule_with_optional`]: build operators are
//! marked *optional* and offered between the dataflow operators' steps.
//! Compared with LP interleaving, the fragmentation information is not
//! available up front, so fewer build operators get placed (Fig. 8).
//! Each offer places the build on a schedule's first container whose
//! lease still fits it, so the dataflow placements are exactly those of
//! plain skyline scheduling.

use flowtune_dataflow::Dag;
use flowtune_sched::{OptionalOp, Schedule, SkylineScheduler};

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

    /// Schedule the dataflow and the pending build operators together.
    /// Build operators are offered in decreasing gain order.
    pub fn schedule(&self, dag: &Dag, pending: &[BuildOp]) -> Vec<Schedule> {
        let mut ranked: Vec<&BuildOp> = pending.iter().collect();
        ranked.sort_by(|a, b| b.gain.total_cmp(&a.gain));
        let optional: Vec<OptionalOp> = ranked
            .iter()
            .map(|b| OptionalOp {
                op: b.schedule_op_id(),
                duration: b.duration,
                build: b.build,
            })
            .collect();
        let skyline = self.scheduler.schedule_with_optional(dag, &optional);
        // Mirror the LP path's offered/placed accounting so Fig. 8's
        // online-vs-LP gap is readable straight off the metrics summary.
        // flowtune-allow(obs-discipline): the smoke run schedules via the LP path, never the online interleaver
        flowtune_obs::count("interleave.online_offered", optional.len() as u64);
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

    #[test]
    fn empty_pending_degenerates_to_plain_scheduling() {
        // Offers only add builds: with them stripped, the online skyline
        // is the plain one, schedule for schedule and assignment for
        // assignment, from no pending build up to the service's full
        // queue of 192. Service-shaped DAGs at the service's width 8.
        let mut rng = SimRng::seed_from_u64(8);
        let filedb = FileDatabase::generate(&mut rng);
        let mut factory = DataflowFactory::new(filedb, 100, rng.fork());
        let config = SchedulerConfig::for_cloud(&CloudConfig::default(), 8);
        let il = OnlineInterleaver::new(SkylineScheduler::new(config));
        let mut placed = 0;
        for (i, app) in App::ALL.into_iter().cycle().take(60).enumerate() {
            let df = factory.make(DataflowId(i as u32), app, SimTime::ZERO);
            let plain = il.scheduler.schedule(&df.dag);
            for n in [0, 8, 24, 64, 192] {
                let online = il.schedule(&df.dag, &pending(n));
                let label = format!("{} dataflow {i}, {n} offers", app.name());
                assert_eq!(online.len(), plain.len(), "{label}: widths differ");
                for (k, (s, want)) in online.iter().zip(&plain).enumerate() {
                    placed += s.build_assignments().count();
                    let dataflow = s.dataflow_assignments().copied().collect();
                    let got = Schedule::from_assignments(dataflow);
                    assert_eq!(&got, want, "{label}: schedule {k} differs");
                }
            }
        }
        assert!(placed > 0, "no offer placed a build");
    }
}
