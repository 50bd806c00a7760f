//! The correctness gate: every sample of one workload seed must produce
//! a `RunReport` byte-identical (in its `Debug` rendering) to the first
//! sample of that seed, and every report must pass [`check_report`]. A
//! sample that differs, fails the check, or whose run errored counts all
//! of its dataflows as failed.

use std::collections::BTreeMap;

use flowtune_core::RunReport;

/// Bookkeeping every run report must satisfy: one per-dataflow record
/// and one timeline point per issued dataflow, no more finished than
/// issued, and a bill for the work done.
pub fn check_report(r: &RunReport) -> Result<(), String> {
    if r.dataflows_issued == 0 {
        return Err("no dataflow was issued".into());
    }
    if r.dataflows_finished > r.dataflows_issued {
        return Err(format!(
            "{} dataflows finished of {} issued",
            r.dataflows_finished, r.dataflows_issued
        ));
    }
    if r.per_dataflow.len() != r.dataflows_issued || r.timeline.len() != r.dataflows_issued {
        return Err(format!(
            "{} issued, but {} dataflow records and {} timeline points",
            r.dataflows_issued,
            r.per_dataflow.len(),
            r.timeline.len()
        ));
    }
    if r.compute_cost.as_dollars() <= 0.0 {
        return Err(format!(
            "compute cost {} for a non-empty run",
            r.compute_cost
        ));
    }
    Ok(())
}

/// FNV-1a digest of a report's `Debug` rendering, as 16 hex digits.
pub fn digest(report: &RunReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{report:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reference digests per workload seed, plus the failure tally.
#[derive(Debug, Default)]
pub struct Gate {
    first: BTreeMap<u64, (String, usize)>,
    /// Dataflows of samples that mismatched or errored.
    pub failed: usize,
    /// Samples that mismatched or errored.
    pub bad_samples: usize,
}

impl Gate {
    /// Check one sample's digest for workload seed `seed`; `issued` is
    /// the sample's dataflow count. Returns whether the sample passed.
    pub fn check(&mut self, seed: u64, digest: &str, issued: usize) -> bool {
        let (want, _) = self
            .first
            .entry(seed)
            .or_insert_with(|| (digest.to_owned(), issued));
        if want == digest {
            true
        } else {
            self.failed += issued;
            self.bad_samples += 1;
            false
        }
    }

    /// Record a sample whose run errored: its dataflows count as failed
    /// (the seed's first issued count when known, else one).
    pub fn errored(&mut self, seed: u64) -> usize {
        let issued = self.first.get(&seed).map_or(1, |(_, n)| (*n).max(1));
        self.failed += issued;
        self.bad_samples += 1;
        issued
    }

    /// The reference digest of each workload seed.
    pub fn digests(&self) -> impl Iterator<Item = (u64, &str)> {
        self.first.iter().map(|(s, (d, _))| (*s, d.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use flowtune_core::QaasService;

    #[test]
    fn a_perturbed_report_trips_the_gate() {
        let config = Workload::GainPhases.config(7, true);
        let report = QaasService::new(config).run().expect("smoke run");
        let mut gate = Gate::default();
        assert!(gate.check(7, &digest(&report), report.dataflows_issued));
        assert!(gate.check(7, &digest(&report.clone()), report.dataflows_issued));
        assert_eq!(gate.failed, 0);

        let mut perturbed = report.clone();
        perturbed.verify_pages_scanned += 1;
        assert!(!gate.check(7, &digest(&perturbed), perturbed.dataflows_issued));
        assert_eq!(gate.failed, report.dataflows_issued);
        assert_eq!(gate.bad_samples, 1);

        // A single per-dataflow record deep in the report counts too.
        let mut perturbed = report.clone();
        if let Some(rec) = perturbed.per_dataflow.last_mut() {
            rec.indexed_fraction += 1e-12;
        }
        assert!(!gate.check(7, &digest(&perturbed), perturbed.dataflows_issued));
        assert_eq!(gate.bad_samples, 2);
    }

    #[test]
    fn broken_bookkeeping_fails_the_report_check() {
        let report = QaasService::new(Workload::FaultsOnline.config(7, true))
            .run()
            .expect("smoke run");
        assert_eq!(check_report(&report), Ok(()));

        let mut lost_point = report.clone();
        lost_point.timeline.pop();
        assert!(check_report(&lost_point).is_err());

        let mut overcounted = report.clone();
        overcounted.dataflows_finished = report.dataflows_issued + 1;
        assert!(check_report(&overcounted).is_err());

        assert!(check_report(&RunReport::default()).is_err());
    }

    #[test]
    fn errors_count_the_seeds_dataflows() {
        let mut gate = Gate::default();
        assert_eq!(gate.errored(1), 1);
        gate.check(2, "abc", 40);
        assert_eq!(gate.errored(2), 40);
        assert_eq!(gate.failed, 41);
    }
}
