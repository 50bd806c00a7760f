//! Recovery policies for faulted executions.
//!
//! When the simulated cloud kills dataflow operators (container
//! revocation, see `flowtune_cloud::fault`), the service must decide
//! what to do with the remnant. The policies here implement the three
//! behaviours swept by the `fault_matrix` experiment:
//!
//! * **NoRetry** — the dataflow is abandoned; its partial work is
//!   wasted money.
//! * **Retry** — the killed operators are re-scheduled onto fresh
//!   containers via the existing skyline scheduler, after a capped
//!   exponential backoff *in simulated time* (the service waits out a
//!   transient-fault storm before paying for new leases).
//! * **RetryGainPenalty** — Retry, plus graceful tuner degradation:
//!   every failed or fault-killed index build feeds *negative* evidence
//!   into the gain history, so the tuner does not immediately re-attempt
//!   an index the cloud keeps destroying.

use std::collections::BTreeMap;

use flowtune_common::{FlowtuneError, IndexId, OpId, Result, SimDuration, SimTime};
use flowtune_dataflow::{Dag, Edge, OpSpec};

/// What the service does with a dataflow whose operators were killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicyKind {
    /// Abandon the dataflow on the first fault.
    NoRetry,
    /// Re-schedule killed operators with capped exponential backoff.
    Retry,
    /// Retry, and additionally penalise indexes whose builds failed in
    /// the gain history.
    RetryGainPenalty,
}

impl RecoveryPolicyKind {
    /// All policies, in sweep order.
    pub const ALL: [RecoveryPolicyKind; 3] = [
        RecoveryPolicyKind::NoRetry,
        RecoveryPolicyKind::Retry,
        RecoveryPolicyKind::RetryGainPenalty,
    ];

    /// Stable label used in CLI flags and experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicyKind::NoRetry => "no-retry",
            RecoveryPolicyKind::Retry => "retry",
            RecoveryPolicyKind::RetryGainPenalty => "retry-gain-penalty",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "no-retry" => Ok(RecoveryPolicyKind::NoRetry),
            "retry" => Ok(RecoveryPolicyKind::Retry),
            "retry-gain-penalty" => Ok(RecoveryPolicyKind::RetryGainPenalty),
            other => Err(FlowtuneError::config(format!(
                "unknown recovery policy '{other}' \
                 (expected no-retry | retry | retry-gain-penalty)"
            ))),
        }
    }

    /// True when killed operators are re-scheduled at all.
    pub fn retries(&self) -> bool {
        !matches!(self, RecoveryPolicyKind::NoRetry)
    }

    /// True when failed builds feed negative evidence to the tuner.
    pub fn penalises_gain(&self) -> bool {
        matches!(self, RecoveryPolicyKind::RetryGainPenalty)
    }
}

/// Retry/backoff knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// The policy in force.
    pub policy: RecoveryPolicyKind,
    /// Maximum re-execution attempts per dataflow before it is
    /// abandoned.
    pub max_retries: u32,
    /// Magnitude of the negative gain evidence recorded per failed
    /// build (in the same per-dataflow quanta units as `gtd`/`gmd`).
    pub gain_penalty: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            policy: RecoveryPolicyKind::Retry,
            max_retries: 3,
            gain_penalty: 1.0,
        }
    }
}

impl RecoveryConfig {
    /// The default configuration for a given policy.
    pub fn with_policy(policy: RecoveryPolicyKind) -> Self {
        RecoveryConfig {
            policy,
            ..Default::default()
        }
    }

    /// First backoff delay (sim time).
    const BACKOFF_BASE: SimDuration = SimDuration::from_secs(5);
    /// Ceiling on any single backoff delay.
    const BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);

    /// Backoff before re-execution attempt `attempt` (1-based):
    /// `BACKOFF_BASE` doubled `attempt − 1` times, saturating at
    /// `BACKOFF_CAP`. Integer arithmetic throughout, so no attempt
    /// number can wrap the delay below the cap.
    pub fn backoff_delay(&self, attempt: u32) -> SimDuration {
        1u64.checked_shl(attempt.saturating_sub(1))
            .and_then(|factor| Self::BACKOFF_BASE.checked_mul(factor))
            .map_or(Self::BACKOFF_CAP, |delay| delay.min(Self::BACKOFF_CAP))
    }

    /// Validate parameter ranges. NaN fails every check.
    pub fn validate(&self) -> Result<()> {
        if self.gain_penalty.is_nan() || self.gain_penalty < 0.0 {
            return Err(FlowtuneError::config(format!(
                "gain penalty must be >= 0, got {}",
                self.gain_penalty
            )));
        }
        Ok(())
    }
}

/// Per-partition rebuild state for the crash-recovery path.
#[derive(Debug, Clone, Copy, Default)]
struct ThrottleEntry {
    /// Consecutive invalidations of this partition.
    failures: u32,
    /// Rebuilds of the partition may not be offered before this instant.
    eligible_at: SimTime,
}

/// Backoff gate for rebuilding partitions the recovery scan
/// invalidated (torn pages, crash debris).
///
/// Without it the tuner re-offers an invalidated partition on the very
/// next round, and a flaky storage layer turns into a tight
/// build-invalidate loop. Each invalidation pushes the partition's
/// eligibility out by [`RecoveryConfig::backoff_delay`] of its
/// consecutive-failure count; a clean verified commit clears the
/// entry.
#[derive(Debug, Clone, Default)]
pub struct RebuildThrottle {
    entries: BTreeMap<(IndexId, u32), ThrottleEntry>,
}

impl RebuildThrottle {
    /// An empty throttle (every partition eligible).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one invalidation of `(index, part)` at `now`; the next
    /// rebuild offer is pushed out by the policy's capped exponential
    /// backoff.
    pub fn record_failure(
        &mut self,
        index: IndexId,
        part: u32,
        now: SimTime,
        config: &RecoveryConfig,
    ) {
        let entry = self.entries.entry((index, part)).or_default();
        entry.failures += 1;
        entry.eligible_at = now + config.backoff_delay(entry.failures);
    }

    /// Record a clean verified commit of `(index, part)`. Returns true
    /// when the partition had previously been invalidated — i.e. this
    /// commit is a *rebuild* completing, not a first build.
    pub fn record_success(&mut self, index: IndexId, part: u32) -> bool {
        self.entries.remove(&(index, part)).is_some()
    }

    /// Whether a rebuild of `(index, part)` may be offered at `now`.
    pub fn is_eligible(&self, index: IndexId, part: u32, now: SimTime) -> bool {
        self.entries
            .get(&(index, part))
            .is_none_or(|e| now >= e.eligible_at)
    }
}

/// The remnant of a killed dataflow: the killed operators as a fresh
/// DAG (dense ids, internal edges only), ready for the skyline
/// scheduler. Returns the remnant and the original `OpId` of each
/// remnant operator (`original[i]` is remnant op `OpId(i)`).
///
/// Completed predecessors are treated as already-materialised inputs:
/// edges from surviving operators are dropped (their outputs are on
/// the storage service), while `reads` are kept so the retry still
/// pays its input transfers and can use indexes.
pub fn remnant_dag(actual: &Dag, killed: &[OpId]) -> Result<(Dag, Vec<OpId>)> {
    let mut original: Vec<OpId> = killed.to_vec();
    original.sort();
    original.dedup();
    if original.is_empty() {
        return Err(FlowtuneError::config(
            "remnant of an unkilled dataflow is empty".to_owned(),
        ));
    }
    let remap: BTreeMap<OpId, OpId> = original
        .iter()
        .enumerate()
        .map(|(i, &op)| (op, OpId(i as u32)))
        .collect();
    let ops: Vec<OpSpec> = original
        .iter()
        .map(|&op| {
            let mut spec = actual.op(op).clone();
            spec.id = remap[&op];
            spec
        })
        .collect();
    let edges: Vec<Edge> = actual
        .edges()
        .iter()
        .filter_map(|e| match (remap.get(&e.from), remap.get(&e.to)) {
            (Some(&from), Some(&to)) => Some(Edge {
                from,
                to,
                bytes: e.bytes,
            }),
            _ => None,
        })
        .collect();
    let dag = Dag::new(ops, edges)?;
    Ok((dag, original))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels_round_trip() {
        for p in RecoveryPolicyKind::ALL {
            assert_eq!(RecoveryPolicyKind::parse(p.label()).unwrap(), p);
        }
        assert!(RecoveryPolicyKind::parse("nope").is_err());
        assert!(!RecoveryPolicyKind::NoRetry.retries());
        assert!(RecoveryPolicyKind::Retry.retries());
        assert!(!RecoveryPolicyKind::Retry.penalises_gain());
        assert!(RecoveryPolicyKind::RetryGainPenalty.penalises_gain());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let c = RecoveryConfig::default(); // base 5 s, ×2, cap 60 s
        assert_eq!(c.backoff_delay(1), SimDuration::from_secs(5));
        assert_eq!(c.backoff_delay(2), SimDuration::from_secs(10));
        assert_eq!(c.backoff_delay(3), SimDuration::from_secs(20));
        assert_eq!(c.backoff_delay(4), SimDuration::from_secs(40));
        assert_eq!(c.backoff_delay(5), SimDuration::from_secs(60), "capped");
        assert_eq!(c.backoff_delay(20), SimDuration::from_secs(60), "capped");
        // Attempt numbers past i32::MAX stay at the cap too.
        assert_eq!(c.backoff_delay(u32::MAX), SimDuration::from_secs(60));
        assert_eq!(c.backoff_delay((1 << 31) + 1), SimDuration::from_secs(60));
    }

    #[test]
    fn config_validation_rejects_bad_ranges() {
        assert!(RecoveryConfig::default().validate().is_ok());
        assert!(RecoveryConfig {
            gain_penalty: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn config_validation_rejects_nan() {
        let nan_penalty = RecoveryConfig {
            gain_penalty: f64::NAN,
            ..Default::default()
        };
        assert!(nan_penalty.validate().is_err());
    }

    #[test]
    fn throttle_backs_off_exponentially_and_clears_on_success() {
        let config = RecoveryConfig::default(); // base 5 s, ×2, cap 60 s
        let mut t = RebuildThrottle::new();
        let (idx, part) = (IndexId(3), 1);
        assert!(
            t.is_eligible(idx, part, SimTime::ZERO),
            "untracked partition"
        );
        assert!(
            !t.record_success(idx, part),
            "clean first build is no rebuild"
        );

        t.record_failure(idx, part, SimTime::ZERO, &config);
        assert!(!t.is_eligible(idx, part, SimTime::from_secs(4)));
        assert!(t.is_eligible(idx, part, SimTime::from_secs(5)));

        // Second consecutive failure doubles the backoff.
        t.record_failure(idx, part, SimTime::from_secs(5), &config);
        assert!(!t.is_eligible(idx, part, SimTime::from_secs(14)));
        assert!(t.is_eligible(idx, part, SimTime::from_secs(15)));

        // A verified clean commit is a completed rebuild and resets
        // the failure history entirely.
        assert!(t.record_success(idx, part));
        assert!(t.is_eligible(idx, part, SimTime::ZERO));
        t.record_failure(idx, part, SimTime::from_secs(100), &config);
        assert!(
            t.is_eligible(idx, part, SimTime::from_secs(105)),
            "history reset"
        );
    }

    #[test]
    fn throttle_is_per_partition() {
        let config = RecoveryConfig::default();
        let mut t = RebuildThrottle::new();
        t.record_failure(IndexId(1), 0, SimTime::ZERO, &config);
        assert!(!t.is_eligible(IndexId(1), 0, SimTime::ZERO));
        assert!(t.is_eligible(IndexId(1), 1, SimTime::ZERO));
        assert!(t.is_eligible(IndexId(2), 0, SimTime::ZERO));
    }

    #[test]
    fn remnant_keeps_internal_edges_and_reads() {
        // 0 -> 1 -> 2, plus 0 -> 2; ops 1 and 2 were killed.
        let dag = Dag::new(
            vec![
                OpSpec::new(OpId(0), "a", SimDuration::from_secs(10)),
                OpSpec::new(OpId(1), "b", SimDuration::from_secs(20)),
                OpSpec::new(OpId(2), "c", SimDuration::from_secs(30)),
            ],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(1),
                    bytes: 100,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(2),
                    bytes: 200,
                },
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 300,
                },
            ],
        )
        .unwrap();
        let (remnant, original) = remnant_dag(&dag, &[OpId(2), OpId(1)]).unwrap();
        assert_eq!(original, vec![OpId(1), OpId(2)]);
        assert_eq!(remnant.len(), 2);
        // Only the internal 1 -> 2 edge survives, re-identified 0 -> 1.
        assert_eq!(remnant.edges().len(), 1);
        assert_eq!(remnant.edge_bytes(OpId(0), OpId(1)), 200);
        // Runtimes carried over.
        assert_eq!(remnant.op(OpId(0)).runtime, SimDuration::from_secs(20));
        assert_eq!(remnant.op(OpId(1)).runtime, SimDuration::from_secs(30));
    }

    #[test]
    fn remnant_of_nothing_is_an_error() {
        let dag = Dag::new(
            vec![OpSpec::new(OpId(0), "a", SimDuration::from_secs(1))],
            vec![],
        )
        .unwrap();
        assert!(remnant_dag(&dag, &[]).is_err());
    }
}
