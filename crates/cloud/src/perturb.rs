//! Estimation-error injection (§6.2).
//!
//! "The runtime of operators and the data sizes they generate are
//! randomly varied within a certain percentage": for an error level `e`,
//! each actual value is the estimate scaled by a uniform factor in
//! `[1−e, 1+e]`.

use flowtune_common::SimRng;
use flowtune_dataflow::{Dag, Edge};

/// Produce the *actual* DAG from the *estimated* one: operator runtimes
/// scaled by `1 ± time_error`, edge byte counts by `1 ± data_error`.
/// Errors are fractions (0.1 = 10 %).
// flowtune-allow(newtype-discipline): time_error is a dimensionless error fraction, not a time
pub fn perturb_dag(dag: &Dag, time_error: f64, data_error: f64, rng: &mut SimRng) -> Dag {
    assert!(
        (0.0..1.0).contains(&time_error),
        "time error must be in [0,1)"
    );
    assert!(
        (0.0..1.0).contains(&data_error),
        "data error must be in [0,1)"
    );
    let ops = dag
        .ops()
        .iter()
        .map(|op| {
            let mut actual = op.clone();
            if time_error > 0.0 {
                let f = rng.uniform_range(1.0 - time_error, 1.0 + time_error);
                actual.runtime = op.runtime.mul_f64(f);
            }
            actual
        })
        .collect();
    let edges = dag
        .edges()
        .iter()
        .map(|e| {
            let bytes = if data_error > 0.0 {
                let f = rng.uniform_range(1.0 - data_error, 1.0 + data_error);
                (e.bytes as f64 * f).round() as u64
            } else {
                e.bytes
            };
            Edge {
                from: e.from,
                to: e.to,
                bytes,
            }
        })
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "ops and edges are copied one-for-one from a Dag that already validated"
    )]
    Dag::new(ops, edges).expect("perturbation preserves DAG structure")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::SimRng;
    use flowtune_dataflow::App;

    #[test]
    fn zero_error_is_identity() {
        let mut rng = SimRng::seed_from_u64(1);
        let dag = App::Montage.generate(50, &[], &mut rng);
        let same = perturb_dag(&dag, 0.0, 0.0, &mut rng);
        assert_eq!(dag.ops(), same.ops());
        assert_eq!(dag.edges(), same.edges());
    }

    #[test]
    fn errors_stay_within_bounds() {
        let mut rng = SimRng::seed_from_u64(2);
        let dag = App::Ligo.generate(60, &[], &mut rng);
        let actual = perturb_dag(&dag, 0.2, 0.5, &mut rng);
        for (est, act) in dag.ops().iter().zip(actual.ops()) {
            let ratio = act.runtime.as_secs_f64() / est.runtime.as_secs_f64();
            assert!((0.8..=1.2001).contains(&ratio), "runtime ratio {ratio}");
        }
        for (est, act) in dag.edges().iter().zip(actual.edges()) {
            if est.bytes > 1000 {
                let ratio = act.bytes as f64 / est.bytes as f64;
                assert!((0.499..=1.501).contains(&ratio), "bytes ratio {ratio}");
            }
        }
    }

    #[test]
    fn structure_is_preserved() {
        let mut rng = SimRng::seed_from_u64(3);
        let dag = App::Cybershake.generate(40, &[], &mut rng);
        let actual = perturb_dag(&dag, 0.3, 0.3, &mut rng);
        assert_eq!(dag.len(), actual.len());
        assert_eq!(dag.edges().len(), actual.edges().len());
        for (a, b) in dag.edges().iter().zip(actual.edges()) {
            assert_eq!((a.from, a.to), (b.from, b.to));
        }
        // Reads are untouched.
        for (a, b) in dag.ops().iter().zip(actual.ops()) {
            assert_eq!(a.reads, b.reads);
        }
    }
}
