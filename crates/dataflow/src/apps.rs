//! Scientific-application DAG generators.
//!
//! Re-implements the structural shapes of Montage, LIGO and CyberShake
//! (Fig. 5 of the paper, after Bharathi et al., "Characterization of
//! Scientific Workflows", WORKS 2008) with operator runtimes and input
//! file sizes sampled from clamped log-normal distributions fit to the
//! paper's Table 4:
//!
//! | app        | ops | time min/max/mean/stdev (s)  | files | MB min/max/mean/stdev |
//! |------------|-----|------------------------------|-------|------------------------|
//! | Montage    | 100 | 3.82 / 49.32 / 11.32 / 2.95  | 20    | 0.01 / 4.02 / 3.22 / 1.65 |
//! | LIGO       | 100 | 4.03 / 689.39 / 222.33 / 241.42 | 53 | 0.86 / 14.91 / 14.24 / 2.70 |
//! | CyberShake | 100 | 0.55 / 199.43 / 22.97 / 25.08 | 52   | 1.81 / 19169.75 / 1459.08 / 5091.69 |

use flowtune_common::{LogNormal, OpId, PartitionId, SimDuration, SimRng};

use crate::dag::{Dag, Edge};
use crate::op::OpSpec;

/// The three benchmark applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Astronomy image mosaics (fan-out / fan-in ladder).
    Montage,
    /// Gravitational-wave analysis (two pipelined stages of grouped
    /// parallel tasks).
    Ligo,
    /// Earthquake characterisation (two huge fan-outs with per-task
    /// post-processing).
    Cybershake,
}

/// Distribution statistics of one application (Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppStats {
    /// Operator runtime in seconds: (min, max, mean, stdev).
    pub time: (f64, f64, f64, f64),
    /// Number of input files in the file database.
    pub input_files: usize,
    /// Input file size in MB: (min, max, mean, stdev).
    pub input_mb: (f64, f64, f64, f64),
    /// Mean intermediate edge size in MB (drives communication costs).
    pub edge_mb: f64,
}

impl App {
    /// All applications, in the paper's order.
    pub const ALL: [App; 3] = [App::Montage, App::Ligo, App::Cybershake];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Montage => "Montage",
            App::Ligo => "Ligo",
            App::Cybershake => "Cybershake",
        }
    }

    /// Table 4 statistics for this application.
    pub fn stats(self) -> AppStats {
        match self {
            App::Montage => AppStats {
                time: (3.82, 49.32, 11.32, 2.95),
                input_files: 20,
                input_mb: (0.01, 4.02, 3.22, 1.65),
                edge_mb: 3.0,
            },
            App::Ligo => AppStats {
                time: (4.03, 689.39, 222.33, 241.42),
                input_files: 53,
                input_mb: (0.86, 14.91, 14.24, 2.70),
                edge_mb: 10.0,
            },
            App::Cybershake => AppStats {
                time: (0.55, 199.43, 22.97, 25.08),
                input_files: 52,
                input_mb: (1.81, 19_169.75, 1459.08, 5091.69),
                edge_mb: 120.0,
            },
        }
    }

    /// Sample one input-file size in bytes from this app's distribution.
    ///
    /// CyberShake's published statistics (mean 1459 MB, stdev 5092 MB,
    /// max 19 GB) describe a distribution whose mass sits in a few huge
    /// SGT files; a clamped log-normal chops that tail and lands far
    /// below the mean, so CyberShake uses an explicit small/huge mixture
    /// calibrated to the published moments instead.
    pub fn sample_file_bytes(self, rng: &mut SimRng) -> u64 {
        let (min, max, mean, stdev) = self.stats().input_mb;
        let mb = if self == App::Cybershake {
            if rng.chance(0.15) {
                // The huge-SGT tail: ~15 % of files carry most bytes.
                rng.uniform_range(2_500.0, max * 0.85)
            } else {
                LogNormal::new(160.0, 300.0, min, 2_000.0).sample(rng)
            }
        } else {
            LogNormal::new(mean, stdev, min, max).sample(rng)
        };
        (mb * 1024.0 * 1024.0).round() as u64
    }

    /// Generate a DAG of approximately `target_ops` operators, reading
    /// the given base-table partitions at its entry operators.
    ///
    /// `reads` are distributed round-robin over the entry-level
    /// operators; pass the partitions of this app's files from the file
    /// database.
    pub fn generate(self, target_ops: usize, reads: &[PartitionId], rng: &mut SimRng) -> Dag {
        match self {
            App::Montage => montage(target_ops, reads, rng),
            App::Ligo => ligo(target_ops, reads, rng),
            App::Cybershake => cybershake(target_ops, reads, rng),
        }
    }
}

/// Incremental DAG builder used by the shape functions.
struct Builder {
    ops: Vec<OpSpec>,
    edges: Vec<Edge>,
    /// The app's operator runtimes (s), set up once per DAG.
    runtime: LogNormal,
    /// The app's intermediate edge sizes (MB), set up once per DAG.
    edge_mb: LogNormal,
}

impl Builder {
    fn new(app: App) -> Self {
        let AppStats { time, edge_mb, .. } = app.stats();
        let (min, max, mean, stdev) = time;
        Builder {
            ops: Vec::new(),
            edges: Vec::new(),
            runtime: LogNormal::new(mean, stdev, min, max),
            edge_mb: LogNormal::new(edge_mb, edge_mb, edge_mb * 0.05, edge_mb * 10.0),
        }
    }

    fn add(&mut self, name: &'static str, rng: &mut SimRng) -> OpId {
        let id = OpId::from_index(self.ops.len());
        let runtime = SimDuration::from_secs_f64(self.runtime.sample(rng));
        let mut op = OpSpec::new(id, name, runtime);
        op.memory = rng.uniform_range(0.05, 0.5);
        op.cpu = 1.0;
        self.ops.push(op);
        id
    }

    fn connect(&mut self, from: OpId, to: OpId, rng: &mut SimRng) {
        let bytes = (self.edge_mb.sample(rng) * 1024.0 * 1024.0).round() as u64;
        self.edges.push(Edge { from, to, bytes });
    }

    fn finish(self, reads: &[PartitionId]) -> Dag {
        // Assign base partitions to operators cyclically so that *every*
        // operator reads base data and every partition is read by
        // multiple operators — as in the paper's Fig. 2a, where both Q1
        // and both Q2 operators read partitions A.0/A.1, and §3: every
        // operator "can make use of [indexes] associated to partitions
        // it accesses".
        let mut ops = self.ops;
        if !reads.is_empty() && !ops.is_empty() {
            let n_ops = ops.len();
            let rounds = n_ops.max(reads.len());
            for i in 0..rounds {
                ops[i % n_ops].reads.push(reads[i % reads.len()]);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "edges only connect ops this generator just created, earlier to later"
        )]
        Dag::new(ops, self.edges).expect("generator produced invalid DAG")
    }
}

/// Montage (Fig. 5A): `mProject`×k → `mDiffFit`×~1.5k (each joining two
/// overlapping projections) → `mConcatFit` → `mBgModel` → `mBackground`×k
/// (also fed by its projection) → `mImgtbl` → `mAdd` → `mShrink` →
/// `mJPEG`.
fn montage(target_ops: usize, reads: &[PartitionId], rng: &mut SimRng) -> Dag {
    // ops = k (project) + d (diff) + 2 + k (background) + 3, d ≈ 1.5k.
    let k = (((target_ops.max(9) - 5) as f64) / 3.5).round().max(1.0) as usize;
    let d = ((1.5 * k as f64).round() as usize).max(1);
    let mut b = Builder::new(App::Montage);
    let projects: Vec<OpId> = (0..k).map(|_| b.add("mProject", rng)).collect();
    let diffs: Vec<OpId> = (0..d).map(|_| b.add("mDiffFit", rng)).collect();
    for (i, &diff) in diffs.iter().enumerate() {
        b.connect(projects[i % k], diff, rng);
        if k > 1 {
            b.connect(projects[(i + 1) % k], diff, rng);
        }
    }
    let concat = b.add("mConcatFit", rng);
    for &diff in &diffs {
        b.connect(diff, concat, rng);
    }
    let bg_model = b.add("mBgModel", rng);
    b.connect(concat, bg_model, rng);
    let backgrounds: Vec<OpId> = (0..k).map(|_| b.add("mBackground", rng)).collect();
    for (i, &bg) in backgrounds.iter().enumerate() {
        b.connect(bg_model, bg, rng);
        b.connect(projects[i], bg, rng);
    }
    let imgtbl = b.add("mImgtbl", rng);
    for &bg in &backgrounds {
        b.connect(bg, imgtbl, rng);
    }
    let add = b.add("mAdd", rng);
    b.connect(imgtbl, add, rng);
    let shrink = b.add("mShrink", rng);
    b.connect(add, shrink, rng);
    let jpeg = b.add("mJPEG", rng);
    b.connect(shrink, jpeg, rng);
    b.finish(reads)
}

/// LIGO (Fig. 5B): two pipelined stages; each stage is `TmpltBank`×k →
/// `Inspiral`×k → `Thinca`×⌈k/5⌉ over groups of five. Stage-2 trigger
/// banks hang off stage-1 Thincas.
fn ligo(target_ops: usize, reads: &[PartitionId], rng: &mut SimRng) -> Dag {
    let k = ((target_ops.max(10) as f64) / 4.4).round().max(1.0) as usize;
    let groups = k.div_ceil(5);
    let mut b = Builder::new(App::Ligo);
    // Stage 1.
    let banks: Vec<OpId> = (0..k).map(|_| b.add("TmpltBank", rng)).collect();
    let inspirals: Vec<OpId> = (0..k).map(|_| b.add("Inspiral", rng)).collect();
    for (bank, insp) in banks.iter().zip(&inspirals) {
        b.connect(*bank, *insp, rng);
    }
    let thincas: Vec<OpId> = (0..groups).map(|_| b.add("Thinca", rng)).collect();
    for (i, insp) in inspirals.iter().enumerate() {
        b.connect(*insp, thincas[i / 5], rng);
    }
    // Stage 2.
    let trig_banks: Vec<OpId> = (0..k).map(|_| b.add("TrigBank", rng)).collect();
    let inspirals2: Vec<OpId> = (0..k).map(|_| b.add("Inspiral2", rng)).collect();
    for (i, tb) in trig_banks.iter().enumerate() {
        b.connect(thincas[i / 5], *tb, rng);
        b.connect(*tb, inspirals2[i], rng);
    }
    let thincas2: Vec<OpId> = (0..groups).map(|_| b.add("Thinca2", rng)).collect();
    for (i, insp) in inspirals2.iter().enumerate() {
        b.connect(*insp, thincas2[i / 5], rng);
    }
    b.finish(reads)
}

/// CyberShake (Fig. 5C): two `ExtractSGT` roots feed s
/// `SeismogramSynthesis` tasks each with a `PeakValCalc`; `ZipSeis`
/// collects all seismograms and `ZipPSA` all peak values.
fn cybershake(target_ops: usize, reads: &[PartitionId], rng: &mut SimRng) -> Dag {
    let s = ((target_ops.max(6) - 4) / 2).max(1);
    let mut b = Builder::new(App::Cybershake);
    let sgt: Vec<OpId> = (0..2).map(|_| b.add("ExtractSGT", rng)).collect();
    let zip_seis = b.add("ZipSeis", rng);
    let zip_psa = b.add("ZipPSA", rng);
    for i in 0..s {
        let synth = b.add("SeismogramSynthesis", rng);
        b.connect(sgt[i % 2], synth, rng);
        let peak = b.add("PeakValCalc", rng);
        b.connect(synth, peak, rng);
        b.connect(synth, zip_seis, rng);
        b.connect(peak, zip_psa, rng);
    }
    b.finish(reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_common::{FileId, OnlineStats};

    fn parts(n: u32) -> Vec<PartitionId> {
        (0..n)
            .map(|i| PartitionId::new(FileId(i / 4), i % 4))
            .collect()
    }

    #[test]
    fn generators_hit_target_size() {
        let mut rng = SimRng::seed_from_u64(1);
        for app in App::ALL {
            let dag = app.generate(100, &parts(8), &mut rng);
            let n = dag.len();
            assert!(
                (90..=110).contains(&n),
                "{} produced {n} ops for target 100",
                app.name()
            );
        }
    }

    #[test]
    fn dags_are_connected_fan_structures() {
        let mut rng = SimRng::seed_from_u64(2);
        for app in App::ALL {
            let dag = app.generate(100, &parts(8), &mut rng);
            assert!(!dag.roots().is_empty(), "{}", app.name());
            assert!(!dag.sinks().is_empty(), "{}", app.name());
            assert!(dag.width() >= 10, "{} width {}", app.name(), dag.width());
            // Multi-level pipeline: critical path strictly between one op
            // and all ops.
            assert!(dag.critical_path() > SimDuration::ZERO);
            assert!(dag.critical_path() < dag.total_work());
        }
    }

    #[test]
    fn reads_are_distributed_across_operators() {
        let mut rng = SimRng::seed_from_u64(3);
        // Fewer partitions than operators: every op still reads one.
        let dag = App::Montage.generate(100, &parts(16), &mut rng);
        assert!(dag.ops().iter().all(|o| !o.reads.is_empty()));
        let max = dag.ops().iter().map(|o| o.reads.len()).max().unwrap();
        assert_eq!(max, 1, "with P < ops each op reads exactly one partition");
        // Each partition is shared by several operators (Fig. 2a).
        let readers_of_first = dag
            .ops()
            .iter()
            .filter(|o| o.reads.contains(&parts(16)[0]))
            .count();
        assert!(readers_of_first >= 2, "{readers_of_first} readers");
        // More partitions than operators wraps the other way.
        let dag = App::Montage.generate(100, &parts(250), &mut rng);
        assert!(dag.ops().iter().all(|o| !o.reads.is_empty()));
        let attached: usize = dag.ops().iter().map(|o| o.reads.len()).sum();
        assert_eq!(attached, 250);
    }

    #[test]
    fn runtime_statistics_match_table4() {
        let mut rng = SimRng::seed_from_u64(4);
        for app in App::ALL {
            let (min, max, mean, _stdev) = app.stats().time;
            let mut stats = OnlineStats::new();
            for _ in 0..30 {
                let dag = app.generate(100, &[], &mut rng);
                for op in dag.ops() {
                    stats.push(op.runtime.as_secs_f64());
                }
            }
            assert!(
                stats.min() >= min - 1e-9,
                "{} min {}",
                app.name(),
                stats.min()
            );
            assert!(
                stats.max() <= max + 1e-9,
                "{} max {}",
                app.name(),
                stats.max()
            );
            // Clamping biases the mean slightly; accept 25 %.
            let tol = 0.25 * mean;
            assert!(
                (stats.mean() - mean).abs() < tol,
                "{} mean {} (table {})",
                app.name(),
                stats.mean(),
                mean
            );
        }
    }

    #[test]
    fn montage_shape_has_expected_stages() {
        let mut rng = SimRng::seed_from_u64(5);
        let dag = App::Montage.generate(100, &[], &mut rng);
        let names: std::collections::BTreeSet<&str> =
            dag.ops().iter().map(|o| o.name.as_ref()).collect();
        for stage in [
            "mProject",
            "mDiffFit",
            "mConcatFit",
            "mBgModel",
            "mBackground",
            "mAdd",
        ] {
            assert!(names.contains(stage), "missing {stage}");
        }
        // mProject ops are the roots.
        for r in dag.roots() {
            assert_eq!(dag.op(r).name, "mProject");
        }
    }

    #[test]
    fn cybershake_has_two_roots_and_two_aggregators() {
        let mut rng = SimRng::seed_from_u64(6);
        let dag = App::Cybershake.generate(100, &[], &mut rng);
        assert_eq!(dag.roots().len(), 2);
        let sinks = dag.sinks();
        assert_eq!(sinks.len(), 2);
        for s in sinks {
            assert!(dag.op(s).name.starts_with("Zip"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = App::Ligo.generate(80, &parts(4), &mut SimRng::seed_from_u64(7));
        let b = App::Ligo.generate(80, &parts(4), &mut SimRng::seed_from_u64(7));
        assert_eq!(a.ops(), b.ops());
        assert_eq!(a.edges(), b.edges());
    }
}
