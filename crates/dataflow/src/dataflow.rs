//! Dataflow instances and their factory.
//!
//! A [`Dataflow`] is `d(expr, R, N, t)`: a DAG, the set of input files it
//! reads, the set of indexes that can accelerate it (`N`, with a
//! per-dataflow sampled speedup each, as the paper's generator does) and
//! its issue time.

use flowtune_common::{DataflowId, FileId, IndexId, SimRng, SimTime};

use crate::apps::App;
use crate::dag::Dag;
use crate::filedb::FileDatabase;

/// The Table 6 speedup values a dataflow samples from.
pub const TABLE6_SPEEDUPS: [f64; 4] = [7.44, 94.44, 307.50, 627.14];

/// One index a dataflow can exploit, with the speedup it provides to
/// *this* dataflow's operators on partitions where the index is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexUse {
    /// The index.
    pub index: IndexId,
    /// The file it covers (denormalised for quick lookup).
    pub file: FileId,
    /// Speedup factor (> 1).
    pub speedup: f64,
}

/// A dataflow instance issued to the service.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Identity.
    pub id: DataflowId,
    /// Generating application.
    pub app: App,
    /// The operator DAG.
    pub dag: Dag,
    /// Issue time `t`.
    pub issued_at: SimTime,
    /// The indexes `N` that can accelerate this dataflow.
    pub index_uses: Vec<IndexUse>,
}

/// Builds dataflow instances against a file database.
#[derive(Debug)]
pub struct DataflowFactory {
    filedb: FileDatabase,
    ops_per_dataflow: usize,
    rng: SimRng,
}

impl DataflowFactory {
    /// Create a factory. `ops_per_dataflow` is the target DAG size
    /// (Table 3: 100).
    pub fn new(filedb: FileDatabase, ops_per_dataflow: usize, rng: SimRng) -> Self {
        DataflowFactory {
            filedb,
            ops_per_dataflow,
            rng,
        }
    }

    /// Access the underlying file database.
    pub fn filedb(&self) -> &FileDatabase {
        &self.filedb
    }

    /// Generate one dataflow of the given application issued at `t`.
    ///
    /// An exploratory query touches a handful of tables, not the whole
    /// database: the dataflow reads all partitions of a random subset of
    /// 2–5 of its application's files, popularity-skewed (like the
    /// `Dataflow1 (idx1, idx3)` associations of Fig. 1). For each chosen file it is associated
    /// with one of the file's four potential indexes picked at random,
    /// with a speedup sampled from Table 6 — "each generated dataflow
    /// having different speed-ups for the indexes it uses".
    pub fn make(&mut self, id: DataflowId, app: App, issued_at: SimTime) -> Dataflow {
        // Choose the file subset with popularity skew (weighted sampling
        // without replacement, Efraimidis-Spirakis keys): exploratory
        // workloads hit hot tables far more often than cold ones, which
        // is what makes indexes reusable across dataflows.
        let app_files: Vec<FileId> = self.filedb.files_of(app).map(|f| f.id).collect();
        let mut keyed: Vec<(f64, FileId)> = app_files
            .iter()
            .enumerate()
            .map(|(rank, f)| {
                let weight = 1.0 / (rank as f64 + 1.0).powf(1.5);
                (self.rng.uniform().powf(1.0 / weight), *f)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        let hi = 5.min(app_files.len()) as u64;
        let lo = 2.min(hi);
        let n_files = if lo < hi {
            self.rng.uniform_u64(lo, hi + 1)
        } else {
            hi
        } as usize;
        let chosen: Vec<FileId> = keyed
            .into_iter()
            .take(n_files.max(1))
            .map(|(_, f)| f)
            .collect();

        let reads: Vec<_> = chosen
            .iter()
            .flat_map(|f| self.filedb.file(*f).partitions.iter().map(|p| p.id))
            .collect();
        let dag = app.generate(self.ops_per_dataflow, &reads, &mut self.rng);
        // One useful index per chosen file: usually the file's primary
        // candidate (as a consistent index advisor would suggest),
        // sometimes another column; dataflow-specific speedup. `reads`
        // lists each chosen file's partitions together, in `chosen`
        // order, so the files it reads are `chosen` minus any file with
        // no partition.
        let mut index_uses = Vec::new();
        for &file in &chosen {
            if self.filedb.file(file).partitions.is_empty() {
                continue;
            }
            let index = if self.rng.chance(0.9) {
                self.filedb.primary_index_of(file).id
            } else {
                let candidates: Vec<_> = self.filedb.indexes_of(file).collect();
                let pick = self.rng.uniform_u64(0, candidates.len() as u64) as usize;
                candidates[pick].id
            };
            let speedup = *self.rng.choose(&TABLE6_SPEEDUPS);
            index_uses.push(IndexUse {
                index,
                file,
                speedup,
            });
        }
        Dataflow {
            id,
            app,
            dag,
            issued_at,
            index_uses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factory() -> DataflowFactory {
        let mut rng = SimRng::seed_from_u64(11);
        let db = FileDatabase::generate(&mut rng);
        DataflowFactory::new(db, 100, rng)
    }

    /// Distinct files read by the dataflow's operators.
    fn files_read(df: &Dataflow) -> Vec<FileId> {
        let mut files: Vec<FileId> = df
            .dag
            .ops()
            .iter()
            .flat_map(|o| o.reads.iter().map(|p| p.file))
            .collect();
        files.sort_unstable();
        files.dedup();
        files
    }

    #[test]
    fn dataflow_reads_a_subset_of_its_apps_files() {
        let mut f = factory();
        let df = f.make(DataflowId(0), App::Montage, SimTime::ZERO);
        assert_eq!(df.app, App::Montage);
        let files = files_read(&df);
        assert!((2..=5).contains(&files.len()), "{} files", files.len());
        for file in &files {
            assert_eq!(f.filedb().file(*file).app, App::Montage);
        }
    }

    #[test]
    fn one_index_per_file_with_table6_speedup() {
        let mut f = factory();
        let df = f.make(DataflowId(1), App::Ligo, SimTime::from_secs(60));
        assert_eq!(df.index_uses.len(), files_read(&df).len());
        for u in &df.index_uses {
            assert!(
                TABLE6_SPEEDUPS.contains(&u.speedup),
                "speedup {}",
                u.speedup
            );
            let spec = &f.filedb().potential_indexes()[u.index.index()];
            assert_eq!(spec.file, u.file);
        }
    }

    #[test]
    fn different_dataflows_sample_different_speedups() {
        let mut f = factory();
        let a = f.make(DataflowId(0), App::Montage, SimTime::ZERO);
        let b = f.make(DataflowId(1), App::Montage, SimTime::ZERO);
        // Identical file subsets, index picks and speedups across two
        // dataflows would indicate a broken RNG.
        let sig = |df: &Dataflow| {
            df.index_uses
                .iter()
                .map(|u| (u.index, u.speedup.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_ne!(sig(&a), sig(&b));
    }
}
