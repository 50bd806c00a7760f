//! Shared helpers for the experiment binaries in `flowtune-bench`.

use flowtune_common::{ExperimentParams, SimRng};
use flowtune_dataflow::{App, DataflowFactory, FileDatabase};
use flowtune_index::IndexCatalog;
use flowtune_sched::SchedulerConfig;

use crate::service::build_catalog;

/// Everything the standalone experiments need: a deterministic file
/// database, a populated catalog, and a dataflow factory.
#[derive(Debug)]
pub struct ExperimentSetup {
    /// The experiment parameters used.
    pub params: ExperimentParams,
    /// The generated file database.
    pub filedb: FileDatabase,
    /// A catalog with every potential index registered.
    pub catalog: IndexCatalog,
    /// Dataflow factory over the same file database.
    pub factory: DataflowFactory,
}

impl ExperimentSetup {
    /// Build the standard Table 3 setup from parameters.
    pub fn new(params: ExperimentParams) -> Self {
        let mut rng = SimRng::seed_from_u64(params.seed);
        let filedb = FileDatabase::generate(&mut rng);
        let catalog = build_catalog(&filedb);
        let factory = DataflowFactory::new(filedb.clone(), params.ops_per_dataflow, rng.fork());
        ExperimentSetup {
            params,
            filedb,
            catalog,
            factory,
        }
    }

    /// A scheduler configuration derived from the cloud parameters.
    pub fn scheduler_config(&self, max_skyline: usize) -> SchedulerConfig {
        SchedulerConfig::for_cloud(&self.params.cloud, max_skyline)
    }

    /// One dataflow DAG of each application (for per-app experiments).
    pub fn one_dag_per_app(&mut self, seed: u64) -> Vec<(App, flowtune_dataflow::Dag)> {
        let mut rng = SimRng::seed_from_u64(seed);
        App::ALL
            .iter()
            .map(|app| {
                let reads = self.filedb.partitions_of(*app);
                (
                    *app,
                    app.generate(self.params.ops_per_dataflow, &reads, &mut rng),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_deterministic_and_complete() {
        let a = ExperimentSetup::new(ExperimentParams::default());
        let b = ExperimentSetup::new(ExperimentParams::default());
        assert_eq!(a.filedb.total_bytes(), b.filedb.total_bytes());
        assert_eq!(a.catalog.len(), 125 * 4);
    }

    #[test]
    fn per_app_dags_cover_all_three_apps() {
        let mut setup = ExperimentSetup::new(ExperimentParams::default());
        let dags = setup.one_dag_per_app(1);
        assert_eq!(dags.len(), 3);
        for (app, dag) in &dags {
            assert!(dag.len() >= 90, "{} too small", app.name());
        }
    }
}
