//! The index catalog.
//!
//! Tracks every index the service knows about — *potential* (suggested by
//! an index advisor, not built), partially built, fully built — together
//! with per-partition creation times `T`. Each index partition is written
//! once by its build operator; a failed or torn build marks it not built
//! again, and deleting an index drops every partition whole.

use std::sync::OnceLock;

use flowtune_common::{FileId, IndexId, SimDuration, SimTime};

use crate::model::IndexCostModel;

/// The physical shape of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// B+Tree: supports lookup, range, sort, group, merge join.
    BTree,
    /// Hash: supports lookup and hash join only.
    Hash,
}

/// Immutable description of one index `idx(t, C, T)`.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    /// Identity.
    pub id: IndexId,
    /// The file/table the index is built over.
    pub file: FileId,
    /// Indexed column names, in key order. One entry is the paper's
    /// single-column case; composite indexes list their components
    /// left to right, and the leftmost-prefix rule (see
    /// [`crate::tuple`]) decides which predicate sets they serve.
    pub columns: Vec<String>,
    /// Physical kind.
    pub kind: IndexKind,
    /// Cost model (record sizes, fan-out, CPU constant).
    pub model: IndexCostModel,
    /// Rows of each table partition, in partition order; index partition
    /// `i` covers table partition `i`.
    pub partition_rows: Vec<u64>,
}

impl IndexSpec {
    /// Convenience constructor for the common single-column case.
    pub fn single_column(
        id: IndexId,
        file: FileId,
        column: impl Into<String>,
        kind: IndexKind,
        model: IndexCostModel,
        partition_rows: Vec<u64>,
    ) -> Self {
        IndexSpec {
            id,
            file,
            columns: vec![column.into()],
            kind,
            model,
            partition_rows,
        }
    }

    /// Human-readable column list, e.g. `quantity+shipdate`.
    pub fn display_columns(&self) -> String {
        self.columns.join("+")
    }

    /// True when the index keys more than one column.
    pub fn is_composite(&self) -> bool {
        self.columns.len() > 1
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partition_rows.len()
    }

    /// Size in bytes of index partition `part` once built.
    pub fn partition_bytes(&self, part: usize) -> u64 {
        self.model.size_bytes(self.partition_rows[part])
    }

    /// Total size in bytes when fully built.
    pub fn total_bytes(&self) -> u64 {
        (0..self.partition_count())
            .map(|p| self.partition_bytes(p))
            .sum()
    }

    /// Time to build index partition `part`.
    pub fn partition_build_time(&self, part: usize) -> SimDuration {
        self.model.build_time(self.partition_rows[part])
    }
}

/// One built index partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltPartition {
    /// When the partition finished building (an element of the ordered
    /// creation-time set `T`).
    pub built_at: SimTime,
    /// Version of the table partition it was built against.
    pub version: u32,
}

/// Mutable state of one index.
#[derive(Debug, Clone)]
pub struct IndexState {
    /// `parts[i]` is `Some` when index partition `i` is currently built.
    pub parts: Vec<Option<BuiltPartition>>,
}

impl IndexState {
    fn new(partitions: usize) -> Self {
        IndexState {
            parts: vec![None; partitions],
        }
    }

    /// Number of built partitions.
    pub fn built_count(&self) -> usize {
        self.parts.iter().filter(|p| p.is_some()).count()
    }

    /// True when no partition is built.
    pub fn empty(&self) -> bool {
        self.parts.iter().all(Option::is_none)
    }
}

/// Costs of one registered index that depend only on its spec and
/// calibration. The tuner reads them for every catalog index on every
/// decision, so they are computed once instead of re-deriving build
/// times (two logarithms per partition) each time. They are computed
/// on first use rather than in [`IndexCatalog::add`], which keeps
/// building a catalog as cheap as before.
#[derive(Debug, Clone)]
struct SpecCosts {
    /// `spec.partition_build_time(p)` for every partition `p`.
    build_times: Vec<SimDuration>,
    /// `spec.total_bytes()`.
    total_bytes: u64,
}

impl SpecCosts {
    fn of(spec: &IndexSpec) -> Self {
        SpecCosts {
            build_times: (0..spec.partition_count())
                .map(|p| spec.partition_build_time(p))
                .collect(),
            total_bytes: spec.total_bytes(),
        }
    }
}

/// The catalog of all indexes known to the service.
#[derive(Debug, Default)]
pub struct IndexCatalog {
    specs: Vec<IndexSpec>,
    states: Vec<IndexState>,
    /// `SpecCosts::of(&specs[i])`, filled in on first use; reset when
    /// calibration changes the build times.
    costs: Vec<OnceLock<SpecCosts>>,
    /// Running totals over every index, kept by the three methods that
    /// change a partition's state.
    built: BuiltTotals,
}

/// Running totals of the built state: per-round accounting reads them
/// instead of walking every index. Partition sizes depend only on the
/// spec's row counts and record sizes, which calibration leaves alone,
/// so the byte total never goes stale.
#[derive(Debug, Default)]
struct BuiltTotals {
    /// Indexes with at least one built partition.
    indexes: usize,
    /// Built partitions.
    partitions: usize,
    /// Bytes of the built partitions.
    bytes: u64,
}

impl IndexCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an index; its `id` field is overwritten with the assigned
    /// identity, which is returned.
    pub fn add(&mut self, mut spec: IndexSpec) -> IndexId {
        let id = IndexId::from_index(self.specs.len());
        spec.id = id;
        self.states.push(IndexState::new(spec.partition_count()));
        self.costs.push(OnceLock::new());
        self.specs.push(spec);
        id
    }

    /// All registered index ids.
    pub fn ids(&self) -> impl Iterator<Item = IndexId> + '_ {
        (0..self.specs.len()).map(IndexId::from_index)
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Spec of an index.
    pub fn spec(&self, id: IndexId) -> &IndexSpec {
        &self.specs[id.index()]
    }

    /// Attach measured build/probe I/O to every registered cost model,
    /// switching build-time estimates from the analytic write-size
    /// term to the observed per-row page traffic (see
    /// `crate::measured`).
    pub fn calibrate_io(&mut self, io: crate::model::MeasuredIo) {
        for spec in &mut self.specs {
            spec.model.measured_io = Some(io);
        }
        for costs in &mut self.costs {
            costs.take();
        }
    }

    /// State of an index.
    pub fn state(&self, id: IndexId) -> &IndexState {
        &self.states[id.index()]
    }

    /// True when index partition `part` is built and current.
    pub fn is_partition_built(&self, id: IndexId, part: usize) -> bool {
        self.states[id.index()].parts[part].is_some()
    }

    /// Record that index partition `part` finished building at `now`
    /// against table-partition `version`.
    pub fn mark_built(&mut self, id: IndexId, part: usize, now: SimTime, version: u32) {
        let state = &mut self.states[id.index()];
        let was_empty = state.empty();
        let slot = &mut state.parts[part];
        if slot.is_none() {
            self.built.partitions += 1;
            self.built.bytes += self.specs[id.index()].partition_bytes(part);
            self.built.indexes += usize::from(was_empty);
        }
        *slot = Some(BuiltPartition {
            built_at: now,
            version,
        });
    }

    /// Invalidate one built index partition (a failed or fault-killed
    /// build): it goes back to *not built* and can be re-attempted.
    /// Returns true when the partition was built.
    pub fn unmark_built(&mut self, id: IndexId, part: usize) -> bool {
        let state = &mut self.states[id.index()];
        let was_built = state.parts[part].take().is_some();
        if was_built {
            self.built.partitions -= 1;
            self.built.bytes -= self.specs[id.index()].partition_bytes(part);
            self.built.indexes -= usize::from(state.empty());
        }
        was_built
    }

    /// Delete every built partition of an index (it stays registered as a
    /// *potential* index). Returns the freed bytes.
    pub fn delete_index(&mut self, id: IndexId) -> u64 {
        let spec = &self.specs[id.index()];
        let state = &mut self.states[id.index()];
        let mut freed = 0;
        let mut parts = 0;
        for (part, slot) in state.parts.iter_mut().enumerate() {
            if slot.take().is_some() {
                freed += spec.partition_bytes(part);
                parts += 1;
            }
        }
        self.built.partitions -= parts;
        self.built.bytes -= freed;
        self.built.indexes -= usize::from(parts > 0);
        freed
    }

    /// Bytes currently occupied by the built partitions of `id`.
    pub fn built_bytes(&self, id: IndexId) -> u64 {
        let spec = &self.specs[id.index()];
        self.states[id.index()]
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| spec.partition_bytes(i))
            .sum()
    }

    /// Bytes currently occupied by all built index partitions. O(1): a
    /// running total.
    pub fn total_built_bytes(&self) -> u64 {
        self.built.bytes
    }

    /// Number of indexes with at least one built partition. O(1).
    pub fn built_index_count(&self) -> usize {
        self.built.indexes
    }

    /// Number of built index partitions across all indexes. O(1).
    pub fn built_partition_count(&self) -> usize {
        self.built.partitions
    }

    /// Remaining build work for `id`: the unbuilt partitions as
    /// `(partition ordinal, build time, index-partition bytes)`.
    pub fn remaining_build_ops(&self, id: IndexId) -> Vec<(usize, SimDuration, u64)> {
        let spec = &self.specs[id.index()];
        self.states[id.index()]
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| (i, spec.partition_build_time(i), spec.partition_bytes(i)))
            .collect()
    }

    /// Remaining total build time `ti` for the unbuilt partitions of `id`.
    pub fn remaining_build_time(&self, id: IndexId) -> SimDuration {
        self.states[id.index()]
            .parts
            .iter()
            .zip(&self.costs(id).build_times)
            .filter(|(p, _)| p.is_none())
            .map(|(_, t)| *t)
            .sum()
    }

    /// Size in bytes of `id` when fully built (`spec(id).total_bytes()`).
    pub fn total_bytes(&self, id: IndexId) -> u64 {
        self.costs(id).total_bytes
    }

    fn costs(&self, id: IndexId) -> &SpecCosts {
        self.costs[id.index()].get_or_init(|| SpecCosts::of(&self.specs[id.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(file: u32, parts: usize) -> IndexSpec {
        IndexSpec::single_column(
            IndexId(0),
            FileId(file),
            "orderkey",
            IndexKind::BTree,
            IndexCostModel::new(12.0, 117.0),
            vec![100_000; parts],
        )
    }

    #[test]
    fn add_and_lookup() {
        let mut cat = IndexCatalog::new();
        let a = cat.add(spec(0, 3));
        let b = cat.add(spec(0, 3));
        let c = cat.add(spec(1, 2));
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.ids().collect::<Vec<_>>(), [a, b, c]);
        assert_eq!(cat.spec(b).id, b);
        assert_eq!(cat.spec(c).file, FileId(1));
        assert_eq!(cat.spec(a).partition_count(), 3);
    }

    #[test]
    fn unmark_built_supports_fail_invalidate_rebuild() {
        let mut cat = IndexCatalog::new();
        let id = cat.add(spec(0, 2));
        // build -> fail -> invalidate -> rebuild.
        cat.mark_built(id, 1, SimTime::from_secs(10), 0);
        assert!(cat.is_partition_built(id, 1));
        assert!(cat.unmark_built(id, 1));
        assert!(!cat.is_partition_built(id, 1));
        assert!(!cat.unmark_built(id, 1), "already invalidated");
        assert_eq!(cat.built_bytes(id), 0);
        cat.mark_built(id, 1, SimTime::from_secs(99), 0);
        assert!(cat.is_partition_built(id, 1));
    }

    #[test]
    fn build_state_machine() {
        let mut cat = IndexCatalog::new();
        let id = cat.add(spec(0, 4));
        assert!(cat.state(id).empty());
        cat.mark_built(id, 1, SimTime::from_secs(10), 0);
        cat.mark_built(id, 2, SimTime::from_secs(20), 0);
        assert_eq!(cat.state(id).built_count(), 2);
        assert!(cat.is_partition_built(id, 1));
        assert!(!cat.is_partition_built(id, 0));
        assert_eq!(cat.remaining_build_ops(id).len(), 2);
    }

    #[test]
    fn built_bytes_tracks_partitions() {
        let mut cat = IndexCatalog::new();
        let id = cat.add(spec(0, 2));
        assert_eq!(cat.built_bytes(id), 0);
        cat.mark_built(id, 0, SimTime::ZERO, 0);
        let per_part = cat.spec(id).partition_bytes(0);
        assert_eq!(cat.built_bytes(id), per_part);
        cat.mark_built(id, 1, SimTime::ZERO, 0);
        assert_eq!(cat.built_bytes(id), cat.spec(id).total_bytes());
        assert_eq!(cat.total_built_bytes(), cat.built_bytes(id));
    }

    #[test]
    fn delete_frees_everything() {
        let mut cat = IndexCatalog::new();
        let id = cat.add(spec(0, 2));
        cat.mark_built(id, 0, SimTime::ZERO, 0);
        cat.mark_built(id, 1, SimTime::ZERO, 0);
        let freed = cat.delete_index(id);
        assert_eq!(freed, cat.spec(id).total_bytes());
        assert!(cat.state(id).empty());
        // Idempotent.
        assert_eq!(cat.delete_index(id), 0);
    }

    #[test]
    fn running_totals_match_the_per_index_walk() {
        // Seeded mark / unmark / re-mark / delete sequences over indexes
        // of different sizes: the O(1) totals must always equal a walk
        // over every index, re-marks and repeated deletes included.
        let mut rng = flowtune_common::SimRng::seed_from_u64(0x7074_a150);
        let mut cat = IndexCatalog::new();
        let ids: Vec<IndexId> = (0..6)
            .map(|f| {
                let rows = (0..1 + f as usize)
                    .map(|p| 1_000 * (1 + p as u64 + u64::from(f)))
                    .collect();
                cat.add(IndexSpec {
                    partition_rows: rows,
                    ..spec(f, 1)
                })
            })
            .collect();
        let (mut unmarked, mut remarked) = (0, 0);
        for step in 0..2_000 {
            let id = ids[rng.uniform_u64(0, ids.len() as u64) as usize];
            let part = rng.uniform_u64(0, cat.spec(id).partition_count() as u64) as usize;
            match rng.uniform_u64(0, 10) {
                0..=4 => {
                    remarked += u64::from(cat.is_partition_built(id, part));
                    cat.mark_built(id, part, SimTime::from_secs(step), 0);
                }
                5..=8 => unmarked += u64::from(cat.unmark_built(id, part)),
                _ => {
                    cat.delete_index(id);
                }
            }
            let walk_indexes = cat.ids().filter(|&i| !cat.state(i).empty()).count();
            let walk_parts: usize = cat.ids().map(|i| cat.state(i).built_count()).sum();
            let walk_bytes: u64 = cat.ids().map(|i| cat.built_bytes(i)).sum();
            assert_eq!(cat.built_index_count(), walk_indexes, "step {step}");
            assert_eq!(cat.built_partition_count(), walk_parts, "step {step}");
            assert_eq!(cat.total_built_bytes(), walk_bytes, "step {step}");
        }
        assert!(unmarked > 0 && remarked > 0, "a transition never ran");
        // Calibration changes build times, not sizes.
        let before = cat.total_built_bytes();
        cat.calibrate_io(crate::model::MeasuredIo {
            write_bytes_per_row: 4096.0,
            read_bytes_per_probe: 8192.0,
            probe_hit_rate: 0.5,
        });
        let walk_bytes: u64 = cat.ids().map(|i| cat.built_bytes(i)).sum();
        assert_eq!(cat.total_built_bytes(), before);
        assert_eq!(walk_bytes, before);
    }

    #[test]
    fn cached_costs_track_specs_and_calibration() {
        let mut cat = IndexCatalog::new();
        let ids: Vec<IndexId> = (0..3).map(|f| cat.add(spec(f, 4))).collect();
        let recomputed = |cat: &IndexCatalog, id: IndexId| -> SimDuration {
            let spec = cat.spec(id);
            (0..spec.partition_count())
                .filter(|&p| !cat.is_partition_built(id, p))
                .map(|p| spec.partition_build_time(p))
                .sum()
        };
        cat.mark_built(ids[1], 2, SimTime::ZERO, 0);
        for &id in &ids {
            assert_eq!(cat.total_bytes(id), cat.spec(id).total_bytes());
            assert_eq!(cat.remaining_build_time(id), recomputed(&cat, id));
        }
        // Measured I/O changes every build time; the cache must follow.
        let before = cat.remaining_build_time(ids[0]);
        cat.calibrate_io(crate::model::MeasuredIo {
            write_bytes_per_row: 4096.0,
            read_bytes_per_probe: 8192.0,
            probe_hit_rate: 0.5,
        });
        assert_ne!(cat.remaining_build_time(ids[0]), before);
        for &id in &ids {
            assert_eq!(cat.remaining_build_time(id), recomputed(&cat, id));
        }
    }

    #[test]
    fn remaining_build_time_shrinks_as_parts_build() {
        let mut cat = IndexCatalog::new();
        let id = cat.add(spec(0, 4));
        let full = cat.remaining_build_time(id);
        cat.mark_built(id, 0, SimTime::ZERO, 0);
        let less = cat.remaining_build_time(id);
        assert!(less < full);
        let spec = cat.spec(id);
        let all: SimDuration = (0..4).map(|p| spec.partition_build_time(p)).sum();
        assert_eq!(all, full);
    }
}
