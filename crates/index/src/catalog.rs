//! The index catalog.
//!
//! Tracks every index the service knows about — *potential* (suggested by
//! an index advisor, not built), partially built, fully built — together
//! with per-partition creation times `T` and version stamps. Batch
//! updates to a table partition invalidate the index partitions built on
//! it (§3: "Indexes built on table partitions that are updated are
//! deleted and marked as not built").

use std::collections::HashMap;
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

    /// Leftmost-prefix subsumption: true when this index's column list
    /// is a strict leftmost prefix of `other`'s over the same file and
    /// kind. Every probe this index can serve, `other` serves too (at
    /// the same asymptotic cost), so a catalog holding `other` should
    /// never also build `self`.
    pub fn is_prefix_of(&self, other: &IndexSpec) -> bool {
        self.file == other.file
            && self.kind == other.kind
            && self.columns.len() < other.columns.len()
            && other.columns.starts_with(&self.columns)
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

    /// Total time `ti(idx)` to build every partition sequentially.
    pub fn total_build_time(&self) -> SimDuration {
        (0..self.partition_count())
            .map(|p| self.partition_build_time(p))
            .sum()
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

    /// True when every partition is built.
    pub fn fully_built(&self) -> bool {
        self.parts.iter().all(Option::is_some)
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
    by_file: HashMap<FileId, Vec<IndexId>>,
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
        self.by_file.entry(spec.file).or_default().push(id);
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

    /// Indexes registered over a file.
    pub fn indexes_on(&self, file: FileId) -> &[IndexId] {
        self.by_file.get(&file).map_or(&[], Vec::as_slice)
    }

    /// True when index partition `part` is built and current.
    pub fn is_partition_built(&self, id: IndexId, part: usize) -> bool {
        self.states[id.index()].parts[part].is_some()
    }

    /// Fraction of partitions currently built, in `[0, 1]`.
    pub fn built_fraction(&self, id: IndexId) -> f64 {
        let st = &self.states[id.index()];
        if st.parts.is_empty() {
            return 0.0;
        }
        st.built_count() as f64 / st.parts.len() as f64
    }

    /// Record that index partition `part` finished building at `now`
    /// against table-partition `version`.
    pub fn mark_built(&mut self, id: IndexId, part: usize, now: SimTime, version: u32) {
        self.states[id.index()].parts[part] = Some(BuiltPartition {
            built_at: now,
            version,
        });
    }

    /// Invalidate one built index partition (a failed or fault-killed
    /// build): it goes back to *not built* and can be re-attempted.
    /// Returns true when the partition was built.
    pub fn unmark_built(&mut self, id: IndexId, part: usize) -> bool {
        self.states[id.index()].parts[part].take().is_some()
    }

    /// A batch update bumped `file`'s partition `part` to `new_version`:
    /// drop every index partition built against an older version.
    /// Returns `(index, partition, freed_bytes)` for each dropped one.
    pub fn invalidate_table_partition(
        &mut self,
        file: FileId,
        part: usize,
        new_version: u32,
    ) -> Vec<(IndexId, usize, u64)> {
        let mut dropped = Vec::new();
        for &id in self.by_file.get(&file).map_or(&[][..], Vec::as_slice) {
            let state = &mut self.states[id.index()];
            if part < state.parts.len() {
                if let Some(built) = state.parts[part] {
                    if built.version < new_version {
                        state.parts[part] = None;
                        dropped.push((id, part, self.specs[id.index()].partition_bytes(part)));
                    }
                }
            }
        }
        dropped
    }

    /// Delete every built partition of an index (it stays registered as a
    /// *potential* index). Returns the freed bytes.
    pub fn delete_index(&mut self, id: IndexId) -> u64 {
        let spec = &self.specs[id.index()];
        let state = &mut self.states[id.index()];
        let mut freed = 0;
        for (part, slot) in state.parts.iter_mut().enumerate() {
            if slot.take().is_some() {
                freed += spec.partition_bytes(part);
            }
        }
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

    /// Bytes currently occupied by all built index partitions.
    pub fn total_built_bytes(&self) -> u64 {
        self.ids().map(|id| self.built_bytes(id)).sum()
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

    fn composite(file: u32, columns: &[&str], kind: IndexKind) -> IndexSpec {
        IndexSpec {
            id: IndexId(0),
            file: FileId(file),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            kind,
            model: IndexCostModel::new(12.0, 117.0),
            partition_rows: vec![100_000; 2],
        }
    }

    #[test]
    fn leftmost_prefix_subsumption() {
        let a = composite(0, &["quantity"], IndexKind::BTree);
        let ab = composite(0, &["quantity", "shipdate"], IndexKind::BTree);
        let abc = composite(0, &["quantity", "linenumber", "shipdate"], IndexKind::BTree);
        assert!(a.is_prefix_of(&ab));
        assert!(a.is_prefix_of(&abc));
        assert!(!ab.is_prefix_of(&abc), "(a,b) is not a prefix of (a,c,b)");
        assert!(!ab.is_prefix_of(&a), "subsumption is not symmetric");
        assert!(
            !a.is_prefix_of(&a),
            "strict: an index does not subsume itself"
        );
        // Different file or kind: no subsumption.
        assert!(!a.is_prefix_of(&composite(1, &["quantity", "shipdate"], IndexKind::BTree)));
        assert!(!a.is_prefix_of(&composite(0, &["quantity", "shipdate"], IndexKind::Hash)));
        assert_eq!(abc.display_columns(), "quantity+linenumber+shipdate");
        assert!(abc.is_composite() && !a.is_composite());
    }

    #[test]
    fn add_and_lookup() {
        let mut cat = IndexCatalog::new();
        let a = cat.add(spec(0, 3));
        let b = cat.add(spec(0, 3));
        let c = cat.add(spec(1, 2));
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.indexes_on(FileId(0)), &[a, b]);
        assert_eq!(cat.indexes_on(FileId(1)), &[c]);
        assert!(cat.indexes_on(FileId(9)).is_empty());
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
        assert_eq!(cat.built_fraction(id), 0.0);
        cat.mark_built(id, 1, SimTime::from_secs(10), 0);
        cat.mark_built(id, 2, SimTime::from_secs(20), 0);
        assert_eq!(cat.state(id).built_count(), 2);
        assert!((cat.built_fraction(id) - 0.5).abs() < 1e-12);
        assert!(cat.is_partition_built(id, 1));
        assert!(!cat.is_partition_built(id, 0));
        assert!(!cat.state(id).fully_built());
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
    fn update_invalidates_stale_partitions_only() {
        let mut cat = IndexCatalog::new();
        let a = cat.add(spec(0, 3));
        let b = cat.add(spec(0, 3));
        cat.mark_built(a, 1, SimTime::ZERO, 0);
        cat.mark_built(b, 1, SimTime::ZERO, 1); // already built on v1
        cat.mark_built(a, 2, SimTime::ZERO, 0);
        let dropped = cat.invalidate_table_partition(FileId(0), 1, 1);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].0, a);
        assert!(!cat.is_partition_built(a, 1));
        assert!(cat.is_partition_built(b, 1));
        assert!(cat.is_partition_built(a, 2));
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
        assert_eq!(cat.spec(id).total_build_time(), full);
    }
}
