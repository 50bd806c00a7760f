//! The dataflow DAG.
//!
//! Nodes are operators, edges are data flows labelled with the bytes
//! transferred (§3). The DAG is validated at construction (ids dense,
//! no self-edges, acyclic) and exposes the traversals the schedulers
//! need: topological order, predecessor/successor adjacency, roots,
//! total work and critical path.

use flowtune_common::{FlowtuneError, OpId, Result, SimDuration};

use crate::op::OpSpec;

/// A data-flow edge: `from` produces `bytes` consumed by `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer operator.
    pub from: OpId,
    /// Consumer operator.
    pub to: OpId,
    /// Data volume transferred.
    pub bytes: u64,
}

/// A validated dataflow DAG.
///
/// Adjacency is stored flat (CSR): the predecessors of op `i` are
/// `preds[pred_off[i]..pred_off[i + 1]]`, likewise for successors, and
/// both lists keep edge-insertion order. Building a DAG allocates a
/// fixed handful of arrays however many operators it has.
#[derive(Debug, Clone)]
pub struct Dag {
    ops: Vec<OpSpec>,
    edges: Vec<Edge>,
    pred_off: Vec<u32>,
    preds: Vec<OpId>,
    /// Aligned with `preds`: `pred_bytes[k]` is the total bytes on all
    /// `preds[k] -> to` edges. Schedulers probe edge weights once per
    /// predecessor per candidate, so the lookup must not scan the
    /// global edge list.
    pred_bytes: Vec<u64>,
    succ_off: Vec<u32>,
    succs: Vec<OpId>,
}

/// Per-node offsets into a flat adjacency array holding `degree[i]`
/// entries for node `i`: `off.len() == degree.len() + 1`.
fn offsets(degree: &[usize]) -> Vec<u32> {
    let mut off = Vec::with_capacity(degree.len() + 1);
    let mut total = 0u32;
    off.push(0);
    for &d in degree {
        total += d as u32;
        off.push(total);
    }
    off
}

/// Node `id`'s entries in a flat adjacency array with offsets `off`.
fn adjacent(off: &[u32], id: OpId) -> std::ops::Range<usize> {
    off[id.index()] as usize..off[id.index() + 1] as usize
}

impl Dag {
    /// Build and validate a DAG. Operators must have dense ids
    /// `0..ops.len()` in order; edges must reference valid ids, contain
    /// no self-loops and form no cycle.
    pub fn new(ops: Vec<OpSpec>, edges: Vec<Edge>) -> Result<Self> {
        for (i, op) in ops.iter().enumerate() {
            if op.id.index() != i {
                return Err(FlowtuneError::invalid_dag(format!(
                    "operator at position {i} has id {}",
                    op.id
                )));
            }
        }
        let n = ops.len();
        let (mut in_deg, mut out_deg) = (vec![0usize; n], vec![0usize; n]);
        for e in &edges {
            if e.from.index() >= n || e.to.index() >= n {
                return Err(FlowtuneError::invalid_dag(format!(
                    "edge {} -> {} references missing operator",
                    e.from, e.to
                )));
            }
            if e.from == e.to {
                return Err(FlowtuneError::invalid_dag(format!(
                    "self edge at {}",
                    e.from
                )));
            }
            in_deg[e.to.index()] += 1;
            out_deg[e.from.index()] += 1;
        }
        let pred_off = offsets(&in_deg);
        let succ_off = offsets(&out_deg);
        // Fill both lists in edge order; the degree arrays become
        // per-node fill cursors.
        let mut preds = vec![OpId(0); edges.len()];
        let mut pred_bytes = vec![0u64; edges.len()];
        let mut succs = vec![OpId(0); edges.len()];
        in_deg.iter_mut().for_each(|d| *d = 0);
        out_deg.iter_mut().for_each(|d| *d = 0);
        for e in &edges {
            let (to, from) = (e.to.index(), e.from.index());
            let k = pred_off[to] as usize + in_deg[to];
            preds[k] = e.from;
            pred_bytes[k] = e.bytes;
            in_deg[to] += 1;
            succs[succ_off[from] as usize + out_deg[from]] = e.to;
            out_deg[from] += 1;
        }
        // Sum duplicate edges per consumer: accumulate each producer's
        // bytes in a scratch slot, write the total back to every
        // occurrence, then clear the slots — O(in-degree) per op, so a
        // fan-in of thousands of edges stays linear.
        let mut total = vec![0u64; n];
        for to in 0..n {
            let range = adjacent(&pred_off, OpId::from_index(to));
            for k in range.clone() {
                total[preds[k].index()] += pred_bytes[k];
            }
            for k in range.clone() {
                pred_bytes[k] = total[preds[k].index()];
            }
            for k in range {
                total[preds[k].index()] = 0;
            }
        }
        let dag = Dag {
            ops,
            edges,
            pred_off,
            preds,
            pred_bytes,
            succ_off,
            succs,
        };
        // Kahn's algorithm detects cycles.
        if dag.topo_order().len() != n {
            return Err(FlowtuneError::invalid_dag("cycle detected"));
        }
        Ok(dag)
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the DAG has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operator by id.
    pub fn op(&self, id: OpId) -> &OpSpec {
        &self.ops[id.index()]
    }

    /// All operators in id order.
    pub fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Direct predecessors of an operator.
    pub fn preds(&self, id: OpId) -> &[OpId] {
        &self.preds[adjacent(&self.pred_off, id)]
    }

    /// Direct successors of an operator.
    pub fn succs(&self, id: OpId) -> &[OpId] {
        &self.succs[adjacent(&self.succ_off, id)]
    }

    /// Bytes flowing along edge `from -> to` (0 when absent), duplicate
    /// edges summed. O(in-degree of `to`) via the prebuilt index — this
    /// sits on the scheduler's per-candidate hot path.
    pub fn edge_bytes(&self, from: OpId, to: OpId) -> u64 {
        if to.index() >= self.ops.len() {
            return 0;
        }
        let range = adjacent(&self.pred_off, to);
        self.preds[range.clone()]
            .iter()
            .position(|&p| p == from)
            .map(|k| self.pred_bytes[range.start + k])
            .unwrap_or(0)
    }

    /// Direct predecessors of `id` paired with the total bytes on each
    /// `pred -> id` edge (aligned with [`Dag::preds`]; duplicate edges
    /// carry the summed total on every occurrence).
    pub fn preds_with_bytes(&self, id: OpId) -> impl Iterator<Item = (OpId, u64)> + '_ {
        let range = adjacent(&self.pred_off, id);
        self.preds[range.clone()]
            .iter()
            .copied()
            .zip(self.pred_bytes[range].iter().copied())
    }

    /// Operators with no predecessors (entry nodes).
    #[cfg(test)]
    pub fn roots(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .map(OpId::from_index)
            .filter(|id| self.preds(*id).is_empty())
            .collect()
    }

    /// Operators with no successors (exit nodes).
    pub fn sinks(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .map(OpId::from_index)
            .filter(|id| self.succs(*id).is_empty())
            .collect()
    }

    /// A topological order (Kahn). Shorter than `len()` iff cyclic, which
    /// `new` rejects — so for a constructed `Dag` it always covers all
    /// operators.
    pub fn topo_order(&self) -> Vec<OpId> {
        let n = self.ops.len();
        let mut in_deg: Vec<u32> = self.pred_off.windows(2).map(|w| w[1] - w[0]).collect();
        let mut queue: std::collections::VecDeque<OpId> = (0..n)
            .map(OpId::from_index)
            .filter(|id| in_deg[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in self.succs(id) {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        order
    }

    /// Sum of all operator runtimes (the serial execution time).
    pub fn total_work(&self) -> SimDuration {
        self.ops.iter().map(|o| o.runtime).sum()
    }

    /// Length of the critical path, ignoring communication: a lower
    /// bound on any schedule's makespan.
    pub fn critical_path(&self) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.ops.len()];
        for id in self.topo_order() {
            let ready = self
                .preds(id)
                .iter()
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish[id.index()] = ready + self.op(id).runtime;
        }
        finish.into_iter().max().unwrap_or(SimDuration::ZERO)
    }

    /// Maximum number of operators that can run concurrently, estimated
    /// as the widest level of a longest-path level decomposition.
    pub fn width(&self) -> usize {
        let mut level = vec![0usize; self.ops.len()];
        let mut max_level = 0;
        for id in self.topo_order() {
            let l = self
                .preds(id)
                .iter()
                .map(|p| level[p.index()] + 1)
                .max()
                .unwrap_or(0);
            level[id.index()] = l;
            max_level = max_level.max(l);
        }
        let mut counts = vec![0usize; max_level + 1];
        for &l in &level {
            counts[l] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u32, secs: u64) -> OpSpec {
        OpSpec::new(OpId(i), format!("op{i}"), SimDuration::from_secs(secs))
    }

    fn diamond() -> Dag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Dag::new(
            vec![op(0, 1), op(1, 2), op(2, 5), op(3, 1)],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(1),
                    bytes: 10,
                },
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 20,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(3),
                    bytes: 30,
                },
                Edge {
                    from: OpId(2),
                    to: OpId(3),
                    bytes: 40,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn adjacency_and_lookup() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.roots(), vec![OpId(0)]);
        assert_eq!(d.sinks(), vec![OpId(3)]);
        assert_eq!(d.preds(OpId(3)), &[OpId(1), OpId(2)]);
        assert_eq!(d.succs(OpId(0)), &[OpId(1), OpId(2)]);
        assert_eq!(d.edge_bytes(OpId(2), OpId(3)), 40);
        assert_eq!(d.edge_bytes(OpId(3), OpId(0)), 0);
    }

    #[test]
    fn edge_bytes_index_matches_linear_scan_semantics() {
        // Duplicate edges sum; the pred-aligned accessor carries the
        // same totals the point lookup returns.
        let d = Dag::new(
            vec![op(0, 1), op(1, 1), op(2, 1)],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 7,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(2),
                    bytes: 5,
                },
                Edge {
                    from: OpId(0),
                    to: OpId(2),
                    bytes: 3,
                },
            ],
        )
        .unwrap();
        assert_eq!(d.edge_bytes(OpId(0), OpId(2)), 10);
        assert_eq!(d.edge_bytes(OpId(1), OpId(2)), 5);
        assert_eq!(d.edge_bytes(OpId(1), OpId(0)), 0);
        let got: Vec<(OpId, u64)> = d.preds_with_bytes(OpId(2)).collect();
        // Aligned with `preds`: the duplicated (0 -> 2) edge appears
        // twice, each occurrence carrying the summed total.
        assert_eq!(got, vec![(OpId(0), 10), (OpId(1), 5), (OpId(0), 10)]);
        assert!(d.preds_with_bytes(OpId(0)).next().is_none());
    }

    /// The pre-CSR construction: `Vec<Vec>` adjacency in edge order
    /// and a `BTreeMap` of per-(from, to) byte totals.
    struct NaiveDag {
        preds: Vec<Vec<OpId>>,
        succs: Vec<Vec<OpId>>,
        bytes: std::collections::BTreeMap<(OpId, OpId), u64>,
    }

    impl NaiveDag {
        fn of(n: usize, edges: &[Edge]) -> NaiveDag {
            let mut naive = NaiveDag {
                preds: vec![Vec::new(); n],
                succs: vec![Vec::new(); n],
                bytes: std::collections::BTreeMap::new(),
            };
            for e in edges {
                naive.preds[e.to.index()].push(e.from);
                naive.succs[e.from.index()].push(e.to);
                *naive.bytes.entry((e.from, e.to)).or_insert(0) += e.bytes;
            }
            naive
        }

        fn topo_order(&self) -> Vec<OpId> {
            let mut in_deg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
            let mut queue: std::collections::VecDeque<OpId> = (0..in_deg.len())
                .map(OpId::from_index)
                .filter(|id| in_deg[id.index()] == 0)
                .collect();
            let mut order = Vec::new();
            while let Some(id) = queue.pop_front() {
                order.push(id);
                for &s in &self.succs[id.index()] {
                    in_deg[s.index()] -= 1;
                    if in_deg[s.index()] == 0 {
                        queue.push_back(s);
                    }
                }
            }
            order
        }
    }

    fn assert_matches_naive(d: &Dag, rng: &mut flowtune_common::SimRng, label: &str) {
        let n = d.len();
        let naive = NaiveDag::of(n, d.edges());
        for i in 0..n {
            let id = OpId::from_index(i);
            assert_eq!(d.preds(id), &naive.preds[i][..], "{label}: preds of {id}");
            assert_eq!(d.succs(id), &naive.succs[i][..], "{label}: succs of {id}");
            let want: Vec<(OpId, u64)> = naive.preds[i]
                .iter()
                .map(|&p| (p, naive.bytes[&(p, id)]))
                .collect();
            let got: Vec<(OpId, u64)> = d.preds_with_bytes(id).collect();
            assert_eq!(got, want, "{label}: preds_with_bytes of {id}");
        }
        for e in d.edges() {
            let total = naive.bytes[&(e.from, e.to)];
            assert_eq!(d.edge_bytes(e.from, e.to), total, "{label}: {e:?}");
            let back = naive.bytes.get(&(e.to, e.from)).copied().unwrap_or(0);
            assert_eq!(d.edge_bytes(e.to, e.from), back, "{label}: reverse {e:?}");
        }
        for _ in 0..n.min(200) {
            let (from, to) = (
                OpId::from_index(rng.uniform_u64(0, n as u64) as usize),
                OpId::from_index(rng.uniform_u64(0, n as u64) as usize),
            );
            let want = naive.bytes.get(&(from, to)).copied().unwrap_or(0);
            assert_eq!(d.edge_bytes(from, to), want, "{label}: {from} -> {to}");
        }
        assert_eq!(d.edge_bytes(OpId(0), OpId::from_index(n)), 0, "{label}");
        assert_eq!(d.topo_order(), naive.topo_order(), "{label}: topo order");
    }

    #[test]
    fn flat_adjacency_matches_a_naive_oracle() {
        use crate::apps::App;
        use flowtune_common::SimRng;
        let mut rng = SimRng::seed_from_u64(0xC5A);
        for app in App::ALL {
            for ops in [10, 100, 1_000] {
                let d = app.generate(ops, &[], &mut rng);
                assert_matches_naive(&d, &mut rng, &format!("{}:{ops}", app.name()));
            }
        }
        // Hand-made duplicate and parallel edges: 0 -> 3 three times,
        // 1 -> 3 twice, interleaved with other edges into and out of 3.
        let edge = |from: u32, to: u32, bytes: u64| Edge {
            from: OpId(from),
            to: OpId(to),
            bytes,
        };
        let d = Dag::new(
            (0..5).map(|i| op(i, 1)).collect(),
            vec![
                edge(0, 3, 1),
                edge(1, 3, 10),
                edge(3, 4, 7),
                edge(0, 3, 100),
                edge(2, 3, 0),
                edge(1, 3, 1_000),
                edge(0, 3, 10_000),
                edge(0, 4, 5),
                edge(3, 4, 2),
            ],
        )
        .unwrap();
        assert_matches_naive(&d, &mut rng, "hand-made");
        let ps: Vec<(OpId, u64)> = d.preds_with_bytes(OpId(3)).collect();
        assert_eq!(
            ps,
            vec![
                (OpId(0), 10_101),
                (OpId(1), 1_010),
                (OpId(0), 10_101),
                (OpId(2), 0),
                (OpId(1), 1_010),
                (OpId(0), 10_101),
            ]
        );
        assert_eq!(d.succs(OpId(3)), &[OpId(4), OpId(4)]);
        assert_eq!(d.edge_bytes(OpId(3), OpId(4)), 9);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let d = diamond();
        let order = d.topo_order();
        let pos = |id: OpId| order.iter().position(|x| *x == id).unwrap();
        for e in d.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn work_and_critical_path() {
        let d = diamond();
        assert_eq!(d.total_work(), SimDuration::from_secs(9));
        // Critical path 0 -> 2 -> 3 = 1 + 5 + 1.
        assert_eq!(d.critical_path(), SimDuration::from_secs(7));
        assert_eq!(d.width(), 2);
    }

    #[test]
    fn cycle_rejected() {
        let err = Dag::new(
            vec![op(0, 1), op(1, 1)],
            vec![
                Edge {
                    from: OpId(0),
                    to: OpId(1),
                    bytes: 0,
                },
                Edge {
                    from: OpId(1),
                    to: OpId(0),
                    bytes: 0,
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn self_edge_rejected() {
        let err = Dag::new(
            vec![op(0, 1)],
            vec![Edge {
                from: OpId(0),
                to: OpId(0),
                bytes: 0,
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("self edge"));
    }

    #[test]
    fn bad_ids_rejected() {
        let err = Dag::new(vec![op(5, 1)], vec![]).unwrap_err();
        assert!(err.to_string().contains("has id"));
        let err = Dag::new(
            vec![op(0, 1)],
            vec![Edge {
                from: OpId(0),
                to: OpId(7),
                bytes: 0,
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("missing operator"));
    }

    #[test]
    fn empty_dag_is_fine() {
        let d = Dag::new(vec![], vec![]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.critical_path(), SimDuration::ZERO);
        assert_eq!(d.width(), 0);
    }
}
