//! The one store behind the oracle's bunches and the routing tables.
//!
//! Both structures are a family of clusters `C(w)`, one per centre `w`,
//! whose members each carry one `u32`: the oracle's bunch entry
//! `w ∈ B(v)` is member `v` of `C(w)` with value δ(w, v), and a routing
//! entry is member `v` of `C(w)` with `v`'s next hop toward `w`. The table
//! is cluster-major, so each cluster is written once, straight from its
//! BFS, with no transpose and no per-entry hashing.
//!
//! Each cluster takes whichever of two forms needs fewer bytes:
//!
//! * a **row** of `n` slots (4n bytes), [`ABSENT`] marking a non-member,
//!   read in one step;
//! * a **run** of `(member, value)` pairs sorted by member (8 bytes per
//!   member), read by binary search.
//!
//! A cluster with `2·|C(w)| ≥ n` members is a row. In practice that is
//! an untruncated cluster (the oracle's top level `A_{k−1}`, routing's
//! landmarks) on a connected graph; a graph of many small components
//! never allocates a row.
//!
//! The untruncated clusters are whole BFS trees of their centres'
//! components. [`full_clusters`] builds them 64 centres at a time with
//! [`DistanceEngine::batch_trees`], writing every row in place into its
//! box; [`ClusterTable::push_full`] then places each
//! in centre order. Only the truncated clusters are grown one centre at
//! a time, with `ClusterBfs`, and go in through [`ClusterTable::push`].

use spanner_graph::components::Components;
use spanner_graph::engine::MsBfsScratch;
use spanner_graph::{DistanceEngine, EdgeSet, Graph, NodeId};

/// A row slot holding no member. Values are distances or node ids, both
/// below the node count, so no real value collides with it.
const ABSENT: u32 = u32::MAX;

/// Whether a cluster of `members` members takes the row form in a table
/// over `nodes` vertices.
fn is_row(nodes: usize, members: usize) -> bool {
    2 * members >= nodes
}

#[derive(Debug, Clone)]
enum Cluster {
    /// The value of every node, [`ABSENT`] for a non-member. Each row is
    /// its own allocation, so growing the run arena never copies rows.
    Row(Box<[u32]>),
    /// `runs[start..end]` of [`ClusterTable`], sorted by member.
    Run { start: usize, end: usize },
}

/// Clusters by centre: centre `w` → members `v` of `C(w)`, each with a
/// `u32` value. Built by [`ClusterTable::push`] in centre order.
#[derive(Debug, Clone)]
pub(crate) struct ClusterTable {
    nodes: usize,
    clusters: Vec<Cluster>,
    /// Every run cluster's `(member, value)` pairs, back to back. Offsets
    /// are `usize`: at the 2²⁴-node cap the entries can pass 2³².
    runs: Vec<(u32, u32)>,
    entries: usize,
}

impl ClusterTable {
    /// An empty table over `nodes` vertices; every centre's cluster still
    /// has to be pushed.
    pub(crate) fn new(nodes: usize) -> Self {
        ClusterTable {
            nodes,
            clusters: Vec::with_capacity(nodes),
            runs: Vec::new(),
            entries: 0,
        }
    }

    /// Appends the cluster of the next centre (centres go in ascending id
    /// from 0): each member but the centre with its value, in any order.
    ///
    /// # Panics
    ///
    /// Panics if every centre already has its cluster, or if a row
    /// member is out of range or carries the value `u32::MAX`.
    pub(crate) fn push(&mut self, members: impl IntoIterator<Item = (NodeId, u32)>) {
        assert!(
            self.clusters.len() < self.nodes,
            "more clusters than centres"
        );
        let start = self.runs.len();
        self.runs.extend(members.into_iter().map(|(v, x)| (v.0, x)));
        let len = self.runs.len() - start;
        self.entries += len;
        if is_row(self.nodes, len) {
            let mut row = vec![ABSENT; self.nodes].into_boxed_slice();
            for &(v, x) in &self.runs[start..] {
                assert_ne!(x, ABSENT, "u32::MAX marks a non-member");
                row[v as usize] = x;
            }
            self.runs.truncate(start);
            self.clusters.push(Cluster::Row(row));
        } else {
            self.runs[start..].sort_unstable_by_key(|&(v, _)| v);
            self.clusters.push(Cluster::Run {
                start,
                end: self.runs.len(),
            });
        }
    }

    /// Appends the next centre's cluster when [`full_clusters`] built it.
    ///
    /// # Panics
    ///
    /// Panics if every centre already has its cluster.
    pub(crate) fn push_full(&mut self, cluster: FullCluster) {
        match cluster {
            FullCluster::Row { row, members } => {
                assert!(
                    self.clusters.len() < self.nodes,
                    "more clusters than centres"
                );
                self.entries += members;
                self.clusters.push(Cluster::Row(row));
            }
            FullCluster::Run(members) => self.push(members),
        }
    }

    /// The value of `member` in the cluster of `centre`, or `None` if it
    /// is not a member.
    pub(crate) fn get(&self, centre: NodeId, member: NodeId) -> Option<u32> {
        match self.clusters[centre.index()] {
            Cluster::Row(ref row) => Some(row[member.index()]).filter(|&x| x != ABSENT),
            Cluster::Run { start, end } => {
                let run = &self.runs[start..end];
                let i = run.binary_search_by_key(&member.0, |&(v, _)| v).ok()?;
                Some(run[i].1)
            }
        }
    }

    /// Total members over all clusters.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cluster of `centre` took the row form.
    #[cfg(test)]
    fn is_row(&self, centre: NodeId) -> bool {
        matches!(self.clusters[centre.index()], Cluster::Row(_))
    }
}

/// What an untruncated cluster stores for each member.
#[derive(Debug)]
pub(crate) enum Value<'a> {
    /// δ(w, v), the oracle's bunch entry; every tree edge goes into the
    /// set (the oracle's induced spanner).
    Distance(&'a mut EdgeSet),
    /// `v`'s parent toward `w`, the routing next hop.
    NextHop,
}

/// An untruncated cluster built ahead of its place in the table: a
/// filled row, or the members of a cluster too small for one.
#[derive(Debug)]
pub(crate) enum FullCluster {
    Row { row: Box<[u32]>, members: usize },
    Run(Vec<(NodeId, u32)>),
}

impl FullCluster {
    fn set(&mut self, v: NodeId, x: u32) {
        match self {
            FullCluster::Row { row, .. } => row[v.index()] = x,
            FullCluster::Run(members) => members.push((v, x)),
        }
    }
}

/// The untruncated clusters of `centres`, in the order given: each
/// centre's whole component with the [`Value`] of every member but the
/// centre, from one [`DistanceEngine::batch_trees`] call per 64
/// centres. `comps` must be `g`'s components; a centre whose component
/// gives it a row gets its box up front, and the traversal writes the
/// row in place.
pub(crate) fn full_clusters(
    g: &Graph,
    comps: &Components,
    centres: &[NodeId],
    mut value: Value,
) -> Vec<FullCluster> {
    let n = g.node_count();
    let mut size = vec![0usize; comps.count];
    for &c in &comps.labels {
        size[c as usize] += 1;
    }
    let engine = DistanceEngine::new(g);
    let mut scratch = MsBfsScratch::new(n);
    let mut out = Vec::with_capacity(centres.len());
    for batch in centres.chunks(64) {
        let first = out.len();
        out.extend(batch.iter().map(|w| {
            let members = size[comps.labels[w.index()] as usize] - 1;
            if is_row(n, members) {
                let row = vec![ABSENT; n].into_boxed_slice();
                FullCluster::Row { row, members }
            } else {
                FullCluster::Run(Vec::with_capacity(members))
            }
        }));
        let slots = &mut out[first..];
        match value {
            Value::Distance(ref mut tree_edges) => engine.batch_trees(
                batch,
                &mut scratch,
                |i, v, d| {
                    if d > 0 {
                        slots[i].set(v, d);
                    }
                },
                |_, v, pos| {
                    tree_edges.insert(g.incident_ids(v)[pos]);
                },
            ),
            Value::NextHop => engine.batch_trees(
                batch,
                &mut scratch,
                |_, _, _| {},
                |i, v, pos| slots[i].set(v, g.neighbors(v)[pos].0),
            ),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceOracle, RoutingScheme};
    use spanner_graph::components::connected_components;
    use spanner_graph::{generators, Graph};

    fn table(nodes: usize, clusters: &[&[(u32, u32)]]) -> ClusterTable {
        let mut t = ClusterTable::new(nodes);
        for members in clusters {
            t.push(members.iter().map(|&(v, x)| (NodeId(v), x)));
        }
        t
    }

    #[test]
    fn half_the_nodes_take_a_row() {
        // n = 4: two members is exactly 2·|C| = n, one member is not.
        let t = table(
            4,
            &[&[(3, 7), (1, 5)], &[(2, 9)], &[], &[(0, 1), (1, 1), (2, 1)]],
        );
        assert!(t.is_row(NodeId(0)));
        assert!(!t.is_row(NodeId(1)));
        assert!(!t.is_row(NodeId(2)));
        assert!(t.is_row(NodeId(3)));
        // n = 5: two members stay a run, three take a row.
        let t = table(
            5,
            &[&[(4, 1), (2, 0)], &[(0, 2), (4, 3), (3, 3)], &[], &[], &[]],
        );
        assert!(!t.is_row(NodeId(0)));
        assert!(t.is_row(NodeId(1)));
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn both_forms_answer_members_only() {
        // n = 8: cluster 0 is a run of three, cluster 1 a row of four.
        let clusters: [&[(u32, u32)]; 8] = [
            &[(7, 7), (1, 5), (3, 0)],
            &[(6, 2), (0, 1), (3, 4), (2, 9)],
            &[],
            &[(0, 3)],
            &[],
            &[],
            &[],
            &[],
        ];
        let t = table(8, &clusters);
        assert!(!t.is_row(NodeId(0)) && t.is_row(NodeId(1)));
        assert_eq!(t.len(), 8);
        for (w, members) in clusters.iter().enumerate() {
            for v in 0..8 {
                let want = members.iter().find(|m| m.0 == v).map(|m| m.1);
                assert_eq!(t.get(NodeId(w as u32), NodeId(v)), want, "({w}, {v})");
            }
        }
    }

    /// n/2 disjoint edges: every cluster has at most one member.
    fn disjoint_edges(n: u32) -> Graph {
        Graph::from_edges(n as usize, (0..n / 2).map(|i| (2 * i, 2 * i + 1)))
    }

    #[test]
    fn full_clusters_take_their_form_from_the_component() {
        // Paths 0..=5 and 6..=9 (n = 10): a centre on the first has five
        // members, exactly n/2, so a row; one on the second has three.
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (8, 9),
            ],
        );
        let comps = connected_components(&g);
        let centres: Vec<NodeId> = g.nodes().collect();
        let mut edges = EdgeSet::new(&g);
        let dist = full_clusters(&g, &comps, &centres, Value::Distance(&mut edges));
        let hops = full_clusters(&g, &comps, &centres, Value::NextHop);
        assert_eq!(edges.len(), g.edge_count());
        let (mut by_dist, mut by_hop) = (ClusterTable::new(10), ClusterTable::new(10));
        for (d, h) in dist.into_iter().zip(hops) {
            by_dist.push_full(d);
            by_hop.push_full(h);
        }
        for w in 0..10u32 {
            assert_eq!(by_dist.is_row(NodeId(w)), w < 6, "{w}");
            assert_eq!(by_hop.is_row(NodeId(w)), w < 6, "{w}");
            for v in 0..10u32 {
                let member = v != w && (v < 6) == (w < 6);
                let hop = if v < w { v + 1 } else { v.wrapping_sub(1) };
                let (w, v) = (NodeId(w), NodeId(v));
                assert_eq!(by_dist.get(w, v), member.then(|| w.0.abs_diff(v.0)));
                assert_eq!(by_hop.get(w, v), member.then_some(hop));
            }
        }
        assert_eq!(by_dist.len(), 6 * 5 + 4 * 3);
    }

    #[test]
    fn small_components_never_take_a_row() {
        let g = disjoint_edges(400);
        for k in 1..=4 {
            let oracle = DistanceOracle::build(&g, k, 3);
            assert!(g.nodes().all(|w| !oracle.bunch.is_row(w)), "k = {k}");
        }
        let scheme = RoutingScheme::build(&g, 3);
        assert!(g.nodes().all(|w| !scheme.table().is_row(w)));
    }

    #[test]
    fn untruncated_clusters_take_rows_on_a_connected_graph() {
        let g = generators::connected_gnm(1_000, 4_000, 5);
        let oracle = DistanceOracle::build(&g, 2, 9);
        let top: Vec<NodeId> = g
            .nodes()
            .filter(|&v| oracle.witness[1].dist[v.index()] == 0)
            .collect();
        assert!(!top.is_empty());
        assert!(top.iter().all(|&w| oracle.bunch.is_row(w)));

        let scheme = RoutingScheme::build(&g, 9);
        let landmarks: Vec<NodeId> = g
            .nodes()
            .filter(|&v| scheme.address(v).landmark == v)
            .collect();
        assert_eq!(landmarks.len(), scheme.landmark_count());
        assert!(landmarks.iter().all(|&w| scheme.table().is_row(w)));
    }
}
