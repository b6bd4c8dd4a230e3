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

use spanner_graph::NodeId;

/// A row slot holding no member. Values are distances or node ids, both
/// below the node count, so no real value collides with it.
const ABSENT: u32 = u32::MAX;

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
        if 2 * len >= self.nodes {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceOracle, RoutingScheme};
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
