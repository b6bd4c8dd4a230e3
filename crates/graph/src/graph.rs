//! Compact undirected simple graphs.
//!
//! A [`Graph`] is the shared sorted [`CsrAdjacency`] — the one adjacency
//! layout of the crate — plus an edge-id column parallel to its targets
//! and the endpoints of every edge. Edges have stable [`EdgeId`]s in
//! lexicographic `(min, max)` order, so subgraphs (spanners) can be
//! represented compactly as bitsets over edge ids (see
//! [`EdgeSet`](crate::EdgeSet)).
//!
//! Graphs are immutable after construction; build them with [`GraphBuilder`],
//! [`Graph::from_edges`] or, around an existing adjacency,
//! [`Graph::from_csr`].

use std::fmt;
use std::sync::Arc;

use crate::csr::CsrAdjacency;

/// Identifier of a vertex: a dense index in `0..graph.node_count()`.
///
/// The paper's model gives every processor a unique O(log n)-bit identifier;
/// dense indices are the canonical choice and random relabelings are applied
/// by generators where identifier symmetry matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the index as a `usize` for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        match u32::try_from(v) {
            Ok(i) => NodeId(i),
            Err(_) => panic!(
                "node index {v} exceeds the u32 node-id space (max {}); \
                 graphs are limited to u32::MAX nodes — shard the input or \
                 reduce n (streaming builders reject oversized n up front \
                 via CsrAdjacency::try_from_edges)",
                u32::MAX
            ),
        }
    }
}

/// Identifier of an undirected edge: a dense index in `0..graph.edge_count()`,
/// in lexicographic `(min, max)` endpoint order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the index as a `usize` for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable, undirected, simple graph: the shared sorted
/// [`CsrAdjacency`] plus an edge-id column parallel to its targets.
///
/// The adjacency is the one the executors and the distance engine run on;
/// [`Graph::csr`] hands it out without a copy. Each node's run lists its
/// neighbors in ascending order, and `edge_ids` names the edge behind
/// every half-edge, so [`Graph::incident`] yields `(neighbor, edge)`
/// pairs in the same order.
///
/// # Example
///
/// ```
/// use spanner_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.degree(NodeId(0)), 2);
/// assert!(g.has_edge(NodeId(0), NodeId(1)));
/// assert!(!g.has_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// Sorted neighbor runs, shared with executors and distance engines.
    csr: Arc<CsrAdjacency>,
    /// `edge_ids[i]` is the edge behind half-edge `i` of `csr`'s targets.
    edge_ids: Vec<EdgeId>,
    /// Edge endpoints by edge id, with `endpoints[e].0 < endpoints[e].1`.
    endpoints: Vec<(NodeId, NodeId)>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge iterator.
    ///
    /// Self-loops and duplicate edges are silently discarded (the paper works
    /// with simple graphs throughout, and contraction explicitly discards
    /// loops and redundant edges).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or `n` exceeds the u32 id space.
    pub fn from_edges<I, E>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        let edges: Vec<(u32, u32)> = edges.into_iter().map(Into::into).collect();
        Graph::from_csr(Arc::new(CsrAdjacency::from_edges(n, edges.iter().copied())))
    }

    /// Builds a graph from edges already in canonical order: each edge
    /// `(a, b)` with `a < b`, the stream strictly lexicographically
    /// increasing (hence loop- and duplicate-free). Produces the graph
    /// [`Graph::from_edges`] builds on the same stream, and checks the
    /// order on the way.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or the stream violates the order.
    pub fn from_sorted_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut prev = None;
        let edges = edges.into_iter().inspect(|&(a, b)| {
            assert!(a < b, "edge ({a}, {b}) not in canonical a < b order");
            assert!(prev < Some((a, b)), "edge stream not strictly increasing");
            prev = Some((a, b));
        });
        Graph::from_edges(n, edges)
    }

    /// Wraps a shared adjacency, adding the edge-id column. Edge ids follow
    /// [`CsrAdjacency::forward_edges`]: lexicographic `(min, max)` order,
    /// the ids [`CsrEdgeIndex`](crate::CsrEdgeIndex) assigns.
    pub fn from_csr(csr: Arc<CsrAdjacency>) -> Graph {
        let endpoints: Vec<(NodeId, NodeId)> =
            csr.forward_edges().map(|(_, a, b)| (a, b)).collect();
        // One scatter in edge-id order fills each run in ascending
        // neighbor order — first the smaller endpoints, then the larger —
        // so slot `i` of the column lines up with target `i`.
        let (offsets, targets) = csr.parts();
        let mut cursor = offsets[..csr.node_count()].to_vec();
        let mut edge_ids = vec![EdgeId(0); targets.len()];
        for (i, &(a, b)) in endpoints.iter().enumerate() {
            for v in [a, b] {
                edge_ids[cursor[v.index()] as usize] = EdgeId(i as u32);
                cursor[v.index()] += 1;
            }
        }
        Graph {
            csr,
            edge_ids,
            endpoints,
        }
    }

    /// The shared sorted adjacency — what executors, drivers and the
    /// distance engine take. Clone the `Arc` to share it.
    #[inline]
    pub fn csr(&self) -> &Arc<CsrAdjacency> {
        &self.csr
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph::from_edges(n, std::iter::empty::<(u32, u32)>())
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all node ids, `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edges as `(EdgeId, NodeId, NodeId)` with the smaller
    /// endpoint first.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId(i as u32), u, v))
    }

    /// Endpoints of edge `e`, smaller endpoint first.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr.degree(v)
    }

    /// Neighbours of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.csr.neighbors(v)
    }

    /// The edge ids of `v`'s incident edges, parallel to
    /// [`Graph::neighbors`]: the edge to `neighbors(v)[i]` is
    /// `incident_ids(v)[i]`.
    #[inline]
    pub fn incident_ids(&self, v: NodeId) -> &[EdgeId] {
        let (offsets, _) = self.csr.parts();
        &self.edge_ids[offsets[v.index()] as usize..offsets[v.index() + 1] as usize]
    }

    /// Neighbours of `v` with the connecting edge ids, in ascending
    /// neighbor order.
    #[inline]
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.incident_ids(v).iter().copied())
    }

    /// Whether the edge `{u, v}` is present. O(log degree).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// The edge id of `{u, v}` if present: a binary search of `u`'s
    /// sorted run. O(log degree).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let i = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.incident_ids(u)[i])
    }

    /// Sum of degrees divided by node count.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.node_count() as f64
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.csr.max_degree()
    }

    /// Returns the subgraph induced by keeping exactly the edges for which
    /// `keep` returns true, on the same vertex set. Edge ids are renumbered.
    pub fn edge_subgraph<F: FnMut(EdgeId) -> bool>(&self, mut keep: F) -> Graph {
        let kept = self.edges().filter(|&(e, _, _)| keep(e));
        Graph::from_sorted_edges(self.node_count(), kept.map(|(_, u, v)| (u.0, v.0)))
    }

    /// The subgraph induced by `nodes` (which must be strictly ascending),
    /// with node `nodes[i]` relabeled to `i`, plus the map from each new
    /// [`EdgeId`] back to the host edge it came from.
    ///
    /// The relabeling is monotone, so the induced graph's lexicographic
    /// edge order equals the host order restricted to the region — new
    /// edge ids enumerate the kept host edges in host-id order, which is
    /// what lets dirty-region re-clustering translate a spanner of the
    /// induced graph back into host edges with one array lookup.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not strictly ascending or contains an
    /// out-of-range node.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<EdgeId>) {
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "region must be strictly ascending"
        );
        if let Some(last) = nodes.last() {
            assert!(last.index() < self.node_count(), "region node out of range");
        }
        let mut map = vec![u32::MAX; self.node_count()];
        for (i, v) in nodes.iter().enumerate() {
            map[v.index()] = i as u32;
        }
        let mut edges = Vec::new();
        let mut host = Vec::new();
        for (e, a, b) in self.edges() {
            let (ma, mb) = (map[a.index()], map[b.index()]);
            if ma != u32::MAX && mb != u32::MAX {
                edges.push((ma, mb));
                host.push(e);
            }
        }
        (Graph::from_sorted_edges(nodes.len(), edges), host)
    }

    /// Applies a permutation to node labels: node `v` becomes `perm[v]`.
    ///
    /// Used to randomize processor identifiers where the model calls for
    /// arbitrary unique ids.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[u32]) -> Graph {
        assert_eq!(perm.len(), self.node_count(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                (p as usize) < perm.len() && !seen[p as usize],
                "not a permutation"
            );
            seen[p as usize] = true;
        }
        let edges = self
            .edges()
            .map(|(_, u, v)| (perm[u.index()], perm[v.index()]));
        Graph::from_edges(self.node_count(), edges)
    }
}

/// Incremental builder for [`Graph`].
///
/// Deduplicates edges and drops self-loops at [`GraphBuilder::build`] time.
///
/// # Example
///
/// ```
/// use spanner_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(0)); // duplicate, dropped
/// b.add_edge(NodeId(2), NodeId(2)); // loop, dropped
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    raw_edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes with no edges yet.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many nodes");
        GraphBuilder {
            n,
            raw_edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Records the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge endpoint out of range: ({u}, {v}) with n={}",
            self.n
        );
        self.raw_edges.push((u.0, v.0));
        self
    }

    /// Finalizes the graph: drops loops and duplicates, lays out the CSR.
    pub fn build(self) -> Graph {
        Graph::from_edges(self.n, self.raw_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn triangle_basic() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    fn dedup_and_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(2)), 0);
    }

    #[test]
    fn endpoints_ordered() {
        let g = Graph::from_edges(4, [(3, 1), (2, 0)]);
        for (_, u, v) in g.edges() {
            assert!(u.0 < v.0);
        }
    }

    #[test]
    fn find_edge_both_directions() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let e = g.find_edge(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(g.endpoints(e), (NodeId(1), NodeId(2)));
        assert!(g.find_edge(NodeId(2), NodeId(3)).is_none());
    }

    #[test]
    fn incident_edges_consistent_with_edges() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4), (1, 2)]);
        for (e, u, v) in g.edges() {
            assert!(g.incident(u).any(|(w, f)| w == v && f == e));
            assert!(g.incident(v).any(|(w, f)| w == u && f == e));
        }
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * g.edge_count());
    }

    #[test]
    fn edge_subgraph_renumbers() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let h = g.edge_subgraph(|e| e.0 != 1);
        assert_eq!(h.edge_count(), 2);
        assert!(h.has_edge(NodeId(0), NodeId(1)));
        assert!(!h.has_edge(NodeId(1), NodeId(2)));
        assert!(h.has_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    fn induced_subgraph_maps_edges_back() {
        let g = Graph::from_edges(6, [(0, 1), (0, 4), (1, 2), (2, 4), (3, 5), (4, 5)]);
        let region = [NodeId(0), NodeId(2), NodeId(4), NodeId(5)];
        let (sub, host) = g.induced_subgraph(&region);
        assert_eq!(sub.node_count(), 4);
        // Kept edges: (0,4), (2,4), (4,5) → relabeled (0,2), (1,2), (2,3).
        let got: Vec<(u32, u32)> = sub.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(got, vec![(0, 2), (1, 2), (2, 3)]);
        assert_eq!(host.len(), sub.edge_count());
        for (e, u, v) in sub.edges() {
            let (hu, hv) = g.endpoints(host[e.index()]);
            assert_eq!((hu, hv), (region[u.index()], region[v.index()]));
        }
        // Full region reproduces the graph with identical edge ids.
        let all: Vec<NodeId> = g.nodes().collect();
        let (full, host) = g.induced_subgraph(&all);
        assert_eq!(full, g);
        assert!(host.iter().enumerate().all(|(i, e)| e.index() == i));
        // Empty region.
        let (empty, host) = g.induced_subgraph(&[]);
        assert_eq!(empty.node_count(), 0);
        assert!(host.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn induced_subgraph_rejects_unsorted_region() {
        let g = Graph::from_edges(3, [(0, 1)]);
        g.induced_subgraph(&[NodeId(1), NodeId(0)]);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let perm = [3u32, 2, 1, 0];
        let h = g.relabel(&perm);
        assert_eq!(h.edge_count(), 3);
        assert!(h.has_edge(NodeId(3), NodeId(2)));
        assert!(h.has_edge(NodeId(2), NodeId(1)));
        assert!(h.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn from_sorted_edges_matches_from_edges() {
        let edges = [(0u32, 1), (0, 3), (1, 2), (2, 3)];
        let fast = Graph::from_sorted_edges(4, edges);
        let slow = Graph::from_edges(4, edges);
        assert_eq!(fast, slow);
        assert_eq!(
            fast.edges().collect::<Vec<_>>(),
            slow.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn from_sorted_edges_rejects_unsorted() {
        Graph::from_sorted_edges(4, [(1u32, 2), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "canonical a < b order")]
    fn from_sorted_edges_rejects_reversed_edge() {
        Graph::from_sorted_edges(4, [(1u32, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = Graph::empty(3);
        g.relabel(&[0, 0, 1]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(7).to_string(), "v7");
        assert_eq!(EdgeId(3).to_string(), "e3");
    }
}
