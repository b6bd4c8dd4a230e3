//! Breadth-first search in the flavors the spanner algorithms need.
//!
//! * [`ClusterBfs`]: the one-center tree-growing BFS of the centralized
//!   builders. It grows a cluster around a center, optionally truncated
//!   per node and depth (the Fibonacci spanner's `ℓ^i`-balls, additive-2's
//!   BFS trees), with the paper's minimum-identifier parent rule (Sect.
//!   4.1) and the tree edge ids read off the CSR walk. The truncated
//!   Thorup–Zwick bunches and routing clusters, which admit `y` at depth
//!   `d` only when `d < bound[y]`, grow by
//!   [`ClusterBfs::grow_truncated`] over a [`Truncation`]: the CSR runs
//!   reordered by descending `bound`, so a node's scan stops at the first
//!   neighbour that can no longer be admitted. The oracle's and the
//!   routing scheme's untruncated clusters, whole-component trees from
//!   many centers, come instead from
//!   [`DistanceEngine::batch_trees`](crate::DistanceEngine::batch_trees),
//!   64 centers per call, with the same parent rule;
//! * plain and radius-bounded single-source BFS distances, one body over
//!   the shared [`CsrAdjacency`], [`bfs_distances_in_subgraph`]; the
//!   [`Graph`]-taking names call it on [`Graph::csr`];
//! * BFS over an [`EdgeSet`] subgraph (for stretch evaluation without
//!   materializing the spanner).
//!
//! Nearest-source attribution (`p_i(v)`) and its forests live on the
//! distance engine: [`DistanceEngine::nearest_sources`] and
//! [`MultiSourceFlat::parent`]. [`multi_source_bfs`] and [`bfs_tree`] are
//! kept only as the straightforward references the parity tests check
//! those against; no library code calls them.
//!
//! [`DistanceEngine::nearest_sources`]: crate::DistanceEngine::nearest_sources
//! [`MultiSourceFlat::parent`]: crate::engine::MultiSourceFlat::parent

use std::cmp::Reverse;
use std::collections::VecDeque;

use crate::csr::CsrAdjacency;
use crate::distance::UNREACHABLE;
use crate::edgeset::EdgeSet;
use crate::graph::{EdgeId, Graph, NodeId};

/// Distances from `src` to every node; `None` for unreachable nodes.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    bfs_distances_csr(g.csr(), src)
}

/// [`bfs_distances`] over a bare [`CsrAdjacency`].
pub fn bfs_distances_csr(csr: &CsrAdjacency, src: NodeId) -> Vec<Option<u32>> {
    bfs_distances_in_subgraph(csr, src, u32::MAX)
}

/// Result of a multi-source BFS: for every node, the distance to the nearest
/// source and which source attained it.
#[derive(Debug, Clone)]
pub struct MultiSourceBfs {
    /// `dist[v]` is the distance from `v` to its nearest source, or `None`.
    pub dist: Vec<Option<u32>>,
    /// `source[v]` is the attributed nearest source, or `None`.
    pub source: Vec<Option<NodeId>>,
}

/// Multi-source BFS with deterministic attribution — the reference for
/// [`DistanceEngine::nearest_sources`](crate::DistanceEngine::nearest_sources);
/// only tests call it.
///
/// Every node is attributed to its nearest source; among equidistant sources
/// the one with the **minimum node id** wins, matching the paper's
/// tie-breaking rule for `p_i(u)` ("the one whose unique identifier is
/// minimum", Sect. 4.1). Attribution is by source, not by parent: a node's
/// attributed source is the minimum-id source among those at minimal
/// distance.
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> MultiSourceBfs {
    let n = g.node_count();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut source: Vec<Option<NodeId>> = vec![None; n];
    let mut frontier: Vec<NodeId> = Vec::new();

    // Seed all sources at distance 0; min-id wins on duplicate sources.
    let mut sorted: Vec<NodeId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        dist[s.index()] = Some(0);
        source[s.index()] = Some(s);
        frontier.push(s);
    }

    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut next: Vec<NodeId> = Vec::new();
        // First pass: discover.
        for &u in &frontier {
            let su = source[u.index()].expect("frontier node attributed");
            for &v in g.neighbors(u) {
                match dist[v.index()] {
                    None => {
                        dist[v.index()] = Some(d);
                        source[v.index()] = Some(su);
                        next.push(v);
                    }
                    Some(dv) if dv == d => {
                        // Already discovered this layer: keep min-id source.
                        let sv = source[v.index()].expect("attributed");
                        if su < sv {
                            source[v.index()] = Some(su);
                        }
                    }
                    _ => {}
                }
            }
        }
        // Second pass: propagate min-id attribution within the new layer
        // until fixpoint (a node's best source may arrive via a same-layer
        // sibling's parent). One extra sweep suffices because attribution
        // only depends on the previous layer; we re-scan parents.
        for &v in &next {
            let dv = dist[v.index()].expect("layer distance");
            let mut best = source[v.index()].expect("attributed");
            for &u in g.neighbors(v) {
                if dist[u.index()] == Some(dv - 1) {
                    let su = source[u.index()].expect("parent attributed");
                    if su < best {
                        best = su;
                    }
                }
            }
            source[v.index()] = Some(best);
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }

    MultiSourceBfs { dist, source }
}

/// A BFS tree rooted at `root`: parent pointers and distances.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// The root of the tree.
    pub root: NodeId,
    /// `parent[v]` is `v`'s parent on a shortest path to the root; `None`
    /// for the root itself and for unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// `dist[v]` is the depth of `v`, or `None` if unreachable.
    pub dist: Vec<Option<u32>>,
}

impl BfsTree {
    /// Reconstructs the tree path from `v` up to the root (inclusive), or
    /// `None` if `v` is unreachable.
    pub fn path_to_root(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.dist[v.index()]?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.root);
        Some(path)
    }
}

/// Builds a BFS tree from `root`. Among equidistant parents the minimum-id
/// neighbor is chosen, making the tree deterministic. The reference for
/// [`ClusterBfs::grow`] and
/// [`MultiSourceFlat::parent`](crate::engine::MultiSourceFlat::parent);
/// only tests call it.
pub fn bfs_tree(g: &Graph, root: NodeId) -> BfsTree {
    let dist = bfs_distances(g, root);
    let mut parent = vec![None; g.node_count()];
    for v in g.nodes() {
        if let Some(dv) = dist[v.index()] {
            if dv == 0 {
                continue;
            }
            // Runs are ascending, so the first parent found is the min-id one.
            parent[v.index()] = g
                .neighbors(v)
                .iter()
                .copied()
                .find(|u| dist[u.index()] == Some(dv - 1));
        }
    }
    BfsTree { root, parent, dist }
}

/// Reusable scratch for growing one BFS cluster at a time: the one
/// tree-growing loop every centralized builder runs.
///
/// [`ClusterBfs::grow`] fills `dist` and `(parent, edge)` for the nodes it
/// reaches and records them in a visit list, which doubles as the BFS
/// queue; the next `grow` resets only the nodes on that list, so a
/// builder growing one cluster per node pays for the clusters, not for
/// `n` per cluster.
#[derive(Debug, Clone)]
pub struct ClusterBfs {
    dist: Vec<u32>,
    parent: Vec<(NodeId, EdgeId)>,
    visited: Vec<NodeId>,
}

impl ClusterBfs {
    /// Scratch for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        ClusterBfs {
            dist: vec![UNREACHABLE; n],
            parent: vec![(NodeId(0), EdgeId(0)); n],
            visited: Vec::new(),
        }
    }

    /// Grows the cluster of `center`: a BFS that expands no node at depth
    /// `max_depth` (`u32::MAX` for unbounded) and enters an unreached
    /// node `y` at depth `d` only when `keep(y, d)` holds.
    ///
    /// Every reached node other than `center` gets as parent its
    /// minimum-id reached neighbor one level up ("the one whose unique
    /// identifier is minimum", Sect. 4.1), together with the id of the
    /// connecting edge, read off the edge-id column at the same CSR
    /// position (only when a parent is set, so the walk itself touches
    /// just the targets). With `keep` always true this is the BFS tree of
    /// [`bfs_tree`].
    pub fn grow(
        &mut self,
        g: &Graph,
        center: NodeId,
        max_depth: u32,
        mut keep: impl FnMut(NodeId, u32) -> bool,
    ) {
        self.start(center);
        let mut head = 0;
        while let Some(&x) = self.visited.get(head) {
            head += 1;
            let dx = self.dist[x.index()];
            if dx == max_depth {
                continue;
            }
            let ids = g.incident_ids(x);
            for (i, &y) in g.neighbors(x).iter().enumerate() {
                let dy = self.dist[y.index()];
                if dy == UNREACHABLE {
                    if keep(y, dx + 1) {
                        self.dist[y.index()] = dx + 1;
                        self.parent[y.index()] = (x, ids[i]);
                        self.visited.push(y);
                    }
                } else if dy == dx + 1 && x < self.parent[y.index()].0 {
                    self.parent[y.index()] = (x, ids[i]);
                }
            }
        }
    }

    /// [`ClusterBfs::grow`] with `keep(y, d) = d < bound[y]` and no depth
    /// bound, for the `bound` array `truncation` was built from: the same
    /// members, depths, parents and tree edges, only the order of
    /// [`ClusterBfs::tree`] within a level may differ.
    ///
    /// The scan of `x` at depth `dx` stops at the first neighbour `y` with
    /// `bound[y] ≤ dx + 1`. Every later neighbour has a bound no larger,
    /// and none of them matters: `keep` rejects it at depth `dx + 1`, and
    /// it cannot already sit at depth `dx + 1`, since entering there
    /// needed `dx + 1 < bound[y]`. So a truncated cluster costs the edges
    /// that can still admit a member, not the runs of its members.
    pub fn grow_truncated(&mut self, truncation: &Truncation, center: NodeId) {
        let Truncation { offsets, runs } = truncation;
        self.start(center);
        let mut head = 0;
        while let Some(&x) = self.visited.get(head) {
            head += 1;
            let dy = self.dist[x.index()] + 1;
            let run = &runs[offsets[x.index()] as usize..offsets[x.index() + 1] as usize];
            for &(b, y, e) in run {
                if b <= dy {
                    break;
                }
                let d = self.dist[y.index()];
                if d == UNREACHABLE {
                    self.dist[y.index()] = dy;
                    self.parent[y.index()] = (x, e);
                    self.visited.push(y);
                } else if d == dy && x < self.parent[y.index()].0 {
                    self.parent[y.index()] = (x, e);
                }
            }
        }
    }

    /// Forgets the last cluster and seeds `center` at depth 0.
    fn start(&mut self, center: NodeId) {
        for &v in &self.visited {
            self.dist[v.index()] = UNREACHABLE;
        }
        self.visited.clear();
        self.dist[center.index()] = 0;
        self.visited.push(center);
    }

    /// Depth of `v` in the last cluster; [`UNREACHABLE`] if not reached.
    pub fn dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }

    /// `v`'s parent and tree edge in the last cluster; `None` for the
    /// center and for nodes not reached.
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        let d = self.dist[v.index()];
        (d != 0 && d != UNREACHABLE).then(|| self.parent[v.index()])
    }

    /// Every reached node but the center as `(node, depth, parent, tree
    /// edge)`, in BFS order.
    pub fn tree(&self) -> impl Iterator<Item = (NodeId, u32, NodeId, EdgeId)> + '_ {
        self.visited.iter().skip(1).map(|&v| {
            let (p, e) = self.parent[v.index()];
            (v, self.dist[v.index()], p, e)
        })
    }
}

/// A graph's CSR runs reordered for [`ClusterBfs::grow_truncated`]:
/// each node's run as `(bound[y], y, edge id)` triples by descending
/// bound (ties by ascending `y`), indexed by the graph's own CSR offsets.
///
/// Built once per `bound` array in O(m log Δ); it takes 12 bytes per
/// half-edge. The bound sits inline because the scan tests it on every
/// neighbour it reads: `(y, edge id)` pairs plus a `bound[y]` read (8
/// bytes per half-edge), or the three fields as separate arrays, were no
/// faster on G(n, m), paths or grids, and the pairs were up to a fifth
/// slower on G(n, m).
#[derive(Debug, Clone)]
pub struct Truncation<'a> {
    offsets: &'a [u32],
    runs: Vec<(u32, NodeId, EdgeId)>,
}

impl<'a> Truncation<'a> {
    /// The truncation of `g` by `bound`, one entry per node.
    ///
    /// # Panics
    ///
    /// Panics if `bound` does not have one entry per node of `g`.
    pub fn new(g: &'a Graph, bound: &[u32]) -> Self {
        assert_eq!(bound.len(), g.node_count(), "one bound per node");
        let (offsets, targets) = g.csr().parts();
        let mut runs = Vec::with_capacity(targets.len());
        for v in g.nodes() {
            let start = runs.len();
            runs.extend(g.incident(v).map(|(y, e)| (bound[y.index()], y, e)));
            runs[start..].sort_unstable_by_key(|&(b, y, _)| (Reverse(b), y));
        }
        Truncation { offsets, runs }
    }
}

/// BFS distances from `src` in `adj`, bounded by `radius` (`u32::MAX`
/// for unbounded) — the one BFS body every distance wrapper here calls.
///
/// For a spanner, pass its adjacency `g.csr().subgraph(span)`; building it
/// once lets callers amortize it over many queries.
pub fn bfs_distances_in_subgraph(adj: &CsrAdjacency, src: NodeId, radius: u32) -> Vec<Option<u32>> {
    let mut dist = vec![None; adj.node_count()];
    let mut queue = VecDeque::new();
    dist[src.index()] = Some(0);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued node has distance");
        if du == radius {
            continue;
        }
        for &v in adj.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Convenience wrapper: distances from `src` within the subgraph `span` of
/// `g` (unbounded radius). Builds the subgraph adjacency each call; for
/// repeated queries build it once and call [`bfs_distances_in_subgraph`].
pub fn subgraph_distances(g: &Graph, span: &EdgeSet, src: NodeId) -> Vec<Option<u32>> {
    bfs_distances_in_subgraph(&g.csr().subgraph(span), src, u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn bfs_on_path() {
        let g = path(6);
        let d = bfs_distances(&g, NodeId(0));
        for (v, dv) in d.iter().enumerate() {
            assert_eq!(*dv, Some(v as u32));
        }
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn multi_source_attribution_min_id() {
        // 0 - 1 - 2 - 3 - 4 with sources {0, 4}: node 2 is equidistant,
        // must be attributed to source 0 (minimum id).
        let g = path(5);
        let r = multi_source_bfs(&g, &[NodeId(4), NodeId(0)]);
        assert_eq!(r.dist[2], Some(2));
        assert_eq!(r.source[2], Some(NodeId(0)));
        assert_eq!(r.source[3], Some(NodeId(4)));
    }

    #[test]
    fn multi_source_no_sources() {
        let g = path(3);
        let r = multi_source_bfs(&g, &[]);
        assert!(r.dist.iter().all(|d| d.is_none()));
    }

    #[test]
    fn multi_source_equals_single_source() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let r = multi_source_bfs(&g, &[NodeId(2)]);
        let d = bfs_distances(&g, NodeId(2));
        assert_eq!(r.dist, d);
        assert!(r.source.iter().all(|&s| s == Some(NodeId(2))));
    }

    #[test]
    fn multi_source_same_layer_min_wins() {
        // Diamond: sources 1 and 2 both adjacent to 3; 3 attributed to 1.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let r = multi_source_bfs(&g, &[NodeId(1), NodeId(2)]);
        assert_eq!(r.source[3], Some(NodeId(1)));
        assert_eq!(r.source[0], Some(NodeId(1)));
    }

    #[test]
    fn bfs_tree_paths() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]);
        let t = bfs_tree(&g, NodeId(0));
        let p = t.path_to_root(NodeId(2)).unwrap();
        assert_eq!(p.len(), 3); // 2 -> 1 -> 0
        assert_eq!(p[0], NodeId(2));
        assert_eq!(*p.last().unwrap(), NodeId(0));
    }

    #[test]
    fn cluster_bfs_truncates_and_resets() {
        // 0 - 1 - 2 - 3 - 4 plus the chord 0 - 2.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
        let mut bfs = ClusterBfs::new(5);
        bfs.grow(&g, NodeId(0), u32::MAX, |y, _| y != NodeId(3));
        let reached: Vec<NodeId> = bfs.tree().map(|(v, ..)| v).collect();
        assert_eq!(reached, [NodeId(1), NodeId(2)]);
        assert_eq!(bfs.dist(NodeId(3)), UNREACHABLE);
        assert_eq!(bfs.parent(NodeId(0)), None);
        let (p, e) = bfs.parent(NodeId(2)).unwrap();
        assert_eq!(
            (p, e),
            (NodeId(0), g.find_edge(NodeId(0), NodeId(2)).unwrap())
        );
        // A second grow from another center forgets the first cluster.
        bfs.grow(&g, NodeId(4), 1, |_, _| true);
        let reached: Vec<NodeId> = bfs.tree().map(|(v, ..)| v).collect();
        assert_eq!(reached, [NodeId(3)]);
        assert_eq!(bfs.dist(NodeId(0)), UNREACHABLE);
        assert_eq!(bfs.dist(NodeId(4)), 0);
    }

    #[test]
    fn cluster_bfs_min_id_parent() {
        // Diamond 0 - {2, 1} - 3: 3's parent is 1 whichever is entered first.
        let g = Graph::from_edges(4, [(0, 2), (0, 1), (2, 3), (1, 3)]);
        let mut bfs = ClusterBfs::new(4);
        bfs.grow(&g, NodeId(0), u32::MAX, |_, _| true);
        assert_eq!(bfs.parent(NodeId(3)).map(|(p, _)| p), Some(NodeId(1)));
        assert_eq!(bfs_tree(&g, NodeId(0)).parent[3], Some(NodeId(1)));
    }

    #[test]
    fn subgraph_bfs_respects_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut s = crate::EdgeSet::new(&g);
        // keep only the path 0-1-2-3
        for (e, u, v) in g.edges() {
            if !(u == NodeId(0) && v == NodeId(3)) {
                s.insert(e);
            }
        }
        let d = subgraph_distances(&g, &s, NodeId(0));
        assert_eq!(d[3], Some(3)); // chord excluded
        let dg = bfs_distances(&g, NodeId(0));
        assert_eq!(dg[3], Some(1));
    }
}
