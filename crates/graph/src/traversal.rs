//! Breadth-first search in the flavors the spanner algorithms need.
//!
//! * plain single-source BFS distances,
//! * radius-bounded BFS (the `ℓ^i`-balls of Fibonacci spanners),
//! * multi-source BFS with source attribution (nearest sampled vertex
//!   `p_i(v)` with minimum-identifier tie-breaking, exactly as Sect. 4.1
//!   specifies),
//! * BFS trees and path extraction,
//! * BFS over an [`EdgeSet`] subgraph (for stretch evaluation without
//!   materializing the spanner).
//!
//! Every distance BFS here is one body over the shared [`CsrAdjacency`],
//! [`bfs_distances_in_subgraph`]; the [`Graph`]-taking names call it on
//! [`Graph::csr`].

use std::collections::VecDeque;

use crate::csr::CsrAdjacency;
use crate::edgeset::EdgeSet;
use crate::graph::{Graph, NodeId};

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

/// Multi-source BFS with deterministic attribution.
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
/// neighbor is chosen, making the tree deterministic.
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

/// One shortest path from `src` to `dst` (inclusive of both), or `None` if
/// disconnected. Deterministic (min-id parents).
pub fn shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    let t = bfs_tree(g, src);
    let mut p = t.path_to_root(dst)?;
    p.reverse();
    Some(p)
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
    fn shortest_path_endpoints() {
        let g = path(7);
        let p = shortest_path(&g, NodeId(1), NodeId(5)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(1)));
        assert_eq!(p.last(), Some(&NodeId(5)));
        assert_eq!(p.len(), 5);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn shortest_path_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(shortest_path(&g, NodeId(0), NodeId(3)).is_none());
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
