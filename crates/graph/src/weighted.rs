//! Weighted graphs and shortest paths.
//!
//! The paper's Fig. 1 opens with Baswana–Sen's (2k−1)-spanner *"in
//! weighted graphs"* being optimal in all respects; reproducing that row
//! faithfully needs a weighted substrate: [`WeightedGraph`] attaches a
//! positive integer weight to every edge of a [`Graph`] (sharing its edge
//! ids, so [`EdgeSet`] spanners work unchanged) and
//! [`dijkstra`] provides exact weighted distances.
//!
//! Every weighted stretch question is a visitor on one pair walk,
//! [`walk_weighted_pairs`], which runs that one Dijkstra in the host graph
//! and in the spanner subgraph: the weighted (2k−1) check of the
//! Baswana–Sen tests and the max/mean stretch of `exp_weighted_bs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::edgeset::EdgeSet;
use crate::graph::{EdgeId, Graph, NodeId};

/// A positively weighted undirected simple graph: a [`Graph`] plus a
/// weight per edge (shared edge ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    weights: Vec<u32>,
}

/// Sentinel for unreachable weighted distances.
pub const W_UNREACHABLE: u64 = u64::MAX;

impl WeightedGraph {
    /// Attaches weights (by edge id) to a graph.
    ///
    /// # Panics
    ///
    /// Panics if the weight vector length differs from the edge count or
    /// any weight is zero.
    pub fn new(graph: Graph, weights: Vec<u32>) -> Self {
        assert_eq!(
            weights.len(),
            graph.edge_count(),
            "one weight per edge required"
        );
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        WeightedGraph { graph, weights }
    }

    /// Uniform random integer weights in `1..=max_weight`.
    ///
    /// # Panics
    ///
    /// Panics if `max_weight == 0`.
    pub fn random_weights(graph: Graph, max_weight: u32, seed: u64) -> Self {
        assert!(max_weight >= 1, "max_weight must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let weights = (0..graph.edge_count())
            .map(|_| rng.gen_range(1..=max_weight))
            .collect();
        WeightedGraph::new(graph, weights)
    }

    /// The underlying unweighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u32 {
        self.weights[e.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Total weight of an edge subset.
    pub fn total_weight(&self, edges: &EdgeSet) -> u64 {
        edges.iter().map(|e| u64::from(self.weight(e))).sum()
    }

    /// The subgraph of the edges in `span`, with their weights, on the
    /// same nodes. [`Graph::edge_subgraph`] numbers the kept edges in
    /// ascending host id, the order [`EdgeSet::iter`] lists them in.
    fn subgraph(&self, span: &EdgeSet) -> WeightedGraph {
        let graph = self.graph.edge_subgraph(|e| span.contains(e));
        let weights = span.iter().map(|e| self.weight(e)).collect();
        WeightedGraph::new(graph, weights)
    }
}

/// Single-source weighted distances by Dijkstra; `W_UNREACHABLE` where
/// disconnected. O((n + m) log n).
pub fn dijkstra(g: &WeightedGraph, src: NodeId) -> Vec<u64> {
    let mut dist = vec![W_UNREACHABLE; g.node_count()];
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for (v, e) in g.graph().incident(u) {
            let nd = d + u64::from(g.weight(e));
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// The one weighted stretch-check loop: for each of `sources` in the
/// given order (callers pass them ascending), visits every other node `v`
/// the host reaches, ascending, as `visit(u, v, host_distance,
/// spanner_distance)`, until `visit` returns [`ControlFlow::Break`], whose
/// value it returns. `spanner_distance` is [`W_UNREACHABLE`] where
/// `spanner` disconnects the pair.
///
/// Distances come from [`dijkstra`] in `g` and in the subgraph of
/// `spanner`, built once; each source costs two Dijkstras, so all-pairs
/// walks are for verification-sized inputs. Distances are symmetric, so
/// a walk over every source meets each pair from both ends, the smaller
/// first: a check that stops at its first violation reports it with
/// `u < v`.
pub fn walk_weighted_pairs<B>(
    g: &WeightedGraph,
    spanner: &EdgeSet,
    sources: &[NodeId],
    mut visit: impl FnMut(NodeId, NodeId, u64, u64) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let sub = g.subgraph(spanner);
    for &u in sources {
        let (host, span) = (dijkstra(g, u), dijkstra(&sub, u));
        for v in g.graph().nodes() {
            if v != u && host[v.index()] != W_UNREACHABLE {
                visit(u, v, host[v.index()], span[v.index()])?;
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::convert::Infallible;

    fn diamond() -> WeightedGraph {
        // 0-1 (1), 1-3 (1), 0-2 (5), 2-3 (1): shortest 0-3 is 2 via 1.
        let g = Graph::from_edges(4, [(0u32, 1), (1, 3), (0, 2), (2, 3)]);
        let mut w = vec![0u32; 4];
        w[g.find_edge(NodeId(0), NodeId(1)).unwrap().index()] = 1;
        w[g.find_edge(NodeId(1), NodeId(3)).unwrap().index()] = 1;
        w[g.find_edge(NodeId(0), NodeId(2)).unwrap().index()] = 5;
        w[g.find_edge(NodeId(2), NodeId(3)).unwrap().index()] = 1;
        WeightedGraph::new(g, w)
    }

    #[test]
    fn dijkstra_picks_light_paths() {
        let g = diamond();
        let d = dijkstra(&g, NodeId(0));
        assert_eq!(d[3], 2);
        assert_eq!(d[2], 3); // via 1,3 (1+1+1), not the weight-5 edge
    }

    #[test]
    fn dijkstra_unreachable() {
        let g = WeightedGraph::new(Graph::from_edges(3, [(0u32, 1)]), vec![2]);
        let d = dijkstra(&g, NodeId(0));
        assert_eq!(d[1], 2);
        assert_eq!(d[2], W_UNREACHABLE);
    }

    #[test]
    fn unit_weights_match_bfs() {
        let g0 = generators::connected_gnm(150, 600, 3);
        let g = WeightedGraph::new(g0.clone(), vec![1; g0.edge_count()]);
        for src in [NodeId(0), NodeId(77)] {
            let d = dijkstra(&g, src);
            let b = crate::traversal::bfs_distances(&g0, src);
            for v in g0.nodes() {
                assert_eq!(d[v.index()], u64::from(b[v.index()].unwrap()));
            }
        }
    }

    /// Every visit of a walk from `sources`, in walk order.
    fn visits(g: &WeightedGraph, span: &EdgeSet, sources: &[NodeId]) -> Vec<(u32, u32, u64, u64)> {
        let mut seen = Vec::new();
        let ControlFlow::Continue(()) = walk_weighted_pairs(g, span, sources, |u, v, d, s| {
            seen.push((u.0, v.0, d, s));
            ControlFlow::<Infallible>::Continue(())
        });
        seen
    }

    #[test]
    fn subgraph_dijkstra_respects_span() {
        let g = diamond();
        let mut span = EdgeSet::new(g.graph());
        // keep only 0-2 and 2-3
        span.insert(g.graph().find_edge(NodeId(0), NodeId(2)).unwrap());
        span.insert(g.graph().find_edge(NodeId(2), NodeId(3)).unwrap());
        assert_eq!(
            visits(&g, &span, &[NodeId(0)]),
            [(0, 1, 1, W_UNREACHABLE), (0, 2, 3, 5), (0, 3, 2, 6)]
        );
    }

    #[test]
    fn stretch_of_full_graph_is_one() {
        let g = WeightedGraph::random_weights(generators::connected_gnm(60, 200, 2), 10, 5);
        let sources: Vec<NodeId> = g.graph().nodes().collect();
        let full = visits(&g, &EdgeSet::full(g.graph()), &sources);
        assert_eq!(full.len(), 60 * 59);
        assert!(full.iter().all(|&(_, _, d, s)| d == s));
    }

    #[test]
    fn stretch_infinite_when_disconnecting() {
        let g = diamond();
        let sources = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let empty = visits(&g, &EdgeSet::new(g.graph()), &sources);
        assert_eq!(empty.len(), 4 * 3);
        assert!(empty.iter().all(|&(_, _, _, s)| s == W_UNREACHABLE));
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_zero_weight() {
        WeightedGraph::new(Graph::from_edges(2, [(0u32, 1)]), vec![0]);
    }

    #[test]
    fn random_weights_in_range() {
        let g = WeightedGraph::random_weights(generators::cycle(30), 7, 9);
        for (e, _, _) in g.graph().edges() {
            assert!((1..=7).contains(&g.weight(e)));
        }
        // Deterministic.
        let h = WeightedGraph::random_weights(generators::cycle(30), 7, 9);
        assert_eq!(g, h);
    }
}
