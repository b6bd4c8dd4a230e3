//! Weighted graphs and shortest paths.
//!
//! The paper's Fig. 1 opens with Baswana–Sen's (2k−1)-spanner *"in
//! weighted graphs"* being optimal in all respects; reproducing that row
//! faithfully needs a weighted substrate: [`WeightedGraph`] attaches a
//! positive integer weight to every edge of a [`Graph`] (sharing its edge
//! ids, so [`EdgeSet`] spanners work unchanged) and
//! [`dijkstra`] provides exact weighted distances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Weighted adjacency of the subgraph induced by an edge subset:
/// `adj[u]` lists `(v, w)` for every selected edge `{u, v}` of weight `w`.
///
/// Build this **once** per spanner and feed it to
/// [`dijkstra_in_adjacency`]; rebuilding (or filtering the host adjacency)
/// inside a per-source loop is O(n·m) of redundant work.
pub fn subgraph_adjacency(g: &WeightedGraph, span: &EdgeSet) -> Vec<Vec<(NodeId, u32)>> {
    let mut adj: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); g.node_count()];
    for e in span.iter() {
        let (a, b) = g.graph().endpoints(e);
        let w = g.weight(e);
        adj[a.index()].push((b, w));
        adj[b.index()].push((a, w));
    }
    adj
}

/// Dijkstra over a prebuilt weighted adjacency (see
/// [`subgraph_adjacency`]).
pub fn dijkstra_in_adjacency(adj: &[Vec<(NodeId, u32)>], src: NodeId) -> Vec<u64> {
    let mut dist = vec![W_UNREACHABLE; adj.len()];
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &(v, w) in &adj[u.index()] {
            let nd = d + u64::from(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Dijkstra restricted to an edge subset (for evaluating weighted
/// spanners). One-shot convenience; for many sources over the same
/// subset, build [`subgraph_adjacency`] once instead.
pub fn dijkstra_in_subgraph(g: &WeightedGraph, span: &EdgeSet, src: NodeId) -> Vec<u64> {
    dijkstra_in_adjacency(&subgraph_adjacency(g, span), src)
}

/// Worst multiplicative stretch of `span` over all connected pairs of `g`
/// (runs n Dijkstras in both graphs — verification-sized inputs only).
/// Returns `f64::INFINITY` if the spanner disconnects a connected pair.
pub fn weighted_stretch(g: &WeightedGraph, span: &EdgeSet) -> f64 {
    let adj = subgraph_adjacency(g, span);
    let mut worst: f64 = 1.0;
    for u in g.graph().nodes() {
        let host = dijkstra(g, u);
        let sub = dijkstra_in_adjacency(&adj, u);
        for v in g.graph().nodes() {
            if u == v || host[v.index()] == W_UNREACHABLE {
                continue;
            }
            if sub[v.index()] == W_UNREACHABLE {
                return f64::INFINITY;
            }
            worst = worst.max(sub[v.index()] as f64 / host[v.index()] as f64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

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

    #[test]
    fn subgraph_dijkstra_respects_span() {
        let g = diamond();
        let mut span = EdgeSet::new(g.graph());
        // keep only 0-2 and 2-3
        span.insert(g.graph().find_edge(NodeId(0), NodeId(2)).unwrap());
        span.insert(g.graph().find_edge(NodeId(2), NodeId(3)).unwrap());
        let d = dijkstra_in_subgraph(&g, &span, NodeId(0));
        assert_eq!(d[3], 6);
        assert_eq!(d[1], W_UNREACHABLE);
    }

    #[test]
    fn stretch_of_full_graph_is_one() {
        let g = WeightedGraph::random_weights(generators::connected_gnm(60, 200, 2), 10, 5);
        let full = EdgeSet::full(g.graph());
        assert_eq!(weighted_stretch(&g, &full), 1.0);
    }

    #[test]
    fn stretch_infinite_when_disconnecting() {
        let g = diamond();
        let span = EdgeSet::new(g.graph());
        assert_eq!(weighted_stretch(&g, &span), f64::INFINITY);
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
