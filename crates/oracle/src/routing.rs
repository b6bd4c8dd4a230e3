//! Compact routing — the second application of the paper's conclusion
//! (*"compact routing tables that guarantee approximately shortest
//! routes"*), in the Cowen / Thorup–Zwick style.
//!
//! The tables are the k = 2 Thorup–Zwick cluster forest over a landmark
//! set `L` (an ≈ n^{1/2}-size sample standing in for `A_1`, patched so
//! every component has one), built like the distance oracle's bunches:
//!
//! * a landmark's cluster is untruncated — its whole component — so every
//!   vertex keeps a next hop toward every landmark of its component; these
//!   trees come from [`DistanceEngine::batch_trees`], 64 landmarks per
//!   call;
//! * any other vertex `w` has the truncated cluster
//!   `C(w) = {x : δ(w,x) < δ(x, L)}`, grown by [`ClusterBfs`], and every
//!   member keeps a next hop toward `w`; total size O(n^{3/2}) in
//!   expectation.
//!
//! Next hops are the minimum-id parents of those BFS trees, kept in one
//! cluster table keyed by centre, landmark or not.
//!
//! A vertex's **address** is `(v, ℓ(v), reversed path ℓ(v) → v)` where
//! ℓ(v) is its nearest landmark (min-id tie-break) and the path is read
//! off the next hops toward ℓ(v). Routing from `u` to address(v) hops
//! toward `v` directly while the current vertex has a cluster entry for
//! `v`, otherwise toward `ℓ(v)`, finishing along the address path. The
//! delivered route provably satisfies
//!
//! ```text
//! |route| ≤ δ(u, v) + 2·δ(v, L)
//! ```
//!
//! i.e. multiplicative stretch ≤ 3 whenever δ(v, L) ≤ δ(u, v), and a small
//! additive surplus below that — the exact flavor of tradeoff the paper's
//! closing open problem asks about (`(3−ε)d + polylog` routes).

use rand::Rng;

use crate::table::{self, ClusterTable, Value};
use crate::QueryError;

use spanner_graph::traversal::ClusterBfs;
use spanner_graph::{DistanceEngine, Graph, NodeId, NO_SOURCE};
use spanner_netsim::rng::node_rng;

/// A routable address: who, their landmark, and the downhill path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Address {
    /// The destination vertex.
    pub target: NodeId,
    /// The destination's nearest landmark (min-id tie-break).
    pub landmark: NodeId,
    /// The path from the landmark to the target (exclusive of the
    /// landmark, inclusive of the target). Length δ(v, L).
    pub down_path: Vec<NodeId>,
}

impl Address {
    /// The label size in O(log n)-bit words.
    pub fn words(&self) -> usize {
        2 + self.down_path.len()
    }
}

/// Per-vertex routing state plus the global address book.
#[derive(Debug, Clone)]
pub struct RoutingScheme {
    /// `table.get(w, v)` is v's next hop toward w, for every v in w's
    /// component when w is a landmark and for every v ∈ C(w) otherwise.
    table: ClusterTable,
    /// Address of every vertex.
    addresses: Vec<Address>,
    landmark_count: usize,
}

impl RoutingScheme {
    /// Builds the scheme. Deterministic in `seed`. Landmarks are sampled
    /// with probability n^{−1/2} and patched so every component has one.
    pub fn build(g: &Graph, seed: u64) -> Self {
        let n = g.node_count();
        let p = (n.max(4) as f64).powf(-0.5);
        let mut is_landmark: Vec<bool> = g
            .nodes()
            .map(|v| node_rng(seed, v.0, 4).gen::<f64>() < p)
            .collect();
        // Ensure every component has a landmark (its min-id vertex).
        let comps = spanner_graph::components::connected_components(g);
        let mut has = vec![false; comps.count];
        for v in g.nodes() {
            if is_landmark[v.index()] {
                has[comps.labels[v.index()] as usize] = true;
            }
        }
        for v in g.nodes() {
            let c = comps.labels[v.index()] as usize;
            if !has[c] {
                is_landmark[v.index()] = true;
                has[c] = true;
            }
        }
        let landmarks: Vec<NodeId> = g.nodes().filter(|v| is_landmark[v.index()]).collect();

        // One cluster per vertex: untruncated for a landmark, built in
        // engine batches, and C(w) for any other w (see the module doc).
        let mut full = table::full_clusters(g, &comps, &landmarks, Value::NextHop).into_iter();
        let nearest = DistanceEngine::new(g).nearest_sources(&landmarks);
        let mut table = ClusterTable::new(n);
        let mut bfs = ClusterBfs::new(n);
        for w in g.nodes() {
            if is_landmark[w.index()] {
                table.push_full(full.next().expect("one cluster per landmark"));
                continue;
            }
            bfs.grow(g, w, u32::MAX, |y, d| d < nearest.dist[y.index()]);
            table.push(bfs.tree().map(|(v, _, parent, _)| (v, parent.0)));
        }

        // Addresses: nearest landmark + the path down its tree, read off
        // the next hops toward it.
        let addresses: Vec<Address> = g
            .nodes()
            .map(|v| {
                let src = nearest.source[v.index()];
                let l = if src == NO_SOURCE { v } else { NodeId(src) };
                let mut path = Vec::new();
                let mut cur = v;
                while cur != l {
                    path.push(cur);
                    match table.get(l, cur) {
                        Some(p) => cur = NodeId(p),
                        None => break,
                    }
                }
                path.reverse();
                Address {
                    target: v,
                    landmark: l,
                    down_path: path,
                }
            })
            .collect();

        RoutingScheme {
            table,
            addresses,
            landmark_count: landmarks.len(),
        }
    }

    /// Number of landmarks chosen.
    pub fn landmark_count(&self) -> usize {
        self.landmark_count
    }

    /// Total routing-table entries across all vertices (the scheme's
    /// space, excluding addresses).
    pub fn table_entries(&self) -> usize {
        self.table.len()
    }

    /// Number of vertices of the graph the scheme was built over; valid
    /// ids are `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.addresses.len()
    }

    /// The next-hop table, for the layout tests.
    #[cfg(test)]
    pub(crate) fn table(&self) -> &ClusterTable {
        &self.table
    }

    fn check(&self, v: NodeId) -> Result<(), QueryError> {
        if v.index() < self.node_count() {
            Ok(())
        } else {
            Err(QueryError::UnknownNode {
                node: v,
                nodes: self.node_count(),
            })
        }
    }

    /// The address of `v` (what a sender must know).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the underlying graph; use
    /// [`RoutingScheme::try_address`] for untrusted ids.
    pub fn address(&self, v: NodeId) -> &Address {
        &self.addresses[v.index()]
    }

    /// Fallible [`RoutingScheme::address`]: returns a typed
    /// [`QueryError`] instead of panicking on an out-of-range id.
    pub fn try_address(&self, v: NodeId) -> Result<&Address, QueryError> {
        self.check(v)?;
        Ok(&self.addresses[v.index()])
    }

    /// Routes from `src` to `target` in one call, validating both ids:
    /// [`RoutingScheme::try_address`] + [`RoutingScheme::route`] with a
    /// typed [`QueryError`] instead of a panic on out-of-range input.
    /// `Ok(None)` means the endpoints lie in different components.
    pub fn try_route(
        &self,
        src: NodeId,
        target: NodeId,
    ) -> Result<Option<Vec<NodeId>>, QueryError> {
        self.check(src)?;
        let addr = self.try_address(target)?;
        Ok(self.route(src, addr))
    }

    /// Routes a packet from `src` to `addr`, returning the vertex path
    /// (inclusive of both endpoints), or `None` if undeliverable
    /// (different components).
    ///
    /// The decision at each hop uses only that vertex's local table and
    /// the address — no global state.
    pub fn route(&self, src: NodeId, addr: &Address) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut cur = src;
        let budget = 4 * self.addresses.len() + 16; // safety net
        while cur != addr.target && path.len() < budget {
            // Phase 3: on the downhill path already?
            if let Some(pos) = addr.down_path.iter().position(|&x| x == cur) {
                path.extend_from_slice(&addr.down_path[pos + 1..]);
                return Some(path);
            }
            if cur == addr.landmark {
                path.extend_from_slice(&addr.down_path);
                return Some(path);
            }
            // Phase 1: direct cluster entry (a landmark target is its own
            // landmark, so its entry is the phase 2 hop); phase 2: toward
            // the destination's landmark.
            let Some(hop) = self
                .table
                .get(addr.target, cur)
                .or_else(|| self.table.get(addr.landmark, cur))
            else {
                return None; // different component
            };
            let hop = NodeId(hop);
            path.push(hop);
            cur = hop;
        }
        (cur == addr.target).then_some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Apsp;
    use spanner_graph::generators;
    use spanner_graph::traversal::multi_source_bfs;

    fn check_routes(g: &Graph, seed: u64) {
        let scheme = RoutingScheme::build(g, seed);
        let apsp = Apsp::new(g);
        let nearest = {
            let landmarks: Vec<NodeId> = g
                .nodes()
                .filter(|v| {
                    scheme.address(*v).down_path.is_empty() && scheme.address(*v).landmark == *v
                })
                .collect();
            multi_source_bfs(g, &landmarks)
        };
        for u in g.nodes() {
            for v in g.nodes() {
                let exact = apsp.dist(u, v);
                let route = scheme.route(u, scheme.address(v));
                if exact == spanner_graph::distance::UNREACHABLE {
                    assert!(route.is_none(), "({u},{v}) routed across components");
                    continue;
                }
                let route = route.unwrap_or_else(|| panic!("({u},{v}) undeliverable"));
                assert_eq!(*route.first().unwrap(), u);
                assert_eq!(*route.last().unwrap(), v);
                for w in route.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "non-edge hop {}-{}", w[0], w[1]);
                }
                let len = (route.len() - 1) as u32;
                let dvl = nearest.dist[v.index()].unwrap_or(0);
                assert!(
                    len <= exact + 2 * dvl,
                    "({u},{v}): route {len} > {exact} + 2*{dvl}"
                );
            }
        }
    }

    #[test]
    fn routes_on_random_graphs() {
        for seed in 0..3u64 {
            let g = generators::connected_gnm(120, 600, seed);
            check_routes(&g, seed + 40);
        }
    }

    #[test]
    fn routes_on_structured_graphs() {
        check_routes(&generators::grid(8, 10), 1);
        check_routes(&generators::cycle(50), 2);
        check_routes(&generators::caveman(6, 8, 4, 3), 3);
    }

    #[test]
    fn routes_on_disconnected_graph() {
        let g = Graph::from_edges(7, [(0u32, 1), (1, 2), (4, 5), (5, 6)]);
        check_routes(&g, 9);
    }

    #[test]
    fn table_space_subquadratic() {
        let n = 1_500;
        let g = generators::connected_gnm(n, 15_000, 7);
        let scheme = RoutingScheme::build(&g, 3);
        let entries = scheme.table_entries() as f64;
        // O(n^{3/2}) with modest constants (landmark trees dominate).
        assert!(
            entries < 8.0 * (n as f64).powf(1.5),
            "table entries {entries}"
        );
        assert!(scheme.landmark_count() >= 1);
        // Addresses are short on a dense graph.
        let max_label = g.nodes().map(|v| scheme.address(v).words()).max().unwrap();
        assert!(max_label < 16, "address label {max_label} words");
    }

    #[test]
    fn try_route_rejects_unknown_nodes_on_both_endpoints() {
        let g = generators::connected_gnm(30, 90, 13);
        let scheme = RoutingScheme::build(&g, 2);
        let bad = NodeId(30);
        let err = QueryError::UnknownNode {
            node: bad,
            nodes: 30,
        };
        assert_eq!(scheme.try_route(bad, NodeId(0)), Err(err));
        assert_eq!(scheme.try_route(NodeId(0), bad), Err(err));
        assert!(scheme.try_address(bad).is_err());
        // Valid pairs agree with the panicking path.
        for (a, b) in [(0u32, 29), (7, 7), (12, 3)] {
            let (u, v) = (NodeId(a), NodeId(b));
            assert_eq!(
                scheme.try_route(u, v),
                Ok(scheme.route(u, scheme.address(v)))
            );
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let g = generators::path(5);
        let scheme = RoutingScheme::build(&g, 1);
        let r = scheme.route(NodeId(2), scheme.address(NodeId(2))).unwrap();
        assert_eq!(r, vec![NodeId(2)]);
    }
}
