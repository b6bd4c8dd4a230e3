//! Cluster table ↔ hash-map parity suite (property-based).
//!
//! The oracle's bunches and the routing tables live in one cluster-major
//! table: a dense row or a sorted run per centre. This suite keeps the
//! per-vertex `Vec<HashMap>` builders they replaced as test-only
//! references, built from the same level sampling, witnesses and
//! [`ClusterBfs`] trees, and holds the library to them on connected
//! G(n, m) graphs, grids, graphs of disjoint edges (one patched landmark
//! per component) and one giant component among isolated vertices, at
//! k = 1..4: every direct probe and landmark leg, `size()`, the induced
//! spanner, `table_entries()`, every address and the routes from 16
//! sources to every target must be equal.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::Rng;
use spanner_graph::components::connected_components;
use spanner_graph::distance::UNREACHABLE;
use spanner_graph::engine::MultiSourceFlat;
use spanner_graph::traversal::ClusterBfs;
use spanner_graph::{generators, DistanceEngine, EdgeSet, Graph, NodeId, NO_SOURCE};
use spanner_netsim::rng::node_rng;
use spanner_oracle::{Address, DistanceOracle, RoutingScheme};

/// The oracle as the per-vertex hash-map build left it: `bunch[v]` maps
/// each `w ∈ B(v)` to δ(w, v), plus the induced spanner's edges.
struct ReferenceOracle {
    bunch: Vec<HashMap<NodeId, u32>>,
    spanner_edges: EdgeSet,
}

fn reference_oracle(g: &Graph, k: u32, seed: u64) -> ReferenceOracle {
    let n = g.node_count();
    let p = (n.max(2) as f64).powf(-1.0 / k as f64);
    let level: Vec<u32> = g
        .nodes()
        .map(|v| {
            let mut rng = node_rng(seed, v.0, 3);
            let mut l = 0;
            for _ in 1..k {
                if rng.gen::<f64>() < p {
                    l += 1;
                } else {
                    break;
                }
            }
            l
        })
        .collect();
    let engine = DistanceEngine::new(g);
    let witness: Vec<MultiSourceFlat> = (0..k)
        .map(|i| {
            let sources: Vec<NodeId> = g.nodes().filter(|v| level[v.index()] >= i).collect();
            engine.nearest_sources(&sources)
        })
        .collect();
    let mut bunch: Vec<HashMap<NodeId, u32>> = vec![HashMap::new(); n];
    let mut spanner_edges = EdgeSet::new(g);
    let mut bfs = ClusterBfs::new(n);
    for w in g.nodes() {
        let trunc = witness.get(level[w.index()] as usize + 1);
        bfs.grow(g, w, u32::MAX, |y, d| {
            trunc.is_none_or(|t| d < t.dist[y.index()])
        });
        for (v, d, _, e) in bfs.tree() {
            bunch[v.index()].insert(w, d);
            spanner_edges.insert(e);
        }
    }
    for wit in &witness {
        for v in g.nodes() {
            if let Some((_, e)) = wit.parent(g, v) {
                spanner_edges.insert(e);
            }
        }
    }
    ReferenceOracle {
        bunch,
        spanner_edges,
    }
}

/// The routing scheme as the per-vertex hash-map build left it.
struct ReferenceRouting {
    toward_landmark: Vec<HashMap<NodeId, NodeId>>,
    cluster_hop: Vec<HashMap<NodeId, NodeId>>,
    addresses: Vec<Address>,
    landmark_count: usize,
}

fn reference_routing(g: &Graph, seed: u64) -> ReferenceRouting {
    let n = g.node_count();
    let p = (n.max(4) as f64).powf(-0.5);
    let mut is_landmark: Vec<bool> = g
        .nodes()
        .map(|v| node_rng(seed, v.0, 4).gen::<f64>() < p)
        .collect();
    let comps = connected_components(g);
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
    let nearest = DistanceEngine::new(g).nearest_sources(&landmarks);
    let mut toward_landmark: Vec<HashMap<NodeId, NodeId>> = vec![HashMap::new(); n];
    let mut cluster_hop: Vec<HashMap<NodeId, NodeId>> = vec![HashMap::new(); n];
    let mut bfs = ClusterBfs::new(n);
    for w in g.nodes() {
        let landmark = is_landmark[w.index()];
        bfs.grow(g, w, u32::MAX, |y, d| {
            landmark || d < nearest.dist[y.index()]
        });
        for (v, _, parent, _) in bfs.tree() {
            let table = if landmark {
                &mut toward_landmark
            } else {
                &mut cluster_hop
            };
            table[v.index()].insert(w, parent);
        }
    }
    let addresses: Vec<Address> = g
        .nodes()
        .map(|v| {
            let src = nearest.source[v.index()];
            let l = if src == NO_SOURCE { v } else { NodeId(src) };
            let mut path = Vec::new();
            let mut cur = v;
            while cur != l {
                path.push(cur);
                match toward_landmark[cur.index()].get(&l) {
                    Some(&p) => cur = p,
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
    ReferenceRouting {
        toward_landmark,
        cluster_hop,
        addresses,
        landmark_count: landmarks.len(),
    }
}

impl ReferenceRouting {
    /// The former `RoutingScheme::route`: a cluster entry for the target,
    /// else the next hop toward its landmark.
    fn route(&self, src: NodeId, addr: &Address) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut cur = src;
        let budget = 4 * self.addresses.len() + 16;
        while cur != addr.target && path.len() < budget {
            if let Some(pos) = addr.down_path.iter().position(|&x| x == cur) {
                path.extend_from_slice(&addr.down_path[pos + 1..]);
                return Some(path);
            }
            if cur == addr.landmark {
                path.extend_from_slice(&addr.down_path);
                return Some(path);
            }
            let hop = if let Some(&h) = self.cluster_hop[cur.index()].get(&addr.target) {
                h
            } else if let Some(&h) = self.toward_landmark[cur.index()].get(&addr.landmark) {
                h
            } else {
                return None;
            };
            path.push(hop);
            cur = hop;
        }
        (cur == addr.target).then_some(path)
    }

    fn table_entries(&self) -> usize {
        self.toward_landmark.iter().map(HashMap::len).sum::<usize>()
            + self.cluster_hop.iter().map(HashMap::len).sum::<usize>()
    }
}

/// One graph of the given shape with about `n` nodes: connected G(n, m),
/// a grid, n/2 disjoint edges, or a connected G(2n/3, m) whose nodes are
/// spread over the ids of n with isolated vertices between them.
fn graph(shape: u8, n: usize, m: usize, seed: u64) -> Graph {
    let connected = |n: usize| generators::connected_gnm(n, m.clamp(n - 1, n * (n - 1) / 2), seed);
    match shape % 4 {
        0 => connected(n),
        1 => {
            let rows = ((n as f64).sqrt() as usize).max(1);
            generators::grid(rows, n / rows)
        }
        2 => Graph::from_edges(n, (0..n as u32 / 2).map(|i| (2 * i, 2 * i + 1))),
        _ => {
            let giant = connected((2 * n / 3).max(2));
            let spread = |v: NodeId| 3 * v.0 / 2; // ids 2, 5, 8, … stay isolated
            let n = spread(NodeId(giant.node_count() as u32 - 1)) as usize + 2;
            Graph::from_edges(n, giant.edges().map(|(_, u, v)| (spread(u), spread(v))))
        }
    }
}

fn check_oracle(g: &Graph, k: u32, seed: u64) {
    let oracle = DistanceOracle::build(g, k, seed);
    let reference = reference_oracle(g, k, seed);
    for v in g.nodes() {
        let bunch = &reference.bunch[v.index()];
        for w in g.nodes() {
            let entry = if w == v {
                Some(0)
            } else {
                bunch.get(&w).copied()
            };
            assert_eq!(
                oracle.direct_distance(w, v),
                Ok(entry),
                "k = {k}, ({w}, {v})"
            );
            assert_eq!(
                oracle.landmark_leg(w, v),
                Ok(entry.unwrap_or(UNREACHABLE)),
                "k = {k}, ({w}, {v})"
            );
        }
    }
    let size: usize = reference.bunch.iter().map(HashMap::len).sum();
    assert_eq!(oracle.size(), size, "k = {k}");
    assert_eq!(
        oracle.to_spanner().edges,
        reference.spanner_edges,
        "k = {k}"
    );
}

fn check_routing(g: &Graph, seed: u64) {
    let scheme = RoutingScheme::build(g, seed);
    let reference = reference_routing(g, seed);
    assert_eq!(scheme.landmark_count(), reference.landmark_count);
    assert_eq!(scheme.table_entries(), reference.table_entries());
    for v in g.nodes() {
        assert_eq!(scheme.address(v), &reference.addresses[v.index()], "{v}");
    }
    let n = g.node_count();
    let mut sources: Vec<NodeId> = (0..16).map(|i| NodeId((i * n / 16) as u32)).collect();
    sources.dedup();
    for &src in &sources {
        for t in g.nodes() {
            let addr = scheme.address(t);
            assert_eq!(
                scheme.route(src, addr),
                reference.route(src, addr),
                "route {src} -> {t}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tables_match_hash_map_reference(
        n in 4usize..=150,
        m in 0usize..=600,
        shape in 0u8..4,
        k in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let g = graph(shape, n, m, seed);
        check_oracle(&g, k, seed);
        check_routing(&g, seed);
    }
}

/// Graphs large enough that the top-level clusters and the landmarks take
/// rows while the truncated clusters stay runs.
#[test]
fn large_graphs_match_hash_map_reference() {
    for shape in 0..4 {
        let g = graph(shape, 600, 2_400, 7 + u64::from(shape));
        for k in 1..=4 {
            check_oracle(&g, k, 3);
        }
        check_routing(&g, 3);
    }
}
