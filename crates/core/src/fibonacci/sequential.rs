//! Centralized Fibonacci spanner construction (Sect. 4.1).
//!
//! 1. Sample the level hierarchy `V_0 ⊇ V_1 ⊇ … ⊇ V_o` with the Lemma 8
//!    probabilities,
//! 2. connect every vertex to its nearest level-i vertex `p_i(v)` (minimum
//!    id among nearest, as in the paper) whenever
//!    `δ(v, p_i(v)) ≤ ℓ^{i-1}` — the parent forests,
//! 3. for each level i, connect every `v ∈ V_{i-1}` by a shortest path to
//!    every `u ∈ B_{i+1,ℓ}(v)` — the level-i vertices within distance
//!    `min(ℓ^i, δ(v, V_{i+1}) − 1)` of `v`.
//!
//! The spanner is the union of all those shortest paths; the construction
//! is deterministic given the seed.

use std::collections::VecDeque;

use rand::Rng;

use spanner_graph::traversal::multi_source_bfs;
use spanner_graph::{EdgeSet, Graph, NodeId};
use spanner_netsim::rng::node_rng;

use crate::fibonacci::params::FibonacciParams;
use crate::spanner::Spanner;

/// Samples the level hierarchy of an `n`-vertex input: `level[v]` is the
/// largest `i` with `v ∈ V_i`. Deterministic in `seed`; each vertex flips
/// its own coins keyed by id (matching the distributed construction, where
/// sampling is local), so no topology is needed.
pub fn sample_levels_n(n: usize, params: &FibonacciParams, seed: u64) -> Vec<u32> {
    (0..n)
        .map(|v| {
            let mut rng = node_rng(seed, v as u32, 1);
            let mut level = 0u32;
            for i in 1..=params.order {
                let keep = params.level_probability(i) / params.level_probability(i - 1);
                if rng.gen::<f64>() < keep {
                    level = i;
                } else {
                    break;
                }
            }
            level
        })
        .collect()
}

/// Builds the Fibonacci spanner centrally. Deterministic in `seed`.
pub fn build_sequential(g: &Graph, params: &FibonacciParams, seed: u64) -> Spanner {
    let levels = sample_levels_n(g.node_count(), params, seed);
    build_with_levels(g, params, &levels)
}

/// Builds the spanner for a **given** level assignment (exposed so tests
/// and the distributed implementation can share exact level hierarchies).
pub fn build_with_levels(g: &Graph, params: &FibonacciParams, levels: &[u32]) -> Spanner {
    assert_eq!(levels.len(), g.node_count(), "level vector length mismatch");
    let n = g.node_count();
    let mut edges = EdgeSet::new(g);
    if n == 0 {
        return Spanner::from_edges(edges);
    }

    let members =
        |i: u32| -> Vec<NodeId> { g.nodes().filter(|v| levels[v.index()] >= i).collect() };

    // Nearest-level-(i) data for i = 1..=order (+ the empty level o+1).
    // nearest[i][v] = (distance, attributed min-id source), if any.
    let mut level_bfs = Vec::with_capacity(params.order as usize + 2);
    level_bfs.push(None); // index 0 unused (V_0 = V)
    for i in 1..=params.order {
        let srcs = members(i);
        level_bfs.push(Some(multi_source_bfs(g, &srcs)));
    }
    level_bfs.push(None); // V_{order+1} = ∅

    // 2. Parent forests: P(v, p_i(v)) for δ(v, V_i) ≤ ℓ^{i-1}.
    for i in 1..=params.order {
        let bfs = level_bfs[i as usize].as_ref().expect("computed above");
        let radius = params.ball_radius(i - 1);
        for v in g.nodes() {
            let Some(d) = bfs.dist[v.index()] else {
                continue;
            };
            if d == 0 || d as u64 > radius {
                continue;
            }
            let src = bfs.source[v.index()].expect("attributed");
            // Parent: min-id neighbor one step closer with the same
            // attributed source (always exists; see traversal docs).
            let parent = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|w| {
                    bfs.dist[w.index()] == Some(d - 1) && bfs.source[w.index()] == Some(src)
                })
                .min()
                .expect("shortest-path parent with same attribution exists");
            let e = g.find_edge(v, parent).expect("neighbor edge");
            edges.insert(e);
        }
    }

    // 3. Ball paths per level.
    //
    // Level 0 (the S_0 term): v includes all incident edges iff
    // δ(v, V_1) ≥ 2 (every neighbor is then in B_{1,ℓ}(v)).
    {
        let d1 = level_bfs
            .get(1)
            .and_then(|o| o.as_ref())
            .map(|b| b.dist.clone());
        for v in g.nodes() {
            let dv1 = match (&d1, params.order) {
                (Some(d), _) => d[v.index()],
                (None, _) => None,
            };
            let truncation_allows = match dv1 {
                Some(d) => d >= 2,
                None => true, // no level-1 vertex at all
            };
            if truncation_allows {
                for (_, e) in g.incident(v) {
                    edges.insert(e);
                }
            }
        }
    }

    // Levels 1..=order: BFS out of each u ∈ V_i bounded by ℓ^i; include
    // the shortest path to every qualifying v ∈ V_{i-1}.
    let mut dist = vec![u32::MAX; n];
    let mut parent: Vec<NodeId> = vec![NodeId(0); n];
    let mut touched: Vec<usize> = Vec::new();
    for i in 1..=params.order {
        let radius = params.ball_radius(i);
        let trunc = level_bfs
            .get(i as usize + 1)
            .and_then(|o| o.as_ref())
            .map(|b| &b.dist);
        for &u in &members(i) {
            // Bounded BFS from u with min-id parents.
            debug_assert!(touched.is_empty());
            dist[u.index()] = 0;
            touched.push(u.index());
            let mut queue = VecDeque::from([u]);
            while let Some(x) = queue.pop_front() {
                let dx = dist[x.index()];
                if dx as u64 == radius {
                    continue;
                }
                for &y in g.neighbors(x) {
                    if dist[y.index()] == u32::MAX {
                        dist[y.index()] = dx + 1;
                        parent[y.index()] = x;
                        touched.push(y.index());
                        queue.push_back(y);
                    } else if dist[y.index()] == dx + 1 && x < parent[y.index()] {
                        parent[y.index()] = x;
                    }
                }
            }
            // Path inclusion for qualifying targets v ∈ V_{i-1}.
            for &vi in &touched {
                let v = NodeId(vi as u32);
                let d = dist[vi];
                if d == 0 || levels[vi] < i - 1 {
                    continue;
                }
                if let Some(td) = trunc {
                    if let Some(t) = td[vi] {
                        if d >= t {
                            continue; // not closer than V_{i+1}
                        }
                    }
                }
                // Walk the shortest path v → u, adding its edges.
                let mut cur = v;
                while cur != u {
                    let p = parent[cur.index()];
                    let e = g.find_edge(cur, p).expect("BFS tree edge");
                    if !edges.insert(e) {
                        // Path suffix already present *for this source*?
                        // Not necessarily — different sources share edges —
                        // so keep walking regardless.
                    }
                    cur = p;
                }
            }
            // Reset scratch.
            for &t in &touched {
                dist[t] = u32::MAX;
            }
            touched.clear();
        }
    }

    Spanner::from_edges(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibonacci::analysis::distortion_envelope;
    use spanner_graph::generators;

    fn params(n: usize, o: u32) -> FibonacciParams {
        FibonacciParams::new(n, o, 0.5, 0).unwrap()
    }

    #[test]
    fn levels_are_monotone_sets() {
        let g = generators::erdos_renyi_gnm(2_000, 6_000, 3);
        let p = params(2_000, 3);
        let levels = sample_levels_n(g.node_count(), &p, 7);
        // |V_i| roughly q_i * n.
        for i in 1..=p.order {
            let size = levels.iter().filter(|&&l| l >= i).count() as f64;
            let expect = p.level_probability(i) * 2_000.0;
            assert!(
                size < 3.0 * expect + 30.0,
                "level {i}: {size} vs expected {expect}"
            );
        }
        // Deterministic.
        assert_eq!(levels, sample_levels_n(g.node_count(), &p, 7));
        assert_ne!(levels, sample_levels_n(g.node_count(), &p, 8));
    }

    #[test]
    fn spanning_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::connected_gnm(600, 2_400, seed);
            let p = params(600, 2);
            let s = build_sequential(&g, &p, seed + 10);
            assert!(s.is_spanning(&g), "seed {seed}");
        }
    }

    #[test]
    fn spanning_on_structured_graphs() {
        let p = params(400, 2);
        for g in [
            generators::grid(20, 20),
            generators::cycle(400),
            generators::caveman(20, 20, 10, 5),
        ] {
            let s = build_sequential(&g, &p, 3);
            assert!(s.is_spanning(&g));
        }
    }

    /// The distortion envelope of Theorem 7 / Corollary 1 holds exactly on
    /// every pair — the analysis is deterministic, so any violation is an
    /// implementation bug.
    #[test]
    fn envelope_holds_exactly_small() {
        for (gi, g) in [
            generators::connected_gnm(300, 700, 5),
            generators::grid(15, 20),
            generators::cycle(250),
        ]
        .iter()
        .enumerate()
        {
            let p = params(g.node_count(), 2);
            let s = build_sequential(g, &p, 11);
            let viol = s.check_envelope_exact(g, |d| distortion_envelope(p.order, p.ell, d as u64));
            assert!(viol.is_none(), "graph {gi}: {viol:?}");
        }
    }

    #[test]
    fn envelope_holds_order3_sampled() {
        let g = generators::connected_gnm(3_000, 9_000, 9);
        let p = params(3_000, 3);
        let s = build_sequential(&g, &p, 4);
        assert!(s.is_spanning(&g));
        let viol = s.check_envelope_sampled(&g, 2_000, 5, |d| {
            distortion_envelope(p.order, p.ell, d as u64)
        });
        assert!(viol.is_none(), "{viol:?}");
    }

    /// Higher order gives a sparser spanner on dense graphs.
    #[test]
    fn order_controls_size() {
        let g = generators::connected_gnm(4_000, 60_000, 2);
        let s1 = build_sequential(&g, &params(4_000, 1), 3);
        let s2 = build_sequential(&g, &params(4_000, 2), 3);
        assert!(s1.is_spanning(&g));
        assert!(s2.is_spanning(&g));
        assert!(
            s2.len() < s1.len(),
            "order 2 ({}) should be sparser than order 1 ({})",
            s2.len(),
            s1.len()
        );
    }

    /// Size stays within the Lemma 8 prediction (with slack for the
    /// union-of-paths overcounting being an upper bound).
    #[test]
    fn size_within_prediction() {
        let g = generators::connected_gnm(5_000, 50_000, 8);
        let p = params(5_000, 2);
        let s = build_sequential(&g, &p, 13);
        assert!(
            (s.len() as f64) < 2.0 * p.expected_size() + 5_000.0,
            "size {} vs prediction {}",
            s.len(),
            p.expected_size()
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = spanner_graph::Graph::empty(0);
        let p = FibonacciParams::new(4, 1, 0.5, 0).unwrap();
        let s = build_with_levels(&g, &p, &[]);
        assert_eq!(s.len(), 0);

        let g1 = spanner_graph::Graph::from_edges(4, [(0u32, 1), (1, 2), (2, 3)]);
        let s1 = build_sequential(&g1, &p, 1);
        assert!(s1.is_spanning(&g1));
    }

    /// With every vertex at level 0 (forced), the spanner keeps all edges
    /// (no level-1 vertices to truncate the S_0 balls).
    #[test]
    fn all_level_zero_keeps_everything() {
        let g = generators::erdos_renyi_gnm(100, 300, 4);
        let p = params(100, 2);
        let s = build_with_levels(&g, &p, &vec![0; 100]);
        assert_eq!(s.len(), g.edge_count());
    }

    /// Deterministic in seed.
    #[test]
    fn deterministic() {
        let g = generators::connected_gnm(500, 2_000, 6);
        let p = params(500, 2);
        let a = build_sequential(&g, &p, 42);
        let b = build_sequential(&g, &p, 42);
        assert_eq!(a.edges, b.edges);
    }
}
