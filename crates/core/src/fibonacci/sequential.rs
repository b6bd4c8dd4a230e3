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

use rand::Rng;

use spanner_graph::engine::MultiSourceFlat;
use spanner_graph::traversal::ClusterBfs;
use spanner_graph::{DistanceEngine, EdgeSet, Graph, NodeId};
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

    // nearest[i - 1]: distance to V_i and the attributed min-id p_i(v), for
    // i = 1..=order (V_{order+1} = ∅ has no entry).
    let engine = DistanceEngine::new(g);
    let nearest: Vec<MultiSourceFlat> = (1..=params.order)
        .map(|i| engine.nearest_sources(&members(i)))
        .collect();

    // 2. Parent forests: P(v, p_i(v)) for δ(v, V_i) ≤ ℓ^{i-1}.
    for (i, forest) in (1..).zip(&nearest) {
        let radius = params.ball_radius(i - 1);
        for v in g.nodes() {
            if u64::from(forest.dist[v.index()]) > radius {
                continue;
            }
            if let Some((_, e)) = forest.parent(g, v) {
                edges.insert(e);
            }
        }
    }

    // 3. Ball paths per level.
    //
    // Level 0 (the S_0 term): v includes all incident edges iff
    // δ(v, V_1) ≥ 2 (every neighbor is then in B_{1,ℓ}(v)).
    for v in g.nodes() {
        if nearest.first().is_none_or(|f| f.dist[v.index()] >= 2) {
            for (_, e) in g.incident(v) {
                edges.insert(e);
            }
        }
    }

    // Levels 1..=order: BFS out of each u ∈ V_i bounded by ℓ^i; include
    // the shortest path to every qualifying v ∈ V_{i-1}.
    let mut bfs = ClusterBfs::new(n);
    for i in 1..=params.order {
        let radius = u32::try_from(params.ball_radius(i)).unwrap_or(u32::MAX);
        let trunc = nearest.get(i as usize);
        for &u in &members(i) {
            bfs.grow(g, u, radius, |_, _| true);
            for (v, d, _, _) in bfs.tree() {
                // Qualifying targets: in V_{i-1} and closer to u than to
                // V_{i+1}.
                if levels[v.index()] < i - 1 || trunc.is_some_and(|t| d >= t.dist[v.index()]) {
                    continue;
                }
                // Walk the tree path v → u, adding its edges (different
                // targets share suffixes, so the walk never stops early).
                let mut cur = v;
                while let Some((p, e)) = bfs.parent(cur) {
                    edges.insert(e);
                    cur = p;
                }
            }
        }
    }

    Spanner::from_edges(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibonacci::analysis::within_envelope;
    use spanner_graph::distance::{PairSample, Pairs};
    use spanner_graph::{generators, verify_stretch};

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
            let viol = verify_stretch(g, &s.edges, Pairs::All, 1, |d, ds| {
                within_envelope(p.order, p.ell, d, ds)
            });
            assert!(viol.is_ok(), "graph {gi}: {viol:?}");
        }
    }

    #[test]
    fn envelope_holds_order3_sampled() {
        let g = generators::connected_gnm(3_000, 9_000, 9);
        let p = params(3_000, 3);
        let s = build_sequential(&g, &p, 4);
        assert!(s.is_spanning(&g));
        let sample = PairSample::new(&g, 2_000, 5, 1);
        let viol = verify_stretch(&g, &s.edges, Pairs::Sampled(&sample), 1, |d, ds| {
            within_envelope(p.order, p.ell, d, ds)
        });
        assert!(viol.is_ok(), "{viol:?}");
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
