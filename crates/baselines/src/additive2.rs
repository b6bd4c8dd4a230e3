//! The additive 2-spanner of Aingworth, Chekuri, Indyk & Motwani \[3\].
//!
//! Split vertices by degree at threshold Δ:
//!
//! * **low-degree** vertices (deg < Δ) contribute all their edges,
//! * **high-degree** vertices are dominated by a small hitting set `R`
//!   (every high-degree vertex has a neighbor in R; a random sample of
//!   Θ((n/Δ) log n) works w.h.p., plus the edge to its dominator), and the
//!   spanner adds a **full BFS tree from every vertex of R**.
//!
//! Any shortest path either uses only low-degree vertices (all present) or
//! touches a high-degree vertex `w`; routing through `w`'s dominator
//! `r ∈ R` via the BFS tree of `r` costs at most +2. Choosing Δ = √(n log n)
//! gives size O(n^{3/2} √log n).
//!
//! The paper proves (Theorem 5) that **no** distributed algorithm can
//! compute such a spanner quickly: additive 2-spanners of size n^{1+δ}
//! need Ω(√(n^{1−δ}/2)) rounds. This centralized implementation is the
//! contrast row for experiment E7.

use rand::Rng;

use spanner_graph::traversal::ClusterBfs;
use spanner_graph::{EdgeSet, Graph, NodeId};
use spanner_netsim::rng::node_rng;
use ultrasparse::Spanner;

/// Builds the additive 2-spanner with degree threshold
/// Δ = ⌈√(n·ln n)⌉. Deterministic in `seed`.
pub fn build(g: &Graph, seed: u64) -> Spanner {
    let n = g.node_count();
    let delta = ((n.max(2) as f64) * (n.max(2) as f64).ln()).sqrt().ceil() as usize;
    build_with_threshold(g, delta.max(1), seed)
}

/// Builds the additive 2-spanner with an explicit degree threshold Δ.
///
/// # Panics
///
/// Panics if `delta == 0`.
pub fn build_with_threshold(g: &Graph, delta: usize, seed: u64) -> Spanner {
    assert!(delta >= 1, "threshold must be positive");
    let n = g.node_count();
    let mut edges = EdgeSet::new(g);
    if n == 0 {
        return Spanner::from_edges(edges);
    }

    // Low-degree vertices keep all incident edges.
    let mut high: Vec<NodeId> = Vec::new();
    for v in g.nodes() {
        if g.degree(v) < delta {
            for (_, e) in g.incident(v) {
                edges.insert(e);
            }
        } else {
            high.push(v);
        }
    }

    if high.is_empty() {
        return Spanner::from_edges(edges);
    }

    // Hitting set R: sample each vertex with probability
    // min(1, 3 ln n / Δ); then greedily add a dominator for any
    // still-undominated high-degree vertex (making the construction Las
    // Vegas rather than Monte Carlo).
    let p = (3.0 * (n as f64).ln() / delta as f64).min(1.0);
    let mut in_r = vec![false; n];
    for v in g.nodes() {
        let mut rng = node_rng(seed, v.0, 2);
        if rng.gen::<f64>() < p {
            in_r[v.index()] = true;
        }
    }
    for &h in &high {
        let dominated = in_r[h.index()] || g.neighbors(h).iter().any(|w| in_r[w.index()]);
        if !dominated {
            in_r[h.index()] = true;
        }
    }

    // Each high-degree vertex keeps one edge to a dominator (or is itself
    // in R); plus a full BFS tree from every vertex of R.
    for &h in &high {
        if in_r[h.index()] {
            continue;
        }
        // Runs are ascending: the first R neighbor is the min-id one.
        let (_, e) = g
            .incident(h)
            .find(|(w, _)| in_r[w.index()])
            .expect("dominated by construction");
        edges.insert(e);
    }
    let mut bfs = ClusterBfs::new(n);
    for r in g.nodes().filter(|v| in_r[v.index()]) {
        bfs.grow(g, r, u32::MAX, |_, _| true);
        for (_, _, _, e) in bfs.tree() {
            edges.insert(e);
        }
    }

    Spanner::from_edges(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Pairs;
    use spanner_graph::generators;

    #[test]
    fn additive_two_guarantee() {
        for seed in 0..3u64 {
            let g = generators::connected_gnm(250, 4_000, seed);
            let s = build(&g, seed + 100);
            assert!(s.is_spanning(&g));
            let r = s.stretch(&g, Pairs::All, 1);
            assert!(
                r.satisfies_additive(2),
                "seed {seed}: additive distortion {}",
                r.max_additive
            );
        }
    }

    #[test]
    fn additive_two_on_dense_graph() {
        let g = generators::connected_gnm(300, 40_000, 4);
        let s = build(&g, 9);
        let r = s.stretch(&g, Pairs::All, 1);
        assert!(r.satisfies_additive(2), "{}", r.max_additive);
        // It sparsifies a dense graph (n = 300 is far from asymptopia, so
        // only a modest factor is expected here; the E1 table shows the
        // n^{3/2} scaling at larger n).
        assert!(s.len() < 3 * g.edge_count() / 4, "{}", s.len());
    }

    #[test]
    fn sparse_graph_kept_entirely() {
        // Every vertex is low degree: spanner = graph, additive 0.
        let g = generators::cycle(100);
        let s = build(&g, 1);
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn threshold_one_means_all_high() {
        // Δ = 1: every non-isolated vertex is high-degree; the spanner is
        // a union of BFS trees + dominator edges, still additive-2.
        let g = generators::connected_gnm(120, 1_500, 6);
        let s = build_with_threshold(&g, 1, 2);
        assert!(s.is_spanning(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        assert!(r.satisfies_additive(2), "{}", r.max_additive);
    }

    #[test]
    fn size_scaling_n_three_halves() {
        // Size O(n^{3/2} sqrt(log n)) with modest constants.
        let n = 1_000usize;
        let g = generators::connected_gnm(n, 120_000, 8);
        let s = build(&g, 3);
        let bound = 8.0 * (n as f64).powf(1.5) * (n as f64).ln().sqrt();
        assert!((s.len() as f64) < bound, "{} vs {bound}", s.len());
    }

    #[test]
    fn empty_graph() {
        let g = spanner_graph::Graph::empty(0);
        let s = build(&g, 1);
        assert!(s.is_empty());
    }
}
