//! Baswana–Sen on **weighted** graphs — the Fig. 1 row the paper calls
//! *"optimal in all respects, save for a factor of k in the spanner
//! size"*.
//!
//! The weighted algorithm refines the unweighted one with least-weight
//! edge selection and explicit edge retirement: when `v` joins the
//! sampled cluster reachable by its lightest edge (weight W), it also
//! connects once to every adjacent cluster offering an edge *lighter*
//! than W, and all edges from `v` to those clusters retire from further
//! consideration. The result is a (2k−1)-spanner **with respect to
//! weighted distances**, expected size O(kn + log k·n^{1+1/k}) (with the
//! paper's corrected log k factor).

use spanner_graph::weighted::WeightedGraph;
use spanner_graph::{EdgeId, EdgeSet, NodeId};
use ultrasparse::expand::ClusterSampler;
use ultrasparse::Spanner;

use crate::baswana_sen::BaswanaSenParams;

/// Builds the weighted Baswana–Sen (2k−1)-spanner. Deterministic in
/// `seed`.
pub fn build_weighted(g: &WeightedGraph, params: &BaswanaSenParams, seed: u64) -> Spanner {
    let n = g.node_count();
    let mut spanner = EdgeSet::new(g.graph());
    if n == 0 {
        return Spanner::from_edges(spanner);
    }
    let p = params.probability(n);
    let sampler = ClusterSampler::new(seed);

    // cluster[v]: Some(center) while clustered; retired[e]: edge removed
    // from further consideration.
    let mut cluster: Vec<Option<NodeId>> = g.graph().nodes().map(Some).collect();
    let mut retired: Vec<bool> = vec![false; g.edge_count()];

    // Lightest live edge from v to each adjacent cluster:
    // (weight, edge, cluster center), sorted by cluster for dedup.
    let adjacent = |g: &WeightedGraph, retired: &[bool], cluster: &[Option<NodeId>], v: NodeId| {
        let cv = cluster[v.index()];
        let mut adj: Vec<(NodeId, u32, EdgeId)> = Vec::new();
        for (w, e) in g.graph().incident(v) {
            if retired[e.index()] {
                continue;
            }
            if let Some(cw) = cluster[w.index()] {
                if Some(cw) != cv {
                    adj.push((cw, g.weight(e), e));
                }
            }
        }
        adj.sort_unstable_by_key(|&(c, wt, e)| (c, wt, e));
        adj.dedup_by_key(|&mut (c, _, _)| c);
        adj
    };

    for iter in 0..params.k.saturating_sub(1) {
        let mut next = cluster.clone();
        for v in g.graph().nodes() {
            let Some(cv) = cluster[v.index()] else {
                continue;
            };
            if sampler.sampled(cv, iter, p) {
                continue;
            }
            let adj = adjacent(g, &retired, &cluster, v);
            // The lightest edge into a *sampled* cluster, by (weight, edge).
            let best = adj
                .iter()
                .filter(|&&(c, _, _)| sampler.sampled(c, iter, p))
                .min_by_key(|&&(_, wt, e)| (wt, e))
                .copied();
            match best {
                None => {
                    // Connect once to every adjacent cluster; retire all
                    // of v's live edges; v leaves the clustering.
                    for &(_, _, e) in &adj {
                        spanner.insert(e);
                    }
                    for (_, e) in g.graph().incident(v) {
                        retired[e.index()] = true;
                    }
                    next[v.index()] = None;
                }
                Some((cstar, wstar, estar)) => {
                    spanner.insert(estar);
                    next[v.index()] = Some(cstar);
                    // Clusters offering strictly lighter edges: connect
                    // and retire; also retire all edges into c*.
                    let lighter: Vec<NodeId> = adj
                        .iter()
                        .filter(|&&(c, wt, e)| c != cstar && (wt, e) < (wstar, estar))
                        .map(|&(c, _, _)| c)
                        .collect();
                    for &(c, _, e) in &adj {
                        if lighter.contains(&c) {
                            spanner.insert(e);
                        }
                    }
                    for (w, e) in g.graph().incident(v) {
                        if retired[e.index()] {
                            continue;
                        }
                        if let Some(cw) = cluster[w.index()] {
                            if cw == cstar || lighter.contains(&cw) {
                                retired[e.index()] = true;
                            }
                        }
                    }
                }
            }
        }
        cluster = next;
        // Retire intra-cluster edges of the new clustering.
        for (e, a, b) in g.graph().edges() {
            if let (Some(ca), Some(cb)) = (cluster[a.index()], cluster[b.index()]) {
                if ca == cb {
                    retired[e.index()] = true;
                }
            }
        }
    }

    // Phase 2: lightest live edge to each adjacent final cluster.
    for v in g.graph().nodes() {
        for (_, _, e) in adjacent(g, &retired, &cluster, v) {
            spanner.insert(e);
        }
    }

    Spanner::from_edges(spanner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Pairs;
    use spanner_graph::generators;
    use spanner_graph::weighted::{walk_weighted_pairs, W_UNREACHABLE};
    use spanner_graph::StretchBound;
    use std::ops::ControlFlow;

    fn workload(n: usize, m: usize, wmax: u32, seed: u64) -> WeightedGraph {
        WeightedGraph::random_weights(generators::connected_gnm(n, m, seed), wmax, seed + 100)
    }

    /// The first pair `(u, v, host, in_spanner)`, over every source, whose
    /// weighted spanner distance breaks the (2k−1) bound.
    fn first_violation(g: &WeightedGraph, s: &Spanner, k: u32) -> Option<(u32, u32, u64, u64)> {
        let bound = StretchBound::multiplicative((2 * k - 1) as f64);
        let sources: Vec<NodeId> = g.graph().nodes().collect();
        walk_weighted_pairs(g, &s.edges, &sources, |u, v, d, ds| {
            if ds != W_UNREACHABLE && bound.allows(d, ds) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break((u.0, v.0, d, ds))
            }
        })
        .break_value()
    }

    #[test]
    fn weighted_stretch_guarantee() {
        for k in [2u32, 3] {
            let params = BaswanaSenParams::new(k).unwrap();
            let g = workload(150, 1_200, 20, k as u64);
            let s = build_weighted(&g, &params, 7);
            assert!(s.is_spanning(g.graph()), "k={k}");
            assert_eq!(first_violation(&g, &s, k), None, "k={k}");
        }
    }

    #[test]
    fn unit_weights_match_unweighted_guarantee() {
        let g0 = generators::connected_gnm(200, 1_500, 5);
        let g = WeightedGraph::new(g0.clone(), vec![1; g0.edge_count()]);
        let params = BaswanaSenParams::new(3).unwrap();
        let s = build_weighted(&g, &params, 9);
        assert!(s.is_spanning(&g0));
        let r = s.stretch(&g0, Pairs::All, 1);
        assert!(r.satisfies_multiplicative(5.0), "{}", r.max_multiplicative);
    }

    #[test]
    fn prefers_light_edges() {
        // Star of heavy edges + light cycle: the spanner should carry the
        // light cycle rather than heavy chords where possible. Check total
        // weight is far below keeping everything heavy.
        let n = 40u32;
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for i in 2..n - 1 {
            edges.push((0, i));
        }
        let g0 = spanner_graph::Graph::from_edges(n as usize, edges);
        let mut w = vec![0u32; g0.edge_count()];
        for (e, a, b) in g0.edges() {
            let cyclic = (b.0 == a.0 + 1) || (a.0 == 0 && b.0 == n - 1);
            w[e.index()] = if cyclic { 1 } else { 100 };
        }
        let g = WeightedGraph::new(g0.clone(), w);
        let params = BaswanaSenParams::new(2).unwrap();
        let s = build_weighted(&g, &params, 3);
        assert!(s.is_spanning(&g0));
        assert_eq!(first_violation(&g, &s, 2), None);
    }

    #[test]
    fn size_bound_dense() {
        let n = 1_500usize;
        let g = workload(n, 60_000, 50, 11);
        let params = BaswanaSenParams::new(3).unwrap();
        let s = build_weighted(&g, &params, 5);
        let bound = 2.0 * (3 * n) as f64 + 2.0 * (n as f64).powf(4.0 / 3.0);
        assert!((s.len() as f64) < bound, "{} vs {bound}", s.len());
        assert!(s.len() < g.edge_count());
    }

    #[test]
    fn k1_keeps_every_edge() {
        let g = workload(50, 300, 9, 2);
        let params = BaswanaSenParams::new(1).unwrap();
        let s = build_weighted(&g, &params, 1);
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn deterministic() {
        let g = workload(100, 600, 10, 4);
        let params = BaswanaSenParams::new(2).unwrap();
        let a = build_weighted(&g, &params, 6);
        let b = build_weighted(&g, &params, 6);
        assert_eq!(a.edges, b.edges);
    }
}
