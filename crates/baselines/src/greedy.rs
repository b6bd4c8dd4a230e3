//! The greedy (2k−1)-spanner of Althöfer et al. \[4\].
//!
//! Scan the edges; add `{u, v}` to the spanner iff the current spanner
//! distance between `u` and `v` exceeds 2k−1. The result has girth > 2k,
//! hence (by the Moore bound) size O(n^{1+1/k}), and is a (2k−1)-spanner by
//! construction.
//!
//! At `k = ⌈log₂ n⌉` this is the classical **linear-size skeleton** with
//! O(log n) stretch — the centralized equivalent of the Dubhashi et al.
//! \[18\] row in the paper's Fig. 1 (see DESIGN.md §4: their distributed
//! algorithm may ship the whole topology to one vertex and run exactly this
//! kind of girth-based computation, which is why the paper develops the
//! contraction-based alternative).

use spanner_graph::girth::girth_exceeds;
use spanner_graph::{EdgeSet, Graph};
use ultrasparse::Spanner;

use crate::streaming::StreamingSpanner;

/// Builds the greedy (2k−1)-spanner. Deterministic (edge insertion order).
///
/// The edges of `g` are offered in id order to a [`StreamingSpanner`],
/// whose filter is exactly the greedy rule; each kept edge joins the
/// spanner. Per edge that is one bidirectional BFS in the growing spanner,
/// its two radii summing to at most 2k−1; the spanner has girth > 2k, so
/// the balls stay small and the Fig. 1 workload (n = 20,000, m = 160,000)
/// at k = ⌈log₂ n⌉ builds in seconds.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn build(g: &Graph, k: u32) -> Spanner {
    let mut filter = StreamingSpanner::new(g.node_count(), k);
    let mut edges = EdgeSet::new(g);
    for (e, u, v) in g.edges() {
        if filter.offer(u, v) {
            edges.insert(e);
        }
    }
    Spanner::from_edges(edges)
}

/// The linear-size skeleton instance: greedy with k = ⌈log₂ n⌉, giving an
/// O(log n)-spanner with O(n) edges (girth > 2 log n ⇒ < n + n^{1+1/log n}
/// ≈ 3n edges). Stands in for the Dubhashi et al. \[18\] Fig. 1 row.
pub fn linear_size_skeleton(g: &Graph) -> Spanner {
    let k = (g.node_count().max(2) as f64).log2().ceil() as u32;
    build(g, k.max(1))
}

/// Whether `s` has girth exceeding `2k` — the structural guarantee of the
/// greedy construction, exposed for tests and the E1 table.
pub fn has_greedy_girth(g: &Graph, s: &Spanner, k: u32) -> bool {
    let sub = s.edges.to_graph(g);
    girth_exceeds(&sub, 2 * k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::{PairSample, Pairs};
    use std::collections::VecDeque;

    use proptest::prelude::*;
    use spanner_graph::{generators, LinkedAdjacency};

    /// The body [`build`] had before it ran the streaming filter: one
    /// one-sided BFS bounded to depth 2k−1 per edge. The reference the
    /// proptest below checks [`build`] against.
    fn greedy_reference(g: &Graph, k: u32) -> Spanner {
        let threshold = 2 * k - 1;
        let mut edges = EdgeSet::new(g);
        let mut adj = LinkedAdjacency::new(g.node_count());
        let mut mark = vec![0u32; g.node_count()];
        let mut epoch = 0u32;
        let mut queue = VecDeque::new();
        for (e, u, v) in g.edges() {
            epoch += 1;
            mark[u.index()] = epoch;
            queue.clear();
            queue.push_back((u, 0u32));
            let mut within = false;
            while let Some((x, d)) = queue.pop_front() {
                if x == v {
                    within = true;
                    break;
                }
                if d == threshold {
                    continue;
                }
                for y in adj.neighbors(x) {
                    if mark[y.index()] != epoch {
                        mark[y.index()] = epoch;
                        queue.push_back((y, d + 1));
                    }
                }
            }
            if !within {
                edges.insert(e);
                adj.add_edge(u, v);
            }
        }
        Spanner::from_edges(edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn build_matches_greedy_reference(
            n in 2usize..=60,
            extra in 0usize..=240,
            seed in any::<u64>(),
        ) {
            let max_m = n * (n - 1) / 2;
            let g = generators::connected_gnm(n, (n - 1 + extra).min(max_m), seed);
            let log_n = (n as f64).log2().ceil() as u32;
            for k in 1..=log_n {
                let (fast, slow) = (build(&g, k), greedy_reference(&g, k));
                prop_assert_eq!(
                    fast.edges.iter().collect::<Vec<_>>(),
                    slow.edges.iter().collect::<Vec<_>>(),
                    "n {} m {} k {}", n, g.edge_count(), k
                );
            }
        }
    }

    #[test]
    fn stretch_and_girth_guarantees() {
        for k in [1u32, 2, 3] {
            let g = generators::connected_gnm(150, 2_000, k as u64);
            let s = build(&g, k);
            assert!(s.is_spanning(&g));
            let r = s.stretch(&g, Pairs::All, 1);
            assert!(
                r.satisfies_multiplicative((2 * k - 1) as f64),
                "k={k}: {}",
                r.max_multiplicative
            );
            assert!(has_greedy_girth(&g, &s, k), "k={k}");
        }
    }

    #[test]
    fn k1_keeps_everything() {
        let g = generators::erdos_renyi_gnm(60, 300, 2);
        let s = build(&g, 1);
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn size_bound_k2() {
        // Girth > 4 implies size <= (1/2)(1 + sqrt(4n-3)) * n / 2 ~ n^{3/2}.
        let n = 500usize;
        let g = generators::connected_gnm(n, 20_000, 3);
        let s = build(&g, 2);
        let bound = 0.5 * (n as f64) * (1.0 + ((4 * n - 3) as f64).sqrt()) / 2.0 + n as f64;
        assert!((s.len() as f64) < bound, "{} vs {bound}", s.len());
    }

    #[test]
    fn linear_size_skeleton_is_linear() {
        let n = 1_000usize;
        let g = generators::connected_gnm(n, 30_000, 7);
        let s = linear_size_skeleton(&g);
        assert!(s.is_spanning(&g));
        assert!(
            s.len() < 3 * n,
            "linear skeleton has {} edges on {n} nodes",
            s.len()
        );
        let r = s.stretch(&g, Pairs::Sampled(&PairSample::new(&g, 300, 1, 1)), 1);
        let bound = 2.0 * (n as f64).log2().ceil() - 1.0;
        assert!(r.max_multiplicative <= bound);
        assert_eq!(r.disconnected, 0);
    }

    #[test]
    fn tree_inputs_unchanged() {
        let g = generators::path(40);
        let s = build(&g, 3);
        assert_eq!(s.len(), 39);
    }
}
