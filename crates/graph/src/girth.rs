//! Girth computation.
//!
//! The classical route to a linear-size spanner (Althöfer et al.) keeps a
//! subgraph with girth > 2k; the tests use girth to validate the greedy
//! baseline and the benches use it to contrast the paper's approach, which
//! *"guarantees sparseness without disallowing short cycles"* (Sect. 2).

use crate::graph::Graph;

/// Length of the shortest cycle in `g`, or `None` if `g` is a forest.
///
/// Delegates to the flat-frontier engine: one pruned BFS per vertex —
/// the standard O(n·m) exact algorithm — over the shared CSR layout.
/// Girth is inherently per-source work (the shared-bound pruning and
/// non-tree-edge detection have no bit-parallel analogue), so it ignores
/// the engine's [`Strategy`](crate::engine::Strategy) verdict: it runs
/// one BFS per source on every graph.
pub fn girth(g: &Graph) -> Option<u32> {
    crate::engine::DistanceEngine::new(g).girth()
}

/// Whether `g` has girth strictly greater than `k` (true for forests).
pub fn girth_exceeds(g: &Graph, k: u32) -> bool {
    girth(g).is_none_or(|gth| gth > k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_has_no_girth() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)]);
        assert_eq!(girth(&g), None);
        assert!(girth_exceeds(&g, 1_000_000));
    }

    #[test]
    fn triangle_girth_three() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(girth(&g), Some(3));
        assert!(!girth_exceeds(&g, 3));
        assert!(girth_exceeds(&g, 2));
    }

    #[test]
    fn cycle_girth_is_length() {
        for n in [4u32, 5, 9, 16] {
            let g = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)));
            assert_eq!(girth(&g), Some(n));
        }
    }

    #[test]
    fn theta_graph_girth() {
        // Two vertices joined by paths of lengths 2, 3, 4: girth = 2+3 = 5.
        // 0 -a- 1; paths 0-2-1, 0-3-4-1, 0-5-6-7-1
        let g = Graph::from_edges(
            8,
            [
                (0, 2),
                (2, 1),
                (0, 3),
                (3, 4),
                (4, 1),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 1),
            ],
        );
        assert_eq!(girth(&g), Some(5));
    }

    #[test]
    fn petersen_girth_five() {
        // Petersen graph: outer 5-cycle, inner pentagram, spokes.
        let outer = (0u32..5).map(|i| (i, (i + 1) % 5));
        let inner = (0u32..5).map(|i| (5 + i, 5 + (i + 2) % 5));
        let spokes = (0u32..5).map(|i| (i, i + 5));
        let g = Graph::from_edges(10, outer.chain(inner).chain(spokes));
        assert_eq!(girth(&g), Some(5));
    }

    #[test]
    fn multigraph_style_parallel_paths() {
        // Two vertices joined by two length-2 paths: girth 4.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
        assert_eq!(girth(&g), Some(4));
    }
}
