//! The one adjacency layout: every way of building a [`Graph`] yields the
//! shared sorted CSR plus an edge-id column that agrees with
//! [`CsrEdgeIndex`], and a graph rebuilt from its own CSR is the same
//! graph.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spanner_graph::{Graph, GraphBuilder, NodeId};

/// A raw edge list with loops, duplicates and both orientations.
fn raw_edges(n: usize, m: usize, rng: &mut SmallRng) -> Vec<(u32, u32)> {
    (0..m)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect()
}

/// Checks the layout invariants of `g`.
fn assert_layout(g: &Graph, label: &str) {
    let csr = g.csr();
    let index = csr.edge_index();
    assert_eq!(index.edge_count(), g.edge_count(), "{label}");
    let mut half_edges = 0;
    for v in g.nodes() {
        let run = g.neighbors(v);
        assert!(
            run.windows(2).all(|w| w[0] < w[1]),
            "{label}: run of {v} not strictly ascending"
        );
        assert_eq!(run, csr.neighbors(v), "{label}: {v}");
        for (w, e) in g.incident(v) {
            assert_eq!(index.edge_id(csr, v, w), Some(e), "{label}: {v}-{w}");
            assert_eq!(g.find_edge(v, w), Some(e), "{label}: {v}-{w}");
            let (a, b) = g.endpoints(e);
            assert_eq!((a, b), (v.min(w), v.max(w)), "{label}: {e}");
            half_edges += 1;
        }
    }
    assert_eq!(half_edges, 2 * g.edge_count(), "{label}");
    assert!(
        g.edges().eq(csr.forward_edges()),
        "{label}: edge ids out of order"
    );
    assert_eq!(&Graph::from_csr(csr.clone()), g, "{label}: from_csr");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_constructor_yields_the_one_layout(
        n in 1usize..=40,
        m in 0usize..=160,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let raw = raw_edges(n, m, &mut rng);

        let g = Graph::from_edges(n, raw.iter().copied());
        assert_layout(&g, "from_edges");

        let mut canonical: Vec<(u32, u32)> = raw
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        canonical.sort_unstable();
        canonical.dedup();
        let sorted = Graph::from_sorted_edges(n, canonical);
        assert_layout(&sorted, "from_sorted_edges");
        prop_assert_eq!(&sorted, &g);

        let mut b = GraphBuilder::new(n);
        for &(u, v) in &raw {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let built = b.build();
        assert_layout(&built, "GraphBuilder");
        prop_assert_eq!(&built, &g);

        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        assert_layout(&g.relabel(&perm), "relabel");

        let region: Vec<NodeId> = g.nodes().filter(|_| rng.gen_bool(0.6)).collect();
        let (sub, host) = g.induced_subgraph(&region);
        assert_layout(&sub, "induced_subgraph");
        prop_assert_eq!(host.len(), sub.edge_count());

        let keep: Vec<bool> = (0..g.edge_count()).map(|_| rng.gen_bool(0.5)).collect();
        let kept = g.edge_subgraph(|e| keep[e.index()]);
        assert_layout(&kept, "edge_subgraph");
        prop_assert_eq!(kept.edge_count(), keep.iter().filter(|&&k| k).count());
    }
}
