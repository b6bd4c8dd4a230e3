//! Property-based tests (proptest) on the core invariants, across random
//! graphs and parameters:
//!
//! * every construction yields a subgraph that preserves connectivity,
//! * measured stretch never exceeds the construction's certificate,
//! * spanner distances never undercut host distances (sanity of the
//!   measurement machinery itself),
//! * the tower sequence and Fibonacci identities of Lemmas 1 and 8,
//! * gadget structure (counts, spine distance) for arbitrary parameters.

use proptest::prelude::*;

use ultrasparse_spanners::baselines::baswana_sen;
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::graph::distance::Pairs;
use ultrasparse_spanners::graph::{generators, verify_stretch, Graph};
use ultrasparse_spanners::lowerbound::{Gadget, GadgetParams};

/// Strategy: a connected random graph with 10..=160 nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (10usize..=160, 1.2f64..4.0, any::<u64>()).prop_map(|(n, density, seed)| {
        let m = ((n as f64) * density) as usize;
        generators::connected_gnm(n, m.max(n - 1), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skeleton_always_spans_within_certificate(g in arb_graph(), seed in any::<u64>()) {
        let params = SkeletonParams::default();
        let s = skeleton::build_sequential(&g, &params, seed);
        prop_assert!(s.is_spanning(&g));
        let bound = params.schedule(g.node_count()).distortion_bound as f64;
        let r = s.stretch(&g, Pairs::All, 1);
        prop_assert_eq!(r.disconnected, 0);
        prop_assert!(r.max_multiplicative <= bound);
    }

    #[test]
    fn distributed_skeleton_always_spans(g in arb_graph(), seed in any::<u64>()) {
        let params = SkeletonParams::default();
        let s = skeleton::distributed::build_distributed_csr(g.csr(), &params, seed).expect("run");
        prop_assert!(s.is_spanning(&g));
    }

    #[test]
    fn fibonacci_envelope_always_holds(g in arb_graph(), seed in any::<u64>(), order in 1u32..=2) {
        let p = FibonacciParams::new(g.node_count(), order, 0.5, 0).expect("params");
        let s = fibonacci::build_sequential(&g, &p, seed);
        prop_assert!(s.is_spanning(&g));
        let viol = verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| {
            fibonacci::analysis::within_envelope(p.order, p.ell, d, ds)
        });
        prop_assert!(viol.is_ok(), "violation: {:?}", viol);
    }

    #[test]
    fn baswana_sen_always_within_stretch(g in arb_graph(), seed in any::<u64>(), k in 1u32..=4) {
        let p = baswana_sen::BaswanaSenParams::new(k).expect("params");
        let s = baswana_sen::build_sequential(&g, &p, seed);
        prop_assert!(s.is_spanning(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        prop_assert!(r.satisfies_multiplicative((2 * k - 1) as f64));
    }

    #[test]
    fn spanner_distances_never_undercut(g in arb_graph(), seed in any::<u64>()) {
        // The verification machinery itself: a subgraph can only increase
        // distances; StretchReport debug-asserts this, and here we check
        // the public aggregate is >= 1.
        let params = SkeletonParams::default();
        let s = skeleton::build_sequential(&g, &params, seed);
        let r = s.stretch(&g, Pairs::All, 1);
        prop_assert!(r.max_multiplicative >= 1.0);
        prop_assert!(r.mean_multiplicative >= 1.0);
    }

    #[test]
    fn tower_sequence_lemma1(d in 4u32..=16) {
        let s = ultrasparse_spanners::core::seq::tower_seq(d as f64, 1e300, 4);
        // s_2 = D^D and log s_3 = s_2 log s_2 (Lemma 1(2)).
        prop_assert!((s[2] - (d as f64).powi(d as i32)).abs() < 1e-6 * s[2]);
        // Lemma 1(3): s_i >= 2^{i+1} s_1...s_{i-1}.
        let mut prod = 1.0f64;
        for (i, &si) in s.iter().enumerate().take(4).skip(1) {
            prop_assert!(si >= 2f64.powi(i as i32 + 1) * prod * 0.999);
            prod *= si;
        }
    }

    #[test]
    fn fibonacci_probability_system_closes(n in 100usize..100_000, o in 1u32..=5) {
        let o = o.min(FibonacciParams::max_order(n));
        let p = FibonacciParams::new(n, o, 0.5, 0).expect("params");
        // Lemma 8: the recurrences force q_{o+1} ~ 1/n; our construction
        // clamps at 1/n, so the last ratio must not exceed n.
        let last = p.q.last().copied().unwrap_or(1.0);
        prop_assert!(last >= 1.0 / n as f64 - 1e-12);
        // Monotone non-increasing.
        let mut prev = 1.0f64;
        for &q in &p.q {
            prop_assert!(q <= prev + 1e-12);
            prev = q;
        }
    }

    #[test]
    fn gadget_structure(tau in 0u32..=6, lambda in 2u32..=8, kappa in 1u32..=10) {
        let g = Gadget::build(GadgetParams::new(tau, lambda, kappa).expect("params"));
        prop_assert!(g.graph.node_count() <
            (kappa as usize + 1) * lambda as usize * (tau as usize + 6));
        prop_assert_eq!(g.critical_edges.len(), kappa as usize);
        prop_assert_eq!(
            g.block_edges.len(),
            (kappa * lambda * lambda) as usize
        );
        if kappa >= 2 {
            let (u, v) = g.spine_pair();
            let d = ultrasparse_spanners::graph::traversal::bfs_distances(&g.graph, u)
                [v.index()].expect("connected");
            prop_assert_eq!(d as u64, g.spine_distance());
        }
    }

    #[test]
    fn edgeset_roundtrip(g in arb_graph(), mask in any::<u64>()) {
        use ultrasparse_spanners::graph::{EdgeSet, EdgeId};
        let mut s = EdgeSet::new(&g);
        let mut expect = Vec::new();
        for (e, _, _) in g.edges() {
            if (mask >> (e.0 % 64)) & 1 == 1 {
                s.insert(e);
                expect.push(e);
            }
        }
        let got: Vec<EdgeId> = s.iter().collect();
        prop_assert_eq!(got, expect);
        let h = s.to_graph(&g);
        prop_assert_eq!(h.edge_count(), s.len());
    }
}
