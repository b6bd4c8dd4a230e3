//! Cross-crate integration: the application layer (distance oracles and
//! compact routing) composed with the spanner machinery — the paper's
//! conclusion claims these are where spanners matter; here they are built
//! on the same substrate and verified against the same exact-distance
//! oracles.

use ultrasparse_spanners::graph::distance::{Apsp, UNREACHABLE};
use ultrasparse_spanners::graph::traversal::subgraph_distances;
use ultrasparse_spanners::graph::{generators, verify_stretch, NodeId, Pairs, StretchBound};
use ultrasparse_spanners::oracle::{DistanceOracle, RoutingScheme};

#[test]
fn oracle_and_spanner_agree_on_guarantee() {
    let g = generators::connected_gnm(300, 2_400, 5);
    for k in [2u32, 3] {
        let oracle = DistanceOracle::build(&g, k, 9);
        let spanner = oracle.to_spanner();
        assert!(spanner.is_spanning(&g));
        // The induced spanner respects the (2k-1) guarantee on every pair.
        let bound = StretchBound::multiplicative((2 * k - 1) as f64);
        verify_stretch(&g, &spanner.edges, Pairs::All, 1, |d, ds| {
            bound.allows(d, ds)
        })
        .unwrap_or_else(|viol| panic!("k={k}: {viol}"));
        // The oracle's estimate is realizable inside its induced spanner:
        // query(u,v) is a distance of an actual path, so the spanner's
        // exact distance is at most the query estimate, and both respect
        // the (2k-1) guarantee.
        let apsp = Apsp::new(&g);
        let stretch = (2 * k - 1) as u64;
        for &(a, b) in &[(0u32, 200), (17, 255), (40, 111), (3, 299)] {
            let (u, v) = (NodeId(a), NodeId(b));
            let exact = apsp.dist(u, v) as u64;
            let est = oracle.query(u, v) as u64;
            let in_spanner =
                subgraph_distances(&g, &spanner.edges, u)[v.index()].expect("spanner spans") as u64;
            assert!(est <= stretch * exact, "k={k}: oracle estimate");
            assert!(in_spanner <= est, "k={k}: estimate realizable in spanner");
            assert!(in_spanner >= exact);
        }
    }
}

#[test]
fn routing_stretch_tracks_oracle_stretch() {
    // Both the k=2 oracle and the landmark routing scheme use the same
    // truncated clusters; their realized stretches on the same pairs are
    // both small and the routes are realizable paths.
    let g = generators::connected_gnm(250, 1_800, 7);
    let oracle = DistanceOracle::build(&g, 2, 3);
    let scheme = RoutingScheme::build(&g, 3);
    let apsp = Apsp::new(&g);
    let mut worst_route = 1.0f64;
    let mut worst_query = 1.0f64;
    for a in (0..250u32).step_by(11) {
        for b in (1..250u32).step_by(13) {
            if a == b {
                continue;
            }
            let (u, v) = (NodeId(a), NodeId(b));
            let exact = apsp.dist(u, v);
            if exact == UNREACHABLE {
                continue;
            }
            let route = scheme.route(u, scheme.address(v)).expect("deliverable");
            worst_route = worst_route.max((route.len() - 1) as f64 / exact as f64);
            worst_query = worst_query.max(oracle.query(u, v) as f64 / exact as f64);
        }
    }
    assert!(worst_query <= 3.0 + 1e-9, "oracle stretch {worst_query}");
    // Routing pays at most + 2 δ(v, L) — small on this dense workload.
    assert!(worst_route <= 5.0, "route stretch {worst_route}");
}

#[test]
fn applications_work_on_sparse_skeletons() {
    // Build the paper's skeleton first, then run the applications ON the
    // skeleton — the "sparse substitute for the communications network"
    // story of the introduction, end to end.
    let g = generators::connected_gnm(400, 6_000, 11);
    let params = ultrasparse_spanners::core::skeleton::SkeletonParams::default();
    let skeleton = ultrasparse_spanners::core::skeleton::build_sequential(&g, &params, 5);
    let sub = skeleton.edges.to_graph(&g);

    // Oracle over the skeleton: guarantees hold w.r.t. skeleton distances.
    let oracle = DistanceOracle::build(&sub, 2, 3);
    let apsp = Apsp::new(&sub);
    for &(a, b) in &[(0u32, 399), (10, 200), (77, 310)] {
        let (u, v) = (NodeId(a), NodeId(b));
        let exact = apsp.dist(u, v) as u64;
        let est = oracle.query(u, v) as u64;
        assert!(est <= 3 * exact);
        assert!(est >= exact);
    }
    // Routing over the skeleton delivers everywhere.
    let scheme = RoutingScheme::build(&sub, 9);
    for v in [NodeId(1), NodeId(200), NodeId(399)] {
        assert!(scheme.route(NodeId(0), scheme.address(v)).is_some());
    }
}
