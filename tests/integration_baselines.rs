//! Cross-crate integration: all baseline algorithms honour their
//! guarantees on shared workloads, and the Fig. 1 ordering relations hold
//! (who is sparser, who stretches less).

use ultrasparse_spanners::baselines::{additive2, baswana_sen, bfs_skeleton, greedy};
use ultrasparse_spanners::graph::distance::{PairSample, Pairs};
use ultrasparse_spanners::graph::{generators, verify_stretch, StretchBound};
use ultrasparse_spanners::netsim::{Executor, NullSink};

#[test]
fn all_baselines_guarantee_matrix() {
    let g = generators::connected_gnm(400, 4_000, 3);

    let forest = bfs_skeleton::build(&g);
    assert!(forest.is_spanning(&g));
    assert_eq!(forest.len(), g.node_count() - 1);

    for k in [2u32, 3] {
        let p = baswana_sen::BaswanaSenParams::new(k).unwrap();
        let bound = StretchBound::multiplicative((2 * k - 1) as f64);
        for s in [
            baswana_sen::build_sequential(&g, &p, 5),
            baswana_sen::build_distributed_csr(g.csr(), &p, 5).expect("run"),
        ] {
            assert!(s.is_spanning(&g));
            verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| bound.allows(d, ds))
                .unwrap_or_else(|viol| panic!("BS k={k}: {viol}"));
        }
    }

    for k in [2u32, 3] {
        let s = greedy::build(&g, k);
        assert!(s.is_spanning(&g));
        let bound = StretchBound::multiplicative((2 * k - 1) as f64);
        verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| bound.allows(d, ds))
            .unwrap_or_else(|viol| panic!("greedy k={k}: {viol}"));
        assert!(greedy::has_greedy_girth(&g, &s, k));
    }

    let add2 = additive2::build(&g, 7);
    assert!(add2.is_spanning(&g));
    let plus2 = StretchBound::additive(2);
    verify_stretch(&g, &add2.edges, Pairs::All, 1, |d, ds| plus2.allows(d, ds))
        .unwrap_or_else(|viol| panic!("additive2: {viol}"));
}

#[test]
fn fig1_ordering_relations() {
    // Dense workload where the asymptotic rankings show.
    let g = generators::connected_gnm(1_500, 30_000, 11);

    let forest = bfs_skeleton::build(&g);
    let greedy_log = greedy::linear_size_skeleton(&g);
    let bs2 = baswana_sen::build_sequential(&g, &baswana_sen::BaswanaSenParams::new(2).unwrap(), 5);
    let skel = ultrasparse_spanners::core::skeleton::build_sequential(
        &g,
        &ultrasparse_spanners::core::skeleton::SkeletonParams::default(),
        5,
    );

    // Size ordering: forest <= greedy-log ~ skeleton << BS k=2 << m.
    assert!(forest.len() <= greedy_log.len());
    assert!(skel.len() < bs2.len());
    assert!(bs2.len() < g.edge_count());
    // Linear-size group really is linear.
    assert!(greedy_log.len() < 3 * g.node_count());
    assert!(skel.len() < 6 * g.node_count());

    // Stretch ordering (sampled): the denser BS k=2 spanner beats the
    // linear-size skeleton. (The BFS forest's *mean* stretch can actually
    // be decent on low-diameter inputs — its failure mode is the worst
    // case, bounded only by the diameter.)
    let sample = PairSample::new(&g, 600, 1, 1);
    let rb = bs2.stretch(&g, Pairs::Sampled(&sample), 1);
    let rs = skel.stretch(&g, Pairs::Sampled(&sample), 1);
    assert!(rb.max_multiplicative <= 3.0);
    assert!(rb.max_multiplicative <= rs.max_multiplicative);
}

#[test]
fn distributed_baselines_round_counts() {
    let g = generators::connected_gnm(500, 2_500, 7);
    let p = baswana_sen::BaswanaSenParams::new(4).unwrap();
    let s = baswana_sen::build_distributed_csr(g.csr(), &p, 3).expect("run");
    let m = s.metrics.unwrap();
    // O(k) rounds with unit-ish messages — the Fig. 1 row for [10].
    assert!(m.rounds <= p.k + 2);
    assert_eq!(m.max_message_words, 2);

    let f =
        bfs_skeleton::build_distributed(g.csr(), 3, 4_000, &Executor::Sequential, &mut NullSink)
            .expect("run");
    let fm = f.metrics.unwrap();
    assert!(fm.rounds < 4_000);
}
