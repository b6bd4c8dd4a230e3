//! Cross-crate integration: the Sect. 3 lower-bound machinery against the
//! actual spanner algorithms — the gadget really does defeat fast
//! algorithms, and the paper's structural claims hold on built instances.

use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::graph::distance::{PairSample, Pairs};
use ultrasparse_spanners::lowerbound::adversary::{
    measure_spine_distortion, predicted_spine_additive, select, Strategy,
};
use ultrasparse_spanners::lowerbound::gadget::droppable_edges;
use ultrasparse_spanners::lowerbound::{Gadget, GadgetParams};

#[test]
fn gadget_spine_cost_is_two_per_drop() {
    let g = Gadget::build(GadgetParams::new(4, 5, 20).unwrap());
    for keep in [0.0, 0.25, 0.75] {
        let trials = 6;
        let mut total = 0.0;
        for seed in 0..trials {
            let sel = select(
                &g,
                Strategy::GenerousCritical {
                    keep_fraction: keep,
                },
                seed,
            );
            let m = measure_spine_distortion(&g, &sel);
            assert!(sel.spanner.is_spanning(&g.graph));
            total += m.additive as f64;
        }
        let measured = total / trials as f64;
        let predicted = predicted_spine_additive(&g, keep);
        assert!(
            (measured - predicted).abs() <= 0.5 * predicted + 2.0,
            "keep={keep}: measured {measured} vs predicted {predicted}"
        );
    }
}

#[test]
fn only_block_edges_are_locally_droppable() {
    let g = Gadget::build(GadgetParams::new(3, 3, 4).unwrap());
    let droppable = droppable_edges(&g.graph, g.params.tau);
    let blocks: std::collections::HashSet<_> = g.block_edges.iter().copied().collect();
    assert_eq!(droppable.len(), blocks.len());
    for e in droppable {
        assert!(blocks.contains(&e), "chain edge {e} wrongly droppable");
    }
}

/// The paper's algorithms are *multiplicative* spanner algorithms — they
/// never claim additive guarantees, and on the gadget they indeed keep
/// the chains (distances along the spine survive) while pruning blocks.
#[test]
fn skeleton_on_gadget_behaves_multiplicatively() {
    // Dense blocks: the linear-size budget cannot keep them all.
    let g = Gadget::build(GadgetParams::new(2, 14, 8).unwrap());
    let params = SkeletonParams::default();
    let s = skeleton::build_sequential(&g.graph, &params, 5);
    assert!(s.is_spanning(&g.graph));
    // Stretch within the certified multiplicative bound even on the
    // adversarial topology.
    let bound = params.schedule(g.graph.node_count()).distortion_bound as f64;
    let sample = PairSample::new(&g.graph, 600, 3, 1);
    let r = s.stretch(&g.graph, Pairs::Sampled(&sample), 1);
    assert!(r.max_multiplicative <= bound);
    // The lower bound in action: a linear-size spanner must drop a large
    // fraction of the block edges (and with them, typically, critical
    // edges) — so it cannot be purely additive with small beta.
    let kept_blocks = g
        .block_edges
        .iter()
        .filter(|e| s.edges.contains(**e))
        .count();
    assert!(
        kept_blocks < g.block_edges.len() / 2,
        "kept {kept_blocks} of {} block edges",
        g.block_edges.len()
    );
}

#[test]
fn theorem5_parameters_defeat_beta_targets() {
    for beta in [4u32, 10] {
        let params = GadgetParams::for_theorem5(20_000, 0.05, beta);
        let g = Gadget::build(params);
        let sel = select(&g, Strategy::GenerousCritical { keep_fraction: 0.5 }, 1);
        let trials = 8;
        let mut total = 0u64;
        for seed in 0..trials {
            let sel2 = select(&g, Strategy::GenerousCritical { keep_fraction: 0.5 }, seed);
            total += measure_spine_distortion(&g, &sel2).additive;
        }
        let avg = total as f64 / trials as f64;
        assert!(
            avg > beta as f64,
            "beta={beta}: measured {avg} should exceed the target"
        );
        drop(sel);
    }
}
