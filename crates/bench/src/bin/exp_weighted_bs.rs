//! E13 — the **weighted** Baswana–Sen row of Fig. 1: *"optimal in all
//! respects, save for a factor of k in the spanner size"*.
//!
//! Sweeps k on a weighted workload and reports size, realized weighted
//! stretch (exact, over all pairs of a subsampled vertex set), and the
//! guarantee — demonstrating the (2k−1) weighted-stretch bound that the
//! unweighted constructions of this paper do not attempt.

use std::convert::Infallible;
use std::ops::ControlFlow;

use spanner_baselines::baswana_sen::BaswanaSenParams;
use spanner_baselines::baswana_sen_weighted::build_weighted;
use spanner_bench::{deny_unknown_args, f2, timed, Scale, Table};
use spanner_graph::weighted::{walk_weighted_pairs, WeightedGraph};
use spanner_graph::{generators, NodeId};

fn main() {
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    deny_unknown_args();
    let (n, m) = if quick { (800, 8_000) } else { (4_000, 80_000) };
    let g = WeightedGraph::random_weights(generators::connected_gnm(n, m, 3), 100, 7);
    println!(
        "E13 (Fig. 1, weighted Baswana-Sen): n = {}, m = {}, weights 1..=100\n",
        g.node_count(),
        g.edge_count()
    );

    let mut table = Table::new([
        "k",
        "guarantee 2k-1",
        "|S|/n",
        "measured weighted stretch (max)",
        "mean",
        "secs",
    ]);
    // Exact weighted stretch from a subsample of sources.
    let sources: Vec<NodeId> = (0..n as u32).step_by((n / 60).max(1)).map(NodeId).collect();
    for k in [2u32, 3, 4, 6] {
        let params = BaswanaSenParams::new(k).expect("valid");
        let (s, secs) = timed(|| build_weighted(&g, &params, 11));
        assert!(s.is_spanning(g.graph()));
        let (mut worst, mut sum, mut count) = (1.0f64, 0.0f64, 0u64);
        let ControlFlow::Continue(()) =
            walk_weighted_pairs(&g, &s.edges, &sources, |_, _, host, in_spanner| {
                let ratio = in_spanner as f64 / host as f64;
                worst = worst.max(ratio);
                sum += ratio;
                count += 1;
                ControlFlow::<Infallible>::Continue(())
            });
        assert!(worst <= (2 * k - 1) as f64 + 1e-9, "k={k}: stretch {worst}");
        table.row([
            k.to_string(),
            (2 * k - 1).to_string(),
            f2(s.len() as f64 / n as f64),
            f2(worst),
            f2(sum / count as f64),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nShape check: the weighted (2k-1) guarantee holds at every k while the\n\
         size falls toward O(kn + log k n^(1+1/k)) — the Fig. 1 row the paper\n\
         calls optimal in all respects."
    );
}
