//! E4 — **Theorem 7 / Corollary 1**: the four-stage distortion of
//! Fibonacci spanners as a function of distance.
//!
//! On a workload with a wide distance range (a torus), the measured
//! per-distance stretch profile of a Fibonacci spanner is printed next to
//! the analytic envelope C^o_λ / λ^o. The paper's qualitative claim — the
//! multiplicative distortion *improves* as distance grows, passing through
//! the O(2^o), 3(o+1), →3, →(1+ε) stages — is visible as a decreasing
//! envelope column and a measured column below it.

use spanner_bench::{deny_unknown_args, f2, f3, Scale, Table};
use spanner_graph::distance::PairSample;
use spanner_graph::generators;
use ultrasparse::fibonacci::analysis::{distortion_envelope, multiplicative_stretch};
use ultrasparse::fibonacci::{build_sequential, FibonacciParams};

fn main() {
    // A caveman graph: dense cliques (so the spanner actually drops
    // edges) strung on a long chain (so distances span a wide range).
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    deny_unknown_args();
    let clusters = if quick { 120 } else { 400 };
    let size = 14;
    let g = generators::caveman(clusters, size, 0, 5);
    let n = g.node_count();
    let order = 2;
    let params = FibonacciParams::new(n, order, 0.5, 0).expect("valid params");
    println!(
        "E4 (Theorem 7): Fibonacci distortion stages.  caveman {clusters}x{size} (n = {n}), o = {}, ell = {}\n",
        params.order, params.ell
    );

    let spanner = build_sequential(&g, &params, 21);
    assert!(spanner.is_spanning(&g));
    println!(
        "spanner size: {} edges = {:.2} per node (host {:.2} per node)\n",
        spanner.len(),
        spanner.edges_per_node(&g),
        g.edge_count() as f64 / n as f64
    );

    let sample = PairSample::new(&g, if quick { 8_000 } else { 60_000 }, 3, 1);
    let profile = spanner.stretch_profile(&g, &sample);
    let mut table = Table::new([
        "distance d",
        "pairs",
        "measured max",
        "measured mean",
        "envelope C/d",
        "stage",
    ]);
    // Bucket distances into powers of lambda to show the stages.
    let mut last_bucket = 0u32;
    for b in &profile {
        // Subsample the profile rows: print d = 1, 2, and near powers.
        let lambda = (b.dist as f64).powf(1.0 / order as f64);
        let is_interesting =
            b.dist <= 4 || (lambda.round() - lambda).abs() < 0.05 || b.dist >= last_bucket * 2;
        if !is_interesting || b.pairs < 3 {
            continue;
        }
        last_bucket = b.dist.max(1);
        let env = multiplicative_stretch(params.order, params.ell, b.dist as u64);
        let stage = if b.dist == 1 {
            "O(2^o)"
        } else if (b.dist as u64) < 3u64.pow(order) {
            "3(o+1) @ 2^o"
        } else if (b.dist as u64) < (3 * params.order as u64 * 2).pow(order) {
            "-> 3"
        } else {
            "-> 1+eps"
        };
        assert!(
            b.max_stretch <= env + 1e-9,
            "measured {} exceeds envelope {env} at d={}",
            b.max_stretch,
            b.dist
        );
        table.row([
            b.dist.to_string(),
            b.pairs.to_string(),
            f3(b.max_stretch),
            f3(b.mean_stretch()),
            f3(env),
            stage.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nShape check: the envelope decreases with distance through the paper's\n\
         four stages and the measured stretch never exceeds it. Absolute bound at\n\
         d=1: C^o_1 = {}.",
        f2(distortion_envelope(params.order, params.ell, 1))
    );
}
