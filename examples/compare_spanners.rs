//! Side-by-side comparison of every spanner algorithm in the workspace on
//! one input — a compact version of the Fig. 1 experiment for interactive
//! exploration. Pass a node count to change the scale:
//!
//! ```text
//! cargo run --release --example compare_spanners -- 5000
//! ```

use ultrasparse_spanners::baselines::{additive2, baswana_sen, bfs_skeleton, greedy};
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::distance::{PairSample, Pairs};
use ultrasparse_spanners::graph::generators;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3_000);
    let g = generators::connected_gnm(n, 10 * n, 1);
    println!(
        "input: connected G(n, m) with n = {n}, m = {}\n",
        g.edge_count()
    );
    println!(
        "{:<28} {:>8} {:>8} {:>12} {:>12}",
        "algorithm", "|S|", "|S|/n", "max stretch", "mean stretch"
    );

    // One sample of the input, shared by every algorithm's check.
    let sample = PairSample::new(&g, 1_500, 9, 1);
    let show = |name: &str, s: &Spanner| {
        assert!(s.is_spanning(&g), "{name} must span");
        let r = s.stretch(&g, Pairs::Sampled(&sample), 1);
        println!(
            "{:<28} {:>8} {:>8.2} {:>12.2} {:>12.2}",
            name,
            s.len(),
            s.edges_per_node(&g),
            r.max_multiplicative,
            r.mean_multiplicative
        );
    };

    show("BFS forest", &bfs_skeleton::build(&g));
    for k in [2u32, 3] {
        let p = baswana_sen::BaswanaSenParams::new(k).unwrap();
        show(
            &format!("Baswana-Sen k={k}"),
            &baswana_sen::build_sequential(&g, &p, 5),
        );
    }
    if n <= 4_000 {
        show("greedy k=log n", &greedy::linear_size_skeleton(&g));
    }
    show("additive-2 (ACIM)", &additive2::build(&g, 5));
    let sk = SkeletonParams::default();
    show(
        "skeleton (this paper)",
        &skeleton::build_sequential(&g, &sk, 5),
    );
    let fp = FibonacciParams::new(n, 2, 0.5, 0).unwrap();
    show(
        "Fibonacci o=2 (this paper)",
        &fibonacci::build_sequential(&g, &fp, 5),
    );
}
