//! Routing-overlay scenario: a Fibonacci spanner as the route substrate.
//!
//! Compact routing wants a sparse subgraph whose detours shrink as routes
//! get longer — exactly the Fibonacci staged-distortion profile: local
//! routes may take a small constant detour, long-haul routes are within
//! 1+ε of optimal. This example builds the overlay on a clustered
//! wide-area topology and prints the realized route stretch by distance.
//!
//! ```text
//! cargo run --release --example network_overlay
//! ```

use ultrasparse_spanners::core::fibonacci::{self, analysis, FibonacciParams};
use ultrasparse_spanners::graph::distance::PairSample;
use ultrasparse_spanners::graph::generators;

fn main() {
    // A wide-area topology: 150 dense metro clusters on a long backbone.
    let g = generators::caveman(150, 16, 80, 11);
    println!(
        "topology: {} nodes, {} links",
        g.node_count(),
        g.edge_count()
    );

    let params = FibonacciParams::new(g.node_count(), 2, 0.5, 0).expect("valid");
    let overlay = fibonacci::build_sequential(&g, &params, 23);
    assert!(overlay.is_spanning(&g));
    println!(
        "overlay: {} links ({:.1}% of the network), order {}, ell {}",
        overlay.len(),
        100.0 * overlay.len() as f64 / g.edge_count() as f64,
        params.order,
        params.ell
    );

    // Route-stretch profile: guaranteed vs realized, by route length.
    let profile = overlay.stretch_profile(&g, &PairSample::new(&g, 20_000, 5, 1));
    println!("\nroute length | routes | worst stretch | mean stretch | guarantee");
    for b in profile.iter().filter(|b| b.pairs >= 10) {
        if !(b.dist == 1 || b.dist % 8 == 0) {
            continue;
        }
        let guarantee = analysis::multiplicative_stretch(params.order, params.ell, b.dist as u64);
        assert!(b.max_stretch <= guarantee + 1e-9, "guarantee violated");
        println!(
            "{:>12} | {:>6} | {:>13.3} | {:>12.3} | {:>9.3}",
            b.dist,
            b.pairs,
            b.max_stretch,
            b.mean_stretch(),
            guarantee
        );
    }
    println!("\n=> long-haul routes approach optimal (stretch -> 1), short routes pay a bounded constant.");
}
