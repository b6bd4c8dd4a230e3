//! Quickstart: build a linear-size skeleton of a random network, verify it,
//! and inspect its cost.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::graph::distance::{PairSample, Pairs};
use ultrasparse_spanners::graph::generators;
use ultrasparse_spanners::netsim::{Executor, NullSink};

fn main() {
    // A connected random network: 5 000 routers, average degree 16.
    let g = generators::connected_gnm(5_000, 40_000, 7);
    println!(
        "network: {} nodes, {} links",
        g.node_count(),
        g.edge_count()
    );

    // Build the paper's linear-size skeleton, distributedly: every node is
    // a processor exchanging O(log^eps n)-word messages. The simulator runs
    // on the graph's own CSR adjacency, shared rather than copied;
    // `Executor::Parallel { threads }` or `Executor::Async { .. }` would
    // build the same spanner.
    let params = SkeletonParams::new(4.0, 0.5).expect("valid parameters");
    let spanner = skeleton::distributed::build_distributed(
        g.csr(),
        &params,
        42,
        &Executor::Sequential,
        None,
        &mut NullSink,
    )
    .expect("protocol run");

    assert!(
        spanner.is_spanning(&g),
        "a skeleton must preserve connectivity"
    );
    let metrics = spanner.metrics.expect("distributed construction");
    println!(
        "skeleton: {} edges ({:.2} per node) built in {} rounds, max message {} words",
        spanner.len(),
        spanner.edges_per_node(&g),
        metrics.rounds,
        metrics.max_message_words
    );

    // How much do distances suffer? Sample 2 000 pairs.
    let sample = PairSample::new(&g, 2_000, 1, 1);
    let report = spanner.stretch(&g, Pairs::Sampled(&sample), 1);
    println!("distortion: {report}");
    let certified = params.schedule(g.node_count()).distortion_bound;
    println!("certified worst-case stretch (Theorem 2 schedule): {certified}");
    assert!(report.max_multiplicative <= certified as f64);
    println!(
        "=> kept {:.1}% of edges, stretched sampled pairs by at most {:.1}x",
        100.0 * spanner.len() as f64 / g.edge_count() as f64,
        report.max_multiplicative
    );
}
