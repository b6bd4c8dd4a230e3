//! Cross-crate integration: Fibonacci spanners end to end, including the
//! analytical envelope (Theorem 7) and the sequential ≡ distributed
//! equivalence under unbounded messages.

use ultrasparse_spanners::core::fibonacci::{self, analysis::within_envelope, FibonacciParams};
use ultrasparse_spanners::graph::distance::{PairSample, Pairs};
use ultrasparse_spanners::graph::{generators, verify_stretch, Graph};
use ultrasparse_spanners::netsim::{Executor, NullSink};

/// The envelope check's pairs on `g`, drawn once per graph.
fn sample(g: &Graph) -> PairSample {
    PairSample::new(g, 1_500, 7, 1)
}

fn envelope_ok(
    g: &Graph,
    sample: &PairSample,
    p: &FibonacciParams,
    s: &ultrasparse_spanners::core::Spanner,
) {
    let viol = verify_stretch(g, &s.edges, Pairs::Sampled(sample), 1, |d, ds| {
        within_envelope(p.order, p.ell, d, ds)
    });
    assert!(viol.is_ok(), "envelope violated: {viol:?}");
}

#[test]
fn fibonacci_across_graph_families() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("gnm", generators::connected_gnm(700, 4_000, 1)),
        ("grid", generators::grid(22, 25)),
        ("caveman", generators::caveman(40, 12, 15, 3)),
        (
            "preferential",
            generators::preferential_attachment(600, 5, 4),
        ),
    ];
    for (label, g) in &graphs {
        let sample = sample(g);
        for order in 1..=2u32 {
            let p = FibonacciParams::new(g.node_count(), order, 0.5, 0).unwrap();
            let s = fibonacci::build_sequential(g, &p, 13);
            assert!(s.is_spanning(g), "{label} o={order}");
            envelope_ok(g, &sample, &p, &s);
        }
    }
}

#[test]
fn distributed_equals_sequential_without_budget() {
    // The n = 600 case at orders 2 and 3 needs every level i ≥ 2 to run
    // its parent-stage start (a missed one kept 2995 and 2990 edges
    // against the sequential 2999).
    for (seed, g, orders) in [
        (1u64, generators::connected_gnm(350, 1_400, 5), &[2u32][..]),
        (2, generators::grid(15, 18), &[2]),
        (3, generators::connected_gnm(600, 3_000, 9), &[2, 3]),
    ] {
        for &order in orders {
            let p = FibonacciParams::new(g.node_count(), order, 0.5, 0).unwrap();
            let seq = fibonacci::build_sequential(&g, &p, seed);
            let dist = fibonacci::distributed::build_distributed(
                g.csr(),
                &p,
                seed,
                &Executor::Sequential,
                None,
                &mut NullSink,
            )
            .expect("run");
            assert_eq!(
                seq.edges.iter().collect::<Vec<_>>(),
                dist.edges.iter().collect::<Vec<_>>(),
                "seed {seed}, order {order}"
            );
        }
    }
}

#[test]
fn bounded_messages_stay_correct() {
    let g = generators::connected_gnm(500, 3_000, 8);
    let sample = sample(&g);
    for t in [2u32, 4] {
        let p = FibonacciParams::new(500, 2, 0.5, t).unwrap();
        let s = fibonacci::distributed::build_distributed(
            g.csr(),
            &p,
            3,
            &Executor::Sequential,
            None,
            &mut NullSink,
        )
        .expect("run");
        assert!(s.is_spanning(&g), "t={t}");
        envelope_ok(&g, &sample, &p, &s);
        let m = s.metrics.unwrap();
        let cap = fibonacci::distributed::theorem8_budget(500, t)
            .limit()
            .unwrap();
        assert!(m.max_message_words <= cap, "t={t}");
    }
}

#[test]
fn epsilon_controls_long_range_stretch() {
    // Smaller epsilon → larger ell → better long-range guarantee; check
    // the guarantee function itself is monotone and the spanner follows.
    let g = generators::caveman(80, 10, 0, 2);
    let n = g.node_count();
    let tight = FibonacciParams::new(n, 2, 0.25, 0).unwrap();
    let loose = FibonacciParams::new(n, 2, 1.0, 0).unwrap();
    assert!(tight.ell > loose.ell);
    let st = fibonacci::build_sequential(&g, &tight, 4);
    let sl = fibonacci::build_sequential(&g, &loose, 4);
    assert!(st.is_spanning(&g) && sl.is_spanning(&g));
    // The tighter parameterization keeps at least as many edges.
    assert!(st.len() >= sl.len());
}
