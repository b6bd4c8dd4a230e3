//! E5 — **Lemma 8 / Theorem 7**: Fibonacci spanner size vs order and ε.
//!
//! The expected size is `o·n + O(n^{1 + 1/(F_{o+3}−1)} ℓ^φ)`: the
//! polynomial exponent collapses doubly-exponentially with the order while
//! the ℓ^φ factor grows. The experiment sweeps the order (and ε) on a
//! dense workload and prints measured |S|/n next to the prediction.

use spanner_bench::{deny_unknown_args, f2, timed, workload, Scale, Table};
use ultrasparse::fibonacci::params::fibonacci;
use ultrasparse::fibonacci::{build_sequential, FibonacciParams};

fn main() {
    // Fibonacci spanners pay a constant ~(ε⁻¹ log log n)^φ edges per node,
    // so sparsification shows on graphs denser than that: use m/n in the
    // hundreds.
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    deny_unknown_args();
    let (n, density) = if quick {
        (1_000, 100.0)
    } else {
        (4_000, 400.0)
    };
    let g = workload(n, density, 13);
    println!(
        "E5 (Lemma 8): Fibonacci size vs order.  workload: n = {}, m = {} (m/n = {:.1})\n",
        g.node_count(),
        g.edge_count(),
        g.edge_count() as f64 / g.node_count() as f64
    );

    let mut table = Table::new([
        "order o",
        "eps",
        "ell",
        "size exponent 1+1/(F_{o+3}-1)",
        "predicted |S|/n",
        "measured |S|/n",
        "secs",
    ]);
    for o in 1..=FibonacciParams::max_order(n) {
        for &eps in &[0.5, 1.0] {
            let params = FibonacciParams::new(n, o, eps, 0).expect("valid");
            let exponent = 1.0 + 1.0 / (fibonacci(params.order + 3) as f64 - 1.0);
            let predicted = params.expected_size() / n as f64;
            let (s, secs) = timed(|| build_sequential(&g, &params, 5));
            assert!(s.is_spanning(&g));
            table.row([
                params.order.to_string(),
                f2(eps),
                params.ell.to_string(),
                f2(exponent),
                f2(predicted),
                f2(s.edges_per_node(&g)),
                f2(secs),
            ]);
        }
    }
    table.print();
    println!(
        "\nShape check: the measured size is capped by min(m/n, prediction); higher\n\
         order trades a smaller polynomial exponent against a larger ell^phi factor,\n\
         and larger eps (smaller ell) always shrinks the spanner."
    );
}
