//! E9 — **Theorem 8 / Corollary 2**: the message-length ↔ time/order
//! tradeoff of the distributed Fibonacci construction.
//!
//! Messages of O(n^{1/t}) words force the sampling hierarchy to be
//! re-spaced (order grows by ≤ t) and stretch the construction time. The
//! experiment sweeps t and prints the realized order, ℓ, rounds, maximum
//! message words, and spanner size.

use spanner_bench::{deny_unknown_args, f2, timed, workload, Scale, Table, TraceOutput};
use spanner_netsim::Executor;
use ultrasparse::fibonacci::distributed::{build_distributed, theorem8_budget};
use ultrasparse::fibonacci::FibonacciParams;

fn main() {
    let traces = TraceOutput::from_args();
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    deny_unknown_args();
    let n = if quick { 1_500 } else { 6_000 };
    let g = workload(n, 10.0, 23);
    let base_order = 2;
    println!(
        "E9 (Theorem 8): message length vs order/time. workload n = {}, m = {}, base order = {base_order}\n",
        g.node_count(),
        g.edge_count()
    );

    let mut table = Table::new([
        "t",
        "budget (words)",
        "effective order",
        "ell",
        "rounds",
        "max words used",
        "|S|/n",
        "secs",
    ]);
    let csr = g.csr();
    for t in [0u32, 2, 3, 4, 6] {
        let params = FibonacciParams::new(n, base_order, 0.5, t).expect("valid");
        let budget = theorem8_budget(n, t);
        let mut tr = traces.open(&format!("t{t}"));
        let ((s, rounds, words), secs) = timed(|| {
            let exec = Executor::Sequential;
            let s = build_distributed(csr, &params, 9, &exec, None, tr.sink()).expect("run");
            let m = s.metrics.expect("metrics");
            (s, m.rounds, m.max_message_words)
        });
        tr.finish();
        assert!(s.is_spanning(&g), "t={t}");
        table.row([
            t.to_string(),
            budget
                .limit()
                .map_or("unbounded".to_string(), |w| w.to_string()),
            params.order.to_string(),
            params.ell.to_string(),
            rounds.to_string(),
            words.to_string(),
            f2(s.edges_per_node(&g)),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nShape check: smaller messages (larger t) raise the effective order and\n\
         the round count — the Corollary 2 tradeoff — while the spanner remains\n\
         valid at every t."
    );
}
