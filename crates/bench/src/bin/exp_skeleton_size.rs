//! E2 — **Lemma 6 / Theorem 2**: skeleton size vs the density parameter D.
//!
//! The paper proves the expected spanner size is `Dn/e + O(n log D)`, with
//! the explicit constant worked out in Lemma 6. This experiment sweeps D
//! and prints measured |S|/n next to the analytic prediction, for both the
//! sequential reference and the distributed protocol.

use std::sync::Arc;

use spanner_bench::{
    deny_unknown_args, executor_for, f2, fault_plan_arg, peak_rss_bytes, threads_arg, timed,
    workload, workload_csr, Scale, Table, TraceOutput,
};
use spanner_netsim::{Executor, NullSink};
use ultrasparse::skeleton::{build_sequential, distributed, SkeletonParams};

fn main() {
    let n = match Scale::from_args(&Scale::ALL) {
        Scale::Huge => {
            let threads = threads_arg();
            deny_unknown_args();
            return run_huge(threads);
        }
        Scale::Tiny => 400,
        Scale::Quick => 3_000,
        Scale::Full => 30_000,
    };
    let traces = TraceOutput::from_args();
    let faults = fault_plan_arg();
    deny_unknown_args();
    if let Some(plan) = &faults {
        println!("fault injection active: {plan:?}\n");
    }
    println!("E2 (Lemma 6): skeleton size vs D, n = {n}.\n");
    println!(
        "Per-D workload with average degree ~ D: the Dn/e term of Lemma 6 comes\n\
         from vertices adjacent to q ~ 1/p = D clusters in the first Expand call\n\
         (the maximizer of X^1_p); much denser graphs realize far below the\n\
         worst case because nobody dies early.\n"
    );

    let mut table = Table::new([
        "D",
        "m",
        "predicted |S|/n (Lemma 6)",
        "sequential |S|/n",
        "distributed |S|/n",
        "Dn/e term",
        "secs",
    ]);
    // eps = 1.0 keeps D <= log^eps n (Theorem 2's precondition) for every
    // D in the sweep at this n.
    for d in [4.0, 6.0, 8.0, 10.0, 12.0, 14.0] {
        let g = workload(n, d / 2.0, 7); // avg degree = 2·(m/n) = D
        let params = SkeletonParams::new(d, 1.0).expect("valid params");
        let predicted = params.expected_size(g.node_count()) / g.node_count() as f64;
        let (seq, secs) = timed(|| build_sequential(&g, &params, 11));
        let mut tr = traces.open(&format!("d{:02}", d as u32));
        let exec = Executor::Sequential;
        let built =
            distributed::build_distributed(g.csr(), &params, 11, &exec, faults.as_ref(), tr.sink());
        tr.finish();
        let dist = match built {
            Ok(s) => {
                if let (Some(_), Some(m)) = (&faults, &s.metrics) {
                    println!("D = {d}: certified under faults ({})", m.faults);
                }
                s
            }
            Err(e) if faults.is_some() => {
                println!("D = {d}: no certified spanner under this schedule: {e}");
                continue;
            }
            Err(e) => panic!("distributed run: {e}"),
        };
        assert!(seq.is_spanning(&g) && dist.is_spanning(&g));
        table.row([
            f2(d),
            g.edge_count().to_string(),
            f2(predicted),
            f2(seq.edges_per_node(&g)),
            f2(dist.edges_per_node(&g)),
            f2(d / std::f64::consts::E),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nShape check: measured size grows ~linearly in D, stays below the\n\
         Lemma 6 prediction (an upper bound with explicit constants), and the\n\
         sequential and distributed implementations agree closely."
    );
}

/// The `--scale huge` tier: the D sweep at n = 2²⁰ through the CSR-native
/// distributed driver (no `Graph`, no sequential reference — the point of
/// the tier). Spanning is certified exactly per row; the Lemma 6 size
/// comparison is the experiment's payload and needs no distances.
fn run_huge(threads: usize) {
    let n = 1usize << 20;
    let executor = executor_for(threads);
    println!("E2 (Lemma 6), huge tier: skeleton size vs D, CSR-native, n = {n}.\n");
    let mut table = Table::new([
        "D",
        "m",
        "predicted |S|/n (Lemma 6)",
        "distributed |S|/n",
        "rounds",
        "messages",
        "secs",
    ]);
    for d in [4.0, 8.0, 12.0] {
        let (csr, gen_secs) = timed(|| Arc::new(workload_csr(n, d / 2.0, 7)));
        let params = SkeletonParams::new(d, 1.0).expect("valid params");
        let predicted = params.expected_size(n) / n as f64;
        let (dist, secs) = timed(|| {
            distributed::build_distributed(&csr, &params, 11, &executor, None, &mut NullSink)
                .expect("distributed run")
        });
        assert!(
            csr.subgraph(&dist.edges).is_connected(),
            "D = {d} must span"
        );
        let m = dist.metrics.as_ref().expect("distributed run has metrics");
        println!("D = {d}: generated in {gen_secs:.1}s, built in {secs:.1}s");
        table.row([
            f2(d),
            csr.edge_count().to_string(),
            f2(predicted),
            f2(dist.len() as f64 / n as f64),
            m.rounds.to_string(),
            m.messages.to_string(),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nSpanning certified exactly per row; stretch columns are covered by\n\
         the default tiers. Peak RSS: {} MiB.",
        peak_rss_bytes() / (1 << 20)
    );
}
