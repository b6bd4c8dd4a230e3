//! E1 — regenerates **Fig. 1** (the state-of-the-art comparison table),
//! empirically: every algorithm runs on the same workload and reports its
//! measured size, distortion, rounds and maximum message length, next to
//! its analytic guarantee.
//!
//! Rows:
//! * BFS forest (the connectivity-only anchor),
//! * Baswana–Sen (2k−1)-spanner at k = 2 and k = ⌈log n⌉ \[10\],
//! * greedy girth spanner at k = ⌈log n⌉ — centralized stand-in for the
//!   Dubhashi et al. \[18\] row (see DESIGN.md §4),
//! * Aingworth et al. additive 2-spanner \[3\] (centralized; Theorem 5
//!   proves no fast distributed version exists),
//! * **this paper**: the linear-size skeleton (Theorem 2) and the
//!   Fibonacci spanner (Theorem 8), both distributed.

use std::sync::Arc;

use spanner_baselines::{additive2, baswana_sen, bfs_skeleton, greedy};
use spanner_bench::{
    executor_for, f2, fault_plan_arg, peak_rss_bytes, threads_arg, timed, workload, workload_csr,
    Scale, Table, TraceOutput,
};
use spanner_graph::traversal::bfs_distances_csr;
use spanner_graph::{CsrAdjacency, NodeId};
use spanner_netsim::{Executor, NullSink};
use ultrasparse::fibonacci::{self, FibonacciParams};
use ultrasparse::skeleton::{self, SkeletonParams};

fn main() {
    let (n, pairs) = match Scale::from_args(&Scale::ALL) {
        Scale::Huge => return run_huge(),
        Scale::Tiny => (300, 120),
        Scale::Quick => (2_000, 500),
        Scale::Full => (20_000, 4_000),
    };
    let density = 8.0;
    let seed = 42;
    let g = workload(n, density, seed);
    let csr = g.csr();
    let seq = Executor::Sequential;
    let threads = threads_arg();
    let traces = TraceOutput::from_args();
    let faults = fault_plan_arg();
    if let Some(plan) = &faults {
        println!("fault injection active: {plan:?}\n");
    }
    println!(
        "Fig. 1 reproduction: workload connected G(n, m), n = {}, m = {}\n",
        g.node_count(),
        g.edge_count()
    );

    let mut table = Table::new([
        "algorithm",
        "guarantee",
        "messages",
        "|S|/n",
        "max stretch",
        "avg stretch",
        "max add",
        "rounds",
        "max words",
        "secs",
    ]);

    let add_row = |name: &str,
                   guarantee: &str,
                   msgs: &str,
                   s: &ultrasparse::Spanner,
                   secs: f64,
                   table: &mut Table| {
        let r = s.stretch_sampled_threads(&g, pairs, 7, threads);
        assert!(s.is_spanning(&g), "{name} must span");
        let (rounds, words) = match &s.metrics {
            Some(m) => (m.rounds.to_string(), m.max_message_words.to_string()),
            None => ("(centralized)".into(), "-".into()),
        };
        table.row([
            name.to_string(),
            guarantee.to_string(),
            msgs.to_string(),
            f2(s.edges_per_node(&g)),
            f2(r.max_multiplicative),
            f2(r.mean_multiplicative),
            r.max_additive.to_string(),
            rounds,
            words,
            f2(secs),
        ]);
    };

    let klog = (n as f64).log2().ceil() as u32;

    let mut tr = traces.open("bfs");
    let (s, secs) = timed(|| {
        bfs_skeleton::build_distributed(csr, seed, 10 * n as u32, &seq, tr.sink()).unwrap()
    });
    tr.finish();
    add_row(
        "BFS forest",
        "connectivity only",
        "2 words",
        &s,
        secs,
        &mut table,
    );

    // A faulted row prints its run's fault counters, or the typed error of
    // a run that the schedule killed (`None`: no row for this algorithm);
    // an unfaulted failure is a bug and panics.
    let outcome =
        |name: &str, built: Result<ultrasparse::Spanner, ultrasparse::BuildError>| match built {
            Ok(s) => {
                if let (Some(_), Some(m)) = (&faults, &s.metrics) {
                    println!("  {name} faults: {}", m.faults);
                }
                Some(s)
            }
            Err(e) if faults.is_some() => {
                println!("  {name}: no certified spanner under this schedule: {e}");
                None
            }
            Err(e) => panic!("{name}: {e}"),
        };

    let bs2 = baswana_sen::BaswanaSenParams::new(2).unwrap();
    let mut tr = traces.open("bs-k2");
    let (built, secs) =
        timed(|| baswana_sen::build_distributed(csr, &bs2, seed, &seq, faults.as_ref(), tr.sink()));
    tr.finish();
    if let Some(s) = outcome("Baswana-Sen k=2", built) {
        add_row(
            "Baswana-Sen k=2 [10]",
            "3-spanner, O(n^1.5)",
            "2 words",
            &s,
            secs,
            &mut table,
        );
    }

    let bsl = baswana_sen::BaswanaSenParams::new(klog).unwrap();
    let mut tr = traces.open("bs-klog");
    let (s, secs) =
        timed(|| baswana_sen::build_distributed(csr, &bsl, seed, &seq, None, tr.sink()).unwrap());
    tr.finish();
    add_row(
        "Baswana-Sen k=log n [10]",
        "O(log n)-spanner, O(n log n)",
        "2 words",
        &s,
        secs,
        &mut table,
    );

    let (s, secs) = timed(|| greedy::linear_size_skeleton(&g));
    add_row(
        "greedy k=log n [4]/[18]",
        "O(log n)-spanner, O(n)",
        "unbounded*",
        &s,
        secs,
        &mut table,
    );

    let (s, secs) = timed(|| additive2::build(&g, seed));
    add_row(
        "Aingworth et al. [3]",
        "additive 2, O(n^1.5 sqrt(log n))",
        "(no fast distr., Thm 5)",
        &s,
        secs,
        &mut table,
    );

    let sk = SkeletonParams::default();
    let mut tr = traces.open("skeleton");
    let (built, secs) = timed(|| {
        skeleton::distributed::build_distributed(csr, &sk, seed, &seq, faults.as_ref(), tr.sink())
    });
    tr.finish();
    if let Some(s) = outcome("skeleton", built) {
        add_row(
            "THIS PAPER: skeleton (Thm 2)",
            "O(2^log* n log n)-spanner, Dn/e+O(n log D)",
            "O(log^eps n) words",
            &s,
            secs,
            &mut table,
        );
    }

    let order = FibonacciParams::max_order(n).min(3);
    let fp = FibonacciParams::new(n, order, 0.5, 4).unwrap();
    let mut tr = traces.open("fibonacci");
    let (built, secs) = timed(|| {
        fibonacci::distributed::build_distributed(csr, &fp, seed, &seq, faults.as_ref(), tr.sink())
    });
    tr.finish();
    if let Some(s) = outcome("Fibonacci", built) {
        add_row(
            "THIS PAPER: Fibonacci (Thm 8)",
            "staged (alpha,beta), ~n(eps^-1 loglog n)^phi",
            "O(n^{1/t}) words, t=4",
            &s,
            secs,
            &mut table,
        );
    }

    table.print();
    println!(
        "\n* the greedy/[18] row stands in for Dubhashi et al. (unbounded-message\n  \
         class); see DESIGN.md section 4. Stretch columns are measured over {pairs} sampled pairs."
    );
}

/// Max multiplicative stretch of the subgraph `sub` of `full`, sampled
/// from a few fixed BFS sources (exact per source, over every reachable
/// target). The huge tier's substitute for the exact pairwise columns.
fn sampled_stretch_csr(full: &CsrAdjacency, sub: &CsrAdjacency, sources: &[NodeId]) -> f64 {
    let mut worst = 1.0f64;
    for &s in sources {
        let dg = bfs_distances_csr(full, s);
        let ds = bfs_distances_csr(sub, s);
        for (v, d) in dg.iter().enumerate() {
            let Some(d) = d.filter(|&d| d > 0) else {
                continue;
            };
            let d_sub = ds[v].expect("spanning subgraph reaches every node");
            worst = worst.max(d_sub as f64 / d as f64);
        }
    }
    worst
}

/// The `--scale huge` tier: the distributed rows only, at n = 2²⁰, built
/// through the CSR-native drivers with no `Graph` materialization. The
/// centralized baselines (greedy, Aingworth) are omitted — their O(m·n)
/// cost is exactly what this tier is designed to avoid — and the exact
/// stretch columns are replaced by a BFS-sampled bound; spanning is still
/// certified exactly (connectivity of the selected subgraph).
fn run_huge() {
    let n = 1usize << 20;
    let density = 8.0;
    let seed = 42;
    let threads = threads_arg();
    let executor = executor_for(threads);
    let (csr, gen_secs) = timed(|| Arc::new(workload_csr(n, density, seed)));
    println!(
        "Fig. 1 reproduction, huge tier: CSR-native G(n, m), n = {n}, m = {} \
         (generated in {gen_secs:.1}s, {threads} thread(s))\n",
        csr.edge_count()
    );
    let stretch_sources = [NodeId(0), NodeId((n / 2) as u32), NodeId((n - 1) as u32)];

    let mut table = Table::new([
        "algorithm",
        "|S|/n",
        "max stretch*",
        "rounds",
        "messages",
        "max words",
        "secs",
    ]);
    let add_row = |name: &str, s: &ultrasparse::Spanner, secs: f64, table: &mut Table| {
        let sub = csr.subgraph(&s.edges);
        assert!(sub.is_connected(), "{name} must span");
        let stretch = sampled_stretch_csr(&csr, &sub, &stretch_sources);
        let m = s.metrics.as_ref().expect("distributed run has metrics");
        table.row([
            name.to_string(),
            f2(s.len() as f64 / n as f64),
            f2(stretch),
            m.rounds.to_string(),
            m.messages.to_string(),
            m.max_message_words.to_string(),
            f2(secs),
        ]);
    };

    let (s, secs) = timed(|| {
        bfs_skeleton::build_distributed(&csr, seed, 4096, &Executor::Sequential, &mut NullSink)
            .unwrap()
    });
    add_row("BFS forest", &s, secs, &mut table);
    drop(s);

    let bs2 = baswana_sen::BaswanaSenParams::new(2).unwrap();
    let (s, secs) = timed(|| baswana_sen::build_distributed_csr(&csr, &bs2, seed).unwrap());
    add_row("Baswana-Sen k=2 [10]", &s, secs, &mut table);
    drop(s);

    let sk = SkeletonParams::default();
    let (s, secs) = timed(|| {
        skeleton::distributed::build_distributed(&csr, &sk, seed, &executor, None, &mut NullSink)
            .unwrap()
    });
    add_row("THIS PAPER: skeleton (Thm 2)", &s, secs, &mut table);
    drop(s);

    let order = FibonacciParams::max_order(n).min(3);
    let fp = FibonacciParams::new(n, order, 0.5, 4).unwrap();
    let (s, secs) = timed(|| {
        fibonacci::distributed::build_distributed(&csr, &fp, seed, &executor, None, &mut NullSink)
            .unwrap()
    });
    add_row("THIS PAPER: Fibonacci (Thm 8)", &s, secs, &mut table);
    drop(s);

    table.print();
    println!(
        "\n* max stretch sampled from {} BFS sources (exact over every reachable\n  \
         target); spanning certified exactly. Peak RSS: {} MiB.",
        stretch_sources.len(),
        peak_rss_bytes() / (1 << 20)
    );
}
