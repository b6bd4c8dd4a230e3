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
//!
//! Every tier (`--scale tiny|quick|full|huge`) runs the same rows and
//! prints the same table; the stretch columns of every row come from one
//! `PairSample` of the workload. The huge tier (n = 2²⁰) skips the two
//! O(m·n) centralized rows. `--threads N` is the distance engine's worker
//! count for the pair sample and the stretch walks; the constructions run
//! on the sequential executor at every tier.

use spanner_baselines::{additive2, baswana_sen, bfs_skeleton, greedy};
use spanner_bench::{
    deny_unknown_args, f2, fault_plan_arg, peak_rss_bytes, threads_arg, timed, workload, Scale,
    Table, TraceOutput,
};
use spanner_graph::distance::{PairSample, Pairs};
use spanner_netsim::Executor;
use ultrasparse::fibonacci::{self, FibonacciParams};
use ultrasparse::skeleton::{self, SkeletonParams};

fn main() {
    let scale = Scale::from_args(&Scale::ALL);
    let threads = threads_arg();
    let traces = TraceOutput::from_args();
    let faults = fault_plan_arg();
    deny_unknown_args();
    let (n, pairs) = match scale {
        Scale::Tiny => (300, 120),
        Scale::Quick => (2_000, 500),
        Scale::Full => (20_000, 4_000),
        Scale::Huge => (1 << 20, 1_000),
    };
    let density = 8.0;
    let seed = 42;
    let g = workload(n, density, seed);
    let csr = g.csr();
    let seq = Executor::Sequential;
    // One sample of the workload, shared by every row's stretch columns.
    let sample = PairSample::new(&g, pairs, 7, threads);
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
        let r = s.stretch(&g, Pairs::Sampled(&sample), threads);
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

    // The centralized rows cost O(m·n): the huge tier skips them.
    if scale != Scale::Huge {
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
    }

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
    if scale == Scale::Huge {
        println!(
            "  The greedy and Aingworth rows (O(m n), centralized) are skipped at this tier.\n  \
             Peak RSS: {} MiB.",
            peak_rss_bytes() / (1 << 20)
        );
    }
}
