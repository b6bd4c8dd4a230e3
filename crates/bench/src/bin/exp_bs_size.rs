//! E8 — **Sect. 2's correction to Baswana–Sen**: spanner size vs k.
//!
//! The paper corrects \[10, Lemma 4.1\]: the argument shows the expected
//! size is O(kn + log k · n^{1+1/k}), not O(kn + n^{1+1/k}). This
//! experiment sweeps k on a dense workload and prints the measured size
//! against both forms, plus the per-vertex phase-1 contribution
//! X^{k−1}_p ≈ p⁻¹(ln k − ζ) + k − 1 from Lemma 6 — the source of the
//! log k factor.

use spanner_baselines::baswana_sen::{build_distributed_csr, build_sequential, BaswanaSenParams};
use spanner_bench::{
    deny_unknown_args, f2, peak_rss_bytes, timed, workload, workload_csr, Scale, Table,
};
use ultrasparse::expand::{x_t_p, x_t_p_bound};

fn main() {
    let scale = Scale::from_args(&[Scale::Quick, Scale::Full, Scale::Huge]);
    deny_unknown_args();
    let (n, density) = match scale {
        Scale::Huge => return run_huge(),
        Scale::Quick => (3_000, 25.0),
        _ => (20_000, 50.0),
    };
    let g = workload(n, density, 17);
    println!(
        "E8 (Baswana-Sen size correction): workload n = {}, m = {}\n",
        g.node_count(),
        g.edge_count()
    );

    let mut table = Table::new([
        "k",
        "stretch 2k-1",
        "measured |S|/n",
        "claimed kn+n^(1+1/k) (/n)",
        "corrected +log k factor (/n)",
        "X^{k-1}_p per vertex",
        "bound",
        "secs",
    ]);
    for k in [2u32, 3, 4, 6, 8, 12] {
        let params = BaswanaSenParams::new(k).unwrap();
        let (s, secs) = timed(|| build_sequential(&g, &params, 3));
        assert!(s.is_spanning(&g));
        let nf = n as f64;
        let claimed = (k as f64 * nf + nf.powf(1.0 + 1.0 / k as f64)) / nf;
        let corrected =
            (k as f64 * nf + (k as f64).ln().max(1.0) * nf.powf(1.0 + 1.0 / k as f64)) / nf;
        let p = params.probability(n);
        let x = if k >= 2 { x_t_p(p, k - 1) } else { 0.0 };
        let xb = if k >= 2 { x_t_p_bound(p, k - 1) } else { 0.0 };
        table.row([
            k.to_string(),
            params.stretch().to_string(),
            f2(s.edges_per_node(&g)),
            f2(claimed),
            f2(corrected),
            f2(x),
            f2(xb),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nShape check: the measured size sits between the claimed and corrected\n\
         forms; the per-vertex contribution X^t_p (Lemma 6) carries the ln k\n\
         factor the paper identifies."
    );
}

/// The `--scale huge` tier: the size-vs-k comparison at n = 2²⁰ through
/// the **distributed** CSR-native driver (the sequential builder needs a
/// `Graph` and per-vertex adjacency scans; the distributed protocol is the
/// memory-lean path). Density is reduced to keep m at 8n — the size
/// correction is about the n^{1+1/k} term, which the sweep still exposes.
fn run_huge() {
    let n = 1usize << 20;
    let density = 8.0;
    let (csr, gen_secs) = timed(|| std::sync::Arc::new(workload_csr(n, density, 17)));
    println!(
        "E8 (Baswana-Sen size correction), huge tier: CSR-native, n = {n}, m = {} \
         (generated in {gen_secs:.1}s)\n",
        csr.edge_count()
    );
    let mut table = Table::new([
        "k",
        "stretch 2k-1",
        "measured |S|/n",
        "claimed kn+n^(1+1/k) (/n)",
        "corrected +log k factor (/n)",
        "rounds",
        "secs",
    ]);
    for k in [2u32, 3, 4] {
        let params = BaswanaSenParams::new(k).unwrap();
        let (s, secs) = timed(|| build_distributed_csr(&csr, &params, 3).unwrap());
        assert!(csr.subgraph(&s.edges).is_connected(), "k = {k} must span");
        let nf = n as f64;
        let claimed = (k as f64 * nf + nf.powf(1.0 + 1.0 / k as f64)) / nf;
        let corrected =
            (k as f64 * nf + (k as f64).ln().max(1.0) * nf.powf(1.0 + 1.0 / k as f64)) / nf;
        let m = s.metrics.as_ref().expect("distributed run has metrics");
        table.row([
            k.to_string(),
            params.stretch().to_string(),
            f2(s.len() as f64 / nf),
            f2(claimed),
            f2(corrected),
            m.rounds.to_string(),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nSpanning certified exactly per row. Peak RSS: {} MiB.",
        peak_rss_bytes() / (1 << 20)
    );
}
