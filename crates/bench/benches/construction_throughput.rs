//! Construction-pipeline throughput of the distributed drivers.
//!
//! Each construction runs untraced on the sequential executor through its
//! CSR-native driver (`build_distributed_csr` for the skeleton and
//! Baswana–Sen, `build_distributed` for Fibonacci), which shares one
//! `Arc<CsrAdjacency>` across the executor, the fault plan, and the trace
//! layer and collects the
//! spanner through the CSR edge index — zero `Graph` materialization. This
//! bench records rounds/sec, total messages, wall time (best of the
//! scale's samples), and peak RSS per shape.
//!
//! Flags (after `--`):
//! * `--scale tiny|quick|full|huge` — `tiny` is the seconds-scale smoke
//!   run, `quick` (n = 8192) is the CI configuration, `full`
//!   (n = 65536) the default, `huge` (n = 2²⁰) builds the workload
//!   through the streaming CSR generator — the documented million-node
//!   row of EXPERIMENTS.md ("Million-node runs");
//! * `--json <path>` — write the results there (the committed copy is
//!   `BENCH_construction.json` at the repo root).

use std::sync::Arc;
use std::time::Instant;

use spanner_baselines::baswana_sen;
use spanner_bench::{json_out_arg, peak_rss_bytes, write_json, Scale};
use spanner_graph::generators;
use spanner_netsim::{Executor, NullSink};
use ultrasparse::fibonacci::{self, FibonacciParams};
use ultrasparse::skeleton::{distributed as skel, SkeletonParams};
use ultrasparse::Spanner;

struct ShapeResult {
    name: &'static str,
    n: usize,
    m: usize,
    rounds: u32,
    messages: u64,
    max_words: usize,
    csr_secs: f64,
}

impl ShapeResult {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.csr_secs
    }

    fn json(&self) -> String {
        format!(
            "    {{\"shape\": \"{}\", \"n\": {}, \"m\": {}, \"rounds\": {}, \"messages\": {}, \
             \"max_words\": {}, \"csr_secs\": {:.6}, \"rounds_per_sec\": {:.2}}}",
            self.name,
            self.n,
            self.m,
            self.rounds,
            self.messages,
            self.max_words,
            self.csr_secs,
            self.rounds_per_sec(),
        )
    }
}

/// Runs `run` `samples` times and keeps the best wall time — the min is
/// the noise-robust estimator on a shared machine. Every run builds the
/// same spanner, so the counts come from the first.
fn bench_shape(
    name: &'static str,
    n: usize,
    m: usize,
    samples: usize,
    run: impl Fn() -> Spanner,
) -> ShapeResult {
    let mut best = f64::INFINITY;
    let mut first = None;
    for _ in 0..samples {
        let start = Instant::now();
        let s = run();
        best = best.min(start.elapsed().as_secs_f64());
        first.get_or_insert(s);
    }
    let s = first.expect("at least one sample");
    let metrics = s.metrics.as_ref().expect("distributed metrics");
    println!(
        "{name}: csr {best:.3}s, {} rounds, {} messages, |S| = {}",
        metrics.rounds,
        metrics.messages,
        s.len()
    );
    ShapeResult {
        name,
        n,
        m,
        rounds: metrics.rounds,
        messages: metrics.messages,
        max_words: metrics.max_message_words,
        csr_secs: best,
    }
}

fn main() {
    let scale = Scale::from_args(&Scale::ALL);
    let json_path = json_out_arg();
    // Per tier: n and the samples each timing takes the best of; m = 4n.
    let (n, samples) = match scale {
        Scale::Tiny => (600, 10),
        Scale::Quick => (8_192, 5),
        Scale::Full => (65_536, 3),
        Scale::Huge => (1 << 20, 1),
    };
    let m = 4 * n;
    let seed = 42u64;
    println!(
        "construction_throughput: scale = {}, n = {n}, m = {m}",
        scale.name()
    );

    let sk = SkeletonParams::default();
    let bs2 = baswana_sen::BaswanaSenParams::new(2).unwrap();
    let order = FibonacciParams::max_order(n).min(3);
    let fp = FibonacciParams::new(n, order, 0.5, 4).unwrap();

    let csr = Arc::new(generators::connected_gnm_csr(n, m, seed));
    let mut results = vec![
        bench_shape("skeleton", n, m, samples, || {
            skel::build_distributed_csr(&csr, &sk, seed).unwrap()
        }),
        bench_shape("baswana_sen_k2", n, m, samples, || {
            baswana_sen::build_distributed_csr(&csr, &bs2, seed).unwrap()
        }),
    ];
    // The huge tier records the skeleton and Baswana–Sen rows only.
    if scale != Scale::Huge {
        results.push(bench_shape("fibonacci", n, m, samples, || {
            let seq = Executor::Sequential;
            fibonacci::distributed::build_distributed(&csr, &fp, seed, &seq, None, &mut NullSink)
                .unwrap()
        }));
    }

    let rss = peak_rss_bytes();
    let shapes: Vec<String> = results.iter().map(ShapeResult::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"construction_throughput\",\n  \"scale\": \"{}\",\n  \"n\": {},\n  \
         \"m\": {},\n  \"peak_rss_bytes\": {},\n  \"shapes\": [\n{}\n  ]\n}}\n",
        scale.name(),
        n,
        m,
        rss,
        shapes.join(",\n"),
    );
    println!("peak RSS {} MiB", rss / (1 << 20));
    write_json(json_path.as_deref(), &json);
}
