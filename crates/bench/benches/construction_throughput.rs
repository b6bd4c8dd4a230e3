//! Construction-pipeline throughput of the distributed drivers.
//!
//! Each construction runs untraced on the sequential executor through its
//! CSR-native driver (`build_distributed_csr` for the skeleton and
//! Baswana–Sen, `build_distributed` for Fibonacci), which shares one
//! `Arc<CsrAdjacency>` across the executor, the fault plan, and the trace
//! layer and collects the
//! spanner through the CSR edge index — zero `Graph` materialization. This
//! bench records rounds/sec, total messages, wall time ({min, median,
//! max} over five samples, the shapes interleaved round-robin), and peak
//! RSS per shape.
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

use spanner_baselines::baswana_sen;
use spanner_bench::report::{self, Json};
use spanner_bench::{
    deny_unknown_args, json_out_arg, peak_rss_bytes, switch_arg, timed, write_json, Scale,
};
use spanner_graph::generators;
use spanner_netsim::{Executor, NullSink};
use ultrasparse::fibonacci::{self, FibonacciParams};
use ultrasparse::skeleton::{distributed as skel, SkeletonParams};
use ultrasparse::Spanner;

/// Timed builds per shape.
const SAMPLES: usize = 5;

fn main() {
    let scale = Scale::from_args(&Scale::ALL);
    let json_path = json_out_arg();
    // `cargo bench` appends `--bench`.
    switch_arg("--bench");
    deny_unknown_args();
    let n = match scale {
        Scale::Tiny => 600,
        Scale::Quick => 8_192,
        Scale::Full => 65_536,
        Scale::Huge => 1 << 20,
    };
    let m = 4 * n;
    let seed = 42u64;
    println!(
        "construction_throughput: scale = {}, n = {n}, m = {m}, {SAMPLES} samples",
        scale.name()
    );

    let sk = SkeletonParams::default();
    let bs2 = baswana_sen::BaswanaSenParams::new(2).unwrap();
    let order = FibonacciParams::max_order(n).min(3);
    let fp = FibonacciParams::new(n, order, 0.5, 4).unwrap();

    let csr = Arc::new(generators::connected_gnm_csr(n, m, seed));
    let skeleton = || skel::build_distributed_csr(&csr, &sk, seed).unwrap();
    let bs = || baswana_sen::build_distributed_csr(&csr, &bs2, seed).unwrap();
    let seq = Executor::Sequential;
    let fib = || {
        fibonacci::distributed::build_distributed(&csr, &fp, seed, &seq, None, &mut NullSink)
            .unwrap()
    };
    let mut shapes: Vec<(&str, &dyn Fn() -> Spanner)> =
        vec![("skeleton", &skeleton), ("baswana_sen_k2", &bs)];
    // The huge tier records the skeleton and Baswana–Sen rows only.
    if scale != Scale::Huge {
        shapes.push(("fibonacci", &fib));
    }

    // Every sample builds the same spanner, so the counts come from the
    // first.
    let mut first: Vec<Option<Spanner>> = shapes.iter().map(|_| None).collect();
    let mut timers: Vec<_> = shapes
        .iter()
        .zip(&mut first)
        .map(|(&(_, build), first)| {
            move || {
                let (s, secs) = timed(build);
                first.get_or_insert(s);
                secs
            }
        })
        .collect();
    let secs = report::sample(SAMPLES, &mut timers);

    let rows = shapes
        .iter()
        .zip(&first)
        .zip(&secs)
        .map(|(((name, _), s), secs)| {
            let s = s.as_ref().expect("at least one sample");
            let metrics = s.metrics.as_ref().expect("distributed metrics");
            println!(
                "{name}: {} rounds, {} messages, |S| = {}, \
                 csr {:.3}s min / {:.3}s median / {:.3}s max",
                metrics.rounds,
                metrics.messages,
                s.len(),
                secs.min,
                secs.median,
                secs.max
            );
            Json::obj([
                ("shape", (*name).into()),
                ("n", n.into()),
                ("m", m.into()),
                ("rounds", metrics.rounds.into()),
                ("messages", metrics.messages.into()),
                ("max_words", metrics.max_message_words.into()),
                ("csr_secs", secs.json(6)),
                (
                    "rounds_per_sec",
                    Json::Fixed(metrics.rounds as f64 / secs.min, 2),
                ),
            ])
        });
    let shapes = Json::Arr(rows.collect());
    let rss = peak_rss_bytes();
    let json = Json::obj([
        ("bench", "construction_throughput".into()),
        ("scale", scale.name().into()),
        (
            "available_parallelism",
            report::available_parallelism().into(),
        ),
        ("n", n.into()),
        ("m", m.into()),
        ("peak_rss_bytes", rss.into()),
        ("shapes", shapes),
    ]);
    println!("peak RSS {} MiB", rss / (1 << 20));
    write_json(json_path.as_deref(), &json);
}
