//! Distance-engine throughput: the adaptive engine (bit-parallel or
//! direction-optimizing, picked per graph) vs the seed-style
//! one-BFS-per-source path.
//!
//! The seed verification/APSP hot path ran `traversal::bfs_distances` once
//! per source: a `VecDeque` walk over `Vec<Vec<NodeId>>`-shaped adjacency
//! with a fresh `Vec<Option<u32>>` per call. The engine replaces it with a
//! flat CSR and a per-graph strategy: 64-way bit-parallel multi-source BFS
//! where the waves overlap (low-diameter shapes), one direction-optimizing
//! BFS per source where they don't (grids and other lattices).
//!
//! Shapes at the default scale (n = 50 000, the scale of the paper's
//! experiments): ER (m = 200 000), a 224×224 grid, and a star
//! (diameter 2). Each timing batch answers `S = 256` consecutive sources —
//! the access pattern of `apsp_matrix` and the stretch verifiers. The
//! acceptance bar is **no shape regresses**: `speedup_t1 ≥ 1.0`
//! everywhere (enforced when `DISTANCE_THROUGHPUT_ASSERT=1`, the CI
//! configuration), with ER expected well above 4×.
//!
//! Flags (after `--`) and environment knobs:
//! * `--scale tiny|full|huge` — `tiny` is the seconds-scale CI smoke run;
//!   `huge` builds n ≥ 2²⁰ shapes through the streaming CSR generators
//!   (no intermediate `Graph`, no seed baseline) and records peak RSS.
//!   Default `full`.
//! * `--json <path>` — write the measured speedups, the strategy each
//!   shape resolved to, and the process's peak RSS there (the committed
//!   copy is `BENCH_distance.json` at the repo root).
//! * `DISTANCE_ENGINE_STRATEGY=auto|bit-parallel|direction-optimizing` —
//!   overrides the engine's per-graph strategy probe for every shape.
//! * `DISTANCE_THROUGHPUT_ASSERT=1` — fail (panic) if any shape with a
//!   seed baseline shows `speedup_t1 < 1.0`.
//!
//! The criterion report runs at tiny and full only.

use std::time::{Duration, Instant};

use criterion::Criterion;
use spanner_bench::{json_out_arg, peak_rss_bytes, write_json, Scale};
use spanner_graph::distance::UNREACHABLE;
use spanner_graph::{generators, traversal, DistanceEngine, Graph, NodeId, Strategy};

/// The per-tier workload.
struct Tier {
    n: usize,
    m: usize,
    grid_side: usize,
    sources: usize,
    samples: usize,
    measurement: Duration,
}

fn tier(scale: Scale) -> Tier {
    match scale {
        // The tiny grid is deliberately not 600-node-scale: below ~10⁴
        // nodes both paths' whole working sets sit in L1 and the seed's
        // nested-Vec layout costs nothing, so the comparison measures
        // only loop constants. 128² is the smallest grid where the
        // engine's flat-CSR locality advantage is reliably measurable,
        // and a 64-source batch still runs in single-digit milliseconds.
        Scale::Tiny => Tier {
            n: 600,
            m: 2_400,
            grid_side: 128,
            sources: 64,
            // Interleaved rounds are milliseconds each at this scale, so
            // take plenty: the per-quantity minimum converges to the true
            // floor even when the container stalls for whole rounds.
            samples: 30,
            measurement: Duration::from_millis(200),
        },
        Scale::Huge => Tier {
            n: 1 << 20,
            m: 4 << 20,
            grid_side: 1024,
            sources: 64,
            samples: 2,
            measurement: Duration::from_secs(3),
        },
        _ => Tier {
            n: 50_000,
            m: 200_000,
            grid_side: 224,
            sources: 256,
            samples: 5,
            measurement: Duration::from_secs(3),
        },
    }
}

fn strategy_override() -> Strategy {
    match std::env::var("DISTANCE_ENGINE_STRATEGY") {
        Ok(s) => s.parse().expect("DISTANCE_ENGINE_STRATEGY"),
        Err(_) => Strategy::Auto,
    }
}

/// The seed hot path: one queue-based BFS per source.
fn seed_batch(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let n = g.node_count();
    let mut out = Vec::with_capacity(sources.len() * n);
    for &s in sources {
        out.extend(
            traversal::bfs_distances(g, s)
                .into_iter()
                .map(|d| d.unwrap_or(UNREACHABLE)),
        );
    }
    out
}

/// Wall-clock seconds of one run of `f`.
fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    criterion::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Best wall-clock seconds per timed quantity over `samples`
/// **interleaved** rounds: each round times every closure once, and each
/// keeps its minimum. The minimum is the noise-robust estimator on a
/// shared machine (noise only ever adds time), and interleaving is what
/// makes the *ratios* robust — this container's throughput drifts by tens
/// of percent between adjacent measurement windows, so timing each
/// quantity in its own sequential block bakes that drift straight into
/// the reported speedups.
fn time_interleaved<const K: usize>(
    samples: usize,
    mut fs: [&mut dyn FnMut() -> f64; K],
) -> [f64; K] {
    let mut best = [f64::INFINITY; K];
    for _ in 0..samples {
        for (b, f) in best.iter_mut().zip(fs.iter_mut()) {
            *b = b.min(f());
        }
    }
    best
}

struct ShapeResult {
    name: &'static str,
    n: usize,
    strategy: Strategy,
    /// `None` at huge scale, where the seed path is not run.
    seed_secs: Option<f64>,
    engine_t1_secs: f64,
    engine_t8_secs: f64,
}

impl ShapeResult {
    fn speedup_t1(&self) -> Option<f64> {
        self.seed_secs.map(|s| s / self.engine_t1_secs)
    }

    fn json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.6}"),
            None => "null".to_string(),
        };
        format!(
            "    {{\"shape\": \"{}\", \"n\": {}, \"strategy\": \"{}\", \"seed_secs\": {}, \
             \"engine_t1_secs\": {:.6}, \"engine_t8_secs\": {:.6}, \"speedup_t1\": {}, \
             \"speedup_t8\": {}}}",
            self.name,
            self.n,
            self.strategy,
            opt(self.seed_secs),
            self.engine_t1_secs,
            self.engine_t8_secs,
            opt(self.speedup_t1().map(|s| (s * 100.0).round() / 100.0)),
            opt(self
                .seed_secs
                .map(|s| ((s / self.engine_t8_secs) * 100.0).round() / 100.0)),
        )
    }
}

/// Tiny/full shapes: seed baseline + criterion groups + parity check.
fn bench_shape(c: &mut Criterion, sc: &Tier, name: &'static str, g: &Graph) -> ShapeResult {
    let n = g.node_count();
    // Consecutive ids: the batch shape of apsp_matrix / verification.
    let sources: Vec<NodeId> = (0..sc.sources.min(n) as u32).map(NodeId).collect();

    let e1 = DistanceEngine::new(g)
        .with_threads(1)
        .with_strategy(strategy_override());
    let e8 = DistanceEngine::new(g)
        .with_threads(8)
        .with_strategy(strategy_override());
    let expect = seed_batch(g, &sources);
    assert_eq!(e1.many_distances(&sources), expect, "{name}: t=1 parity");
    assert_eq!(e8.many_distances(&sources), expect, "{name}: t=8 parity");

    let mut group = c.benchmark_group(format!("distance_throughput/{name}"));
    group.sample_size(sc.samples.max(2));
    group.measurement_time(sc.measurement);
    group.bench_function("seed_path", |b| b.iter(|| seed_batch(g, &sources)));
    group.bench_function("engine_t1", |b| b.iter(|| e1.many_distances(&sources)));
    group.bench_function("engine_t8", |b| b.iter(|| e8.many_distances(&sources)));
    group.finish();

    let [seed_secs, engine_t1_secs, engine_t8_secs] = time_interleaved(
        sc.samples,
        [
            &mut || time_once(|| seed_batch(g, &sources)),
            &mut || time_once(|| e1.many_distances(&sources)),
            &mut || time_once(|| e8.many_distances(&sources)),
        ],
    );
    ShapeResult {
        name,
        n,
        strategy: e1.resolved_strategy(),
        seed_secs: Some(seed_secs),
        engine_t1_secs,
        engine_t8_secs,
    }
}

/// Huge shapes: engine built straight from a streaming-CSR generator
/// (no intermediate `Graph`), timed without a seed baseline or criterion
/// groups — the point of the tier is that the seed path cannot reach this
/// scale in reasonable time or memory.
fn bench_shape_huge(sc: &Tier, name: &'static str, engine: DistanceEngine) -> ShapeResult {
    let n = engine.node_count();
    let sources: Vec<NodeId> = (0..sc.sources.min(n) as u32).map(NodeId).collect();
    let e1 = engine
        .clone()
        .with_threads(1)
        .with_strategy(strategy_override());
    let e8 = engine.with_threads(8).with_strategy(strategy_override());
    let [engine_t1_secs, engine_t8_secs] = time_interleaved(
        sc.samples,
        [
            &mut || time_once(|| e1.many_distances(&sources)),
            &mut || time_once(|| e8.many_distances(&sources)),
        ],
    );
    println!(
        "{name}: n = {n}, strategy = {}, t1 = {engine_t1_secs:.3}s, t8 = {engine_t8_secs:.3}s",
        e1.resolved_strategy()
    );
    ShapeResult {
        name,
        n,
        strategy: e1.resolved_strategy(),
        seed_secs: None,
        engine_t1_secs,
        engine_t8_secs,
    }
}

fn main() {
    let scale = Scale::from_args(&[Scale::Tiny, Scale::Full, Scale::Huge]);
    let json_path = json_out_arg();
    let sc = tier(scale);
    println!(
        "distance_throughput: scale = {}, n = {}, {} sources per batch",
        scale.name(),
        sc.n,
        sc.sources
    );

    let results: Vec<ShapeResult> = if scale == Scale::Huge {
        vec![
            bench_shape_huge(
                &sc,
                "er",
                DistanceEngine::from_csr(generators::erdos_renyi_gnm_csr(sc.n, sc.m, 42)),
            ),
            bench_shape_huge(
                &sc,
                "grid",
                DistanceEngine::from_csr(generators::grid_csr(sc.grid_side, sc.grid_side)),
            ),
            bench_shape_huge(
                &sc,
                "torus",
                DistanceEngine::from_csr(generators::torus_csr(sc.grid_side, sc.grid_side)),
            ),
        ]
    } else {
        let er = generators::erdos_renyi_gnm(sc.n, sc.m, 42);
        let grid = generators::grid(sc.grid_side, sc.grid_side);
        let star = generators::star(sc.n);
        let mut c = Criterion::default();
        vec![
            bench_shape(&mut c, &sc, "er", &er),
            bench_shape(&mut c, &sc, "grid", &grid),
            bench_shape(&mut c, &sc, "star", &star),
        ]
    };

    for r in &results {
        if let Some(s1) = r.speedup_t1() {
            let s8 = r.seed_secs.unwrap() / r.engine_t8_secs;
            println!(
                "{}: strategy = {}, engine vs seed path {s1:.2}x at 1 thread, {s8:.2}x at 8 threads",
                r.name, r.strategy
            );
        }
    }

    let er_res = &results[0];
    let rss = peak_rss_bytes();
    let shapes: Vec<String> = results.iter().map(ShapeResult::json).collect();
    let opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.2}"),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"bench\": \"distance_throughput\",\n  \"scale\": \"{}\",\n  \"n\": {},\n  \
         \"sources_per_batch\": {},\n  \"er_speedup_threads1\": {},\n  \
         \"er_speedup_threads8\": {},\n  \"peak_rss_bytes\": {},\n  \"shapes\": [\n{}\n  ]\n}}\n",
        scale.name(),
        sc.n,
        sc.sources,
        opt(er_res.speedup_t1()),
        opt(er_res.seed_secs.map(|s| s / er_res.engine_t8_secs)),
        rss,
        shapes.join(",\n"),
    );
    println!("peak RSS {} MiB", rss / (1 << 20));
    write_json(json_path.as_deref(), &json);

    // The load-bearing no-regression gate: with the adaptive engine, no
    // shape may be slower than the seed path it replaced.
    if std::env::var("DISTANCE_THROUGHPUT_ASSERT").as_deref() == Ok("1") {
        for r in &results {
            if let Some(s1) = r.speedup_t1() {
                assert!(
                    s1 >= 1.0,
                    "{}: engine regressed vs seed path (speedup_t1 = {s1:.2})",
                    r.name
                );
            }
        }
        println!("assertion passed: speedup_t1 >= 1.0 for every shape");
    }
}
