//! Distance-engine throughput: the adaptive engine (bit-parallel or
//! per-source, picked per graph) vs the seed-style one-BFS-per-source
//! path.
//!
//! The seed verification/APSP hot path ran `traversal::bfs_distances` once
//! per source: a `VecDeque` walk over `Vec<Vec<NodeId>>`-shaped adjacency
//! with a fresh `Vec<Option<u32>>` per call. The engine replaces it with a
//! flat CSR and a per-graph strategy: 64-way bit-parallel multi-source BFS
//! where the waves overlap (low-diameter shapes), one flat top-down BFS
//! per source where they don't (grids and other lattices).
//!
//! Shapes at the default scale (n = 50 000, the scale of the paper's
//! experiments): ER (m = 200 000), a 224×224 grid, and a star
//! (diameter 2). Each timing batch answers `S = 256` consecutive sources —
//! the access pattern of `apsp_matrix` and the stretch verifiers. The
//! acceptance bar is **no shape regresses**: `speedup_t1 ≥ 1.0`
//! everywhere (enforced when `DISTANCE_THROUGHPUT_ASSERT=1`, the CI
//! configuration), with ER at 3–3.5× at one thread on a 2-core host.
//!
//! Flags (after `--`) and environment knob:
//! * `--scale tiny|full|huge` — `tiny` is the seconds-scale CI smoke run;
//!   `huge` builds n ≥ 2²⁰ shapes through the streaming CSR generators
//!   (no intermediate `Graph`, no seed baseline) and records peak RSS.
//!   Default `full`.
//! * `--json <path>` — write each shape's timings ({min, median, max}
//!   over the tier's interleaved samples), speedups, the strategy it
//!   resolved to, and the process's peak RSS there (the committed copy is
//!   `BENCH_distance.json` at the repo root).
//! * `DISTANCE_THROUGHPUT_ASSERT=1` — fail (panic) if any shape with a
//!   seed baseline shows `speedup_t1 < 1.0`, the ratio of the minima.

use spanner_bench::report::{self, Json};
use spanner_bench::{
    deny_unknown_args, json_out_arg, peak_rss_bytes, switch_arg, timed, write_json, Scale,
};
use spanner_graph::distance::UNREACHABLE;
use spanner_graph::{generators, traversal, CsrAdjacency, DistanceEngine, Graph, NodeId};

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

/// One shape's row of the artifact, and its speedups when it has a seed
/// baseline: the seed path's minimum over the engine's at 1 and at 8
/// threads.
struct Shape {
    name: &'static str,
    row: Json,
    speedups: Option<[f64; 2]>,
}

/// Times the engine at 1 and 8 threads on one batch of consecutive
/// sources (the batch shape of `apsp_matrix` and verification),
/// interleaved with the seed path over `seed` when the tier has one; the
/// engine's rows must equal the seed path's.
fn bench_shape(
    samples: usize,
    sources: usize,
    name: &'static str,
    engine: DistanceEngine,
    seed: Option<&Graph>,
) -> Shape {
    let n = engine.node_count();
    let sources: &[NodeId] = &(0..sources.min(n) as u32).map(NodeId).collect::<Vec<_>>();
    let e1 = engine.clone().with_threads(1);
    let e8 = engine.with_threads(8);
    if let Some(g) = seed {
        let expect = seed_batch(g, sources);
        assert_eq!(e1.many_distances(sources), expect, "{name}: t=1 parity");
        assert_eq!(e8.many_distances(sources), expect, "{name}: t=8 parity");
    }
    let mut t1 = || timed(|| e1.many_distances(sources)).1;
    let mut t8 = || timed(|| e8.many_distances(sources)).1;
    let mut seed_path = seed.map(|g| move || timed(|| seed_batch(g, sources)).1);
    let mut timers: Vec<&mut dyn FnMut() -> f64> = vec![&mut t1, &mut t8];
    if let Some(f) = seed_path.as_mut() {
        timers.push(f);
    }
    let stats = report::sample(samples, &mut timers);
    let (t1, t8, seed) = (stats[0], stats[1], stats.get(2));
    let speedups = seed.map(|s| [s.min / t1.min, s.min / t8.min]);
    let strategy = e1.resolved_strategy().to_string();
    println!(
        "{name}: n = {n}, strategy = {strategy}, minima t1 = {:.3}s, t8 = {:.3}s, \
         speedups vs seed path at 1 and 8 threads {speedups:.2?}",
        t1.min, t8.min
    );
    let row = Json::obj([
        ("shape", name.into()),
        ("n", n.into()),
        ("strategy", strategy.as_str().into()),
        ("seed_secs", seed.map_or(Json::Null, |s| s.json(6))),
        ("engine_t1_secs", t1.json(6)),
        ("engine_t8_secs", t8.json(6)),
        ("speedup_t1", fixed2(speedups.map(|s| s[0]))),
        ("speedup_t8", fixed2(speedups.map(|s| s[1]))),
    ]);
    Shape {
        name,
        row,
        speedups,
    }
}

/// A speedup with two decimals, `null` without a seed baseline.
fn fixed2(x: Option<f64>) -> Json {
    x.map_or(Json::Null, |x| Json::Fixed(x, 2))
}

fn main() {
    let scale = Scale::from_args(&[Scale::Tiny, Scale::Full, Scale::Huge]);
    let json_path = json_out_arg();
    // `cargo bench` appends `--bench`.
    switch_arg("--bench");
    deny_unknown_args();
    // Per tier: n, m, the grid's side, sources per batch and samples.
    let (n, m, side, sources, samples) = match scale {
        // The tiny grid is deliberately not 600-node-scale: below ~10⁴
        // nodes both paths' whole working sets sit in L1 and the seed's
        // nested-Vec layout costs nothing, so the comparison measures
        // only loop constants. At 128² a 64-source batch still runs in
        // single-digit milliseconds, but the engine's advantage is not
        // reliable there: on a 2-core host the grid's `speedup_t1` reads
        // 0.86–1.12 over interleaved runs, so the gate can fail on
        // working code (ROADMAP.md, "Work counters", asks whether the
        // engine does less work than the seed path on this grid).
        // Interleaved rounds are milliseconds each at this scale, so take
        // plenty: the per-quantity minimum converges to the true floor
        // even when the container stalls for whole rounds.
        Scale::Tiny => (600, 2_400, 128, 64, 30),
        Scale::Huge => (1 << 20, 4 << 20, 1024, 64, 5),
        _ => (50_000, 200_000, 224, 256, 5),
    };
    println!(
        "distance_throughput: scale = {}, n = {n}, {sources} sources per batch, {samples} samples",
        scale.name()
    );

    let shapes = if scale == Scale::Huge {
        let shape = |name, csr: CsrAdjacency| {
            bench_shape(samples, sources, name, DistanceEngine::from_csr(csr), None)
        };
        vec![
            shape("er", generators::erdos_renyi_gnm_csr(n, m, 42)),
            shape("grid", generators::grid_csr(side, side)),
            shape("torus", generators::torus_csr(side, side)),
        ]
    } else {
        let shape =
            |name, g: Graph| bench_shape(samples, sources, name, DistanceEngine::new(&g), Some(&g));
        vec![
            shape("er", generators::erdos_renyi_gnm(n, m, 42)),
            shape("grid", generators::grid(side, side)),
            shape("star", generators::star(n)),
        ]
    };

    let er = shapes[0].speedups;
    let rss = peak_rss_bytes();
    let json = Json::obj([
        ("bench", "distance_throughput".into()),
        ("scale", scale.name().into()),
        (
            "available_parallelism",
            report::available_parallelism().into(),
        ),
        ("n", n.into()),
        ("sources_per_batch", sources.into()),
        ("er_speedup_threads1", fixed2(er.map(|s| s[0]))),
        ("er_speedup_threads8", fixed2(er.map(|s| s[1]))),
        ("peak_rss_bytes", rss.into()),
        (
            "shapes",
            Json::Arr(shapes.iter().map(|s| s.row.clone()).collect()),
        ),
    ]);
    println!("peak RSS {} MiB", rss / (1 << 20));
    write_json(json_path.as_deref(), &json);

    // The load-bearing no-regression gate: with the adaptive engine, no
    // shape may be slower than the seed path it replaced.
    if std::env::var("DISTANCE_THROUGHPUT_ASSERT").as_deref() == Ok("1") {
        for shape in &shapes {
            if let Some([s1, _]) = shape.speedups {
                assert!(
                    s1 >= 1.0,
                    "{}: engine regressed vs seed path (speedup_t1 = {s1:.2})",
                    shape.name
                );
            }
        }
        println!("assertion passed: speedup_t1 >= 1.0 for every shape");
    }
}
