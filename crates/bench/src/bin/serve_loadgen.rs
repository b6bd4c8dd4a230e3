//! Load generator for the `spanner-serve` query layer (EXPERIMENTS.md
//! "Serving"): drives a deterministic mixed Zipf + uniform workload
//! through [`Server::run_queries`] in batches, and reports per-query
//! latency percentiles and sustained QPS (into the `--json <path>` file,
//! if given; the committed copy is `BENCH_serve.json` at the repo root).
//! It takes five samples: each builds a fresh server, serves the whole
//! stream once, and must answer it exactly as the first did (responses
//! and `STATS` line); the timings are {min, median, max} over them.
//!
//! Defaults reproduce the acceptance workload: an ER graph with
//! n = 50 000, m = 200 000, and 120 000 mixed queries (80 % drawn from a
//! Zipf(θ = 0.99) hot set, 20 % uniform) in batches of 64 over 8 worker
//! threads.
//!
//! Flags (all optional):
//!
//! * `--scale quick` (or `--quick`) — seconds-scale CI smoke
//!   configuration (n = 2 000, 8 000 queries, 4 threads); `full` is the
//!   default and the only other tier;
//! * `--json <path>` — write the results there;
//! * `--verify` — replay the identical query stream on fresh servers at
//!   1 thread and 8 threads and assert every response line *and* the
//!   final `STATS` line are identical (the determinism acceptance
//!   criterion);
//! * `--n N`, `--m N`, `--queries N`, `--batch N`, `--threads N`,
//!   `--zipf-frac F`, `--zipf-theta F`, `--route-frac F`, `--seed N` —
//!   override individual knobs.
//!
//! With `SERVE_LOADGEN_ASSERT=1` (the CI configuration) the run fails
//! unless it served every query without errors and the verify pass (if
//! requested) matched — deterministic properties of the seeded workload,
//! not timing.

use std::cell::RefCell;

use spanner_bench::report::{self, Json, Stat};
use spanner_bench::{
    deny_unknown_args, json_out_arg, parsed_arg, switch_arg, timed, write_json, Scale,
};
use spanner_serve::workload::{generate, QueryPair, WorkloadSpec};
use spanner_serve::{GraphSpec, LoadRequest, QueryReq, ServeConfig, ServeStats, Server};

/// Timed samples, each on a fresh server.
const SAMPLES: usize = 5;

struct Config {
    /// The query stream; `nodes` is the graph's n.
    spec: WorkloadSpec,
    m: u64,
    batch: usize,
    threads: usize,
    verify: bool,
}

fn parse_config() -> Config {
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    let knob = |name, quick_value, full_value| {
        parsed_arg(name).unwrap_or(if quick { quick_value } else { full_value })
    };
    let cfg = Config {
        spec: WorkloadSpec {
            nodes: knob("--n", 2_000, 50_000),
            queries: knob("--queries", 8_000, 120_000) as usize,
            zipf_frac: parsed_arg("--zipf-frac").unwrap_or(0.8),
            zipf_theta: parsed_arg("--zipf-theta").unwrap_or(0.99),
            route_frac: parsed_arg("--route-frac").unwrap_or(0.0),
            seed: parsed_arg("--seed").unwrap_or(7),
        },
        m: knob("--m", 8_000, 200_000).into(),
        batch: parsed_arg("--batch").unwrap_or(64),
        threads: knob("--threads", 4, 8) as usize,
        verify: switch_arg("--verify"),
    };
    assert!(cfg.batch >= 1, "--batch must be at least 1");
    cfg
}

fn build_server(cfg: &Config, threads: usize) -> Server {
    let mut server = Server::new(ServeConfig {
        threads,
        ..ServeConfig::default()
    });
    let seed = cfg.spec.seed;
    server
        .load(&LoadRequest {
            spec: GraphSpec::Er {
                n: cfg.spec.nodes,
                m: cfg.m,
                seed,
            },
            k: 2,
            seed,
            routing: cfg.spec.route_frac > 0.0,
        })
        .expect("load acceptance graph");
    server
}

fn as_reqs(pairs: &[QueryPair]) -> Vec<QueryReq> {
    pairs
        .iter()
        .map(|p| {
            if p.route {
                QueryReq::Route(p.u, p.v)
            } else {
                QueryReq::Dist(p.u, p.v)
            }
        })
        .collect()
}

/// Runs the whole stream and returns (responses, per-query latency µs).
fn run_stream(server: &mut Server, reqs: &[QueryReq], batch: usize) -> (Vec<String>, Vec<f64>) {
    let mut responses = Vec::with_capacity(reqs.len());
    let mut lat_us = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(batch) {
        let (resp, secs) = timed(|| server.run_queries(chunk));
        let per_query = secs * 1e6 / chunk.len() as f64;
        lat_us.extend(std::iter::repeat_n(per_query, chunk.len()));
        responses.extend(resp);
    }
    (responses, lat_us)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let cfg = parse_config();
    let json_path = json_out_arg();
    deny_unknown_args();
    println!(
        "serve_loadgen: m = {}, batch = {}, threads = {}, {:?}",
        cfg.m, cfg.batch, cfg.threads, cfg.spec
    );
    let reqs = as_reqs(&generate(&cfg.spec));

    // A sample builds a server, then serves the stream on it; the first
    // sample's answers are what every later one must repeat.
    let server = RefCell::new(None);
    let mut first: Option<(Vec<String>, String, ServeStats)> = None;
    let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut build = || timed(|| server.replace(Some(build_server(&cfg, cfg.threads)))).1;
    let mut serve = || {
        let mut s = server.take().expect("a server built this round");
        let ((responses, mut lat_us), secs) = timed(|| run_stream(&mut s, &reqs, cfg.batch));
        lat_us.sort_by(f64::total_cmp);
        qps.push(cfg.spec.queries as f64 / secs);
        p50.push(percentile(&lat_us, 0.50));
        p99.push(percentile(&lat_us, 0.99));
        match &first {
            Some((r, line, _)) => assert!(
                *r == responses && *line == s.stats_line(),
                "a sample answered the stream differently from the first"
            ),
            None => first = Some((responses, s.stats_line(), *s.stats())),
        }
        secs
    };
    let secs = report::sample(
        SAMPLES,
        &mut [&mut build as &mut dyn FnMut() -> f64, &mut serve],
    );
    let (build_secs, serve_secs) = (secs[0], secs[1]);
    let (qps, p50, p99) = (Stat::of(&qps), Stat::of(&p50), Stat::of(&p99));
    let (responses, stats_line, stats) = first.expect("at least one sample");
    println!(
        "built oracle (k = 2) in {:.2}s; served {} queries in {:.2}s: {:.0} q/s, \
         p50 = {:.1}µs, p99 = {:.1}µs, errors = {} (medians of {SAMPLES} samples)",
        build_secs.median,
        stats.queries,
        serve_secs.median,
        qps.median,
        p50.median,
        p99.median,
        stats.errors
    );

    // --verify: the determinism acceptance criterion. Fresh servers at 1
    // and 8 threads must produce byte-identical response streams and
    // byte-identical final STATS lines.
    let verify = cfg.verify.then(|| {
        [1usize, 8].into_iter().all(|threads| {
            let mut s = build_server(&cfg, threads);
            run_stream(&mut s, &reqs, cfg.batch).0 == responses && s.stats_line() == stats_line
        })
    });
    let verdict = verify.map(|ok| if ok { "identical" } else { "MISMATCH" });
    if let Some(verdict) = verdict {
        println!("verify: threads 1 vs 8 {verdict}");
    }

    let json = Json::obj([
        ("bench", "serve_loadgen".into()),
        (
            "available_parallelism",
            report::available_parallelism().into(),
        ),
        ("n", cfg.spec.nodes.into()),
        ("m", cfg.m.into()),
        ("queries", cfg.spec.queries.into()),
        ("batch", cfg.batch.into()),
        ("threads", cfg.threads.into()),
        ("zipf_frac", Json::Fixed(cfg.spec.zipf_frac, 3)),
        ("zipf_theta", Json::Fixed(cfg.spec.zipf_theta, 3)),
        ("route_frac", Json::Fixed(cfg.spec.route_frac, 3)),
        ("seed", cfg.spec.seed.into()),
        ("oracle_build_secs", build_secs.json(3)),
        ("serve_secs", serve_secs.json(3)),
        ("qps", qps.json(0)),
        ("p50_us", p50.json(2)),
        ("p99_us", p99.json(2)),
        ("errors", stats.errors.into()),
        ("resp_words", stats.resp_words.into()),
        (
            "verify_threads_1_vs_8",
            verdict.map_or(Json::Null, Json::from),
        ),
    ]);
    write_json(json_path.as_deref(), &json);

    // CI gate: deterministic workload properties only — never timing.
    if std::env::var("SERVE_LOADGEN_ASSERT").as_deref() == Ok("1") {
        assert_eq!(stats.errors, 0, "workload produced protocol errors");
        assert_eq!(
            verify,
            Some(true).filter(|_| cfg.verify),
            "verify pass failed"
        );
        println!("assertion passed: no errors, verify ok");
    }
}
