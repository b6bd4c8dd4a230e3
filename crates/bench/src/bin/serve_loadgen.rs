//! Load generator for the `spanner-serve` query layer (EXPERIMENTS.md
//! "Serving"): drives a deterministic mixed Zipf + uniform workload
//! through [`Server::run_queries`] in batches, and reports per-query
//! latency percentiles and sustained QPS (into the `--json <path>` file,
//! if given; the committed copy is `BENCH_serve.json` at the repo root).
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

use std::time::Instant;

use spanner_bench::{deny_unknown_args, json_out_arg, parsed_arg, switch_arg, write_json, Scale};
use spanner_serve::workload::{generate, QueryPair, WorkloadSpec};
use spanner_serve::{GraphSpec, LoadRequest, QueryReq, ServeConfig, Server};

struct Config {
    n: usize,
    m: usize,
    queries: usize,
    batch: usize,
    threads: usize,
    zipf_frac: f64,
    zipf_theta: f64,
    route_frac: f64,
    seed: u64,
    verify: bool,
}

fn parse_config() -> Config {
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    let knob = |name, quick_value, full_value| {
        parsed_arg(name).unwrap_or(if quick { quick_value } else { full_value })
    };
    let cfg = Config {
        n: knob("--n", 2_000, 50_000),
        m: knob("--m", 8_000, 200_000),
        queries: knob("--queries", 8_000, 120_000),
        batch: parsed_arg("--batch").unwrap_or(64),
        threads: knob("--threads", 4, 8),
        zipf_frac: parsed_arg("--zipf-frac").unwrap_or(0.8),
        zipf_theta: parsed_arg("--zipf-theta").unwrap_or(0.99),
        route_frac: parsed_arg("--route-frac").unwrap_or(0.0),
        seed: parsed_arg("--seed").unwrap_or(7),
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
    server
        .load(&LoadRequest {
            spec: GraphSpec::Er {
                n: cfg.n as u32,
                m: cfg.m as u64,
                seed: cfg.seed,
            },
            k: 2,
            seed: cfg.seed,
            routing: cfg.route_frac > 0.0,
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
        let start = Instant::now();
        let resp = server.run_queries(chunk);
        let per_query = start.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64;
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
        "serve_loadgen: n = {}, m = {}, {} queries (zipf_frac = {}, theta = {}, \
         route_frac = {}), batch = {}, threads = {}",
        cfg.n,
        cfg.m,
        cfg.queries,
        cfg.zipf_frac,
        cfg.zipf_theta,
        cfg.route_frac,
        cfg.batch,
        cfg.threads
    );

    let spec = WorkloadSpec {
        nodes: cfg.n as u32,
        queries: cfg.queries,
        zipf_frac: cfg.zipf_frac,
        zipf_theta: cfg.zipf_theta,
        route_frac: cfg.route_frac,
        seed: cfg.seed,
    };
    let reqs = as_reqs(&generate(&spec));

    let (mut server, build_secs) = {
        let start = Instant::now();
        let s = build_server(&cfg, cfg.threads);
        (s, start.elapsed().as_secs_f64())
    };
    println!("built oracle (k = 2) in {build_secs:.2}s; serving…");

    let serve_start = Instant::now();
    let (responses, mut lat_us) = run_stream(&mut server, &reqs, cfg.batch);
    let serve_secs = serve_start.elapsed().as_secs_f64();
    let qps = cfg.queries as f64 / serve_secs;
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let (p50, p99) = (percentile(&lat_us, 0.50), percentile(&lat_us, 0.99));

    let stats = *server.stats();
    println!(
        "served {} queries in {serve_secs:.2}s: {qps:.0} q/s, p50 = {p50:.1}µs, \
         p99 = {p99:.1}µs, errors = {}",
        stats.queries, stats.errors
    );

    // --verify: the determinism acceptance criterion. Fresh servers at 1
    // and 8 threads must produce byte-identical response streams and
    // byte-identical final STATS lines.
    let verify = if cfg.verify {
        let mut all_equal = true;
        let mut stats_lines = Vec::new();
        for threads in [1usize, 8] {
            let mut s = build_server(&cfg, threads);
            let (resp, _) = run_stream(&mut s, &reqs, cfg.batch);
            all_equal &= resp == responses;
            stats_lines.push(s.stats_line());
        }
        all_equal &= stats_lines[0] == stats_lines[1];
        println!(
            "verify: threads 1 vs 8 {}",
            if all_equal { "identical" } else { "MISMATCH" }
        );
        Some(all_equal)
    } else {
        None
    };

    let json = format!(
        "{{\n  \"bench\": \"serve_loadgen\",\n  \"n\": {},\n  \"m\": {},\n  \"queries\": {},\n  \
         \"batch\": {},\n  \"threads\": {},\n  \"zipf_frac\": {},\n  \
         \"zipf_theta\": {},\n  \"route_frac\": {},\n  \"seed\": {},\n  \
         \"oracle_build_secs\": {:.3},\n  \"serve_secs\": {:.3},\n  \"qps\": {:.0},\n  \
         \"p50_us\": {:.2},\n  \"p99_us\": {:.2},\n  \"errors\": {},\n  \
         \"resp_words\": {},\n  \"verify_threads_1_vs_8\": {}\n}}\n",
        cfg.n,
        cfg.m,
        cfg.queries,
        cfg.batch,
        cfg.threads,
        cfg.zipf_frac,
        cfg.zipf_theta,
        cfg.route_frac,
        cfg.seed,
        build_secs,
        serve_secs,
        qps,
        p50,
        p99,
        stats.errors,
        stats.resp_words,
        match verify {
            Some(true) => "\"identical\"",
            Some(false) => "\"MISMATCH\"",
            None => "null",
        },
    );
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
