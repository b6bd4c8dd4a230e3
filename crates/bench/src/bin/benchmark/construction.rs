//! Construction workloads: a distributed spanner built on the round
//! simulator, timed per driver call.
//!
//! An untraced run generates `GRAPHS` input graphs from the seed,
//! `SETUP_PASSES` times over (setup), makes one warm-up driver call per
//! graph, then calls the untraced CSR driver back to back for the measured
//! window, cycling through the graphs, with the host probed between calls
//! (`probe`). It checks that
//! every call on a graph returns the same output and verifies each graph's
//! output: spanning, stretch from sampled BFS sources within the paper's
//! bound, and for the two-thread executor equality with the sequential one.
//!
//! A traced run works on the first graph. Only the sequential skeleton has
//! a traced CSR driver: there the run alternates untraced and traced calls,
//! splits the traced ones with `ClockSink`, and times the parallel
//! executor's untraced calls between them for the two-thread speed-up.
//! Baswana–Sen reports what its untraced CSR calls give: exact counts and
//! messages per microsecond. No wall time is taken from another code
//! path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spanner_baselines::baswana_sen::{self, BaswanaSenParams};
use spanner_graph::generators::connected_gnm_csr;
use spanner_graph::traversal::bfs_distances_csr;
use spanner_graph::{CsrAdjacency, NodeId};
use spanner_netsim::RunError;
use ultrasparse::skeleton::{distributed, SkeletonParams};
use ultrasparse::Spanner;

use crate::clock::{Breakdown, ClockSink};
use crate::probe::HostTimer;
use crate::report::{median, tail, Report, Tally};
use crate::RunOpts;

/// Input graphs per run. The cost of one random graph varies with its
/// seed by a few percent; cycling through four keeps one easy or hard
/// graph from setting the run's median.
const GRAPHS: usize = 4;
/// Generations of each input graph; setup_s is the median of all. The
/// first few generations of a fresh process take page faults the later
/// ones do not; with 32 samples they never decide the median, and one
/// generation takes only a few milliseconds.
const SETUP_PASSES: usize = 8;
/// Driver calls per untraced run, at least: enough for `TAIL` to keep ten
/// calls beyond it.
const MIN_CALLS: usize = 40;
/// The tail percentile of a driver call: a window holds a few dozen calls,
/// so p75 is the highest fixed percentile with ten calls beyond it.
const TAIL: f64 = 75.0;
/// BFS sources of the sampled stretch check.
const STRETCH_SOURCES: usize = 4;

/// Threads of the parallel executor the skeleton is checked and traced
/// against: the host's two CPUs.
const PARALLEL_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Theorem 2 skeleton with `SkeletonParams::default()`, sequential
    /// executor.
    Skeleton,
    /// Baswana–Sen with k = log2 n.
    BaswanaSen,
}

/// A construction workload: `connected_gnm(2^log2_n, edges_per_node · n)`.
#[derive(Debug, Clone, Copy)]
pub struct Construction {
    pub log2_n: u32,
    pub edges_per_node: usize,
    pub algo: Algo,
}

impl Construction {
    fn n(&self) -> usize {
        1 << self.log2_n
    }

    fn stretch_bound(&self) -> u64 {
        match self.algo {
            Algo::Skeleton => {
                SkeletonParams::default()
                    .schedule(self.n())
                    .distortion_bound
            }
            Algo::BaswanaSen => u64::from(self.bs_params().stretch()),
        }
    }

    fn bs_params(&self) -> BaswanaSenParams {
        BaswanaSenParams::new(self.log2_n).expect("log2 n >= 1")
    }

    fn generate(&self, seed: u64) -> Arc<CsrAdjacency> {
        let n = self.n();
        Arc::new(connected_gnm_csr(n, self.edges_per_node * n, seed))
    }

    /// One untraced driver call: the operation the workload times.
    fn build(&self, csr: &Arc<CsrAdjacency>, seed: u64) -> Result<Spanner, RunError> {
        match self.algo {
            Algo::Skeleton => {
                distributed::build_distributed_csr(csr, &SkeletonParams::default(), seed)
            }
            Algo::BaswanaSen => baswana_sen::build_distributed_csr(csr, &self.bs_params(), seed),
        }
    }
}

/// The skeleton on the parallel executor.
fn build_parallel(csr: &Arc<CsrAdjacency>, seed: u64) -> Result<Spanner, RunError> {
    distributed::build_distributed_csr_parallel(
        csr,
        &SkeletonParams::default(),
        seed,
        PARALLEL_THREADS,
    )
}

/// Runs the workload; `Err` when a driver call fails and nothing can be
/// measured.
pub fn run(
    w: &Construction,
    opts: &RunOpts,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    if opts.trace {
        run_traced(w, opts, report, tally)
    } else {
        run_untraced(w, opts, report, tally)
    }
}

/// Seed of the `i`-th input graph of a run, and of the driver calls on it.
fn graph_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(GRAPHS as u64).wrapping_add(i as u64)
}

fn driver_failed(e: RunError) -> String {
    format!("driver call failed: {e}")
}

fn probe_failed(e: std::io::Error) -> String {
    format!("host probe failed: {e}")
}

fn run_untraced(
    w: &Construction,
    opts: &RunOpts,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut timer = HostTimer::start().map_err(probe_failed)?;
    let mut slots: Vec<Option<Arc<CsrAdjacency>>> = vec![None; GRAPHS];
    for _ in 0..SETUP_PASSES {
        for (i, slot) in slots.iter_mut().enumerate() {
            drop(slot.take());
            let t = Instant::now();
            *slot = Some(w.generate(graph_seed(opts.seed, i)));
            timer
                .record(t.elapsed().as_secs_f64())
                .map_err(probe_failed)?;
        }
    }
    let setup = timer.take().map_err(probe_failed)?;
    let graphs: Vec<Arc<CsrAdjacency>> = slots.into_iter().flatten().collect();

    // One warm-up call per graph, outside the window, so that every call
    // in it finds the allocator warm.
    let mut firsts = Vec::with_capacity(GRAPHS);
    for (i, csr) in graphs.iter().enumerate() {
        firsts.push(
            w.build(csr, graph_seed(opts.seed, i))
                .map_err(driver_failed)?,
        );
        tally.record(Ok(()));
    }

    // The peak RSS of each call, from the resident set it starts with: a
    // user building one spanner of these graphs needs the median of these,
    // and unlike the process's lifetime peak it does not hang on which of
    // the four graphs the allocator happened to grow for.
    let mut peaks = Vec::new();
    timer.resume().map_err(probe_failed)?;
    let mut made = 0;
    let start = Instant::now();
    while start.elapsed() < opts.seconds || made < MIN_CALLS || made % GRAPHS != 0 {
        let g = made % GRAPHS;
        crate::host::reset_peak_rss()?;
        let t = Instant::now();
        let s = w
            .build(&graphs[g], graph_seed(opts.seed, g))
            .map_err(driver_failed)?;
        let dt = t.elapsed().as_secs_f64();
        peaks.push(crate::host::peak_rss_mib().ok_or("cannot read VmHWM")?);
        timer.record(dt).map_err(probe_failed)?;
        made += 1;
        tally.record(Ok(()));
        tally.record(same_output(&firsts[g], &s, "repeated call"));
    }
    let calls = timer.take().map_err(probe_failed)?;

    report.add(
        "setup_s",
        "s",
        median(&setup.normalized),
        setup.normalized.len(),
    );
    report.add_ops(&calls, tail(&calls.normalized, TAIL)?);
    report.note(&format!("op_tail_ms is p{TAIL} of the driver calls"));
    report.add("peak_rss_mib", "MiB", median(&peaks), peaks.len());

    let t = Instant::now();
    for (i, (csr, s)) in graphs.iter().zip(&firsts).enumerate() {
        verify(w, csr, s, graph_seed(opts.seed, i), tally);
    }
    if w.algo == Algo::Skeleton {
        let par = build_parallel(&graphs[0], graph_seed(opts.seed, 0)).map_err(driver_failed)?;
        tally.record(same_output(&firsts[0], &par, "sequential vs parallel"));
    }
    report.add("graph.verify_s", "s", t.elapsed().as_secs_f64(), 1);
    output_counts(w, &firsts[0], report);
    Ok(())
}

fn run_traced(
    w: &Construction,
    opts: &RunOpts,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let seed = graph_seed(opts.seed, 0);
    let t = Instant::now();
    let csr = w.generate(seed);
    report.add("graph.generate_s", "s", t.elapsed().as_secs_f64(), 1);

    let (first, untraced_s) = match w.algo {
        Algo::Skeleton => clock_skeleton(w, &csr, seed, opts, report, tally)?,
        Algo::BaswanaSen => {
            let mut times = Vec::new();
            let mut first: Option<Spanner> = None;
            let start = Instant::now();
            while times.len() < 2 || start.elapsed() < opts.seconds {
                let t = Instant::now();
                let s = w.build(&csr, seed).map_err(driver_failed)?;
                times.push(t.elapsed().as_secs_f64());
                tally.record(Ok(()));
                match &first {
                    None => first = Some(s),
                    Some(f) => tally.record(same_output(f, &s, "repeated call")),
                }
            }
            let op = median(&times);
            report.add("layer.op_ms", "ms", op * 1e3, times.len());
            (first.expect("at least one call"), op)
        }
    };

    let t = Instant::now();
    verify(w, &csr, &first, seed, tally);
    report.add("graph.verify_s", "s", t.elapsed().as_secs_f64(), 1);
    output_counts(w, &first, report);
    let messages = first.metrics.expect("drivers attach metrics").messages;
    report.add(
        "netsim.msgs_per_us",
        "1/us",
        messages as f64 / (untraced_s * 1e6),
        1,
    );
    Ok(())
}

/// The skeleton: untraced, traced and parallel CSR calls alternate; the
/// traced ones are split into layers by `ClockSink`. Returns the output
/// and the median untraced call.
fn clock_skeleton(
    w: &Construction,
    csr: &Arc<CsrAdjacency>,
    seed: u64,
    opts: &RunOpts,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(Spanner, f64), String> {
    let params = SkeletonParams::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut parallel = Vec::new();
    let mut parts: Vec<Breakdown> = Vec::new();
    let mut first: Option<Spanner> = None;
    let start = Instant::now();
    while parts.len() < 2 || start.elapsed() < opts.seconds {
        let t = Instant::now();
        let untraced = w.build(csr, seed).map_err(driver_failed)?;
        plain.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let par = build_parallel(csr, seed).map_err(driver_failed)?;
        parallel.push(t.elapsed().as_secs_f64());
        tally.record(same_output(&untraced, &par, "sequential vs parallel"));

        let outer = Instant::now();
        let mut sink = ClockSink::new(w.n());
        let out = distributed::build_distributed_csr_traced(csr, &params, seed, &mut sink)
            .map_err(driver_failed)?;
        let end = Instant::now();
        tally.record(Ok(()));
        tally.record(same_output(&untraced, &out, "traced vs untraced"));
        let outer = (end - outer).as_secs_f64();
        traced.push(outer);
        match sink.finish(end) {
            Err(e) => tally.record(Err(e)),
            Ok(b) => {
                tally.record(stream_matches_metrics(&b, &out));
                let layers = (b.setup + b.sparse + b.dense + b.collect).as_secs_f64();
                tally.record(if (layers - outer).abs() <= 0.05 * outer {
                    Ok(())
                } else {
                    Err(format!("layers sum to {layers}s of a {outer}s call"))
                });
                parts.push(b);
            }
        }
        first.get_or_insert(out);
    }
    let first = first.expect("at least one traced call");
    if parts.is_empty() {
        return Err("no traced call produced a complete trace".to_string());
    }

    let op = median(&traced);
    let plain_op = median(&plain);
    report.add("layer.op_ms", "ms", op * 1e3, traced.len());
    report.add("build_untraced_ms", "ms", plain_op * 1e3, plain.len());
    report.add(
        "netsim.trace_overhead_pct",
        "%",
        (op / plain_op - 1.0) * 100.0,
        traced.len(),
    );
    let parallel_op = median(&parallel);
    report.add("build_t2_ms", "ms", parallel_op * 1e3, parallel.len());
    report.add(
        "netsim.t2_speedup",
        "x",
        plain_op / parallel_op,
        parallel.len(),
    );

    let k = parts.len() as f64;
    let sum = |f: fn(&Breakdown) -> Duration| parts.iter().map(|b| f(b).as_secs_f64()).sum::<f64>();
    let total = sum(|b| b.total);
    let setup = sum(|b| b.setup);
    let sparse = sum(|b| b.sparse);
    let dense = sum(|b| b.dense);
    let collect = sum(|b| b.collect);
    let pct = |x: f64| x / total * 100.0;
    report.add("netsim.setup_pct", "%", pct(setup), parts.len());
    report.add("netsim.sparse_pct", "%", pct(sparse), parts.len());
    report.add("netsim.dense_pct", "%", pct(dense), parts.len());
    report.add("core.collect_pct", "%", pct(collect), parts.len());

    let b = &parts[0];
    report.add(
        "netsim.sparse_rounds",
        "count",
        f64::from(b.sparse_rounds),
        1,
    );
    report.add("netsim.setup_s", "s", setup / k, parts.len());
    report.add("netsim.rounds_s", "s", (sparse + dense) / k, parts.len());
    report.add("netsim.sparse_round_s", "s", sparse / k, parts.len());
    report.add("netsim.dense_round_s", "s", dense / k, parts.len());
    report.add("core.collect_s", "s", collect / k, parts.len());
    if b.sparse_rounds > 0 {
        report.add(
            "netsim.sparse_us_per_round",
            "us",
            sparse / k * 1e6 / f64::from(b.sparse_rounds),
            parts.len(),
        );
    }
    if b.dense_messages > 0 {
        report.add(
            "netsim.dense_ns_per_msg",
            "ns",
            dense / k * 1e9 / b.dense_messages as f64,
            parts.len(),
        );
    }
    for (i, p) in b.phases.iter().enumerate() {
        let time: f64 = parts.iter().map(|b| b.phases[i].time.as_secs_f64()).sum();
        let name = p.name.replace('[', "_").replace(']', "");
        report.add(format!("netsim.{name}_s"), "s", time / k, parts.len());
    }
    phase_table(b, report);
    Ok((first, plain_op))
}

fn phase_table(b: &Breakdown, report: &mut Report) {
    report.note("phases (first traced call):");
    report.note(&format!(
        "  {:<14} {:>7} {:>7} {:>12} {:>10} {:>7}",
        "phase", "rounds", "sparse", "messages", "time_s", "share"
    ));
    let total = b.total.as_secs_f64();
    for p in &b.phases {
        report.note(&format!(
            "  {:<14} {:>7} {:>7} {:>12} {:>10.4} {:>6.1}%",
            p.name,
            p.rounds,
            p.sparse_rounds,
            p.messages,
            p.time.as_secs_f64(),
            p.time.as_secs_f64() / total * 100.0
        ));
    }
}

/// Exact per-seed counts of the built output.
fn output_counts(w: &Construction, s: &Spanner, report: &mut Report) {
    let metrics = s.metrics.expect("drivers attach metrics");
    report.add("netsim.rounds", "count", f64::from(metrics.rounds), 1);
    report.add("netsim.messages", "count", metrics.messages as f64, 1);
    report.add("netsim.words", "count", metrics.words as f64, 1);
    report.add(
        "core.edges_per_node",
        "edges/node",
        s.edges.len() as f64 / w.n() as f64,
        1,
    );
}

/// The clocked stream saw every round and message the run reports.
fn stream_matches_metrics(b: &Breakdown, s: &Spanner) -> Result<(), String> {
    let m = s.metrics.expect("drivers attach metrics");
    let messages = b.init_messages + b.sparse_messages + b.dense_messages;
    if (b.rounds, messages) == (m.rounds, m.messages) {
        Ok(())
    } else {
        Err(format!(
            "trace saw {} rounds and {messages} messages, metrics report {} and {}",
            b.rounds, m.rounds, m.messages
        ))
    }
}

fn same_output(a: &Spanner, b: &Spanner, what: &str) -> Result<(), String> {
    if a.edges != b.edges {
        return Err(format!("{what}: edge sets differ"));
    }
    if a.metrics != b.metrics {
        return Err(format!(
            "{what}: metrics differ: {:?} vs {:?}",
            a.metrics, b.metrics
        ));
    }
    Ok(())
}

/// Spanning plus stretch within the construction's bound from
/// `STRETCH_SOURCES` BFS sources; one tally entry per check.
fn verify(w: &Construction, csr: &CsrAdjacency, s: &Spanner, seed: u64, tally: &mut Tally) {
    let sub = csr.subgraph(&s.edges);
    tally.record(if sub.is_connected() {
        Ok(())
    } else {
        Err("spanner does not span the graph".to_string())
    });
    let n = csr.node_count();
    let bound = w.stretch_bound();
    for i in 0..STRETCH_SOURCES {
        let src = NodeId(
            ((seed as usize).wrapping_mul(7919) + i * n / STRETCH_SOURCES) as u32 % n as u32,
        );
        tally.record(check_stretch(csr, &sub, src, bound));
    }
}

fn check_stretch(
    graph: &CsrAdjacency,
    spanner: &CsrAdjacency,
    src: NodeId,
    bound: u64,
) -> Result<(), String> {
    let dg = bfs_distances_csr(graph, src);
    let ds = bfs_distances_csr(spanner, src);
    for (v, (g, s)) in dg.iter().zip(&ds).enumerate() {
        match (g, s) {
            (Some(g), Some(s)) if u64::from(*s) <= bound * u64::from(*g) => {}
            (None, None) => {}
            _ => {
                return Err(format!(
                    "stretch from {} to {v}: graph {g:?}, spanner {s:?}, bound {bound}",
                    src.0
                ))
            }
        }
    }
    Ok(())
}
