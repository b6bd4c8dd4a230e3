//! E-async — **Bitton et al., arXiv:1909.08369**: synchronizing over the
//! skeleton is a free lunch.
//!
//! The event-driven executor runs the unchanged protocols over links with
//! random per-hop latency, recovering round numbers with a synchronizer.
//! Awerbuch's α-synchronizer pays ~2·|E| control messages per round; the
//! skeleton synchronizer routes the same safety information over a built
//! spanner's BFS tree for 2·(n − 1). Bitton et al.'s claim, measured here:
//! **identical round complexity, identical protocol traffic, strictly
//! fewer total messages** — the spanner's sparsity converts directly into
//! message-complexity savings with no time penalty.
//!
//! Every column except `secs` is seeded and deterministic (the simulated
//! clock included), independent of thread count and repeat invocation:
//! the golden test pins the whole table and only normalizes `secs`.
//!
//! `--json <path>` writes machine-readable results there (the committed
//! copy is `BENCH_async.json` at the repo root). The file holds no
//! timings, so CI checks that a full-scale run reproduces the committed
//! one byte for byte.

use spanner_bench::report::Json;
use spanner_bench::{
    deny_unknown_args, f2, json_out_arg, timed, workload, write_json, Scale, Table,
};
use spanner_graph::{generators, Graph};
use spanner_netsim::{
    patterns::FloodProtocol, AsyncNetwork, FaultPlan, MessageBudget, RunMetrics, Synchronizer,
};
use ultrasparse::skeleton::{build_sequential, SkeletonParams};

/// Per-link delay model: 30% of hops take up to 3 extra ticks.
const DELAY_P: f64 = 0.3;
const DELAY_MAX: u32 = 3;
const DELAY_SEED: u64 = 7;
const RUN_SEED: u64 = 42;

/// One measured scenario: flood a broadcast over `g` on the async
/// executor under the given synchronizer. Returns the run metrics.
fn flood_async(g: &Graph, synchronizer: Synchronizer) -> RunMetrics {
    let delays = FaultPlan::new(DELAY_SEED).with_delays(DELAY_P, DELAY_MAX);
    let radius = g.node_count() as u32;
    let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, RUN_SEED)
        .with_delays(delays)
        .with_synchronizer(synchronizer);
    let states = net
        .run(|v, _| FloodProtocol::new(v.0 == 0, radius), radius + 8)
        .expect("flood terminates");
    assert!(
        states.iter().all(FloodProtocol::reached),
        "broadcast must reach every node"
    );
    net.metrics()
}

struct Row {
    graph: &'static str,
    n: usize,
    m: usize,
    skel_edges: usize,
    alpha: RunMetrics,
    skel: RunMetrics,
}

fn main() {
    let scale = Scale::from_args(&[Scale::Tiny, Scale::Quick, Scale::Full]);
    let json_path = json_out_arg();
    deny_unknown_args();
    println!(
        "E-async (Bitton et al. 1909.08369): message cost of recovering round\n\
         semantics on an asynchronous network — α-synchronizer over the raw\n\
         graph vs convergecast/pulse over the skeleton's BFS tree. A broadcast\n\
         floods from node 0 under per-link delays (p = {DELAY_P}, ≤ {DELAY_MAX} extra\n\
         ticks per hop, seed {DELAY_SEED}).\n"
    );

    let (n_cave, n_gnm) = match scale {
        Scale::Tiny => ((4, 8, 20), 48),
        Scale::Quick => ((12, 12, 60), 400),
        _ => ((40, 30, 260), 2_000),
    };
    let workloads: Vec<(&'static str, Graph)> = vec![
        (
            "caveman",
            generators::caveman(n_cave.0, n_cave.1, n_cave.2, 3),
        ),
        ("gnm", workload(n_gnm, 2.5, 3)),
    ];

    let mut table = Table::new([
        "graph",
        "n",
        "m",
        "skel m",
        "sync",
        "rounds",
        "proto msgs",
        "sync msgs",
        "total",
        "vs alpha",
        "sim time",
        "secs",
    ]);
    let mut rows: Vec<Row> = Vec::new();

    for (name, g) in &workloads {
        // The free lunch's one-time cost: build the skeleton (here with the
        // sequential reference; the distributed build is measured in E2).
        let params = SkeletonParams::new(4.0, 0.5).expect("valid params");
        let skeleton = build_sequential(g, &params, 9);
        assert!(skeleton.is_spanning(g), "skeleton must span");
        let sync_skel = Synchronizer::skeleton_of(g, skeleton.edges.iter());

        let (alpha, alpha_secs) = timed(|| flood_async(g, Synchronizer::Alpha));
        let (skel, skel_secs) = timed(|| flood_async(g, sync_skel.clone()));

        // The headline claim, asserted: the synchronizer never changes the
        // protocol-level execution (same rounds, same messages, same words),
        // and both runs repeat byte-identically.
        assert_eq!(alpha.protocol_only(), skel.protocol_only());
        assert_eq!(skel, flood_async(g, sync_skel), "repeat run must match");
        assert!(
            skel.sync_messages < alpha.sync_messages,
            "skeleton synchronizer must send fewer control messages"
        );

        for (sync, m, secs) in [("alpha", alpha, alpha_secs), ("skeleton", skel, skel_secs)] {
            let total = m.messages + m.sync_messages;
            let vs_alpha = (alpha.messages + alpha.sync_messages) as f64 / total as f64;
            table.row([
                name.to_string(),
                g.node_count().to_string(),
                g.edge_count().to_string(),
                skeleton.edges.len().to_string(),
                sync.to_string(),
                m.rounds.to_string(),
                m.messages.to_string(),
                m.sync_messages.to_string(),
                total.to_string(),
                format!("{}x", f2(vs_alpha)),
                m.sim_time.to_string(),
                f2(secs),
            ]);
        }
        rows.push(Row {
            graph: name,
            n: g.node_count(),
            m: g.edge_count(),
            skel_edges: skeleton.edges.len(),
            alpha,
            skel,
        });
    }

    table.print();
    println!(
        "\nShape check: both synchronizers recover the same round count and\n\
         protocol traffic; the skeleton run's total message count drops by the\n\
         `vs alpha` factor — the spanner's sparsity, converted into message\n\
         savings (at a modest simulated-time cost from tree latency)."
    );

    write_json(json_path.as_deref(), &artifact(&rows));
}

/// The artifact: the delay model, then per graph both runs' metrics.
/// It holds no timings or host facts, so a full-scale run reproduces the
/// committed file byte for byte.
fn artifact(rows: &[Row]) -> Json {
    let metrics = |m: &RunMetrics| {
        Json::obj([
            ("rounds", m.rounds.into()),
            ("messages", m.messages.into()),
            ("sync_messages", m.sync_messages.into()),
            ("events", m.events.into()),
            ("sim_time", m.sim_time.into()),
        ])
    };
    let runs = rows.iter().map(|r| {
        Json::obj([
            ("graph", r.graph.into()),
            ("n", r.n.into()),
            ("m", r.m.into()),
            ("skeleton_edges", r.skel_edges.into()),
            ("alpha", metrics(&r.alpha)),
            ("skeleton", metrics(&r.skel)),
        ])
    });
    Json::obj([
        ("experiment", "exp_async_messages".into()),
        ("delay_p", Json::Fixed(DELAY_P, 1)),
        ("delay_max", DELAY_MAX.into()),
        ("delay_seed", DELAY_SEED.into()),
        ("seed", RUN_SEED.into()),
        ("runs", Json::Arr(runs.collect())),
    ])
}
