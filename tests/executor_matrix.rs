//! One table-driven check that every distributed construction builds the
//! same thing on every executor.
//!
//! Each construction has a single driver, `build_distributed(csr, .., &Executor,
//! faults, sink)`, run here without faults. For the skeleton (Theorem 2), the Fibonacci spanner (Theorem 8),
//! Baswana–Sen and the BFS forest, every executor choice — sequential,
//! parallel at 1, 2 and 4 threads, asynchronous under unit latency with the
//! α-synchronizer, and asynchronous under random delays with the skeleton
//! synchronizer — must produce the identical spanner edge set, the
//! identical protocol-level metrics ([`RunMetrics::protocol_only`]), and a
//! byte-identical JSONL trace stream.

use std::sync::Arc;

use ultrasparse_spanners::baselines::baswana_sen::{self, BaswanaSenParams};
use ultrasparse_spanners::baselines::bfs_skeleton;
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::{generators, CsrAdjacency, Graph};
use ultrasparse_spanners::netsim::{
    Executor, FaultPlan, JsonLinesSink, RunMetrics, Synchronizer, TraceSink,
};

/// A construction under test: topology, executor, trace sink → spanner.
type Build = fn(&Arc<CsrAdjacency>, &Executor, &mut dyn TraceSink) -> Spanner;

const SEED: u64 = 17;

fn constructions() -> [(&'static str, Build); 4] {
    [
        ("skeleton", |csr, exec, sink| {
            let params = SkeletonParams::default();
            skeleton::distributed::build_distributed(csr, &params, SEED, exec, None, sink).unwrap()
        }),
        ("fibonacci", |csr, exec, sink| {
            let params = FibonacciParams::new(csr.node_count(), 2, 0.5, 3).unwrap();
            fibonacci::distributed::build_distributed(csr, &params, SEED, exec, None, sink).unwrap()
        }),
        ("baswana_sen", |csr, exec, sink| {
            let params = BaswanaSenParams::new(3).unwrap();
            baswana_sen::build_distributed(csr, &params, SEED, exec, None, sink).unwrap()
        }),
        ("bfs_skeleton", |csr, exec, sink| {
            let max_rounds = 4 * csr.node_count() as u32;
            bfs_skeleton::build_distributed(csr, SEED, max_rounds, exec, sink).unwrap()
        }),
    ]
}

/// Every executor the drivers accept, with a label for failure messages.
/// The skeleton synchronizer runs over a sequentially built skeleton of
/// `g`, which spans and connects it.
fn executors(g: &Graph) -> Vec<(String, Executor)> {
    let mut out = vec![("sequential".to_owned(), Executor::Sequential)];
    for threads in [1, 2, 4] {
        out.push((
            format!("parallel/{threads}"),
            Executor::Parallel { threads },
        ));
    }
    out.push((
        "async/unit/alpha".to_owned(),
        Executor::Async {
            delays: FaultPlan::default(),
            synchronizer: Synchronizer::Alpha,
        },
    ));
    let skel = skeleton::build_sequential(g, &SkeletonParams::default(), 3);
    out.push((
        "async/random/skeleton".to_owned(),
        Executor::Async {
            delays: FaultPlan::new(99).with_delays(0.4, 4),
            synchronizer: Synchronizer::skeleton_of(g, skel.edges.iter()),
        },
    ));
    out
}

/// One traced build: the spanner, its protocol-level metrics, and the
/// serialized trace.
fn traced(
    build: Build,
    csr: &Arc<CsrAdjacency>,
    exec: &Executor,
) -> (Spanner, RunMetrics, Vec<u8>) {
    let mut sink = JsonLinesSink::new(Vec::<u8>::new());
    let s = build(csr, exec, &mut sink);
    let metrics = s
        .metrics
        .expect("distributed build has metrics")
        .protocol_only();
    (s, metrics, sink.finish().expect("in-memory trace"))
}

#[test]
fn every_construction_agrees_on_every_executor() {
    for g in [
        generators::connected_gnm(240, 960, 5),
        generators::caveman(6, 10, 8, 2),
    ] {
        let csr = g.csr();
        let executors = executors(&g);
        for (name, build) in constructions() {
            let (reference, ref_metrics, ref_trace) = traced(build, csr, &Executor::Sequential);
            assert!(reference.is_spanning(&g), "{name} must span");
            assert!(!ref_trace.is_empty(), "{name}: trace recorded");
            for (label, exec) in &executors[1..] {
                let (s, metrics, trace) = traced(build, csr, exec);
                assert_eq!(reference.edges, s.edges, "{name} on {label}: edges");
                assert_eq!(ref_metrics, metrics, "{name} on {label}: metrics");
                assert!(ref_trace == trace, "{name} on {label}: trace bytes differ");
            }
        }
    }
}
