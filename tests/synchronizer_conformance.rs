//! Conformance of the event-driven asynchronous executor.
//!
//! The synchronizer layer's promise is exactness: for every per-link delay
//! plan, the synchronized asynchronous run of each distributed
//! construction (skeleton, fibonacci, baswana_sen) must be **pair-exact**
//! with the round-synchronous run on connected graphs with n ≤ 64 — the
//! same spanner edge set and the same protocol-level metrics — under both
//! synchronizer variants, with the paper's size/stretch bounds (the ones
//! `conformance_constructions.rs` pins) re-checked on the async output.
//!
//! The metamorphic check at the bottom is the determinism half: permuting
//! the delay seed perturbs every link latency in the simulation, yet the
//! built spanner must never change.

use proptest::prelude::*;

use ultrasparse_spanners::baselines::baswana_sen::{self, BaswanaSenParams};
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::distance::Pairs;
use ultrasparse_spanners::graph::{generators, verify_stretch, Graph, StretchBound};
use ultrasparse_spanners::netsim::{Executor, FaultPlan, NullSink, RunMetrics, Synchronizer};

/// Strategy: a small connected random graph, n ≤ 64 (pair-exact
/// verification is O(n·m) per construction) — the same distribution
/// `conformance_constructions.rs` uses.
fn arb_small_graph() -> impl Strategy<Value = Graph> {
    (10usize..=64, 1.2f64..3.0, any::<u64>()).prop_map(|(n, density, seed)| {
        let m = (((n as f64) * density) as usize)
            .max(n - 1)
            .min(n * (n - 1) / 2);
        generators::connected_gnm(n, m, seed)
    })
}

/// A dense random delay plan: 40% of hops take up to 4 extra ticks.
fn delay_plan(dseed: u64) -> FaultPlan {
    FaultPlan::new(dseed).with_delays(0.4, 4)
}

/// The asynchronous executor under `delays`, synchronized by `synchronizer`.
fn on_async(delays: &FaultPlan, synchronizer: Synchronizer) -> Executor {
    Executor::Async {
        delays: delays.clone(),
        synchronizer,
    }
}

/// Both synchronizer variants for `g`: the α-synchronizer, and the
/// skeleton synchronizer over `skeleton` (normally a previously built
/// spanner — the Bitton et al. free-lunch configuration).
fn variants(g: &Graph, skeleton: &Spanner) -> [Synchronizer; 2] {
    [
        Synchronizer::Alpha,
        Synchronizer::skeleton_of(g, skeleton.edges.iter()),
    ]
}

/// Asserts an async rebuild is pair-exact with the round-synchronous
/// reference: identical edge set, identical protocol-level metrics, and
/// honest async accounting on top.
fn assert_pair_exact(what: &str, reference: &Spanner, actual: &Spanner) {
    assert_eq!(
        reference.edges, actual.edges,
        "{what}: async spanner differs from round-synchronous build"
    );
    let sync_m = reference.metrics.expect("distributed build has metrics");
    let async_m = actual.metrics.expect("async build has metrics");
    assert_eq!(
        sync_m,
        async_m.protocol_only(),
        "{what}: protocol-level metrics must match"
    );
    assert_eq!(
        async_m.events,
        async_m.messages + async_m.sync_messages,
        "{what}: one event per arrival"
    );
    assert!(
        async_m.sim_time >= async_m.rounds as u64,
        "{what}: simulated clock advances at least one tick per round"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn skeleton_async_pair_exact_and_bounded(
        g in arb_small_graph(),
        seed in any::<u64>(),
        dseed in any::<u64>(),
    ) {
        let params = SkeletonParams::default();
        let csr = g.csr();
        let reference = skeleton::distributed::build_distributed_csr(csr, &params, seed)
            .expect("round-synchronous build");
        let delays = delay_plan(dseed);
        for sync in variants(&g, &reference) {
            let s = skeleton::distributed::build_distributed(
                csr, &params, seed, &on_async(&delays, sync), None, &mut NullSink,
            ).expect("async build");
            assert_pair_exact("skeleton", &reference, &s);
            // Paper bounds on the async output, as in conformance_constructions.
            let bound = StretchBound::multiplicative(params.schedule(g.node_count()).distortion_bound as f64);
            prop_assert!(verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| bound.allows(d, ds)).is_ok());
            prop_assert!(
                (s.edges.len() as f64)
                    <= 2.0 * params.expected_size(g.node_count()) + 2.0 * g.node_count() as f64,
                "skeleton size {} vs expected {:.1}",
                s.edges.len(), params.expected_size(g.node_count())
            );
        }
    }

    #[test]
    fn fibonacci_async_pair_exact_and_bounded(
        g in arb_small_graph(),
        seed in any::<u64>(),
        dseed in any::<u64>(),
        order in 1u32..=2,
    ) {
        let n = g.node_count();
        let params = FibonacciParams::new(n, order, 0.5, 0).unwrap();
        let csr = g.csr();
        let reference = fibonacci::distributed::build_distributed(
            csr, &params, seed, &Executor::Sequential, None, &mut NullSink,
        )
        .expect("round-synchronous build");
        let delays = delay_plan(dseed);
        // The skeleton variant synchronizes over a separately built
        // skeleton spanner (spanning + connected on these graphs).
        let skel = skeleton::build_sequential(&g, &SkeletonParams::default(), seed ^ 0x51);
        for sync in variants(&g, &skel) {
            let s = fibonacci::distributed::build_distributed(
                csr, &params, seed, &on_async(&delays, sync), None, &mut NullSink,
            ).expect("async build");
            assert_pair_exact("fibonacci", &reference, &s);
            prop_assert!(s.is_spanning(&g));
            let viol = verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| {
                fibonacci::analysis::within_envelope(params.order, params.ell, d, ds)
            });
            prop_assert!(viol.is_ok(), "envelope violated: {:?}", viol);
        }
    }

    #[test]
    fn baswana_sen_async_pair_exact_and_bounded(
        g in arb_small_graph(),
        seed in any::<u64>(),
        dseed in any::<u64>(),
        k in 1u32..=4,
    ) {
        let params = BaswanaSenParams::new(k).unwrap();
        let csr = g.csr();
        let reference = baswana_sen::build_distributed_csr(csr, &params, seed)
            .expect("round-synchronous build");
        let delays = delay_plan(dseed);
        let skel = skeleton::build_sequential(&g, &SkeletonParams::default(), seed ^ 0x52);
        for sync in variants(&g, &skel) {
            let s = baswana_sen::build_distributed(
                csr, &params, seed, &on_async(&delays, sync), None, &mut NullSink,
            ).expect("async build");
            assert_pair_exact("baswana_sen", &reference, &s);
            let t = StretchBound::multiplicative((2 * k - 1) as f64);
            prop_assert!(verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| t.allows(d, ds)).is_ok());
        }
    }

    // Metamorphic: the delay seed drives every link latency in the
    // simulation, yet the built spanner — and the protocol-level metrics —
    // must be invariant under permuting it. Only the async cost counters
    // (events, sync_messages, sim_time) may move.
    #[test]
    fn permuting_delay_seeds_never_changes_the_spanner(
        g in arb_small_graph(),
        seed in any::<u64>(),
        dseed in any::<u64>(),
    ) {
        let params = SkeletonParams::default();
        let csr = g.csr();
        let mut previous: Option<(ultrasparse_spanners::graph::EdgeSet, RunMetrics)> = None;
        for perm in 0..3u64 {
            let executor = on_async(&delay_plan(dseed.wrapping_add(perm)), Synchronizer::Alpha);
            let s = skeleton::distributed::build_distributed(
                csr, &params, seed, &executor, None, &mut NullSink,
            ).expect("async build");
            let m = s.metrics.expect("async build has metrics").protocol_only();
            if let Some((edges, metrics)) = &previous {
                prop_assert!(*edges == s.edges, "spanner changed under delay seed permutation");
                prop_assert_eq!(*metrics, m);
            }
            previous = Some((s.edges, m));
        }
    }
}

/// Zero-delay sanity off the proptest path: the empty plan is the
/// unit-latency model, and the async drivers accept it.
#[test]
fn zero_delay_plan_is_unit_latency() {
    let g = generators::connected_gnm(32, 64, 5);
    let params = SkeletonParams::default();
    let csr = g.csr();
    let reference =
        skeleton::distributed::build_distributed_csr(csr, &params, 7).expect("sync build");
    let executor = on_async(&FaultPlan::default(), Synchronizer::Alpha);
    let s =
        skeleton::distributed::build_distributed(csr, &params, 7, &executor, None, &mut NullSink)
            .expect("async build");
    assert_pair_exact("skeleton/zero-delay", &reference, &s);
}
