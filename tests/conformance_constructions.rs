//! Conformance suite for every spanner construction (ISSUE PR 3).
//!
//! On random connected graphs with n ≤ 64, each of the five constructions
//! (skeleton, fibonacci, baswana_sen, greedy, additive2) must satisfy its
//! paper-stated size and stretch bound — checked pair-exactly with
//! [`verify_stretch`] — and the distance machinery is cross-checked
//! against the Thorup–Zwick oracle's `query` bracket.
//!
//! The distributed drivers are hammered with generated drop/delay/crash
//! schedules passed as their fault plan: they must never panic — the only
//! legal outcomes are a certified spanner (re-verified here) or a typed
//! [`BuildError`] whose partial metrics survive — and the sequential and
//! two-thread executors must agree on the outcome and on the JSONL trace.
//! A metamorphic check confirms that faults scoped to one component never
//! perturb the spanner built in the other.

use proptest::prelude::*;

use ultrasparse_spanners::baselines::baswana_sen::{self, BaswanaSenParams};
use ultrasparse_spanners::baselines::{additive2, greedy};
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::core::{BuildError, Spanner};
use ultrasparse_spanners::graph::distance::Apsp;
use ultrasparse_spanners::graph::distance::Pairs;
use ultrasparse_spanners::graph::{
    generators, verify_stretch, EdgeId, Graph, NodeId, StretchBound,
};
use ultrasparse_spanners::netsim::rng::splitmix64;
use ultrasparse_spanners::netsim::{
    Executor, FaultPlan, JsonLinesSink, NullSink, RunMetrics, TraceEvent, TraceSink, TraceSummary,
};
use ultrasparse_spanners::oracle::DistanceOracle;

/// Strategy: a small connected random graph, n ≤ 64 as the ISSUE demands
/// (pair-exact verification is O(n·m) per construction).
fn arb_small_graph() -> impl Strategy<Value = Graph> {
    (10usize..=64, 1.2f64..3.0, any::<u64>()).prop_map(|(n, density, seed)| {
        let m = (((n as f64) * density) as usize)
            .max(n - 1)
            .min(n * (n - 1) / 2);
        generators::connected_gnm(n, m, seed)
    })
}

/// A mixed fault schedule (drops, delays, duplicates, stutters, up to two
/// crash-stops) derived deterministically from `fseed`.
fn hostile_plan(fseed: u64, n: usize) -> FaultPlan {
    let mut s = fseed;
    let mut plan = FaultPlan::new(splitmix64(&mut s));
    let classes = splitmix64(&mut s);
    if classes & 1 != 0 {
        plan = plan.with_drops(0.02 + (splitmix64(&mut s) % 15) as f64 * 0.01);
    }
    if classes & 2 != 0 {
        let d = 1 + (splitmix64(&mut s) % 3) as u32;
        plan = plan.with_delays(0.02 + (splitmix64(&mut s) % 15) as f64 * 0.01, d);
    }
    if classes & 4 != 0 {
        plan = plan.with_duplicates(0.02 + (splitmix64(&mut s) % 10) as f64 * 0.01);
    }
    if classes & 8 != 0 {
        plan = plan.with_stutters(0.02 + (splitmix64(&mut s) % 10) as f64 * 0.01);
    }
    for _ in 0..splitmix64(&mut s) % 3 {
        let v = (splitmix64(&mut s) % n as u64) as u32;
        let r = 1 + (splitmix64(&mut s) % 6) as u32;
        plan = plan.with_crash(NodeId(v), r);
    }
    plan
}

/// Certify an `Ok` outcome of a faulted driver from scratch: the harness'
/// own certification is not trusted here, the test re-derives it.
fn assert_certified(g: &Graph, s: &Spanner, bound: StretchBound, what: &str) {
    assert!(s.is_spanning(g), "{what}: faulted Ok output must span");
    if let Err(viol) = verify_stretch(g, &s.edges, Pairs::All, 1, |d, ds| bound.allows(d, ds)) {
        panic!("{what}: faulted Ok output breaks its bound: {viol}");
    }
}

/// One construction's driver under a fixed plan: (executor, sink) → outcome.
type Faulted<'a> = Box<dyn Fn(&Executor, &mut dyn TraceSink) -> Result<Spanner, BuildError> + 'a>;

/// Re-verifies a faulted driver's `Ok` output from scratch.
type Check<'a> = Box<dyn Fn(&Spanner) + 'a>;

/// An outcome as two executors must reproduce it: the edges or the error
/// text, and the protocol metrics (partial ones on an error).
type Outcome = (Result<Vec<EdgeId>, String>, RunMetrics);

/// Runs `build` on `exec`, traced into memory: the outcome and the JSONL.
fn run_traced(build: &Faulted, exec: &Executor) -> (Result<Spanner, BuildError>, Vec<u8>) {
    let mut sink = JsonLinesSink::new(Vec::new());
    let built = build(exec, &mut sink);
    (built, sink.finish().expect("in-memory sink"))
}

fn outcome(built: &Result<Spanner, BuildError>) -> Outcome {
    match built {
        Ok(s) => (
            Ok(s.edges.iter().collect()),
            s.metrics.expect("distributed metrics").protocol_only(),
        ),
        Err(e) => (Err(e.to_string()), e.metrics().protocol_only()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // --- paper-stated size and stretch bounds, pair-exact ------------------

    #[test]
    fn skeleton_meets_size_and_stretch(g in arb_small_graph(), seed in any::<u64>()) {
        let params = SkeletonParams::default();
        let n = g.node_count();
        let s = skeleton::build_sequential(&g, &params, seed);
        let bound = StretchBound::multiplicative(params.schedule(n).distortion_bound as f64);
        prop_assert!(verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| bound.allows(d, ds)).is_ok());
        // Linear size Dn/e + O(n log D): expected_size carries the Lemma 6
        // constants; allow 2x concentration slack plus an additive cushion
        // for the smallest instances.
        prop_assert!(
            (s.edges.len() as f64) <= 2.0 * params.expected_size(n) + 2.0 * n as f64,
            "skeleton size {} vs expected {:.1} on n={}",
            s.edges.len(), params.expected_size(n), n
        );
    }

    #[test]
    fn fibonacci_meets_envelope_and_size(g in arb_small_graph(), seed in any::<u64>(), order in 1u32..=2) {
        let n = g.node_count();
        let p = FibonacciParams::new(n, order, 0.5, 0).unwrap();
        let s = fibonacci::build_sequential(&g, &p, seed);
        prop_assert!(s.is_spanning(&g));
        let viol = verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| {
            fibonacci::analysis::within_envelope(p.order, p.ell, d, ds)
        });
        prop_assert!(viol.is_ok(), "envelope violated: {:?}", viol);
        prop_assert!(
            (s.edges.len() as f64) <= 2.0 * p.expected_size() + 2.0 * n as f64,
            "fibonacci size {} vs expected {:.1}",
            s.edges.len(), p.expected_size()
        );
    }

    #[test]
    fn baswana_sen_meets_stretch_and_size(g in arb_small_graph(), seed in any::<u64>(), k in 1u32..=4) {
        let n = g.node_count() as f64;
        let params = BaswanaSenParams::new(k).unwrap();
        let s = baswana_sen::build_sequential(&g, &params, seed);
        let t = StretchBound::multiplicative((2 * k - 1) as f64);
        prop_assert!(verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| t.allows(d, ds)).is_ok());
        // Expected size O(kn + log k · n^{1+1/k}); generous per-instance
        // slack (inputs are deterministic per proptest case, so this is a
        // regression pin rather than a tail-probability gamble).
        let budget = (k as f64) * n + 8.0 * n.powf(1.0 + 1.0 / k as f64);
        prop_assert!(
            (s.edges.len() as f64) <= budget,
            "baswana_sen size {} over budget {:.1} (k={})",
            s.edges.len(), budget, k
        );
    }

    #[test]
    fn greedy_meets_stretch_and_moore_size(g in arb_small_graph(), k in 1u32..=4) {
        let n = g.node_count() as f64;
        let s = greedy::build(&g, k);
        let t = StretchBound::multiplicative((2 * k - 1) as f64);
        prop_assert!(verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| t.allows(d, ds)).is_ok());
        prop_assert!(greedy::has_greedy_girth(&g, &s, k));
        // Girth > 2k forces the deterministic Moore-type bound n + n^{1+1/k}.
        prop_assert!(
            (s.edges.len() as f64) <= n + n.powf(1.0 + 1.0 / k as f64) + 1.0,
            "greedy size {} exceeds Moore bound (k={})",
            s.edges.len(), k
        );
    }

    #[test]
    fn additive2_meets_bound_and_size(g in arb_small_graph(), seed in any::<u64>()) {
        let n = g.node_count() as f64;
        let s = additive2::build(&g, seed);
        let plus2 = StretchBound::additive(2);
        prop_assert!(verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| plus2.allows(d, ds)).is_ok());
        // O(n^{3/2}) edges; the clustering argument gives ~2 n^{3/2} + n.
        prop_assert!(
            (s.edges.len() as f64) <= 4.0 * n.powf(1.5) + 2.0 * n,
            "additive2 size {} exceeds O(n^1.5) budget",
            s.edges.len()
        );
    }

    // --- Thorup–Zwick oracle cross-check ----------------------------------

    #[test]
    fn oracle_query_brackets_exact_distances(g in arb_small_graph(), seed in any::<u64>(), k in 1u32..=3) {
        // The same BFS machinery that backs verify_stretch must agree
        // with the oracle: exact ≤ query ≤ (2k−1)·exact on every pair.
        let oracle = DistanceOracle::build(&g, k, seed);
        let apsp = Apsp::new(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if v <= u {
                    continue;
                }
                let exact = apsp.dist(u, v);
                if exact == u32::MAX {
                    continue;
                }
                let q = oracle.query(u, v) as u64;
                prop_assert!(q >= exact as u64, "query {} under exact {}", q, exact);
                prop_assert!(
                    q <= (2 * k as u64 - 1) * exact as u64,
                    "query {} over {}x exact {}", q, 2 * k - 1, exact
                );
            }
        }
    }

    #[test]
    fn spanner_distances_respect_oracle_guarantee(g in arb_small_graph(), seed in any::<u64>(), k in 2u32..=3) {
        // Cross-check construction output against the oracle on the same k:
        // a certified (2k−1)-spanner's distances must sit inside the same
        // bracket the oracle promises, tying the two verifiers together.
        let params = BaswanaSenParams::new(k).unwrap();
        let s = baswana_sen::build_sequential(&g, &params, seed);
        let oracle = DistanceOracle::build(&g, k, seed ^ 0x9E37);
        let apsp = Apsp::new(&g);
        let sub = s.edges.to_graph(&g);
        let span_apsp = Apsp::new(&sub);
        let t = 2 * k as u64 - 1;
        for u in g.nodes() {
            for v in g.nodes() {
                if v <= u {
                    continue;
                }
                let exact = apsp.dist(u, v) as u64;
                let in_spanner = span_apsp.dist(u, v) as u64;
                let q = oracle.query(u, v) as u64;
                prop_assert!(in_spanner <= t * exact);
                prop_assert!(q <= t * exact);
                // Both estimators dominate the true distance.
                prop_assert!(in_spanner >= exact && q >= exact);
            }
        }
    }

    // --- crash-stop conformance of the faulted drivers --------------------

    #[test]
    fn faulted_drivers_never_panic_or_lie(g in arb_small_graph(), seed in any::<u64>(), fseed in any::<u64>()) {
        let n = g.node_count();
        let plan = hostile_plan(fseed, n);
        let (csr, faults) = (g.csr(), Some(&plan));

        let sk_params = SkeletonParams::default();
        let sk_bound = StretchBound::multiplicative(sk_params.schedule(n).distortion_bound as f64);
        let fb_params = FibonacciParams::new(n, 1, 0.5, 0).unwrap();
        let bs_params = BaswanaSenParams::new(2).unwrap();
        let drivers: [(&str, Faulted, Check); 3] = [
            (
                "skeleton",
                Box::new(|exec, sink| {
                    skeleton::distributed::build_distributed(csr, &sk_params, seed, exec, faults, sink)
                }),
                Box::new(|s| assert_certified(&g, s, sk_bound, "skeleton")),
            ),
            (
                "fibonacci",
                Box::new(|exec, sink| {
                    fibonacci::distributed::build_distributed(csr, &fb_params, seed, exec, faults, sink)
                }),
                Box::new(|s| {
                    assert!(s.is_spanning(&g), "fibonacci: faulted Ok output must span");
                    let (order, ell) = (fb_params.order, fb_params.ell);
                    let viol = verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| {
                        fibonacci::analysis::within_envelope(order, ell, d, ds)
                    });
                    assert!(viol.is_ok(), "fibonacci faulted Ok breaks envelope: {viol:?}");
                }),
            ),
            (
                "baswana_sen",
                Box::new(|exec, sink| {
                    baswana_sen::build_distributed(csr, &bs_params, seed, exec, faults, sink)
                }),
                Box::new(|s| {
                    assert_certified(&g, s, StretchBound::multiplicative(3.0), "baswana_sen")
                }),
            ),
        ];
        for (name, build, check) in &drivers {
            let untraced = build(&Executor::Sequential, &mut NullSink);
            match &untraced {
                Ok(s) => check(s),
                Err(e) => prop_assert!(e.metrics().rounds < u32::MAX, "metrics retained: {e}"),
            }
            // Both round-synchronous executors, traced, reproduce the
            // untraced outcome and write the same JSONL bytes.
            let (seq, seq_bytes) = run_traced(build, &Executor::Sequential);
            let (par, par_bytes) = run_traced(build, &Executor::Parallel { threads: 2 });
            prop_assert_eq!(outcome(&seq), outcome(&untraced), "{}: traced", name);
            prop_assert_eq!(outcome(&par), outcome(&untraced), "{}: Parallel{{2}}", name);
            prop_assert!(seq_bytes == par_bytes, "{}: JSONL differs across executors", name);
            // The stream reconciles with the metrics and carries the
            // `faults` event exactly when a counter moved.
            let mut summary = TraceSummary::new();
            for line in std::str::from_utf8(&seq_bytes).unwrap().lines() {
                summary.observe(&TraceEvent::from_json_line(line).expect("parseable"));
            }
            let m = match &seq {
                Ok(s) => s.metrics.expect("distributed metrics"),
                // A contained panic cuts the stream short of its end.
                Err(_) if !summary.is_complete() => continue,
                Err(e) => *e.metrics(),
            };
            prop_assert!(m.agrees_with(&summary), "{}: {} vs trace totals", name, m);
            prop_assert_eq!(summary.fault_counters().is_some(), !m.faults.is_empty(), "{}", name);
        }
    }

    #[test]
    fn empty_plan_matches_unfaulted_build(g in arb_small_graph(), seed in any::<u64>()) {
        // An inactive FaultPlan must be a perfect no-op: the faulted driver
        // returns Ok with exactly the edges of the plain distributed build.
        let inert = FaultPlan::new(seed ^ 0xF0F0);
        let params = BaswanaSenParams::new(2).unwrap();
        let plain = baswana_sen::build_distributed_csr(g.csr(), &params, seed).expect("unfaulted build");
        let (exec, faults) = (Executor::Sequential, Some(&inert));
        let faulted = baswana_sen::build_distributed(g.csr(), &params, seed, &exec, faults, &mut NullSink)
            .expect("inert plan must succeed");
        prop_assert_eq!(plain.edges.iter().collect::<Vec<_>>(),
                        faulted.edges.iter().collect::<Vec<_>>());
    }
}

/// Metamorphic drop-invariance at the construction level: a hostile plan
/// scoped entirely to one clique of a two-component graph must leave the
/// spanner edges chosen inside the *other* clique bit-identical to the
/// fault-free run.
#[test]
fn scoped_faults_do_not_perturb_other_component() {
    let k = 10u32;
    let mut edges = Vec::new();
    for base in [0, k] {
        for a in 0..k {
            for b in (a + 1)..k {
                edges.push((base + a, base + b));
            }
        }
    }
    let g = Graph::from_edges(2 * k as usize, edges.iter().copied());
    let params = BaswanaSenParams::new(2).unwrap();
    let seed = 424_242;

    let clean = baswana_sen::build_distributed_csr(g.csr(), &params, seed).expect("clean build");
    let hostile = FaultPlan::new(77)
        .with_drops(0.5)
        .with_delays(0.4, 2)
        .with_crash(NodeId(k + 3), 1)
        .scoped_to((k..2 * k).map(NodeId));
    let exec = Executor::Sequential;
    let outcome = baswana_sen::build_distributed(
        g.csr(),
        &params,
        seed,
        &exec,
        Some(&hostile),
        &mut NullSink,
    );

    let component_a = |s: &Spanner| -> Vec<_> {
        s.edges
            .iter()
            .filter(|&e| {
                let (u, v) = g.endpoints(e);
                u.0 < k && v.0 < k
            })
            .collect()
    };
    match outcome {
        Ok(s) => {
            assert_eq!(
                component_a(&clean),
                component_a(&s),
                "faults scoped to component B changed component A's spanner"
            );
        }
        // A typed error is conformant too (the crash may disconnect B's
        // run), but it must carry metrics showing injected faults.
        Err(e) => assert!(!e.metrics().faults.is_empty(), "fault counters lost: {e}"),
    }
}

/// Crash-at-round-0 of every node is the most hostile schedule possible:
/// all three drivers must return a typed error, never panic.
#[test]
fn total_crash_is_a_typed_error_everywhere() {
    let g = generators::connected_gnm(24, 40, 5);
    let mut plan = FaultPlan::new(9);
    for v in 0..24 {
        plan = plan.with_crash(NodeId(v), 0);
    }
    let (csr, exec, faults) = (g.csr(), Executor::Sequential, Some(&plan));
    let sk_params = SkeletonParams::default();
    let sk =
        skeleton::distributed::build_distributed(csr, &sk_params, 3, &exec, faults, &mut NullSink);
    let fb_params = FibonacciParams::new(24, 1, 0.5, 0).unwrap();
    let fb =
        fibonacci::distributed::build_distributed(csr, &fb_params, 3, &exec, faults, &mut NullSink);
    let bs_params = BaswanaSenParams::new(2).unwrap();
    let bs = baswana_sen::build_distributed(csr, &bs_params, 3, &exec, faults, &mut NullSink);
    for (name, r) in [("skeleton", sk), ("fibonacci", fb), ("baswana_sen", bs)] {
        let err = r.expect_err(name);
        assert!(
            matches!(err, BuildError::Run { .. } | BuildError::Uncertified { .. }),
            "{name}: {err}"
        );
        assert_eq!(err.metrics().faults.crashes, 24, "{name} crash counter");
    }
}
