//! Conformance suite for the fault-injection layer: the round-synchronous
//! executor must honor a [`FaultPlan`] identically at every worker count
//! (states, metrics, trace bytes), the empty plan must be observationally invisible, and
//! every fault class must have exactly the semantics documented in
//! `faults.rs` — including on the error paths.

use proptest::prelude::*;

use rand::Rng;
use spanner_graph::{generators, Graph, NodeId};
use spanner_netsim::rng::splitmix64;
use spanner_netsim::{
    Ctx, FaultPlan, JsonLinesSink, MessageBudget, Network, Protocol, RunError, TraceEvent,
};

/// Same digest-everything protocol the parity suite uses: any divergence in
/// RNG streams, inbox order, or delivery timing changes the final states.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GossipHash {
    digest: u64,
    rounds_run: u32,
    ttl: u32,
}

impl GossipHash {
    fn new(ttl: u32) -> Self {
        GossipHash {
            digest: 0,
            rounds_run: 0,
            ttl,
        }
    }

    fn mix(&mut self, sender: NodeId, word: u64) {
        let mut z = self
            .digest
            .wrapping_mul(0x100000001B3)
            .wrapping_add(((sender.0 as u64) << 32) ^ word);
        z ^= z >> 29;
        self.digest = z;
    }
}

impl Protocol for GossipHash {
    type Msg = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.rounds_run += 1;
        let word = ctx.rng().gen::<u64>();
        self.mix(ctx.me(), word);
        ctx.broadcast(word & 0xFFFF);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        self.rounds_run += 1;
        for &(s, w) in inbox {
            self.mix(s, w);
        }
        if ctx.round() < self.ttl && !inbox.is_empty() {
            let word = ctx.rng().gen::<u64>();
            self.mix(ctx.me(), word);
            ctx.broadcast(word & 0xFFFF);
        }
    }
}

type RunOutcome = Result<Vec<GossipHash>, RunError>;

fn run_seq(
    g: &Graph,
    seed: u64,
    ttl: u32,
    max_rounds: u32,
    plan: Option<&FaultPlan>,
) -> RunOutcome {
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed);
    if let Some(p) = plan {
        net = net.with_faults(p.clone());
    }
    net.run(|_, _| GossipHash::new(ttl), max_rounds)
}

/// Runs the schedule on both executors (threads 1–8) and asserts the
/// outcome, metrics, and serialized trace stream are byte-identical.
fn assert_fault_parity(g: &Graph, seed: u64, ttl: u32, plan: &FaultPlan) {
    let max_rounds = 4 * ttl + 32;
    let mut seq =
        Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed).with_faults(plan.clone());
    let mut seq_sink = JsonLinesSink::new(Vec::<u8>::new());
    let seq_result = seq.run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut seq_sink);
    let seq_bytes = seq_sink.finish().unwrap();
    let seq_metrics = seq.metrics();
    for threads in [1usize, 2, 3, 8] {
        let mut par = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed)
            .with_threads(threads)
            .with_faults(plan.clone());
        let mut par_sink = JsonLinesSink::new(Vec::<u8>::new());
        let par_result = par.run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut par_sink);
        assert_eq!(seq_result, par_result, "outcome, {threads} threads");
        assert_eq!(seq_metrics, par.metrics(), "metrics, {threads} threads");
        assert_eq!(
            seq_bytes,
            par_sink.finish().unwrap(),
            "trace bytes, {threads} threads"
        );
    }
}

/// A fault schedule derived deterministically from one seed, covering a
/// random mix of every fault class (possibly none).
fn random_plan(fseed: u64, n: usize) -> FaultPlan {
    let mut s = fseed;
    let mut plan = FaultPlan::new(splitmix64(&mut s));
    let classes = splitmix64(&mut s);
    if classes & 1 != 0 {
        plan = plan.with_drops(0.01 + (splitmix64(&mut s) % 20) as f64 * 0.01);
    }
    if classes & 2 != 0 {
        plan = plan.with_duplicates(0.01 + (splitmix64(&mut s) % 20) as f64 * 0.01);
    }
    if classes & 4 != 0 {
        let d = 1 + (splitmix64(&mut s) % 3) as u32;
        plan = plan.with_delays(0.01 + (splitmix64(&mut s) % 20) as f64 * 0.01, d);
    }
    if classes & 8 != 0 {
        plan = plan.with_stutters(0.01 + (splitmix64(&mut s) % 15) as f64 * 0.01);
    }
    for _ in 0..splitmix64(&mut s) % 3 {
        let v = NodeId((splitmix64(&mut s) % n as u64) as u32);
        let r = (splitmix64(&mut s) % 6) as u32;
        plan = plan.with_crash(v, r);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The tentpole invariant: any generated schedule yields byte-identical
    // behavior on every executor and thread count, on `Ok` and `Err` paths
    // alike.
    #[test]
    fn random_schedules_run_identically_everywhere(
        n in 2usize..=72,
        density in 1.0f64..3.0,
        seed in any::<u64>(),
        fseed in any::<u64>(),
        ttl in 1u32..6,
    ) {
        let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi_gnm(n, m, seed ^ 0xFA17);
        assert_fault_parity(&g, seed, ttl, &random_plan(fseed, n));
    }
}

/// An inactive (freshly constructed) plan must leave the faulted code path
/// observationally identical to the pre-fault one: same states, same
/// metrics, and the exact same serialized trace bytes.
#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let g = generators::erdos_renyi_gnm(60, 180, 21);
    let empty = FaultPlan::new(99);
    assert!(!empty.is_active());

    let run = |plan: Option<FaultPlan>| {
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 5);
        if let Some(p) = plan {
            net = net.with_faults(p);
        }
        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let states = net
            .run_traced(|_, _| GossipHash::new(4), 64, &mut sink)
            .unwrap();
        (states, net.metrics(), sink.finish().unwrap())
    };

    let (base_states, base_metrics, base_bytes) = run(None);
    let (states, metrics, bytes) = run(Some(empty.clone()));
    assert_eq!(base_states, states);
    assert_eq!(base_metrics, metrics);
    assert_eq!(base_bytes, bytes, "trace streams must not differ");
    assert!(metrics.faults.is_empty());

    let mut par = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 5)
        .with_threads(4)
        .with_faults(empty);
    let mut sink = JsonLinesSink::new(Vec::<u8>::new());
    let par_states = par
        .run_traced(|_, _| GossipHash::new(4), 64, &mut sink)
        .unwrap();
    assert_eq!(base_states, par_states);
    assert_eq!(base_metrics, par.metrics());
    assert_eq!(base_bytes, sink.finish().unwrap());
}

/// Crash-stop semantics: the node executes nothing from its crash round on,
/// the crash is counted once, and messages to it become dead letters — but
/// the run still terminates cleanly.
#[test]
fn crashed_nodes_fall_silent_and_are_counted() {
    let g = generators::star(16);
    // The hub crashes right after init: every spoke's round-1 reply to it
    // is a dead letter, and the gossip dies out.
    let plan = FaultPlan::new(3).with_crash(NodeId(0), 1);
    let states = run_seq(&g, 8, 5, 64, Some(&plan)).unwrap();
    let baseline = run_seq(&g, 8, 5, 64, None).unwrap();
    assert_eq!(states[0].rounds_run, 1, "hub ran init only");
    assert!(baseline[0].rounds_run > 1, "unfaulted hub keeps running");

    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 8).with_faults(plan);
    net.run(|_, _| GossipHash::new(5), 64).unwrap();
    let fc = net.metrics().faults;
    assert_eq!(fc.crashes, 1);
    // The spokes' init-round replies arrive in round 1 — the crash round —
    // and their round-1 replies in round 2: all 30 are dead on arrival.
    assert_eq!(fc.dead_letters, 30, "every spoke wrote to the dead hub");
    assert_eq!(fc.dropped + fc.duplicated + fc.delayed + fc.stutters, 0);
}

/// A node crashed at round 0 never runs `init` and sends nothing at all.
#[test]
fn crash_at_round_zero_suppresses_init() {
    let g = generators::cycle(8);
    let plan = FaultPlan::new(1).with_crash(NodeId(3), 0);
    let states = run_seq(&g, 2, 4, 64, Some(&plan)).unwrap();
    assert_eq!(states[3], GossipHash::new(4), "factory-fresh state");
    assert_eq!(states[3].rounds_run, 0);
}

/// Dropping every message is still a clean, fully accounted run: the
/// messages are budget-charged and counted in `RunMetrics`, and the drop
/// counter equals the message counter.
#[test]
fn total_drop_charges_budget_but_delivers_nothing() {
    let g = generators::erdos_renyi_gnm(30, 90, 4);
    let plan = FaultPlan::new(6).with_drops(1.0);
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 9).with_faults(plan);
    let states = net.run(|_, _| GossipHash::new(6), 64).unwrap();
    let m = net.metrics();
    assert!(m.messages > 0, "sends are still accounted");
    assert_eq!(m.faults.dropped, m.messages, "every message dropped");
    // Nothing is ever in flight, so the run quiesces right after init.
    assert!(states.iter().all(|s| s.rounds_run == 1));
}

/// Scoped faults are metamorphic: hammering one connected component must
/// leave the states of the other component bit-identical to an unfaulted
/// run — fault streams never perturb protocol RNG streams.
#[test]
fn scoped_faults_leave_other_component_untouched() {
    // Two disjoint 12-cliques in one graph: nodes 0..12 and 12..24.
    let k = 12u32;
    let mut edges = Vec::new();
    for base in [0, k] {
        for a in 0..k {
            for b in (a + 1)..k {
                edges.push((base + a, base + b));
            }
        }
    }
    let g = Graph::from_edges(2 * k as usize, edges.iter().copied());
    let hostile = FaultPlan::new(12)
        .with_drops(0.4)
        .with_duplicates(0.3)
        .with_delays(0.3, 3)
        .with_stutters(0.3)
        .with_crash(NodeId(k + 2), 2)
        .scoped_to((k..2 * k).map(NodeId));

    let baseline = run_seq(&g, 77, 5, 256, None).unwrap();
    let faulted = run_seq(&g, 77, 5, 256, Some(&hostile)).unwrap();
    for v in 0..k as usize {
        assert_eq!(baseline[v].digest, faulted[v].digest, "node {v} perturbed");
    }
    // And the faults really did fire in the other component.
    let mut net =
        Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 77).with_faults(hostile);
    net.run(|_, _| GossipHash::new(5), 256).unwrap();
    let fc = net.metrics().faults;
    assert!(
        fc.dropped > 0 && fc.crashes == 1,
        "hostile plan was inert: {fc}"
    );
}

/// Error paths stay typed and fully accounted under faults: a run that
/// cannot quiesce (a permanent stutterer holding carry) ends in
/// `RunError::RoundLimit` with identical partial metrics on both executors.
#[test]
fn round_limit_under_faults_is_typed_and_parity_holds() {
    let g = generators::cycle(6);
    // Node 2 stutters every round: its neighbors' messages are held
    // forever, so the run can never quiesce.
    let plan = FaultPlan::new(4).with_stutters(1.0).scoped_to([NodeId(2)]);
    let mut seq =
        Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3).with_faults(plan.clone());
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_err = seq
        .run_traced(|_, _| GossipHash::new(2), 12, &mut seq_trace)
        .unwrap_err();
    assert_eq!(seq_err, RunError::RoundLimit { max_rounds: 12 });
    assert!(seq.metrics().faults.stutters > 0);
    let seq_events = seq_trace;
    for threads in [1usize, 4] {
        let mut par = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3)
            .with_threads(threads)
            .with_faults(plan.clone());
        let mut par_trace: Vec<TraceEvent> = Vec::new();
        let par_err = par
            .run_traced(|_, _| GossipHash::new(2), 12, &mut par_trace)
            .unwrap_err();
        assert_eq!(seq_err, par_err);
        assert_eq!(seq.metrics(), par.metrics(), "{threads} threads");
        assert_eq!(seq_events, par_trace, "{threads} threads");
    }
}

/// Budget violations under an active plan retain the partial fault
/// counters, identically on both executors.
#[test]
fn budget_violation_under_faults_keeps_partial_fault_metrics() {
    #[derive(Debug, PartialEq)]
    struct LateFat;
    impl Protocol for LateFat {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            ctx.broadcast(vec![1]);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {
            if ctx.round() == 2 {
                ctx.broadcast(vec![0; 9]);
            } else if ctx.round() < 2 {
                ctx.broadcast(vec![ctx.round() as u64]);
            }
        }
    }
    let g = generators::erdos_renyi_gnm(24, 60, 2);
    let plan = FaultPlan::new(5).with_drops(0.3).with_stutters(0.2);
    let mut seq =
        Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 11).with_faults(plan.clone());
    let seq_err = seq.run(|_, _| LateFat, 32).unwrap_err();
    assert!(matches!(seq_err, RunError::Budget(_)));
    assert!(
        !seq.metrics().faults.is_empty(),
        "faults fired before the violation"
    );
    for threads in [1usize, 3, 8] {
        let mut par = Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 11)
            .with_threads(threads)
            .with_faults(plan.clone());
        let par_err = par.run(|_, _| LateFat, 32).unwrap_err();
        assert_eq!(seq_err, par_err, "{threads} threads");
        assert_eq!(seq.metrics(), par.metrics(), "{threads} threads");
    }
}

/// The trace stream of a faulted run records the per-category counters and
/// round-trips through the JSONL parser.
#[test]
fn faulted_trace_stream_reports_counters() {
    use spanner_netsim::{TraceEvent, TraceSummary};
    let g = generators::erdos_renyi_gnm(40, 120, 8);
    let plan = FaultPlan::new(2).with_drops(0.2).with_delays(0.2, 2);
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 6).with_faults(plan);
    let mut sink = JsonLinesSink::new(Vec::<u8>::new());
    net.run_traced(|_, _| GossipHash::new(5), 128, &mut sink)
        .unwrap();
    let bytes = sink.finish().unwrap();
    let mut summary = TraceSummary::default();
    let mut saw_faults = false;
    for line in std::str::from_utf8(&bytes).unwrap().lines() {
        let ev = TraceEvent::from_json_line(line).expect("parseable");
        assert_eq!(ev.to_json_line(), line, "round-trip");
        saw_faults |= matches!(ev, TraceEvent::Faults { .. });
        summary.observe(&ev);
    }
    assert!(saw_faults, "faulted run must emit a faults record");
    assert_eq!(
        summary.fault_counters().copied().unwrap_or_default(),
        net.metrics().faults
    );
    assert!(net.metrics().agrees_with(&summary));
}
