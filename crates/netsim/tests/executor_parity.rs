//! Cross-executor parity: the round-synchronous executor must be
//! observationally identical at every worker count — same final states,
//! same RNG streams, same [`RunMetrics`], same trace event stream — on
//! every graph and seed, including the partial accounting left behind by
//! failed runs; the asynchronous executor must agree at the protocol
//! level.

use proptest::prelude::*;

use rand::Rng;
use spanner_graph::{generators, Graph, NodeId};
use spanner_netsim::patterns::MinIdBroadcast;
use spanner_netsim::rng::splitmix64;
use spanner_netsim::{
    AsyncNetwork, Ctx, FaultPlan, JsonLinesSink, MessageBudget, Network, PhaseMark, Protocol,
    RunError, ScheduledSink, Synchronizer, TraceEvent, TraceSink,
};

/// A protocol exercising every determinism-relevant feature at once: each
/// round a node flips its private coin, gossips the value to all neighbors,
/// and folds everything it hears into a running hash. Any divergence in RNG
/// streams, inbox order, or delivery timing changes the digests.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GossipHash {
    digest: u64,
    ttl: u32,
}

impl GossipHash {
    fn new(ttl: u32) -> Self {
        GossipHash { digest: 0, ttl }
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
        let word = ctx.rng().gen::<u64>();
        self.mix(ctx.me(), word);
        ctx.broadcast(word & 0xFFFF);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
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

/// [`GossipHash`]'s phase spans for the serialized-stream tests: `seed`
/// for the init round, then two-round waves, `wave[w]` from round
/// `2w + 1`, past every round cap used there.
fn gossip_phases(sink: &mut dyn TraceSink) -> ScheduledSink<'_> {
    ScheduledSink::new(sink, || {
        let waves = (0..64u32).map(|w| (2 * w + 1, PhaseMark::Enter(format!("wave[{w}]"))));
        [(0, PhaseMark::Enter("seed".into()))]
            .into_iter()
            .chain(waves)
            .collect()
    })
}

/// One span per round, `r<round>`, for the `LateFat` protocols.
fn late_fat_phases(sink: &mut dyn TraceSink) -> ScheduledSink<'_> {
    ScheduledSink::new(sink, || {
        (1..=32u32)
            .map(|r| (r, PhaseMark::Enter(format!("r{r}"))))
            .collect()
    })
}

fn assert_parity(g: &Graph, seed: u64, ttl: u32) {
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_states = seq
        .run_traced(|_, _| GossipHash::new(ttl), 4 * ttl + 16, &mut seq_trace)
        .unwrap();
    let seq_events = seq_trace;
    for threads in [1usize, 2, 4, 8] {
        let mut par =
            Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed).with_threads(threads);
        let mut par_trace: Vec<TraceEvent> = Vec::new();
        let par_states = par
            .run_traced(|_, _| GossipHash::new(ttl), 4 * ttl + 16, &mut par_trace)
            .unwrap();
        assert_eq!(seq_states, par_states, "states, {threads} threads");
        assert_eq!(seq.metrics(), par.metrics(), "metrics, {threads} threads");
        assert_eq!(seq_events, par_trace, "trace events, {threads} threads");
    }
}

/// Like [`assert_parity`] but under a fault schedule, over the full thread
/// range, asserting parity of the outcome (`Ok` states or typed `Err`),
/// metrics, and trace stream alike.
fn assert_parity_under_faults(g: &Graph, seed: u64, ttl: u32, plan: &FaultPlan) {
    let max_rounds = 4 * ttl + 16;
    let mut seq =
        Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed).with_faults(plan.clone());
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_result = seq.run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut seq_trace);
    let seq_events = seq_trace;
    for threads in 1usize..=8 {
        let mut par = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed)
            .with_threads(threads)
            .with_faults(plan.clone());
        let mut par_trace: Vec<TraceEvent> = Vec::new();
        let par_result = par.run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut par_trace);
        assert_eq!(seq_result, par_result, "outcome, {threads} threads");
        assert_eq!(seq.metrics(), par.metrics(), "metrics, {threads} threads");
        assert_eq!(seq_events, par_trace, "trace events, {threads} threads");
    }
}

/// A mixed drop/delay/crash schedule derived from one seed (the fault
/// classes the satellite task calls out; stutters and duplicates are
/// covered by `fault_conformance.rs`).
fn fault_schedule(fseed: u64, n: usize) -> FaultPlan {
    let mut s = fseed;
    let mut plan = FaultPlan::new(splitmix64(&mut s))
        .with_drops((splitmix64(&mut s) % 25) as f64 * 0.01)
        .with_delays(
            (splitmix64(&mut s) % 25) as f64 * 0.01,
            1 + (splitmix64(&mut s) % 3) as u32,
        );
    for _ in 0..splitmix64(&mut s) % 3 {
        let v = NodeId((splitmix64(&mut s) % n as u64) as u32);
        plan = plan.with_crash(v, (splitmix64(&mut s) % 5) as u32);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn executors_agree_on_random_graphs(
        n in 2usize..=120,
        density in 1.0f64..3.5,
        seed in any::<u64>(),
        ttl in 1u32..6,
    ) {
        let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi_gnm(n, m, seed ^ 0x5EED);
        assert_parity(&g, seed, ttl);
    }

    #[test]
    fn executors_agree_on_stars(
        leaves in 2usize..=400,
        seed in any::<u64>(),
    ) {
        // High-degree hub: the shape that punished the old O(outbox)
        // duplicate scan and exercises cross-chunk routing the hardest.
        let g = generators::star(leaves + 1);
        assert_parity(&g, seed, 3);
    }

    #[test]
    fn executors_agree_under_fault_schedules(
        n in 2usize..=64,
        density in 1.0f64..3.0,
        seed in any::<u64>(),
        fseed in any::<u64>(),
        ttl in 1u32..5,
    ) {
        let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi_gnm(n, m, seed ^ 0x0F17);
        assert_parity_under_faults(&g, seed, ttl, &fault_schedule(fseed, n));
    }

    #[test]
    fn executors_agree_under_faults_on_stars(
        leaves in 2usize..=160,
        seed in any::<u64>(),
        fseed in any::<u64>(),
    ) {
        let g = generators::star(leaves + 1);
        assert_parity_under_faults(&g, seed, 3, &fault_schedule(fseed, leaves + 1));
    }
}

#[test]
fn executors_agree_on_min_id_broadcast() {
    let g = generators::erdos_renyi_gnm(90, 270, 31);
    let sources = |v: NodeId| v.0.is_multiple_of(11);
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::Words(2), 12);
    let seq_states = seq
        .run(|v, _| MinIdBroadcast::new(sources(v), 50), 256)
        .unwrap();
    for threads in [1usize, 2, 4, 8] {
        let mut par =
            Network::from_csr(g.csr().clone(), MessageBudget::Words(2), 12).with_threads(threads);
        let par_states = par
            .run(|v, _| MinIdBroadcast::new(sources(v), 50), 256)
            .unwrap();
        for v in g.nodes() {
            assert_eq!(
                seq_states[v.index()].nearest(),
                par_states[v.index()].nearest(),
                "node {v}, {threads} threads"
            );
        }
        assert_eq!(seq.metrics(), par.metrics(), "{threads} threads");
    }
}

/// Error paths must account identically too: a round-limited run leaves the
/// same metrics and the same (truncated) trace stream in both executors.
#[test]
fn round_limit_metrics_agree() {
    #[derive(Debug)]
    struct Chatter;
    impl Protocol for Chatter {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(1);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {
            ctx.broadcast(1);
        }
    }
    let g = generators::erdos_renyi_gnm(40, 120, 2);
    let phases = || vec![(0, PhaseMark::Enter("chatter".into()))];
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 7);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_err = seq
        .run_traced(
            |_, _| Chatter,
            6,
            &mut ScheduledSink::new(&mut seq_trace, phases),
        )
        .unwrap_err();
    assert_eq!(seq_err, RunError::RoundLimit { max_rounds: 6 });
    let seq_events = seq_trace;
    assert!(matches!(
        seq_events.last(),
        Some(TraceEvent::RunEnd { error: Some(_), .. })
    ));
    for threads in [1usize, 3, 8] {
        let mut par =
            Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 7).with_threads(threads);
        let mut par_trace: Vec<TraceEvent> = Vec::new();
        let par_err = par
            .run_traced(
                |_, _| Chatter,
                6,
                &mut ScheduledSink::new(&mut par_trace, phases),
            )
            .unwrap_err();
        assert_eq!(seq_err, par_err);
        assert_eq!(seq.metrics(), par.metrics(), "{threads} threads");
        assert_eq!(seq_events, par_trace, "trace events, {threads} threads");
    }
}

/// Budget-violation runs leave identical partial metrics (the seed executor
/// lost the parallel metrics entirely on this path) and identical partial
/// trace streams: the interrupted round is flushed, the open phase span is
/// closed, and the closing record carries the error.
#[test]
fn budget_violation_metrics_agree() {
    #[derive(Debug)]
    struct LateFat;
    impl Protocol for LateFat {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            ctx.broadcast(vec![1]);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {
            if ctx.round() == 2 && ctx.me().0 >= 20 {
                ctx.broadcast(vec![0; 7]);
            } else if ctx.round() < 2 {
                ctx.broadcast(vec![ctx.round() as u64]);
            }
        }
    }
    let g = generators::erdos_renyi_gnm(40, 100, 5);
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 9);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_err = seq
        .run_traced(|_, _| LateFat, 32, &mut late_fat_phases(&mut seq_trace))
        .unwrap_err();
    assert!(matches!(seq_err, RunError::Budget(_)));
    assert!(seq.metrics().messages > 0, "partial accounting expected");
    let seq_events = seq_trace;
    // The stream ends with: the partial round, the forced close of the open
    // phase, and a RunEnd recording the violation.
    let tail: Vec<&TraceEvent> = seq_events.iter().rev().take(3).collect();
    assert!(matches!(tail[0], TraceEvent::RunEnd { error: Some(_), .. }));
    assert!(matches!(tail[1], TraceEvent::PhaseExit { .. }));
    assert!(matches!(tail[2], TraceEvent::Round { .. }));
    for threads in [1usize, 2, 4, 8] {
        let mut par =
            Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 9).with_threads(threads);
        let mut par_trace: Vec<TraceEvent> = Vec::new();
        let par_err = par
            .run_traced(|_, _| LateFat, 32, &mut late_fat_phases(&mut par_trace))
            .unwrap_err();
        assert_eq!(seq_err, par_err, "{threads} threads");
        assert_eq!(seq.metrics(), par.metrics(), "{threads} threads");
        assert_eq!(seq_events, par_trace, "trace events, {threads} threads");
    }
}

/// The serialized JSON-lines form must be byte-identical across executors,
/// not merely event-equal: downstream tools may diff the files directly.
#[test]
fn trace_jsonl_byte_identical() {
    let g = generators::erdos_renyi_gnm(80, 240, 17);
    let run_seq = || {
        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3);
        net.run_traced(|_, _| GossipHash::new(4), 64, &mut gossip_phases(&mut sink))
            .unwrap();
        sink.finish().unwrap()
    };
    let seq_bytes = run_seq();
    assert!(!seq_bytes.is_empty());
    // Every line round-trips through the parser.
    for line in std::str::from_utf8(&seq_bytes).unwrap().lines() {
        let ev = TraceEvent::from_json_line(line).expect("parseable line");
        assert_eq!(ev.to_json_line(), line);
    }
    for threads in [1usize, 2, 4, 8] {
        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let mut par =
            Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3).with_threads(threads);
        par.run_traced(|_, _| GossipHash::new(4), 64, &mut gossip_phases(&mut sink))
            .unwrap();
        let par_bytes = sink.finish().unwrap();
        assert_eq!(seq_bytes, par_bytes, "{threads} threads");
    }
}

/// The event-driven executor with a zero-delay plan (the default: every
/// link takes exactly one tick) must be byte-identical to the sequential
/// executor at the protocol level — same states, same metrics under the
/// [`protocol_only`](spanner_netsim::RunMetrics::protocol_only)
/// projection, same trace stream — and its async counters must satisfy the
/// one-event-per-arrival invariant.
fn assert_async_parity(g: &Graph, seed: u64, ttl: u32) {
    let max_rounds = 4 * ttl + 16;
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_states = seq
        .run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut seq_trace)
        .unwrap();
    let seq_events = seq_trace;
    let mut anet = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed);
    let mut atrace: Vec<TraceEvent> = Vec::new();
    let astates = anet
        .run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut atrace)
        .unwrap();
    assert_eq!(seq_states, astates, "async states");
    assert_eq!(
        seq.metrics(),
        anet.metrics().protocol_only(),
        "async metrics"
    );
    assert_eq!(seq_events, atrace, "async trace events");
    let m = anet.metrics();
    assert_eq!(m.events, m.messages + m.sync_messages, "event accounting");
    assert!(
        m.sim_time >= m.rounds as u64,
        "clock at least one tick/round"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn async_executor_agrees_on_random_graphs(
        n in 2usize..=96,
        density in 1.0f64..3.0,
        seed in any::<u64>(),
        ttl in 1u32..5,
    ) {
        let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi_gnm(n, m, seed ^ 0xA5_15C);
        assert_async_parity(&g, seed, ttl);
    }

    // Under *nonzero* random delays the trace stream stays identical too
    // (the synchronizer recovers exact rounds), for both synchronizer
    // variants; the skeleton variant synchronizes over a spanning tree of
    // the (connected) graph. (The shim's proptest! macro rejects doc
    // comments, hence the plain ones.)
    #[test]
    fn async_executor_agrees_under_random_delays(
        n in 2usize..=64,
        density in 1.2f64..3.0,
        seed in any::<u64>(),
        dseed in any::<u64>(),
        ttl in 1u32..5,
    ) {
        let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
        let g = generators::connected_gnm(n, m, seed ^ 0xDE1A);
        assert_async_delay_parity(&g, seed, dseed, ttl);
    }
}

/// The body of `async_executor_agrees_under_random_delays`: sequential
/// reference once, then both synchronizers under the same delay plan.
fn assert_async_delay_parity(g: &Graph, seed: u64, dseed: u64, ttl: u32) {
    let max_rounds = 4 * ttl + 16;
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_states = seq
        .run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut seq_trace)
        .unwrap();
    let seq_events = seq_trace;
    let delays = FaultPlan::new(dseed).with_delays(0.4, 4);
    let tree = spanning_tree(g);
    for sync in [Synchronizer::Alpha, Synchronizer::Skeleton(tree)] {
        let mut anet = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed)
            .with_delays(delays.clone())
            .with_synchronizer(sync.clone());
        let mut atrace: Vec<TraceEvent> = Vec::new();
        let astates = anet
            .run_traced(|_, _| GossipHash::new(ttl), max_rounds, &mut atrace)
            .unwrap();
        assert_eq!(seq_states, astates, "{sync:?} states");
        assert_eq!(
            seq.metrics(),
            anet.metrics().protocol_only(),
            "{sync:?} metrics"
        );
        assert_eq!(seq_events, atrace, "{sync:?} trace");
        let m = anet.metrics();
        assert_eq!(m.events, m.messages + m.sync_messages, "{sync:?} events");
    }
}

/// A BFS spanning tree of a connected graph, as synchronizer edges.
fn spanning_tree(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let adj = g.csr();
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([NodeId(0)]);
    seen[0] = true;
    let mut edges = Vec::new();
    while let Some(v) = queue.pop_front() {
        for &w in adj.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                edges.push((v, w));
                queue.push_back(w);
            }
        }
    }
    edges
}

/// Budget violations on the async executor leave the sequential executor's
/// exact partial accounting and partial trace stream, whatever the delay
/// plan — mid-round aborts happen at the same (sender, round) point.
#[test]
fn async_budget_violation_agrees() {
    #[derive(Debug)]
    struct LateFat;
    impl Protocol for LateFat {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            ctx.broadcast(vec![1]);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {
            if ctx.round() == 2 && ctx.me().0 >= 20 {
                ctx.broadcast(vec![0; 7]);
            } else if ctx.round() < 2 {
                ctx.broadcast(vec![ctx.round() as u64]);
            }
        }
    }
    let g = generators::connected_gnm(40, 100, 5);
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 9);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    let seq_err = seq
        .run_traced(|_, _| LateFat, 32, &mut late_fat_phases(&mut seq_trace))
        .unwrap_err();
    assert!(matches!(seq_err, RunError::Budget(_)));
    let seq_events = seq_trace;
    for delays in [FaultPlan::default(), FaultPlan::new(3).with_delays(0.5, 4)] {
        let mut anet =
            AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::Words(4), 9).with_delays(delays);
        let mut atrace: Vec<TraceEvent> = Vec::new();
        let aerr = anet
            .run_traced(|_, _| LateFat, 32, &mut late_fat_phases(&mut atrace))
            .unwrap_err();
        assert_eq!(seq_err, aerr);
        assert_eq!(seq.metrics(), anet.metrics().protocol_only());
        assert_eq!(seq_events, atrace);
    }
}

/// Serialized async trace streams are byte-identical to the sequential
/// executor's (and hence to every parallel thread count, by
/// `trace_jsonl_byte_identical`); with delivery tracing enabled the stream
/// gains `deliver` records and nothing else changes.
#[test]
fn async_trace_jsonl_byte_identical() {
    let g = generators::connected_gnm(60, 180, 17);
    let mut sink = JsonLinesSink::new(Vec::<u8>::new());
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3);
    net.run_traced(|_, _| GossipHash::new(4), 64, &mut gossip_phases(&mut sink))
        .unwrap();
    let seq_bytes = sink.finish().unwrap();
    let run_async = |trace_deliveries: bool| {
        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let mut anet = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3)
            .with_delays(FaultPlan::new(6).with_delays(0.3, 3))
            .with_delivery_trace(trace_deliveries);
        anet.run_traced(|_, _| GossipHash::new(4), 64, &mut gossip_phases(&mut sink))
            .unwrap();
        sink.finish().unwrap()
    };
    assert_eq!(seq_bytes, run_async(false));
    let with_deliveries = run_async(true);
    assert_ne!(seq_bytes, with_deliveries);
    let mut deliver_lines = 0usize;
    let filtered: Vec<&str> = std::str::from_utf8(&with_deliveries)
        .unwrap()
        .lines()
        .filter(|l| {
            let ev = TraceEvent::from_json_line(l).expect("parseable line");
            assert_eq!(ev.to_json_line(), *l, "deliver round-trips");
            if matches!(ev, TraceEvent::Deliver { .. }) {
                deliver_lines += 1;
                false
            } else {
                true
            }
        })
        .collect();
    assert!(deliver_lines > 0, "delivery tracing emits deliver records");
    let seq_lines: Vec<&str> = std::str::from_utf8(&seq_bytes).unwrap().lines().collect();
    assert_eq!(seq_lines, filtered, "deliver records are purely additive");
}

/// An empty graph still produces a well-formed stream (the init round and a
/// successful RunEnd), identically in both executors.
#[test]
fn trace_parity_on_empty_graph() {
    let g = Graph::from_edges(0, std::iter::empty::<(u32, u32)>());
    let mut seq = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
    let mut seq_trace: Vec<TraceEvent> = Vec::new();
    seq.run_traced(|_, _| GossipHash::new(2), 8, &mut seq_trace)
        .unwrap();
    let seq_events = seq_trace;
    assert_eq!(seq_events.len(), 2);
    assert!(matches!(
        seq_events.last(),
        Some(TraceEvent::RunEnd {
            rounds: 0,
            error: None,
            ..
        })
    ));
    for threads in [1usize, 4] {
        let mut par =
            Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1).with_threads(threads);
        let mut par_trace: Vec<TraceEvent> = Vec::new();
        par.run_traced(|_, _| GossipHash::new(2), 8, &mut par_trace)
            .unwrap();
        assert_eq!(seq_events, par_trace, "{threads} threads");
    }
}
