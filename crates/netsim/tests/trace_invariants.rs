//! Invariants linking [`RunMetrics`] to the trace stream: the per-phase
//! buckets of a [`TraceSummary`] and the message-size histogram must
//! reproduce the aggregate counters exactly — on successful runs, failed
//! runs, and degenerate zero-round runs. Phase spans come from a
//! [`ScheduledSink`] wrapped around the summary.

use proptest::prelude::*;

use spanner_graph::{generators, NodeId};
use spanner_netsim::{
    size_bucket, Ctx, MessageBudget, Network, PhaseMark, Protocol, RunError, ScheduledSink,
    TraceSink, TraceSummary,
};

/// `sink` with one span per `(round, name)` entry, open until the next
/// entry or the run's end.
fn phases<'s>(sink: &'s mut dyn TraceSink, spans: &[(u32, &str)]) -> ScheduledSink<'s> {
    let marks = spans
        .iter()
        .map(|&(round, name)| (round, PhaseMark::Enter(name.into())))
        .collect();
    ScheduledSink::new(sink, || marks)
}

/// Speaks once in init with a size keyed to the node id, then stays silent:
/// the run quiesces after one round, exercising several histogram buckets.
#[derive(Debug)]
struct SizedHello;

impl Protocol for SizedHello {
    type Msg = Vec<u64>;

    fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
        let words = 1 + (ctx.me().0 as usize % 9);
        ctx.broadcast(vec![0; words]);
    }

    fn round(&mut self, _: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {}
}

/// A node that never sends: the network is quiescent immediately and the
/// run finishes with zero rounds.
#[derive(Debug)]
struct Mute;

impl Protocol for Mute {
    type Msg = u64;
    fn init(&mut self, _: &mut Ctx<'_, u64>) {}
    fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
}

#[test]
fn zero_round_run_agrees() {
    let g = generators::cycle(12);
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
    let mut summary = TraceSummary::new();
    let mut sink = phases(&mut summary, &[(0, "silence")]);
    net.run_traced(|_, _| Mute, 8, &mut sink).unwrap();
    let m = net.metrics();
    assert_eq!(m.rounds, 0);
    assert_eq!(m.messages, 0);
    assert!(m.agrees_with(&summary));
    assert!(summary.is_complete());
    assert!(summary.error().is_none());
    // The scheduled phase span exists even though no round was counted.
    let phases: Vec<&str> = summary.phases().iter().map(|p| p.name.as_str()).collect();
    assert_eq!(phases, ["silence"]);
    assert_eq!(summary.phases()[0].rounds, 0);
}

#[test]
fn zero_node_run_agrees() {
    let g = spanner_graph::Graph::from_edges(0, std::iter::empty::<(u32, u32)>());
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
    let mut summary = TraceSummary::new();
    net.run_traced(|_, _| Mute, 8, &mut summary).unwrap();
    assert!(net.metrics().agrees_with(&summary));
    assert_eq!(summary.total_rounds(), 0);
    assert!(summary.phases().is_empty());
}

#[test]
fn size_histogram_buckets_match_manual_count() {
    let g = generators::connected_gnm(60, 180, 4);
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Unbounded, 2);
    let mut summary = TraceSummary::new();
    let mut sink = phases(&mut summary, &[(0, "hello")]);
    net.run_traced(|_, _| SizedHello, 8, &mut sink).unwrap();
    let m = net.metrics();
    assert!(m.agrees_with(&summary));
    // Recompute the histogram from first principles: each node broadcasts
    // deg(v) messages of 1 + (v mod 9) words.
    let mut expect = vec![0u64; summary.size_histogram().len()];
    for v in g.nodes() {
        let words = 1 + (v.0 as usize % 9);
        expect[size_bucket(words)] += g.neighbors(v).len() as u64;
    }
    assert_eq!(summary.size_histogram(), &expect[..]);
}

/// A budget violation mid-phase: the interrupted span is closed and
/// retained by the summary, and the partial totals still reconcile.
#[test]
fn budget_violation_mid_phase_agrees() {
    #[derive(Debug)]
    struct FatLater;
    impl Protocol for FatLater {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            ctx.broadcast(vec![1]);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {
            let words = if ctx.round() >= 3 { 6 } else { 1 };
            if ctx.round() < 5 {
                ctx.broadcast(vec![0; words]);
            }
        }
    }
    let g = generators::cycle(10);
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 3);
    let mut summary = TraceSummary::new();
    let mut sink = phases(&mut summary, &[(1, "thin"), (3, "fat")]);
    let err = net.run_traced(|_, _| FatLater, 32, &mut sink).unwrap_err();
    assert!(matches!(err, RunError::Budget(_)));
    let m = net.metrics();
    assert!(
        m.rounds > 0 && m.messages > 0,
        "partial accounting expected"
    );
    assert!(m.agrees_with(&summary), "metrics {m:?} vs summary totals");
    assert!(summary.error().is_some());
    assert!(!summary.is_complete() || summary.error().is_some());
    // The interrupted `fat` span is present and closed with the partial
    // round attributed to it.
    let fat = summary
        .phases()
        .iter()
        .find(|p| p.name == "fat")
        .expect("interrupted span retained");
    assert_eq!(fat.rounds, 1);
    assert_eq!(fat.first_round, 3);
    assert_eq!(fat.last_round, 3);
}

/// Randomized gossip with per-node message sizes: whatever the topology,
/// seed, and lifetime, the trace totals must equal the aggregate counters
/// and the histogram must sum to the message count.
#[derive(Debug)]
struct NoisyGossip {
    ttl: u32,
}

impl Protocol for NoisyGossip {
    type Msg = Vec<u64>;

    fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
        let words = 1 + (ctx.me().0 as usize % 5);
        ctx.broadcast(vec![0; words]);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, inbox: &[(NodeId, Vec<u64>)]) {
        if ctx.round() < self.ttl && !inbox.is_empty() {
            let words = 1 + ((ctx.me().0 + ctx.round()) as usize % 7);
            ctx.broadcast(vec![0; words]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn histogram_totals_match_aggregates(
        n in 1usize..=80,
        density in 1.0f64..3.0,
        seed in any::<u64>(),
        ttl in 0u32..5,
    ) {
        let m = (((n as f64) * density) as usize).min(n * (n - 1) / 2);
        let g = generators::erdos_renyi_gnm(n, m, seed ^ 0xA11CE);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Unbounded, seed);
        let mut summary = TraceSummary::new();
        let mut sink = phases(&mut summary, &[(0, "go")]);
        net.run_traced(|_, _| NoisyGossip { ttl }, 4 * ttl + 16, &mut sink)
            .unwrap();
        let metrics = net.metrics();
        prop_assert!(metrics.agrees_with(&summary));
        prop_assert_eq!(
            summary.size_histogram().iter().sum::<u64>(),
            metrics.messages
        );
        // Per-phase round totals partition the counted rounds.
        let phase_rounds: u32 = summary.phases().iter().map(|p| p.rounds).sum::<u32>()
            + summary.untracked().map_or(0, |p| p.rounds);
        prop_assert_eq!(phase_rounds, metrics.rounds);
    }
}
