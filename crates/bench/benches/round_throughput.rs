//! Round-execution throughput: zero-alloc executor vs the seed hot path.
//!
//! The seed executor allocated a fresh `vec![Vec::new(); n]` inbox table
//! every round, rebuilt nested-Vec adjacency per run, and detected duplicate
//! sends by scanning the outbox (O(outbox) per send, so O(deg²) for a
//! broadcast). The `naive` module below replicates that hot path faithfully;
//! the `netsim` benchmarks run the same workload on the rewritten executor
//! (double-buffered arenas, CSR adjacency, stamp-based duplicate check).
//!
//! Two shapes:
//!
//! * `er_50k` — Erdős–Rényi, n = 50 000, m = 150 000: the acceptance target
//!   is ≥ 2× throughput over the seed path.
//! * `star` — one hub of degree d broadcasting each round. The new executor
//!   must be linear in d (time at d = 100 000 ≈ 10× time at d = 10 000); the
//!   seed path is quadratic, so it is benchmarked only at the smaller sizes
//!   (at d = 100 000 a single naive round is ~10⁹ comparisons).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spanner_graph::{generators, Graph, NodeId};
use spanner_netsim::{CsrAdjacency, Ctx, MessageBudget, Network, Protocol};

/// Every node broadcasts one word per round until `ttl`, then goes quiet.
struct Gossip {
    ttl: u32,
}

impl Protocol for Gossip {
    type Msg = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(ctx.me().0 as u64);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        if ctx.round() < self.ttl && !inbox.is_empty() {
            ctx.broadcast(ctx.round() as u64);
        }
    }
}

fn run_new(g: &Graph, ttl: u32) -> u64 {
    let mut net = Network::new(g, MessageBudget::CONGEST, 1);
    net.run(|_, _| Gossip { ttl }, ttl + 4).expect("terminates");
    net.metrics().messages
}

fn run_new_shared(csr: &Arc<CsrAdjacency>, ttl: u32) -> u64 {
    let mut net = Network::from_csr(Arc::clone(csr), MessageBudget::CONGEST, 1);
    net.run(|_, _| Gossip { ttl }, ttl + 4).expect("terminates");
    net.metrics().messages
}

/// Faithful replica of the seed executor's per-round costs for the same
/// gossip workload: nested-Vec adjacency built per run, a brand-new inbox
/// table allocated every round, per-send neighbor binary search plus the
/// O(outbox) duplicate scan (the scan that made hub broadcasts quadratic),
/// and per-message budget checks and metric accounting.
mod naive {
    use super::*;
    use spanner_netsim::RunMetrics;

    pub fn run(g: &Graph, ttl: u32) -> u64 {
        let n = g.node_count();
        let budget = MessageBudget::CONGEST;
        let adjacency: Vec<Vec<NodeId>> = g
            .nodes()
            .map(|v| {
                let mut ns: Vec<NodeId> = g.neighbor_ids(v).collect();
                ns.sort_unstable();
                ns
            })
            .collect();
        let mut metrics = RunMetrics::default();
        let mut inboxes: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];

        let send = |nbrs: &[NodeId], outbox: &mut Vec<(NodeId, u64)>, to: NodeId, w: u64| {
            assert!(nbrs.binary_search(&to).is_ok(), "non-neighbor");
            assert!(
                !outbox.iter().any(|&(t, _)| t == to),
                "duplicate send (seed-style scan)"
            );
            outbox.push((to, w));
        };

        for round in 0..=ttl {
            // Seed behaviour: a fresh inbox table every round.
            let mut delivering = std::mem::replace(&mut inboxes, vec![Vec::new(); n]);
            let mut quiet = true;
            for v in 0..n {
                let mut inbox = std::mem::take(&mut delivering[v]);
                inbox.sort_by_key(|&(s, _)| s);
                let fire = round == 0 || (!inbox.is_empty() && round < ttl);
                if !fire {
                    continue;
                }
                quiet = false;
                let mut outbox = Vec::new();
                for &to in &adjacency[v] {
                    send(&adjacency[v], &mut outbox, to, round as u64);
                }
                for (to, w) in outbox {
                    assert!(budget.allows(1), "CONGEST allows one word");
                    metrics.messages += 1;
                    metrics.words += 1;
                    metrics.max_message_words = metrics.max_message_words.max(1);
                    inboxes[to.index()].push((NodeId(v as u32), w));
                }
            }
            if quiet {
                break;
            }
        }
        metrics.messages
    }
}

fn bench_er(c: &mut Criterion) {
    let g = generators::erdos_renyi_gnm(50_000, 150_000, 42);
    let csr = Arc::new(CsrAdjacency::from_graph(&g));
    let ttl = 4;
    assert_eq!(run_new(&g, ttl), naive::run(&g, ttl), "same workload");
    let mut group = c.benchmark_group("round_throughput/er_50k");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    group.bench_function("seed_path", |b| b.iter(|| naive::run(&g, ttl)));
    group.bench_function("netsim", |b| b.iter(|| run_new_shared(&csr, ttl)));
    group.finish();
}

fn bench_star(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_throughput/star_broadcast");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for degree in [10_000usize, 100_000] {
        let g = generators::star(degree + 1);
        group.bench_with_input(BenchmarkId::new("netsim", degree), &g, |b, g| {
            b.iter(|| run_new(g, 2))
        });
        // The seed path is O(deg²) per hub broadcast: only feasible small.
        if degree <= 10_000 {
            group.bench_with_input(BenchmarkId::new("seed_path", degree), &g, |b, g| {
                b.iter(|| naive::run(g, 2))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_er, bench_star);
criterion_main!(benches);
