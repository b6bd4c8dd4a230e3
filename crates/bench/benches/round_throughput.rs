//! Round-execution throughput: zero-alloc executor vs the seed hot path.
//!
//! The seed executor allocated a fresh `vec![Vec::new(); n]` inbox table
//! every round, rebuilt nested-Vec adjacency per run, and detected duplicate
//! sends by scanning the outbox (O(outbox) per send, so O(deg²) for a
//! broadcast). The `naive` module below replicates that hot path faithfully;
//! the `netsim` benchmarks run the same workload on the rewritten executor
//! (double-buffered arenas, CSR adjacency, stamp-based duplicate check).
//!
//! Three shapes:
//!
//! * `er_50k` — Erdős–Rényi, n = 50 000, m = 150 000: the acceptance target
//!   is ≥ 2× throughput over the seed path.
//! * `star` — one hub of degree d broadcasting each round. The new executor
//!   must be linear in d (time at d = 100 000 ≈ 10× time at d = 10 000); the
//!   seed path is quadratic, so it is benchmarked only at the smaller sizes
//!   (at d = 100 000 a single naive round is ~10⁹ comparisons).
//! * `sparse_64k` — n = 2¹⁶, m = 4n, where 1 % of the nodes wake every 64
//!   rounds and send one message, and everyone else sleeps until mail
//!   arrives. It reports the marginal cost of one round in ns, which
//!   follows the round's active nodes when idle rounds cost O(active) and
//!   grows with n when they cost O(n).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use spanner_graph::{generators, CsrAdjacency, Graph, NodeId};
use spanner_netsim::{Ctx, MessageBudget, Network, Protocol};

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
    let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
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
        let adjacency: Vec<Vec<NodeId>> = g.nodes().map(|v| g.neighbors(v).to_vec()).collect();
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
    let csr = g.csr();
    let ttl = 4;
    assert_eq!(run_new(&g, ttl), naive::run(&g, ttl), "same workload");
    let mut group = c.benchmark_group("round_throughput/er_50k");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    group.bench_function("seed_path", |b| b.iter(|| naive::run(&g, ttl)));
    group.bench_function("netsim", |b| b.iter(|| run_new_shared(csr, ttl)));
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
            assert_eq!(run_new(&g, 2), naive::run(&g, 2), "same workload");
            group.bench_with_input(BenchmarkId::new("seed_path", degree), &g, |b, g| {
                b.iter(|| naive::run(g, 2))
            });
        }
    }
    group.finish();
}

/// Every `PERIOD` rounds until `until`, a pulsing node sends one word to
/// its first neighbor, and it is done only after its last pulse; the rest
/// only ever run on delivery.
struct Pulse {
    pulsing: bool,
    until: u32,
    now: u32,
}

const PERIOD: u32 = 64;

impl Protocol for Pulse {
    type Msg = u64;

    fn init(&mut self, _ctx: &mut Ctx<'_, u64>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[(NodeId, u64)]) {
        let t = ctx.round();
        self.now = t;
        if self.pulsing && t % PERIOD == 0 && t <= self.until {
            if let Some(&to) = ctx.neighbors().first() {
                ctx.send(to, u64::from(t));
            }
        }
    }

    fn next_wake(&self, round: u32) -> u32 {
        if self.pulsing && round < self.until {
            (round / PERIOD + 1) * PERIOD
        } else {
            u32::MAX
        }
    }

    fn done(&self) -> bool {
        !self.pulsing || self.now >= self.until
    }
}

/// Wall time of one sparse run lasting about `until` rounds.
fn run_sparse(csr: &Arc<CsrAdjacency>, until: u32) -> (Duration, u32) {
    let start = Instant::now();
    let mut net = Network::from_csr(Arc::clone(csr), MessageBudget::CONGEST, 1);
    net.run(
        |v, _| Pulse {
            pulsing: v.0 % 100 == 0,
            until,
            now: 0,
        },
        until + 4,
    )
    .expect("terminates");
    (start.elapsed(), net.metrics().rounds)
}

/// Median wall time and round count of `samples` sparse runs.
fn median_sparse(csr: &Arc<CsrAdjacency>, until: u32, samples: usize) -> (f64, u32) {
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    let mut rounds = 0;
    for _ in 0..samples {
        let (t, r) = run_sparse(csr, until);
        times.push(t.as_secs_f64());
        rounds = r;
    }
    times.sort_by(f64::total_cmp);
    (times[samples / 2], rounds)
}

/// The marginal cost of a sparse round: the time difference between a
/// long and a short run over their round difference, so the O(n) set-up
/// both share cancels out.
fn bench_sparse(_c: &mut Criterion) {
    let n = 1usize << 16;
    let g = generators::erdos_renyi_gnm(n, 4 * n, 42);
    let csr = g.csr();
    let samples = 9;
    let (short, short_rounds) = median_sparse(csr, PERIOD, samples);
    let (long, long_rounds) = median_sparse(csr, 32 * PERIOD, samples);
    let per_round = (long - short) * 1e9 / f64::from(long_rounds - short_rounds);
    println!(
        "bench: {:<48} {per_round:>14.1} ns/round  ({} - {} rounds, median of {samples} runs each)",
        "round_throughput/sparse_64k", long_rounds, short_rounds
    );
}

criterion_group!(benches, bench_er, bench_star, bench_sparse);
criterion_main!(benches);
