//! Round-execution throughput: zero-alloc executor vs the seed hot path.
//!
//! The seed executor allocated a fresh `vec![Vec::new(); n]` inbox table
//! every round, rebuilt nested-Vec adjacency per run, and detected duplicate
//! sends by scanning the outbox (O(outbox) per send, so O(deg²) for a
//! broadcast). The `naive` module below replicates that hot path faithfully;
//! the `netsim` timings run the same workload on the rewritten executor
//! (double-buffered arenas, CSR adjacency, stamp-based duplicate check).
//!
//! Three shapes:
//!
//! * `er_50k` — Erdős–Rényi, n = 50 000, m = 150 000: the acceptance target
//!   is ≥ 2× throughput over the seed path.
//! * `star` — one hub of degree d broadcasting each round. The new executor
//!   must be linear in d (time at d = 100 000 ≈ 10× time at d = 10 000); the
//!   seed path is quadratic, so it runs only at d = 10 000 (at d = 100 000
//!   a single naive round is ~10⁹ comparisons).
//! * `sparse_64k` — n = 2¹⁶, m = 4n, where 1 % of the nodes wake every 64
//!   rounds and send one message, and everyone else sleeps until mail
//!   arrives. It reports the marginal cost of one round in ns, which
//!   follows the round's active nodes when idle rounds cost O(active) and
//!   grows with n when they cost O(n).
//!
//! Every shape the seed path runs on first asserts that both paths send
//! the same messages. Each timing is {min, median, max} over interleaved
//! samples of every run above.
//!
//! Flags (after `--`):
//! * `--json <path>` — write the results there (the committed copy is
//!   `BENCH_round.json` at the repo root).

use std::sync::Arc;

use spanner_bench::report::{self, Json};
use spanner_bench::{deny_unknown_args, json_out_arg, switch_arg, timed, write_json};
use spanner_graph::{generators, CsrAdjacency, Graph, NodeId};
use spanner_netsim::{Ctx, MessageBudget, Network, Protocol};

/// Timed runs per shape.
const SAMPLES: usize = 9;

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

fn run_new(csr: &Arc<CsrAdjacency>, ttl: u32) -> u64 {
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

/// The rounds of one sparse run lasting about `until` rounds.
fn run_sparse(csr: &Arc<CsrAdjacency>, until: u32) -> u32 {
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
    net.metrics().rounds
}

fn main() {
    // `cargo bench` appends `--bench`.
    switch_arg("--bench");
    let json_path = json_out_arg();
    deny_unknown_args();

    let er = generators::erdos_renyi_gnm(50_000, 150_000, 42);
    let star_10k = generators::star(10_001);
    let star_100k = generators::star(100_001);
    // Name, graph, TTL, and whether the seed path runs: it is O(deg²) per
    // hub broadcast, so only feasible on the smaller star.
    let gossip: [(&str, &Graph, u32, bool); 3] = [
        ("er_50k", &er, 4, true),
        ("star_10k", &star_10k, 2, true),
        ("star_100k", &star_100k, 2, false),
    ];
    let messages: Vec<u64> = gossip
        .iter()
        .map(|&(name, g, ttl, seed)| {
            let messages = run_new(g.csr(), ttl);
            if seed {
                assert_eq!(messages, naive::run(g, ttl), "{name}: same workload");
            }
            messages
        })
        .collect();

    // The marginal cost of a sparse round: the time difference between a
    // long and a short run over their round difference, so the O(n)
    // set-up both share cancels out.
    let n = 1usize << 16;
    let sparse = generators::erdos_renyi_gnm(n, 4 * n, 42);
    let untils = [PERIOD, 32 * PERIOD];
    let rounds = untils.map(|until| run_sparse(sparse.csr(), until));

    let mut timers: Vec<Box<dyn FnMut() -> f64 + '_>> = Vec::new();
    for &(_, g, ttl, seed) in &gossip {
        timers.push(Box::new(move || timed(|| run_new(g.csr(), ttl)).1));
        if seed {
            timers.push(Box::new(move || timed(|| naive::run(g, ttl)).1));
        }
    }
    for until in untils {
        let csr = sparse.csr();
        timers.push(Box::new(move || timed(|| run_sparse(csr, until)).1));
    }
    println!("round_throughput: {SAMPLES} samples");
    let mut stats = report::sample(SAMPLES, &mut timers).into_iter();
    let mut next = || stats.next().expect("one Stat per timer");

    let mut rows = Vec::new();
    for (&(name, g, ttl, seed), &messages) in gossip.iter().zip(&messages) {
        let netsim = next();
        let seed = seed.then(&mut next);
        let speedup = seed.map(|s| s.min / netsim.min);
        let seed_median = seed.map_or("-".into(), |s| format!("{:.4}s", s.median));
        println!(
            "{name}: {messages} messages, medians netsim {:.4}s, seed path {seed_median}",
            netsim.median
        );
        rows.push(Json::obj([
            ("shape", name.into()),
            ("n", g.node_count().into()),
            ("m", g.edge_count().into()),
            ("ttl", ttl.into()),
            ("messages", messages.into()),
            ("netsim_secs", netsim.json(6)),
            ("seed_secs", seed.map_or(Json::Null, |s| s.json(6))),
            ("speedup", speedup.map_or(Json::Null, |x| Json::Fixed(x, 2))),
        ]));
    }
    let [short, long] = [next(), next()];
    let ns_per_round = (long.median - short.median) * 1e9 / f64::from(rounds[1] - rounds[0]);
    println!(
        "sparse_64k: {ns_per_round:.1} ns/round ({} - {} rounds, medians of {SAMPLES} runs each)",
        rounds[1], rounds[0]
    );
    let json = Json::obj([
        ("bench", "round_throughput".into()),
        (
            "available_parallelism",
            report::available_parallelism().into(),
        ),
        ("gossip", Json::Arr(rows)),
        (
            "sparse_64k",
            Json::obj([
                ("n", sparse.node_count().into()),
                ("m", sparse.edge_count().into()),
                ("short_rounds", rounds[0].into()),
                ("long_rounds", rounds[1].into()),
                ("short_secs", short.json(6)),
                ("long_secs", long.json(6)),
                ("ns_per_round", Json::Fixed(ns_per_round, 1)),
            ]),
        ),
    ]);
    write_json(json_path.as_deref(), &json);
}
