//! The wake contract of [`Protocol::next_wake`]: a round-synchronous
//! executor may skip a node whose inbox is empty until the round it asked
//! for, and because the skipped calls are no-ops the run is unchanged.
//!
//! Two toy protocols — a timer that acts every `k` rounds and a
//! message-driven relay — run with their hints and inside [`Awake`], a
//! wrapper that forwards `init`, `round` and `done` but keeps the default
//! `next_wake`, so every node runs every round. On the sequential executor
//! and on the parallel one at 1 and 2 threads, both must give the same
//! final states, [`RunMetrics`] and JSONL trace bytes, while a count of
//! `round` calls shows the hinted run really skipped nodes.

use std::sync::Arc;

use rand::Rng;
use spanner_graph::{generators, CsrAdjacency, Graph, NodeId};
use spanner_netsim::{
    execute, Ctx, Executor, FaultPlan, JsonLinesSink, MessageBudget, Protocol, RunError, RunMetrics,
};

const SEED: u64 = 23;

/// Wraps a protocol and counts its `round` calls. `HINT` selects whether
/// the inner `next_wake` is forwarded; without it the default wakes the
/// node every round.
#[derive(Debug, Clone)]
struct Counted<P, const HINT: bool> {
    inner: P,
    calls: u64,
}

/// The protocol with its wake hints.
type Hinted<P> = Counted<P, true>;
/// The protocol woken every round, as an executor ignoring hints runs it.
type Awake<P> = Counted<P, false>;

impl<P: Protocol, const HINT: bool> Protocol for Counted<P, HINT> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.inner.init(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, P::Msg>, inbox: &[(NodeId, P::Msg)]) {
        self.calls += 1;
        self.inner.round(ctx, inbox);
    }

    fn next_wake(&self, round: u32) -> u32 {
        if HINT {
            self.inner.next_wake(round)
        } else {
            round + 1
        }
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

/// Fires `fires` times, at the first round at or after `due`; after a
/// firing `due` moves to the next multiple of `k`. A firing draws from the
/// RNG, declares a phase and broadcasts; messages are folded into
/// `digest` whenever they arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Timer {
    k: u32,
    due: u32,
    fires: usize,
    fired: Vec<u32>,
    digest: u64,
}

impl Timer {
    fn new(v: NodeId) -> Self {
        Timer {
            k: 2 + v.0 % 4,
            due: 0,
            fires: 3 + (v.0 % 3) as usize,
            fired: Vec::new(),
            digest: 0,
        }
    }

    fn finished(&self) -> bool {
        self.fired.len() >= self.fires
    }
}

impl Protocol for Timer {
    type Msg = u64;

    fn init(&mut self, _ctx: &mut Ctx<'_, u64>) {
        self.due = self.k;
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        for &(s, w) in inbox {
            self.digest = fold(self.digest, s, w);
        }
        let t = ctx.round();
        if t >= self.due && !self.finished() {
            ctx.enter_phase("tick");
            self.fired.push(t);
            let word = ctx.rng().gen::<u64>() & 0xFFFF;
            self.digest = fold(self.digest, ctx.me(), word);
            ctx.broadcast(word);
            self.due = (t / self.k + 1) * self.k;
        }
    }

    fn next_wake(&self, _round: u32) -> u32 {
        if self.finished() {
            u32::MAX
        } else {
            self.due
        }
    }

    fn done(&self) -> bool {
        self.finished()
    }
}

/// A message-driven relay: the source sends a hop count at `init`, and
/// every other node relays the first count it hears, plus one, after an
/// RNG draw. With an empty inbox nothing happens.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Relay {
    source: bool,
    heard: Option<(u32, u64)>,
    digest: u64,
}

impl Relay {
    fn new(v: NodeId) -> Self {
        Relay {
            source: v.0 == 0,
            heard: None,
            digest: 0,
        }
    }
}

impl Protocol for Relay {
    type Msg = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.source {
            ctx.enter_phase("relay");
            ctx.broadcast(0);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        for &(s, h) in inbox {
            self.digest = fold(self.digest, s, h);
        }
        if self.heard.is_none() && !self.source {
            if let Some(hops) = inbox.iter().map(|&(_, h)| h).min() {
                let salt = ctx.rng().gen::<u64>();
                self.heard = Some((ctx.round(), salt));
                ctx.broadcast(hops + 1);
            }
        }
    }

    fn next_wake(&self, _round: u32) -> u32 {
        u32::MAX
    }
}

/// Never done, and asleep until a message arrives: a run of it can only
/// end at the round cap.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sleeper;

impl Protocol for Sleeper {
    type Msg = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.me() == NodeId(0) {
            ctx.broadcast(1);
        }
    }

    fn round(&mut self, _ctx: &mut Ctx<'_, u64>, _inbox: &[(NodeId, u64)]) {}

    fn next_wake(&self, _round: u32) -> u32 {
        u32::MAX
    }

    fn done(&self) -> bool {
        false
    }
}

fn fold(digest: u64, sender: NodeId, word: u64) -> u64 {
    let z = digest
        .wrapping_mul(0x100000001B3)
        .wrapping_add((u64::from(sender.0) << 32) ^ word);
    z ^ (z >> 29)
}

/// One traced run: final states (or the error), metrics, JSONL bytes.
type Outcome<P> = (Result<Vec<P>, RunError>, RunMetrics, Vec<u8>);

fn run<P>(
    g: &Graph,
    executor: &Executor,
    plan: Option<&FaultPlan>,
    factory: impl FnMut(NodeId, &mut rand::rngs::SmallRng) -> P,
    max_rounds: u32,
) -> Outcome<P>
where
    P: Protocol + Send,
    P::Msg: Send,
{
    let csr = Arc::new(CsrAdjacency::from_graph(g));
    let mut sink = JsonLinesSink::new(Vec::new());
    let (states, metrics) = execute(
        executor,
        plan,
        &csr,
        MessageBudget::CONGEST,
        SEED,
        factory,
        max_rounds,
        &mut sink,
    );
    (states, metrics, sink.finish().expect("in-memory sink"))
}

fn executors() -> [Executor; 3] {
    [
        Executor::Sequential,
        Executor::Parallel { threads: 1 },
        Executor::Parallel { threads: 2 },
    ]
}

/// Runs `make` hinted and awake on every round-synchronous executor and
/// asserts the two runs agree; returns `(hinted calls, awake calls)` per
/// executor, all of which must be equal across executors too.
fn assert_wake_invisible<P>(
    g: &Graph,
    plan: Option<&FaultPlan>,
    make: fn(NodeId) -> P,
    max_rounds: u32,
) -> (u64, u64)
where
    P: Protocol + Send + PartialEq + std::fmt::Debug,
    P::Msg: Send,
{
    let mut seen: Option<(u64, u64)> = None;
    for executor in executors() {
        let (h_states, h_metrics, h_bytes) = run(
            g,
            &executor,
            plan,
            |v, _| Hinted::<P> {
                inner: make(v),
                calls: 0,
            },
            max_rounds,
        );
        let (a_states, a_metrics, a_bytes) = run(
            g,
            &executor,
            plan,
            |v, _| Awake::<P> {
                inner: make(v),
                calls: 0,
            },
            max_rounds,
        );
        let (h_states, a_states) = (h_states.unwrap(), a_states.unwrap());
        for (h, a) in h_states.iter().zip(&a_states) {
            assert_eq!(h.inner, a.inner, "{executor:?}");
        }
        assert_eq!(h_metrics, a_metrics, "{executor:?}");
        assert!(h_bytes == a_bytes, "{executor:?}: JSONL traces differ");
        let calls = (
            h_states.iter().map(|s| s.calls).sum(),
            a_states.iter().map(|s| s.calls).sum(),
        );
        assert_eq!(*seen.get_or_insert(calls), calls, "{executor:?}");
    }
    seen.expect("at least one executor")
}

#[test]
fn timer_skips_idle_rounds_without_changing_the_run() {
    for g in [
        generators::erdos_renyi_gnm(60, 150, 4),
        generators::grid(6, 7),
    ] {
        let (hinted, awake) = assert_wake_invisible(&g, None, Timer::new, 200);
        assert!(hinted < awake / 2, "hinted {hinted} vs awake {awake}");
    }
}

#[test]
fn relay_runs_only_on_delivery() {
    let g = generators::path(40);
    let (hinted, awake) = assert_wake_invisible(&g, None, Relay::new, 200);
    // Hinted, a node runs once per message it receives: one per direction
    // of each of the path's 39 edges. Awake, all 40 nodes run in all 40
    // rounds.
    assert_eq!(hinted, 2 * 39);
    assert_eq!(awake, 40 * 40);
}

#[test]
fn faulted_runs_agree_with_awake_runs() {
    let g = generators::erdos_renyi_gnm(50, 140, 9);
    let plan = FaultPlan::new(5)
        .with_drops(0.05)
        .with_delays(0.1, 3)
        .with_stutters(0.1)
        .with_crash(NodeId(7), 6);
    assert_wake_invisible(&g, Some(&plan), Timer::new, 400);
    assert_wake_invisible(&g, Some(&plan), Relay::new, 400);
}

/// A node whose wake round is a stutter round runs in the next round: the
/// stutter delays its first firing by exactly one round.
#[test]
fn stuttered_wake_round_runs_next_round() {
    let g = generators::cycle(12);
    // A stutter-only plan under which some node stutters in round `k`, its
    // first due round, but not in round `k + 1`.
    let (plan, v, k) = (0..200u64)
        .find_map(|s| {
            let plan = FaultPlan::new(s).with_stutters(0.15);
            let (v, k) = g
                .nodes()
                .map(|v| (v, Timer::new(v).k))
                .find(|&(v, k)| plan.stutters(v, k) && !plan.stutters(v, k + 1))?;
            Some((plan, v, k))
        })
        .expect("some seed stutters on a due round");
    for executor in executors() {
        let (states, _, _) = run(&g, &executor, Some(&plan), |v, _| Timer::new(v), 400);
        assert_eq!(states.unwrap()[v.index()].fired[0], k + 1, "{executor:?}");
    }
    assert_wake_invisible(&g, Some(&plan), Timer::new, 400);
}

/// Sleeping forever with `done() == false` is not quiescence: the run hits
/// the round cap with the same partial metrics and trace as an awake run.
#[test]
fn sleeping_undone_node_still_hits_the_round_limit() {
    let g = generators::cycle(8);
    for executor in executors() {
        let (h, h_metrics, h_bytes) = run(
            &g,
            &executor,
            None,
            |_, _| Hinted::<Sleeper> {
                inner: Sleeper,
                calls: 0,
            },
            10,
        );
        let (a, a_metrics, a_bytes) = run(
            &g,
            &executor,
            None,
            |_, _| Awake::<Sleeper> {
                inner: Sleeper,
                calls: 0,
            },
            10,
        );
        let limit = RunError::RoundLimit { max_rounds: 10 };
        assert_eq!(h.unwrap_err(), limit, "{executor:?}");
        assert_eq!(a.unwrap_err(), limit, "{executor:?}");
        assert_eq!(h_metrics, a_metrics, "{executor:?}");
        assert_eq!(h_metrics.rounds, 10);
        assert_eq!(h_metrics.messages, 2);
        assert!(h_bytes == a_bytes, "{executor:?}: JSONL traces differ");
    }
}
