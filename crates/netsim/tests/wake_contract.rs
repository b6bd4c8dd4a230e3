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
//! `round` calls shows the hinted run really skipped nodes. Every traced
//! run carries a phase schedule whose boundaries mostly fall in rounds
//! where hinted nodes sleep; those spans must still appear.
//!
//! The executors keep wakes in a calendar: a ring of round buckets for
//! the next [`RING`] rounds and a heap for later ones. The calendar cases
//! below put wakes beyond the ring, past the round cap, on the round a
//! delivery arrives, and under a stutter, each with and without a fault
//! plan.

use rand::Rng;
use spanner_graph::{generators, Graph, NodeId};
use spanner_netsim::{
    execute, Ctx, Executor, FaultPlan, JsonLinesSink, MessageBudget, PhaseMark, Protocol, RunError,
    RunMetrics, ScheduledSink, Synchronizer,
};

const SEED: u64 = 23;

/// Rounds covered by the executors' wake ring; wakes further ahead take
/// the calendar's overflow path.
const RING: u32 = 64;

/// Wraps a protocol and counts its `round` calls, asserting that no
/// round calls it twice. `HINT` selects whether the inner `next_wake` is
/// forwarded; without it the default wakes the node every round.
#[derive(Debug, Clone)]
struct Counted<P, const HINT: bool> {
    inner: P,
    calls: u64,
    last: u32,
}

impl<P, const HINT: bool> Counted<P, HINT> {
    fn new(inner: P) -> Self {
        Counted {
            inner,
            calls: 0,
            last: 0,
        }
    }
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
        assert!(
            ctx.round() > self.last,
            "{} ran twice in one round",
            ctx.me()
        );
        self.last = ctx.round();
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
/// RNG and broadcasts; messages are folded into `digest` whenever they
/// arrive.
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
        Timer::every(2 + v.0 % 4, 3 + (v.0 % 3) as usize)
    }

    fn every(k: u32, fires: usize) -> Self {
        Timer {
            k,
            due: 0,
            fires,
            fired: Vec::new(),
            digest: 0,
        }
    }

    /// Periods beyond the wake ring, so every wake takes the overflow path.
    fn far(v: NodeId) -> Self {
        Timer::every(2 * RING + 1 + 23 * (v.0 % 4), 2)
    }

    /// A third of the nodes tick every 3 rounds; the rest first wake past
    /// [`PAST_CAP`]'s round cap (some within the ring of it, some beyond),
    /// so they never finish.
    fn past_cap(v: NodeId) -> Self {
        match v.0 % 3 {
            0 => Timer::every(3, 4),
            r => Timer::every(PAST_CAP + 1 + 97 * (r - 1), 1),
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

/// The round cap of the [`Timer::past_cap`] runs.
const PAST_CAP: u32 = 40;

/// Node 0 wakes in round 3 and broadcasts; every other node wakes in round
/// 4, the round node 0's message reaches its neighbors, and acts once.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rendezvous {
    at: u32,
    acted: Option<u32>,
    digest: u64,
}

impl Rendezvous {
    fn new(v: NodeId) -> Self {
        Rendezvous {
            at: if v.0 == 0 { 3 } else { 4 },
            acted: None,
            digest: 0,
        }
    }
}

impl Protocol for Rendezvous {
    type Msg = u64;

    fn init(&mut self, _ctx: &mut Ctx<'_, u64>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        for &(s, w) in inbox {
            self.digest = fold(self.digest, s, w);
        }
        let t = ctx.round();
        if t >= self.at && self.acted.is_none() {
            self.acted = Some(t);
            let word = ctx.rng().gen::<u64>() & 0xFFFF;
            self.digest = fold(self.digest, ctx.me(), word);
            if ctx.me() == NodeId(0) {
                ctx.broadcast(word);
            }
        }
    }

    fn next_wake(&self, _round: u32) -> u32 {
        match self.acted {
            Some(_) => u32::MAX,
            None => self.at,
        }
    }

    fn done(&self) -> bool {
        self.acted.is_some()
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

/// The phase schedule of every traced run here: a span `w<r>` from every
/// 8th round, past every round cap used here.
fn schedule() -> Vec<(u32, PhaseMark)> {
    (0..1024)
        .step_by(8)
        .map(|r| (r, PhaseMark::Enter(format!("w{r}"))))
        .collect()
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
{
    let csr = g.csr();
    let mut sink = JsonLinesSink::new(Vec::new());
    let (states, metrics) = execute(
        executor,
        plan,
        csr,
        MessageBudget::CONGEST,
        SEED,
        factory,
        max_rounds,
        &mut ScheduledSink::new(&mut sink, schedule),
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
/// asserts the two runs agree — states, or the error, plus metrics and
/// trace bytes. On success returns `(hinted calls, awake calls)`, equal on
/// every executor; a run that fails fails alike everywhere, and its error
/// is returned.
fn assert_wake_invisible<P>(
    g: &Graph,
    plan: Option<&FaultPlan>,
    make: fn(NodeId) -> P,
    max_rounds: u32,
) -> Result<(u64, u64), RunError>
where
    P: Protocol + Send + PartialEq + std::fmt::Debug,
{
    let mut seen: Option<Result<(u64, u64), RunError>> = None;
    for executor in executors() {
        let (h_states, h_metrics, h_bytes) = run(
            g,
            &executor,
            plan,
            |v, _| Hinted::<P>::new(make(v)),
            max_rounds,
        );
        let (a_states, a_metrics, a_bytes) = run(
            g,
            &executor,
            plan,
            |v, _| Awake::<P>::new(make(v)),
            max_rounds,
        );
        assert_eq!(h_metrics, a_metrics, "{executor:?}");
        assert!(h_bytes == a_bytes, "{executor:?}: JSONL traces differ");
        let outcome = match (h_states, a_states) {
            (Ok(h_states), Ok(a_states)) => {
                for (h, a) in h_states.iter().zip(&a_states) {
                    assert_eq!(h.inner, a.inner, "{executor:?}");
                }
                Ok((
                    h_states.iter().map(|s| s.calls).sum(),
                    a_states.iter().map(|s| s.calls).sum(),
                ))
            }
            (Err(h), Err(a)) => {
                assert_eq!(h, a, "{executor:?}");
                Err(h)
            }
            (h, a) => panic!("{executor:?}: hinted {:?} vs awake {:?}", h.err(), a.err()),
        };
        assert_eq!(
            seen.get_or_insert(outcome.clone()),
            &outcome,
            "{executor:?}"
        );
    }
    seen.expect("at least one executor")
}

/// Drops, delays, stutters and a crash, for the calendar cases.
fn mixed_plan() -> FaultPlan {
    FaultPlan::new(5)
        .with_drops(0.05)
        .with_delays(0.1, 3)
        .with_stutters(0.1)
        .with_crash(NodeId(7), 6)
}

#[test]
fn timer_skips_idle_rounds_without_changing_the_run() {
    for g in [
        generators::erdos_renyi_gnm(60, 150, 4),
        generators::grid(6, 7),
    ] {
        let (hinted, awake) = assert_wake_invisible(&g, None, Timer::new, 200).unwrap();
        assert!(hinted < awake / 2, "hinted {hinted} vs awake {awake}");
    }
}

#[test]
fn relay_runs_only_on_delivery() {
    let g = generators::path(40);
    let (hinted, awake) = assert_wake_invisible(&g, None, Relay::new, 200).unwrap();
    // Hinted, a node runs once per message it receives: one per direction
    // of each of the path's 39 edges. Awake, all 40 nodes run in all 40
    // rounds.
    assert_eq!(hinted, 2 * 39);
    assert_eq!(awake, 40 * 40);
}

#[test]
fn faulted_runs_agree_with_awake_runs() {
    let g = generators::erdos_renyi_gnm(50, 140, 9);
    let plan = mixed_plan();
    assert_wake_invisible(&g, Some(&plan), Timer::new, 400).unwrap();
    assert_wake_invisible(&g, Some(&plan), Relay::new, 400).unwrap();
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
    assert_wake_invisible(&g, Some(&plan), Timer::new, 400).unwrap();
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
            |_, _| Hinted::<Sleeper>::new(Sleeper),
            10,
        );
        let (a, a_metrics, a_bytes) = run(
            &g,
            &executor,
            None,
            |_, _| Awake::<Sleeper>::new(Sleeper),
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

/// Every wake lies further ahead than the calendar's ring: the timer
/// still fires on exactly the rounds an always-awake run fires on.
#[test]
fn wakes_beyond_the_ring_fire_on_time() {
    let g = generators::erdos_renyi_gnm(40, 100, 6);
    let cap = 3 * (2 * RING + 1 + 23 * 3) + 10;
    for plan in [None, Some(mixed_plan())] {
        let (hinted, awake) = assert_wake_invisible(&g, plan.as_ref(), Timer::far, cap).unwrap();
        assert!(hinted * 20 < awake, "hinted {hinted} vs awake {awake}");
    }
    let (states, _, _) = run(&g, &Executor::Sequential, None, |v, _| Timer::far(v), cap);
    for (v, t) in states.unwrap().iter().enumerate() {
        assert_eq!(t.fired, [t.k, 2 * t.k], "node {v}");
    }
}

/// Wakes past `max_rounds` are never reached: nodes that sleep toward them
/// are not done, so the run ends in `RoundLimit` with the awake run's
/// partial metrics and trace.
#[test]
fn wakes_past_the_round_cap_end_in_the_round_limit() {
    let g = generators::grid(5, 6);
    for plan in [None, Some(mixed_plan())] {
        let err = assert_wake_invisible(&g, plan.as_ref(), Timer::past_cap, PAST_CAP).unwrap_err();
        assert_eq!(
            err,
            RunError::RoundLimit {
                max_rounds: PAST_CAP
            }
        );
    }
    let (_, metrics, _) = run(
        &g,
        &Executor::Sequential,
        None,
        |v, _| Timer::past_cap(v),
        PAST_CAP,
    );
    assert_eq!(metrics.rounds, PAST_CAP);
    assert!(metrics.messages > 0);
}

/// A node due in the round a delivery reaches it runs once in that round
/// (`Counted` panics on a second call).
#[test]
fn due_node_with_mail_runs_once() {
    let g = generators::erdos_renyi_gnm(30, 80, 2);
    let n = g.node_count() as u64;
    for plan in [None, Some(mixed_plan())] {
        let (hinted, _) = assert_wake_invisible(&g, plan.as_ref(), Rendezvous::new, 50).unwrap();
        if plan.is_none() {
            // One call per node: node 0 in round 3, everyone else in
            // round 4, node 0's neighbors with its message.
            assert_eq!(hinted, n);
        }
    }
    let (states, _, _) = run(
        &g,
        &Executor::Sequential,
        None,
        |v, _| Rendezvous::new(v),
        50,
    );
    let states = states.unwrap();
    let first = g
        .neighbors(NodeId(0))
        .iter()
        .copied()
        .next()
        .expect("node 0 has a neighbor");
    assert_eq!(states[first.index()].acted, Some(4));
    assert_ne!(states[first.index()].digest, Rendezvous::new(first).digest);
}

/// A stutter on a wake round beyond the ring moves the firing to the next
/// round, as for a node tested every round.
#[test]
fn stutter_on_a_far_wake_runs_next_round() {
    let g = generators::cycle(12);
    let (seed, v, k) = (0..400u64)
        .find_map(|s| {
            let plan = FaultPlan::new(s).with_stutters(0.15);
            let (v, k) = g
                .nodes()
                .map(|v| (v, Timer::far(v).k))
                .find(|&(v, k)| plan.stutters(v, k) && !plan.stutters(v, k + 1))?;
            Some((s, v, k))
        })
        .expect("some seed stutters on a far due round");
    let stutters = FaultPlan::new(seed).with_stutters(0.15);
    let crash = NodeId((v.0 + 6) % 12);
    let mixed = FaultPlan::new(seed)
        .with_drops(0.05)
        .with_delays(0.1, 3)
        .with_stutters(0.15)
        .with_crash(crash, 6);
    let cap = 3 * (2 * RING + 1 + 23 * 3) + 40;
    for plan in [stutters, mixed] {
        for executor in executors() {
            let (states, _, _) = run(&g, &executor, Some(&plan), |v, _| Timer::far(v), cap);
            assert_eq!(states.unwrap()[v.index()].fired[0], k + 1, "{executor:?}");
        }
        assert_wake_invisible(&g, Some(&plan), Timer::far, cap).unwrap();
    }
}

/// Every node sleeps through rounds 1–9 and 12–19, so the boundaries at
/// rounds 8 and 16 fall in rounds where no hinted node runs. Their spans
/// still open there, with the same bytes on every executor — the
/// asynchronous one, which runs every node every round, included.
#[test]
fn scheduled_spans_open_while_every_node_sleeps() {
    let g = generators::cycle(12);
    let timer = |_, _: &mut _| Hinted::new(Timer::every(10, 2));
    let unhinted = Executor::Async {
        delays: FaultPlan::default(),
        synchronizer: Synchronizer::Alpha,
    };
    let mut first: Option<Vec<u8>> = None;
    for executor in executors().into_iter().chain([unhinted]) {
        let (states, _, trace) = run(&g, &executor, None, timer, 40);
        let calls: u64 = states.unwrap().iter().map(|s| s.calls).sum();
        if !matches!(executor, Executor::Async { .. }) {
            // Each node runs when due (rounds 10 and 20) and when its
            // neighbors' broadcasts arrive (rounds 11 and 21), no more.
            assert_eq!(calls, 4 * 12, "{executor:?}");
        }
        assert!(
            *first.get_or_insert_with(|| trace.clone()) == trace,
            "{executor:?}: JSONL traces differ"
        );
    }
    let text = String::from_utf8(first.expect("at least one executor")).expect("UTF-8 trace");
    for line in [
        r#"{"ev":"phase_exit","round":8,"name":"w0"}"#,
        r#"{"ev":"phase_enter","round":8,"name":"w8"}"#,
        r#"{"ev":"phase_enter","round":16,"name":"w16"}"#,
        r#"{"ev":"phase_exit","round":21,"name":"w16"}"#,
    ] {
        assert!(text.contains(line), "{line} missing from\n{text}");
    }
}
