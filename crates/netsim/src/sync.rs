//! The synchronous round-based runner.
//!
//! A [`Network`] couples a communication graph with a per-node [`Protocol`]
//! state machine and executes synchronized rounds: messages sent in round
//! `r` are delivered at the start of round `r + 1`; each node may send at
//! most one message per neighbor per round (enforced); message lengths are
//! checked against the [`MessageBudget`] and accounted in [`RunMetrics`].
//!
//! Execution stops when the network is *quiescent* — a round in which no
//! messages were sent and every node reports [`Protocol::done`] — or when
//! the round cap is hit (an error: the paper's algorithms have hard round
//! bounds and exceeding them is a bug, not a long run).
//!
//! # Hot-path design
//!
//! One round loop serves every worker count ([`Network::with_threads`]).
//! The nodes are split into one contiguous chunk per worker, and a chunk
//! is stepped by one function: fire the chunk's wake calendar, pop its
//! active nodes in ascending id, apply fault skips, run `init` or `round`,
//! file the node's next wake and update the not-done count (the
//! asynchronous executor steps its nodes with the same function). With one
//! worker the calling thread steps the single chunk and stages each node's
//! outbox as soon as the node has run; no thread is spawned and no barrier
//! is taken. With more, a pool of workers (spawned once per run, parked on
//! a pair of round barriers) steps the chunks, each recording which nodes
//! ran and where their sends end in the worker's output arena; the
//! calling thread then stages those outboxes chunk by chunk.
//! Both orders are global ascending sender order, so budget errors,
//! partial metrics, inbox order and trace bytes do not depend on the
//! worker count. A protocol panic on a worker is caught, and the calling
//! thread shuts the pool down and resumes it where an inline run would
//! have panicked.
//!
//! An unfaulted round costs O(messages + active nodes + n/64), not O(n).
//! Sends are staged in global send order and the shared router
//! (`route::route`, also used by the asynchronous executor)
//! counting-scatters them into the chunks' mailbox arenas, touching only
//! the receivers: it marks them in an n/64-word active bitmap and keeps
//! per-receiver counts that are zeroed as each node takes its inbox, so
//! there is no fill, prefix sum or copy over all n. Nodes with an empty
//! inbox run only in the rounds they asked for ([`Protocol::next_wake`]):
//! a wake calendar — a ring of round buckets plus an overflow heap, with
//! memory independent of `max_rounds` — marks each round's due nodes in
//! the same bitmap, and the chunk steps its set bits in ascending id. That
//! keeps global sender order, inbox order, budget errors, metrics and trace
//! bytes exactly those of a loop over every node. Quiescence on the
//! unfaulted path is a not-done counter, updated from [`Protocol::done`]
//! before and after each executed node; the faulted path keeps its O(n)
//! scan, because a crash makes a node done by round number.
//!
//! The loop performs no per-round heap allocation in steady state at one
//! worker: the staging buffer, the arena, the outbox and the calendar's
//! buckets keep their capacity; duplicate-send detection is a per-node
//! stamp array ([`Ctx::send`] is O(log deg)). [`Ctx::broadcast`] is O(1):
//! it queues one entry, which stays one entry through staging and routing.
//! The router posts it once on a sender-indexed board, which the workers
//! read while they step, and each receiver gathers it by walking its own
//! sorted neighbor run as it takes its inbox; a broadcast is never
//! expanded per receiver. A broadcast marks the node as having sent to
//! every neighbor, so duplicate detection stays exact. Adjacency is a
//! flat [`CsrAdjacency`] shared with drivers and the asynchronous executor.

use std::any::Any;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use rand::rngs::SmallRng;

use spanner_graph::pool::RoundGate;
use spanner_graph::NodeId;

use crate::budget::{BudgetViolation, MessageBudget};
use crate::calendar::WakeCalendar;
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::rng::node_rng;
use crate::route::{assert_addressable, expand, route, stage, Board, Mailbox, ALL};
use crate::trace::{NullSink, TraceSink, Tracer};
use spanner_graph::CsrAdjacency;

/// Message length in words of O(log n) bits.
///
/// One word holds one node identifier or one bounded integer, mirroring the
/// paper's measurement of message length "in units of O(log n) bits".
pub trait MessageSize {
    /// The number of words this message occupies on the wire.
    fn words(&self) -> usize;
}

impl MessageSize for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl MessageSize for u32 {
    fn words(&self) -> usize {
        1
    }
}

impl MessageSize for NodeId {
    fn words(&self) -> usize {
        1
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(MessageSize::words).sum()
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words()
    }
}

/// A per-node state machine run by [`Network`].
///
/// Implementations receive the full inbox of the round (sender plus message,
/// sorted by sender id — a deterministic order shared by every executor and
/// worker count) and send via the [`Ctx`].
///
/// # Wake contract
///
/// A node runs in every round in which its inbox is non-empty, and in
/// every round at or after the one [`Protocol::next_wake`] named when it
/// last ran. In any other round — earlier than its wake round, with an
/// empty inbox — [`Protocol::round`] must be a no-op: no state change, no
/// send and no RNG draw. The round-synchronous executors skip such rounds;
/// since a skipped round is a no-op, an executor that ignores the hint
/// (the asynchronous one does) produces the same states, metrics and trace
/// bytes.
pub trait Protocol {
    /// The message type exchanged by this protocol. `Send + Sync`, since
    /// the workers of a multi-threaded run read one round's broadcasts
    /// from a shared board; plain data is both.
    type Msg: Clone + MessageSize + Send + Sync;

    /// Called once before the first round; may send initial messages.
    fn init(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called with the messages delivered this round, in every round in
    /// which the inbox is non-empty or the node's wake round has come (see
    /// the wake contract above). An executor may also call it in other
    /// rounds, with an empty inbox; those calls must be no-ops.
    fn round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[(NodeId, Self::Msg)]);

    /// The first round after `round` in which this node must run even if
    /// its inbox is empty; `u32::MAX` means "only when a message arrives".
    ///
    /// Asked after [`Protocol::init`] (with `round == 0`) and after every
    /// executed [`Protocol::round`]. Until that round, empty-inbox rounds
    /// must be no-ops. The default, `round + 1`, runs the node every round.
    fn next_wake(&self, round: u32) -> u32 {
        round + 1
    }

    /// Whether this node is content to stop if the network goes quiet.
    ///
    /// The runner stops at the first round where no messages are in flight
    /// and all nodes are `done`. Defaults to `true` (pure quiescence).
    fn done(&self) -> bool {
        true
    }
}

/// Per-round, per-node execution context handed to [`Protocol`] methods.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    node: NodeId,
    n: usize,
    round: u32,
    neighbors: &'a [NodeId],
    rng: &'a mut SmallRng,
    outbox: &'a mut Vec<(NodeId, M)>,
    /// Duplicate-send detection: `seen[u] == stamp` iff a message to `u` was
    /// queued by this node this round. The stamp is bumped per (node, round),
    /// so the array never needs clearing — O(1) per send, no per-round work.
    seen: &'a mut [u64],
    stamp: u64,
    /// `outbox.len()` when this node started; more entries mean it sent.
    sent_from: usize,
    /// Whether this node broadcast this round, which sends to every
    /// neighbor without stamping them.
    broadcast: bool,
}

impl<M> Ctx<'_, M> {
    /// This node's identifier.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the network (`n` is global knowledge in the
    /// model: bounds like `4 s_i ln n` are computed locally from it).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number (0 during `init`).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Identifiers of this node's neighbors, ascending.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// This node's private deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Queues a message to neighbor `to` for delivery next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor (the model only allows messages
    /// along edges) or if a message was already queued to `to` this round
    /// (one message per neighbor per round).
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.neighbors.binary_search(&to).is_ok(),
            "{} attempted to message non-neighbor {}",
            self.node,
            to
        );
        self.mark_sent(to);
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every neighbor.
    ///
    /// Equivalent to [`Ctx::send`] per neighbor, but O(1) whatever the
    /// degree: the broadcast is queued as one entry, which the executor
    /// posts once and each neighbor reads as it takes its inbox. A node
    /// without neighbors sends nothing.
    ///
    /// # Panics
    ///
    /// Panics if this node already queued a message this round, naming
    /// the lowest neighbor it already messaged.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        if self.neighbors.is_empty() {
            return;
        }
        if self.outbox.len() > self.sent_from {
            // Every earlier send went to a neighbor, so this walk panics
            // at the lowest neighbor already messaged.
            for &to in self.neighbors {
                self.mark_sent(to);
            }
        }
        self.broadcast = true;
        self.outbox.push((ALL, msg));
    }

    /// Records a send to `to` this round; panics on the second one,
    /// counting a broadcast as a send to every neighbor.
    #[inline]
    fn mark_sent(&mut self, to: NodeId) {
        let slot = &mut self.seen[to.index()];
        assert!(
            !self.broadcast && *slot != self.stamp,
            "{} queued two messages to {} in one round",
            self.node,
            to
        );
        *slot = self.stamp;
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The round cap was reached before quiescence.
    RoundLimit {
        /// The cap that was exceeded.
        max_rounds: u32,
    },
    /// A message exceeded the [`MessageBudget`].
    Budget(BudgetViolation),
    /// A protocol panicked during a fault-injected run (see
    /// [`execute`](crate::execute)); carries the panic message.
    Panicked(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RoundLimit { max_rounds } => {
                write!(f, "network not quiescent after {max_rounds} rounds")
            }
            RunError::Budget(v) => write!(f, "{v}"),
            RunError::Panicked(reason) => write!(f, "protocol panicked: {reason}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<BudgetViolation> for RunError {
    fn from(v: BudgetViolation) -> Self {
        RunError::Budget(v)
    }
}

/// A synchronous network over a graph, stepped by one or more workers.
///
/// Construct once per run; [`Network::run`] drives a fresh set of protocol
/// instances to quiescence and leaves cost accounting in
/// [`Network::metrics`] — including after a failed run, where the metrics
/// cover everything accepted up to the error, at every worker count.
///
/// The topology is one `Arc`'d [`CsrAdjacency`]: a graph's
/// ([`Graph::csr`](spanner_graph::Graph::csr)) or a streamed one, which
/// is what the million-node construction drivers use.
#[derive(Debug)]
pub struct Network {
    budget: MessageBudget,
    seed: u64,
    /// Worker threads; with one, every round runs on the calling thread.
    threads: usize,
    metrics: RunMetrics,
    /// Sorted flat adjacency (the Ctx hands slices of it out and `send`
    /// binary searches them), shared with drivers and other executors.
    adjacency: Arc<CsrAdjacency>,
    /// Fault schedule, if any; `None` selects the pre-fault code path.
    faults: Option<FaultPlan>,
}

impl Network {
    /// A network over a shared adjacency with the given message budget
    /// and master seed.
    pub fn from_csr(adjacency: Arc<CsrAdjacency>, budget: MessageBudget, seed: u64) -> Self {
        assert_addressable(adjacency.node_count());
        Network {
            budget,
            seed,
            threads: 1,
            metrics: RunMetrics::default(),
            adjacency,
            faults: None,
        }
    }

    /// Runs subsequent rounds on `threads` workers, each stepping one
    /// contiguous chunk of nodes. States, metrics and trace bytes do not
    /// depend on `threads`, failed runs included. With one worker (the
    /// default) no thread is spawned.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Injects faults from `plan` on subsequent runs (see
    /// [`FaultPlan`]). Without this call — or with an empty plan — the
    /// round loop is the exact pre-fault monomorphization, so the unfaulted
    /// hot path costs nothing.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault schedule in force, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The message budget in force.
    pub fn budget(&self) -> MessageBudget {
        self.budget
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cost accounting of the most recent [`Network::run`].
    pub fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// Runs `factory`-created protocols to quiescence.
    ///
    /// `factory(v, rng)` builds node `v`'s initial state; `rng` is the
    /// node's private RNG (stream 0), which the protocol may use for its
    /// own up-front random choices. The factory is called on the calling
    /// thread, in node order, at every worker count. Returns the final
    /// node states.
    ///
    /// # Errors
    ///
    /// [`RunError::RoundLimit`] if not quiescent within `max_rounds`;
    /// [`RunError::Budget`] if any message exceeds the budget.
    pub fn run<P, F>(&mut self, factory: F, max_rounds: u32) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        self.run_traced(factory, max_rounds, &mut NullSink)
    }

    /// Like [`Network::run`], streaming [`TraceEvent`](crate::TraceEvent)s
    /// into `sink` as the run executes.
    ///
    /// With a disabled sink ([`NullSink`]) this is exactly `run`. The event
    /// stream is deterministic and the same at every worker count —
    /// byte-for-byte when serialized; only the calling thread touches the
    /// sink. On a failed run the partial round is flushed before the
    /// closing [`RunEnd`](crate::TraceEvent::RunEnd), so the trace always
    /// accounts for exactly what [`Network::metrics`] reports.
    ///
    /// # Errors
    ///
    /// Same as [`Network::run`].
    pub fn run_traced<P, F>(
        &mut self,
        factory: F,
        max_rounds: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        let mut tracer = Tracer::new(sink);
        // Monomorphize the round loop on the tracing and fault decisions:
        // the untraced unfaulted instantiation carries no per-message
        // branches at all, so `run` costs exactly what it did before
        // tracing and fault injection existed.
        let result = match (tracer.enabled(), self.faults.is_some()) {
            (false, false) => {
                self.run_inner::<P, F, false, false>(factory, max_rounds, &mut tracer)
            }
            (true, false) => self.run_inner::<P, F, true, false>(factory, max_rounds, &mut tracer),
            (false, true) => self.run_inner::<P, F, false, true>(factory, max_rounds, &mut tracer),
            (true, true) => self.run_inner::<P, F, true, true>(factory, max_rounds, &mut tracer),
        };
        tracer.finish(&self.metrics, result.as_ref().err());
        result
    }

    fn run_inner<P, F, const TRACED: bool, const FAULTS: bool>(
        &mut self,
        mut factory: F,
        max_rounds: u32,
        tracer: &mut Tracer<'_>,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        let n = self.adjacency.node_count();
        self.metrics = RunMetrics::default();
        // The fault engine (empty and untouched unless FAULTS) belongs to
        // the coordinator; the chunks consult the plan's skip decisions,
        // which are pure functions.
        let plan = self.faults.clone().unwrap_or_default();
        let mut fstate: FaultState<P::Msg> =
            FaultState::new(plan.clone(), if FAULTS { n } else { 0 });

        // One chunk per worker, each `span` contiguous nodes (an empty
        // graph gets one empty chunk). The factory runs here, in node
        // order, so RNG streams and factory calls are those of any
        // worker count.
        let span = n.div_ceil(self.threads).max(1);
        let slots: Vec<Mutex<Slot<P>>> = (0..n.div_ceil(span).max(1))
            .map(|c| {
                let base = c * span;
                Mutex::new(Slot {
                    chunk: Chunk::new(base, span.min(n - base), n, self.seed, &mut factory),
                    outbox: Vec::new(),
                    ran: Vec::new(),
                    panic: None,
                })
            })
            .collect();

        // Sends are staged as (receiver, sender, msg) in global send
        // order; at each round boundary `route` regroups them into the
        // chunks' mailboxes, whose per-receiver slices come out sorted by
        // sender for free. Every buffer keeps its capacity across rounds.
        let mut staging: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
        // This round's broadcasts, one post per sender: the coordinator
        // writes the board while routing and the chunks read it while
        // stepping. Under faults `stage` expands broadcasts into the fault
        // engine, so the board stays empty.
        let board = RwLock::new(Board::new(if FAULTS { 0 } else { n }));
        let gate = RoundGate::new(slots.len());
        let round_no = AtomicU32::new(0);
        let (adjacency, plan, budget) = (&*self.adjacency, &plan, self.budget);
        let metrics = &mut self.metrics;

        std::thread::scope(|scope| -> Result<(), RunError> {
            // Two or more chunks: one worker each, parked on the gate for
            // the whole run. A worker catches a protocol panic so that it
            // still reaches the finish barrier; the coordinator resumes it.
            let _pool = (slots.len() > 1).then(|| {
                for slot in &slots {
                    let (gate, round_no, board) = (&gate, &round_no, &board);
                    scope.spawn(move || {
                        while gate.worker_begin() {
                            let round = round_no.load(Ordering::Acquire);
                            let mut guard = slot.lock().expect("worker lock");
                            let Slot {
                                chunk,
                                outbox,
                                ran,
                                panic,
                            } = &mut *guard;
                            ran.clear();
                            let board = board.read().expect("board lock");
                            let stepped = catch_unwind(AssertUnwindSafe(|| {
                                chunk.step::<FAULTS, Infallible, _>(
                                    round,
                                    adjacency,
                                    &board,
                                    plan,
                                    outbox,
                                    |v, outbox| {
                                        ran.push((v, outbox.len() as u32));
                                        Ok(())
                                    },
                                )
                            }));
                            *panic = stepped.err();
                            drop((board, guard));
                            gate.worker_end();
                        }
                    });
                }
                Shutdown(&gate)
            });

            let mut round: u32 = 0;
            loop {
                if TRACED {
                    tracer.begin_round(round);
                }
                if FAULTS {
                    fstate.begin_round(round);
                }
                let stepped = if let [only] = &slots[..] {
                    // One chunk: the coordinator steps it and stages each
                    // node's outbox as soon as the node has run.
                    let mut slot = only.lock().expect("slot lock");
                    let Slot { chunk, outbox, .. } = &mut *slot;
                    let mut board = board.write().expect("board lock");
                    if round > 0 {
                        deliver::<_, FAULTS>(
                            round,
                            &mut staging,
                            &mut fstate,
                            &mut [&mut chunk.mailbox],
                            span,
                            adjacency,
                            &mut board,
                        );
                    }
                    chunk
                        .step::<FAULTS, _, _>(
                            round,
                            adjacency,
                            &board,
                            plan,
                            outbox,
                            |v, outbox| {
                                let neighbors = adjacency.neighbors(v);
                                stage::<_, _, TRACED>(
                                    v,
                                    neighbors,
                                    round,
                                    outbox.drain(..),
                                    budget,
                                    metrics,
                                    tracer,
                                    accept::<_, FAULTS>(
                                        round,
                                        v,
                                        neighbors,
                                        &mut fstate,
                                        &mut staging,
                                    ),
                                )
                            },
                        )
                        .map(|()| chunk.quiet)
                } else {
                    if round > 0 {
                        let mut guards: Vec<_> =
                            slots.iter().map(|s| s.lock().expect("slot lock")).collect();
                        let mut boxes: Vec<_> =
                            guards.iter_mut().map(|g| &mut g.chunk.mailbox).collect();
                        deliver::<_, FAULTS>(
                            round,
                            &mut staging,
                            &mut fstate,
                            &mut boxes,
                            span,
                            adjacency,
                            &mut board.write().expect("board lock"),
                        );
                    }
                    round_no.store(round, Ordering::Release);
                    gate.open();
                    gate.close();
                    // Stage what the workers recorded, chunk by chunk and
                    // node by node: the inline order, so budget errors,
                    // partial metrics and trace bytes are the same.
                    slots.iter().try_fold(true, |quiet, slot| {
                        let mut slot = slot.lock().expect("slot lock");
                        let Slot {
                            chunk,
                            outbox,
                            ran,
                            panic,
                        } = &mut *slot;
                        let mut sends = outbox.drain(..);
                        let mut sent = 0;
                        for &(v, send_end) in ran.iter() {
                            let neighbors = adjacency.neighbors(v);
                            stage::<_, _, TRACED>(
                                v,
                                neighbors,
                                round,
                                (&mut sends).take((send_end - sent) as usize),
                                budget,
                                metrics,
                                tracer,
                                accept::<_, FAULTS>(round, v, neighbors, &mut fstate, &mut staging),
                            )?;
                            sent = send_end;
                        }
                        // A panic surfaces once the nodes before it are
                        // staged, where an inline run would have stopped.
                        if let Some(payload) = panic.take() {
                            resume_unwind(payload);
                        }
                        Ok(quiet && chunk.quiet)
                    })
                };
                let quiet = stepped.map_err(|v| {
                    metrics.faults = fstate.counters();
                    RunError::Budget(v)
                })?;
                if TRACED {
                    tracer.end_round();
                }
                if FAULTS {
                    metrics.faults = fstate.counters();
                }
                // `staging` (or the fault engine) holds everything sent
                // this round.
                let idle = if FAULTS {
                    fstate.in_flight() == 0
                } else {
                    staging.is_empty()
                };
                if idle && quiet {
                    return Ok(());
                }
                if round >= max_rounds {
                    return Err(RunError::RoundLimit { max_rounds });
                }
                round += 1;
                metrics.rounds = round;
            }
        })?;

        let mut chunks = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").chunk.nodes);
        let mut nodes = chunks.next().unwrap_or_default();
        nodes.extend(chunks.flatten());
        Ok(nodes)
    }
}

/// One chunk and the output of its nodes in the current round.
///
/// The output arena lives outside the [`Chunk`]: the protocol call writes
/// to it, and keeping them apart lets the compiler keep the chunk's loop
/// state in registers across that call.
struct Slot<P: Protocol> {
    chunk: Chunk<P>,
    /// Sends of the nodes that ran and not yet staged, in node order.
    outbox: Vec<(NodeId, P::Msg)>,
    /// The nodes that ran, ascending, each with the end of its sends in
    /// `outbox`.
    ran: Vec<(NodeId, u32)>,
    /// A protocol panic caught by the worker, for the coordinator to resume.
    panic: Option<Box<dyn Any + Send>>,
}

/// Shuts the pool's gate when dropped, so the workers exit however the
/// coordinator leaves the round loop, a panic included.
struct Shutdown<'a>(&'a RoundGate);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Nodes `base..base + len` with everything needed to step them: one per
/// worker here, and one over all n nodes in the asynchronous executor.
pub(crate) struct Chunk<P: Protocol> {
    base: usize,
    pub(crate) nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    /// This round's inboxes and active set, filled by [`route`].
    pub(crate) mailbox: Mailbox<P::Msg>,
    /// The inbox of a node with broadcast mail, gathered off the board.
    scratch: Vec<(NodeId, P::Msg)>,
    calendar: WakeCalendar,
    /// Duplicate-send stamps, indexed by receiver (so length n).
    seen: Vec<u64>,
    stamp: u64,
    /// Nodes not done; kept on the unfaulted path only.
    not_done: usize,
    /// After a step: every node is done, or crashed under faults.
    pub(crate) quiet: bool,
}

impl<P: Protocol> Chunk<P> {
    /// Calls `factory` for nodes `base..base + len` in node order, each
    /// with its private RNG (stream 0 of `seed`).
    pub(crate) fn new(
        base: usize,
        len: usize,
        n: usize,
        seed: u64,
        factory: &mut impl FnMut(NodeId, &mut SmallRng) -> P,
    ) -> Self {
        let mut rngs: Vec<SmallRng> = (base..base + len)
            .map(|v| node_rng(seed, v as u32, 0))
            .collect();
        let nodes = (base..base + len)
            .map(|v| factory(NodeId(v as u32), &mut rngs[v - base]))
            .collect();
        Chunk {
            base,
            nodes,
            rngs,
            mailbox: Mailbox::new(base, len),
            scratch: Vec::new(),
            calendar: WakeCalendar::new(len),
            seen: vec![0; n],
            stamp: 0,
            not_done: 0,
            quiet: false,
        }
    }

    /// Runs `round` over this chunk's active nodes — every node in round
    /// 0, then the receivers [`route`] marked and the nodes whose wake
    /// round has come, plus any the caller marked — in ascending id, each
    /// with its unicasts merged with its neighbors' broadcasts on `board`.
    /// Each node's sends are appended to `outbox`, and `emit` is called
    /// with it right after the node ran. The only place a node runs.
    ///
    /// # Errors
    ///
    /// The first error of `emit`; the round stops there.
    //
    // Kept out of line: as a function of its own, the `&mut self` and
    // `outbox` borrows tell the compiler that the protocol call
    // cannot touch the chunk, so the loop state stays in registers.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step<const FAULTS: bool, E, Emit>(
        &mut self,
        round: u32,
        adjacency: &CsrAdjacency,
        board: &Board<P::Msg>,
        plan: &FaultPlan,
        outbox: &mut Vec<(NodeId, P::Msg)>,
        mut emit: Emit,
    ) -> Result<(), E>
    where
        Emit: FnMut(NodeId, &mut Vec<(NodeId, P::Msg)>) -> Result<(), E>,
    {
        let n = adjacency.node_count();
        if round == 0 {
            self.mailbox.mark_all();
        } else {
            self.calendar.fire(round, &mut self.mailbox);
        }
        while let Some(i) = self.mailbox.pop_active() {
            let node = NodeId((self.base + i) as u32);
            if FAULTS && plan.skips(node, round) {
                // A crashed node's mail is dropped unread; a stuttered due
                // node runs in the next round instead.
                self.mailbox.discard(i);
                if !plan.crashed(node, round) {
                    self.calendar.retry(i, round);
                }
                continue;
            }
            let neighbors = adjacency.neighbors(node);
            let inbox = self
                .mailbox
                .take_into(i, neighbors, board, &mut self.scratch);
            // Equal senders only from a duplicate fault.
            debug_assert!(inbox.windows(2).all(|w| w[0].0 <= w[1].0));
            // `init` counts as leaving a done state, so round 0 adds every
            // node that is not done after it.
            let was_done = !FAULTS && (round == 0 || self.nodes[i].done());
            self.stamp += 1;
            let mut ctx = Ctx {
                node,
                n,
                round,
                neighbors,
                rng: &mut self.rngs[i],
                sent_from: outbox.len(),
                outbox: &mut *outbox,
                seen: &mut self.seen,
                stamp: self.stamp,
                broadcast: false,
            };
            if round == 0 {
                self.nodes[i].init(&mut ctx);
            } else {
                self.nodes[i].round(&mut ctx, inbox);
            }
            self.calendar.set(i, round, self.nodes[i].next_wake(round));
            if !FAULTS {
                self.not_done =
                    self.not_done + usize::from(was_done) - usize::from(self.nodes[i].done());
            }
            emit(node, outbox)?;
        }
        // Crashed nodes count as done: they will never act again.
        self.quiet = if FAULTS {
            self.nodes
                .iter()
                .enumerate()
                .all(|(i, p)| p.done() || plan.crashed(NodeId((self.base + i) as u32), round))
        } else {
            self.not_done == 0
        };
        Ok(())
    }
}

/// Where `sender`'s sends accepted by [`stage`] go: `staging`, or under
/// faults the fault engine, a broadcast expanded in ascending neighbor
/// order so that each copy draws its own fate.
#[inline(always)]
fn accept<'a, M: Clone, const FAULTS: bool>(
    round: u32,
    sender: NodeId,
    neighbors: &'a [NodeId],
    fstate: &'a mut FaultState<M>,
    staging: &'a mut Vec<(NodeId, NodeId, M)>,
) -> impl FnMut(NodeId, M) + 'a {
    move |to, msg| {
        if FAULTS {
            expand(to, msg, neighbors, |to, msg| {
                fstate.accept(round, sender, to, msg);
            });
        } else {
            staging.push((to, sender, msg));
        }
    }
}

/// Fills the mailboxes of `round` (chunk `c` covers nodes `c * span..`)
/// through the one router, which scatters the unicasts staged in the round
/// before and posts its broadcasts on `board`. Under faults the sends went
/// to the fault engine instead, and the deliveries due now are staged
/// here: grouped by receiver and sorted by sender, an order the stable
/// scatter keeps.
fn deliver<M: Clone, const FAULTS: bool>(
    round: u32,
    staging: &mut Vec<(NodeId, NodeId, M)>,
    fstate: &mut FaultState<M>,
    boxes: &mut [&mut Mailbox<M>],
    span: usize,
    adjacency: &CsrAdjacency,
    board: &mut Board<M>,
) {
    if FAULTS {
        fstate.flush_due(round, |to, sender, msg| staging.push((to, sender, msg)));
    }
    route(staging, boxes, span, adjacency, board);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::MinIdBroadcast;
    use spanner_graph::{generators, Graph};

    /// Counts rounds until it has heard from every neighbor, then stops.
    struct HelloOnce {
        heard: usize,
        expected: usize,
    }

    impl Protocol for HelloOnce {
        type Msg = u64;

        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.expected = ctx.degree();
            ctx.broadcast(ctx.me().0 as u64);
        }

        fn round(&mut self, _ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            self.heard += inbox.len();
        }
    }

    #[test]
    fn hello_once_quiesces_in_one_round() {
        let g = generators::cycle(10);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |_, _| HelloOnce {
                    heard: 0,
                    expected: 0,
                },
                10,
            )
            .unwrap();
        assert!(states.iter().all(|s| s.heard == s.expected));
        let m = net.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, 20);
        assert_eq!(m.max_message_words, 1);
    }

    /// Forwards a token along a path; used to test multi-round runs.
    struct Relay {
        has_token: bool,
        delivered: bool,
    }

    impl Protocol for Relay {
        type Msg = u64;

        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.has_token {
                // Send to the higher neighbor (path direction).
                if let Some(&next) = ctx.neighbors().last() {
                    if next > ctx.me() {
                        ctx.send(next, 7);
                    }
                }
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            for &(_, tok) in inbox {
                self.delivered = true;
                let me = ctx.me();
                if let Some(&next) = ctx.neighbors().iter().find(|&&u| u > me) {
                    ctx.send(next, tok);
                }
            }
        }
    }

    #[test]
    fn relay_takes_path_length_rounds() {
        let g = generators::path(6);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |v, _| Relay {
                    has_token: v.0 == 0,
                    delivered: false,
                },
                100,
            )
            .unwrap();
        assert!(states.iter().skip(1).all(|s| s.delivered));
        assert_eq!(net.metrics().rounds, 5);
        assert_eq!(net.metrics().messages, 5);
    }

    #[derive(Debug)]
    struct Chatterbox;

    impl Protocol for Chatterbox {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(1);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[(NodeId, u64)]) {
            ctx.broadcast(1);
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = generators::cycle(4);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let err = net.run(|_, _| Chatterbox, 5).unwrap_err();
        assert_eq!(err, RunError::RoundLimit { max_rounds: 5 });
    }

    #[derive(Debug)]
    struct BigTalker;

    impl Protocol for BigTalker {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            ctx.broadcast(vec![0; 10]);
        }
        fn round(&mut self, _: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {}
    }

    #[test]
    fn budget_violation_detected() {
        let g = generators::cycle(4);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 1);
        match net.run(|_, _| BigTalker, 5) {
            Err(RunError::Budget(v)) => {
                assert_eq!(v.words, 10);
                assert_eq!(v.budget, MessageBudget::Words(4));
            }
            other => panic!("expected budget violation, got {other:?}"),
        }
        // Unbounded accepts the same protocol.
        let mut net2 = Network::from_csr(g.csr().clone(), MessageBudget::Unbounded, 1);
        assert!(net2.run(|_, _| BigTalker, 5).is_ok());
        assert_eq!(net2.metrics().max_message_words, 10);
    }

    struct NonNeighborSender;

    impl Protocol for NonNeighborSender {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(3), 1); // not adjacent on a path of 5
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        let g = generators::path(5);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| NonNeighborSender, 5);
    }

    struct DoubleSender;

    impl Protocol for DoubleSender {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), 1);
                ctx.send(NodeId(1), 2);
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn double_send_panics() {
        let g = generators::path(3);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| DoubleSender, 5);
    }

    struct SendThenBroadcast;

    impl Protocol for SendThenBroadcast {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                let first = ctx.neighbors()[0];
                ctx.send(first, 1);
                ctx.broadcast(2); // would double-send to `first`
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn broadcast_after_send_panics() {
        let g = generators::star(4);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| SendThenBroadcast, 5);
    }

    /// Node 0 queues `sends` in `init`: `Some(v)` sends to `v`, `None`
    /// broadcasts.
    struct Scripted(&'static [Option<u32>]);

    impl Protocol for Scripted {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                for &send in self.0 {
                    match send {
                        Some(v) => ctx.send(NodeId(v), 1),
                        None => ctx.broadcast(1),
                    }
                }
            }
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
    }

    fn run_scripted(script: &'static [Option<u32>]) {
        let g = generators::star(4);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let _ = net.run(|_, _| Scripted(script), 5);
    }

    #[test]
    #[should_panic(expected = "v0 queued two messages to v2 in one round")]
    fn send_after_broadcast_panics() {
        run_scripted(&[None, Some(2)]);
    }

    #[test]
    #[should_panic(expected = "v0 queued two messages to v1 in one round")]
    fn broadcast_twice_panics() {
        run_scripted(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "v0 queued two messages to v2 in one round")]
    fn broadcast_after_sends_names_the_lowest_neighbor_sent_to() {
        run_scripted(&[Some(3), Some(2), None]);
    }

    #[test]
    fn degree_zero_broadcast_sends_nothing() {
        // Node 2 has no neighbors.
        let g = Graph::from_edges(3, [(0u32, 1u32)]);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |_, _| HelloOnce {
                    heard: 0,
                    expected: 0,
                },
                10,
            )
            .unwrap();
        assert_eq!(states[2].heard, 0);
        assert_eq!((net.metrics().rounds, net.metrics().messages), (1, 2));
    }

    /// Node 1 broadcasts a message over the budget; the others fit.
    #[derive(Debug)]
    struct OneBigTalker;

    impl Protocol for OneBigTalker {
        type Msg = Vec<u64>;
        fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
            let words = if ctx.me() == NodeId(1) { 10 } else { 1 };
            ctx.broadcast(vec![0; words]);
        }
        fn round(&mut self, _: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {}
    }

    #[test]
    fn over_budget_broadcast_names_the_lowest_neighbor() {
        let g = generators::cycle(4);
        for threads in [1, 2] {
            let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Words(4), 1)
                .with_threads(threads);
            match net.run(|_, _| OneBigTalker, 5) {
                Err(RunError::Budget(v)) => {
                    assert_eq!((v.sender, v.receiver, v.words), (NodeId(1), NodeId(0), 10));
                }
                other => panic!("expected budget violation, got {other:?}"),
            }
            // Node 0's broadcast only: none of node 1's is accounted.
            let m = net.metrics();
            assert_eq!((m.messages, m.words), (2, 2), "{threads} workers");
        }
    }

    /// A node may send to the same neighbor again in a *later* round; the
    /// stamp-based duplicate check must not leak across rounds.
    struct RepeatSender {
        received: u32,
    }

    impl Protocol for RepeatSender {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), 0);
            }
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            if ctx.me() == NodeId(0) && ctx.round() <= 3 {
                ctx.send(NodeId(1), ctx.round() as u64);
            }
            self.received += inbox.len() as u32;
        }
    }

    #[test]
    fn resend_in_later_round_is_allowed() {
        let g = generators::path(2);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net.run(|_, _| RepeatSender { received: 0 }, 10).unwrap();
        assert_eq!(states[1].received, 4); // rounds 1..=4 deliver
    }

    #[test]
    fn inbox_sorted_by_sender() {
        struct Check {
            ok: bool,
            fired: bool,
        }
        impl Protocol for Check {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.broadcast(0);
            }
            fn round(&mut self, _: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
                if !inbox.is_empty() {
                    self.fired = true;
                    self.ok &= inbox.windows(2).all(|w| w[0].0 < w[1].0);
                }
            }
        }
        let g = generators::star(8);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |_, _| Check {
                    ok: true,
                    fired: false,
                },
                5,
            )
            .unwrap();
        assert!(states[0].fired);
        assert!(states.iter().all(|s| s.ok));
    }

    /// Records the thread every call of a node ran on.
    struct WhereAmI(Vec<std::thread::ThreadId>);

    impl Protocol for WhereAmI {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.0.push(std::thread::current().id());
            ctx.broadcast(0);
        }
        fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {
            self.0.push(std::thread::current().id());
        }
    }

    /// One worker steps every node on the calling thread; two run them on
    /// the pool.
    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let g = generators::cycle(8);
        let caller = std::thread::current().id();
        for (threads, inline) in [(1, true), (2, false)] {
            let mut net =
                Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1).with_threads(threads);
            let states = net.run(|_, _| WhereAmI(Vec::new()), 4).unwrap();
            assert!(
                states
                    .iter()
                    .flat_map(|s| &s.0)
                    .all(|&t| (t == caller) == inline),
                "{threads} workers"
            );
        }
    }

    /// More workers than nodes: one worker per node, none idle.
    #[test]
    fn more_threads_than_nodes() {
        let g = generators::path(3);
        let mut net =
            Network::from_csr(g.csr().clone(), MessageBudget::Words(2), 5).with_threads(16);
        let states = net
            .run(|v, _| MinIdBroadcast::new(v == NodeId(0), 10), 32)
            .unwrap();
        assert!(states.iter().all(|s| s.nearest().is_some()));
    }

    #[test]
    fn deterministic_across_runs() {
        use rand::Rng;
        struct Coin {
            flips: Vec<bool>,
        }
        impl Protocol for Coin {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                let b = ctx.rng().gen::<bool>();
                self.flips.push(b);
                ctx.broadcast(b as u64);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
                if ctx.round() <= 3 && !inbox.is_empty() {
                    let b = ctx.rng().gen::<bool>();
                    self.flips.push(b);
                    ctx.broadcast(b as u64);
                }
            }
        }
        let g = generators::erdos_renyi_gnm(30, 60, 5);
        let run = |seed| {
            let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, seed);
            let s = net.run(|_, _| Coin { flips: vec![] }, 50).unwrap();
            s.into_iter().map(|c| c.flips).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
