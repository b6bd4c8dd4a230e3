//! Parallel round executor.
//!
//! Round-synchronous simulation parallelizes naturally: within a round every
//! node reads only its inbox and private state, so nodes can be processed
//! concurrently. [`ParallelNetwork`] runs the same [`Protocol`] semantics as
//! [`Network::run`](crate::Network::run) across worker threads,
//! **deterministically**: per-node RNGs are derived from the master seed
//! exactly as in the sequential executor, inboxes are sorted by sender, and
//! messages are routed in global sender order, so the two executors produce
//! identical final states *and identical metrics* — including the partial
//! accounting left behind by a failed run (tested below and in
//! `tests/executor_parity.rs`).
//!
//! # Hot-path design
//!
//! The worker pool is created **once per run** with `std::thread::scope` and
//! parked on a pair of round barriers; no threads are spawned per round.
//! Each worker owns one contiguous chunk of nodes with that chunk's
//! mailbox, behind a `Mutex` contended only at round boundaries, when the
//! coordinator routes messages. Workers apply the sequential executor's
//! wake calendar and not-done counter to their chunk and step only the
//! chunk's active bits — receivers plus due nodes — appending sends to one
//! outbox arena and recording which nodes ran. The coordinator drains only
//! those senders, in global sender order, through the sequential
//! executor's `stage` (budget checks, accounting, fault fates) and its
//! router, which counting-scatters the round's sends into the chunk
//! mailboxes (stable, so every inbox slice stays sender-sorted). A sparse
//! round therefore costs O(messages + active nodes + n/64) plus the two
//! barrier wake-ups, and every buffer keeps its capacity across rounds.
//!
//! Useful for big-n experiment sweeps; the sequential executor remains the
//! reference implementation.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::SmallRng;

use spanner_graph::pool::RoundGate;
use spanner_graph::{Graph, NodeId};

use crate::budget::{BudgetViolation, MessageBudget};
use crate::calendar::WakeCalendar;
use crate::csr::CsrAdjacency;
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::rng::node_rng;
use crate::route::{route, stage, Mailbox};
use crate::sync::{Ctx, Protocol, RunError};
use crate::trace::{NullSink, PhaseAction, TraceSink, Tracer};

/// Everything one worker thread owns: a contiguous chunk of nodes with
/// their RNGs, mailbox and outboxes. Locked by the worker while a round
/// executes and by the coordinator while messages are routed; the two
/// phases are separated by barriers, so the lock is never contended.
struct ChunkSlot<P: Protocol> {
    nodes: Vec<P>,
    rngs: Vec<SmallRng>,
    /// The chunk's inboxes and active set, filled by the coordinator.
    mailbox: Mailbox<P::Msg>,
    /// Flat outbox arena, appended to in node order by the nodes that ran.
    out_flat: Vec<(NodeId, P::Msg)>,
    /// The nodes that ran this round, ascending, each with the end of its
    /// sends in `out_flat`: the coordinator drains exactly these.
    ran: Vec<(u32, u32)>,
    /// Duplicate-send stamps (indexed by *target* node, so length n).
    seen: Vec<u64>,
    stamp: u64,
    /// Per-node phase declarations buffered during the round; the
    /// coordinator drains them in global sender order while routing.
    phases: Vec<Vec<PhaseAction>>,
    /// Whether every node in this chunk reported [`Protocol::done`] after
    /// the most recent round.
    done: bool,
}

/// A synchronous network executed by a pool of worker threads.
///
/// The parallel counterpart of [`Network`](crate::Network): construct once,
/// [`ParallelNetwork::run`] to quiescence, read [`ParallelNetwork::metrics`]
/// afterwards — the metrics are retained even when `run` returns an error,
/// with exactly the partial accounting the sequential executor would leave.
///
/// Like the sequential executor, the topology is one `Arc`'d
/// [`CsrAdjacency`]; [`ParallelNetwork::from_csr`] runs straight off a
/// streamed adjacency with no [`Graph`] ever materialized.
pub struct ParallelNetwork {
    budget: MessageBudget,
    seed: u64,
    threads: usize,
    metrics: RunMetrics,
    adjacency: Arc<CsrAdjacency>,
    /// Fault schedule, if any; `None` selects the pre-fault code path.
    faults: Option<FaultPlan>,
}

impl ParallelNetwork {
    /// A parallel network on `graph` with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(graph: &Graph, budget: MessageBudget, seed: u64, threads: usize) -> Self {
        ParallelNetwork::from_csr(
            Arc::new(CsrAdjacency::from_graph(graph)),
            budget,
            seed,
            threads,
        )
    }

    /// A parallel network straight over a shared CSR adjacency — the
    /// zero-`Graph` construction path. Runs are byte-identical (states,
    /// metrics, traces) to a [`ParallelNetwork::new`] over the equivalent
    /// graph, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn from_csr(
        adjacency: Arc<CsrAdjacency>,
        budget: MessageBudget,
        seed: u64,
        threads: usize,
    ) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        ParallelNetwork {
            budget,
            seed,
            threads,
            metrics: RunMetrics::default(),
            adjacency,
            faults: None,
        }
    }

    /// Injects faults from `plan` on subsequent runs, exactly as
    /// [`Network::with_faults`](crate::Network::with_faults) does: the
    /// resulting states, metrics, and trace stream are byte-identical to
    /// the sequential executor's at any thread count.
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

    /// Cost accounting of the most recent [`ParallelNetwork::run`] —
    /// partial (but sequentially identical) if the run failed.
    pub fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// The shared sorted adjacency.
    pub fn adjacency(&self) -> &CsrAdjacency {
        &self.adjacency
    }

    /// A clone of the `Arc` holding the adjacency, for sharing with other
    /// executors, drivers, or verification passes.
    pub fn adjacency_arc(&self) -> Arc<CsrAdjacency> {
        Arc::clone(&self.adjacency)
    }

    /// Runs `factory`-created protocols to quiescence on the worker pool.
    ///
    /// Semantics are identical to [`Network::run`](crate::Network::run); in
    /// particular the result is deterministic in `seed` and independent of
    /// `threads`.
    ///
    /// # Errors
    ///
    /// [`RunError::RoundLimit`] if not quiescent within `max_rounds`;
    /// [`RunError::Budget`] if any message exceeds the budget. Either way
    /// [`ParallelNetwork::metrics`] reflects everything accepted before the
    /// error, matching the sequential executor word for word.
    pub fn run<P, F>(&mut self, factory: F, max_rounds: u32) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        self.run_traced(factory, max_rounds, &mut NullSink)
    }

    /// Like [`ParallelNetwork::run`], streaming
    /// [`TraceEvent`](crate::TraceEvent)s into `sink`.
    ///
    /// The stream is **identical** to the sequential
    /// [`Network::run_traced`](crate::Network::run_traced) stream for the
    /// same run, regardless of `threads`: protocols buffer their phase
    /// declarations while the workers execute, and the coordinator applies
    /// them — together with the per-message accounting — in global sender
    /// order during routing, the same order the sequential flush uses.
    /// The sink is only ever touched by the coordinator thread.
    ///
    /// # Errors
    ///
    /// Same as [`ParallelNetwork::run`].
    pub fn run_traced<P, F>(
        &mut self,
        factory: F,
        max_rounds: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        let mut tracer = Tracer::new(sink);
        // Monomorphized on the tracing and fault decisions like the
        // sequential executor: the untraced unfaulted routing loop carries
        // no per-message tracer or fault branches.
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
        P::Msg: Send,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        self.metrics = RunMetrics::default();
        let n = self.adjacency.node_count();
        // The workers consult the plan for their skip decisions (pure
        // functions, so no coordination is needed); the coordinator owns
        // the fault engine and applies message fates during routing — the
        // same global sender order the sequential flush uses.
        let plan: FaultPlan = self.faults.clone().unwrap_or_default();
        let mut fstate: FaultState<P::Msg> =
            FaultState::new(plan.clone(), if FAULTS { n } else { 0 });
        if n == 0 {
            // Match the sequential stream: the (empty) init round is traced.
            if TRACED {
                tracer.begin_round(0);
                tracer.end_round();
            }
            return Ok(Vec::new());
        }

        let chunk = n.div_ceil(self.threads).max(1);
        let nchunks = n.div_ceil(chunk);

        // The factory runs on the coordinator, in node order, exactly as in
        // the sequential executor — same RNG streams, same call sequence.
        let slots: Vec<Mutex<ChunkSlot<P>>> = (0..nchunks)
            .map(|ci| {
                let lo = ci * chunk;
                let hi = ((ci + 1) * chunk).min(n);
                let mut rngs: Vec<SmallRng> =
                    (lo..hi).map(|v| node_rng(self.seed, v as u32, 0)).collect();
                let nodes: Vec<P> = (lo..hi)
                    .map(|v| factory(NodeId(v as u32), &mut rngs[v - lo]))
                    .collect();
                Mutex::new(ChunkSlot {
                    nodes,
                    rngs,
                    mailbox: Mailbox::new(lo, hi - lo),
                    out_flat: Vec::new(),
                    ran: Vec::new(),
                    seen: vec![0u64; n],
                    stamp: 0,
                    phases: (lo..hi).map(|_| Vec::new()).collect(),
                    done: false,
                })
            })
            .collect();

        let gate = RoundGate::new(nchunks);
        let round_no = AtomicU32::new(0);
        let adjacency = &self.adjacency;
        let budget = self.budget;
        let metrics = &mut self.metrics;
        let plan = &plan;

        let result: Result<(), RunError> = std::thread::scope(|scope| {
            for (ci, slot) in slots.iter().enumerate() {
                let (gate, round_no) = (&gate, &round_no);
                let base = ci * chunk;
                scope.spawn(move || {
                    // The sequential executor's wake calendar and not-done
                    // counter, split per chunk.
                    let mut calendar = WakeCalendar::new(chunk.min(n - base));
                    let mut not_done = 0usize;
                    while gate.worker_begin() {
                        let round = round_no.load(Ordering::Acquire);
                        let mut guard = slot.lock().expect("worker lock");
                        let ChunkSlot {
                            nodes,
                            rngs,
                            mailbox,
                            out_flat,
                            ran,
                            seen,
                            stamp,
                            phases,
                            done,
                        } = &mut *guard;
                        out_flat.clear();
                        ran.clear();
                        // Round 0 runs every `init`; later rounds run the
                        // receivers the coordinator marked and the due nodes.
                        if round == 0 {
                            mailbox.mark_all();
                        } else {
                            calendar.fire(round, mailbox);
                        }
                        while let Some(i) = mailbox.pop_active() {
                            let v = NodeId((base + i) as u32);
                            // Crashed or stuttering nodes execute nothing
                            // this round, exactly as in the sequential loop.
                            // The skip decision is a pure function of (plan,
                            // v, round), identical on every executor and
                            // thread.
                            if FAULTS && plan.skips(v, round) {
                                mailbox.take(i);
                                if !plan.crashed(v, round) {
                                    calendar.retry(i, round);
                                }
                                continue;
                            }
                            // Sorted for free: the shared router is stable
                            // over the global ascending sender order.
                            let inbox: &[(NodeId, P::Msg)] = mailbox.take(i);
                            debug_assert!(inbox.windows(2).all(|w| w[0].0 <= w[1].0));
                            // `init` counts as leaving a done state, so
                            // round 0 adds every node that is not done.
                            let was_done = !FAULTS && (round == 0 || nodes[i].done());
                            *stamp += 1;
                            let mut ctx = Ctx::new_for_executor(
                                v,
                                n,
                                round,
                                adjacency.neighbors(v),
                                &mut rngs[i],
                                out_flat,
                                seen,
                                *stamp,
                                &mut phases[i],
                                TRACED,
                            );
                            if round == 0 {
                                nodes[i].init(&mut ctx);
                            } else {
                                nodes[i].round(&mut ctx, inbox);
                            }
                            calendar.set(i, round, nodes[i].next_wake(round));
                            if !FAULTS {
                                not_done =
                                    not_done + usize::from(was_done) - usize::from(nodes[i].done());
                            }
                            ran.push((i as u32, out_flat.len() as u32));
                        }
                        *done = if FAULTS {
                            nodes.iter().enumerate().all(|(i, p)| {
                                p.done() || plan.crashed(NodeId((base + i) as u32), round)
                            })
                        } else {
                            not_done == 0
                        };
                        drop(guard);
                        gate.worker_end();
                    }
                });
            }

            // Coordinator. Workers park on the gate's start barrier; the
            // final `shutdown` releases them to exit, and the scope joins
            // them on the way out.
            let shutdown = || gate.shutdown();

            // Drains the outboxes of the nodes that ran, in global sender
            // order (chunks are contiguous and ascending, so chunk order ×
            // node order = node order), through the shared `stage` — the
            // sequential executor's budget checks and accounting, in its
            // order, which is what makes the partial accounting of a failed
            // run identical. Then the shared router (or the fault engine)
            // fills the chunk mailboxes. `staging` keeps its capacity.
            let mut staging: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
            let mut deliver = |round: u32,
                               metrics: &mut RunMetrics,
                               fstate: &mut FaultState<P::Msg>,
                               tracer: &mut Tracer<'_>|
             -> Result<(u64, bool), BudgetViolation> {
                let mut guards: Vec<MutexGuard<'_, ChunkSlot<P>>> = slots
                    .iter()
                    .map(|m| m.lock().expect("route lock"))
                    .collect();
                for (ci, slot) in guards.iter_mut().enumerate() {
                    let ChunkSlot {
                        out_flat,
                        ran,
                        phases,
                        ..
                    } = &mut **slot;
                    let mut sends = out_flat.drain(..);
                    let mut start = 0;
                    for &(i, end) in ran.iter() {
                        let sender = NodeId((ci * chunk) as u32 + i);
                        // Phase declarations first, then the node's
                        // messages — the order the sequential flush uses.
                        if TRACED {
                            tracer.apply_actions(&mut phases[i as usize]);
                        }
                        stage::<_, _, TRACED, FAULTS>(
                            sender,
                            round,
                            (&mut sends).take((end - start) as usize),
                            budget,
                            metrics,
                            fstate,
                            tracer,
                            &mut staging,
                        )?;
                        start = end;
                    }
                }
                let mut boxes: Vec<&mut Mailbox<P::Msg>> =
                    guards.iter_mut().map(|g| &mut g.mailbox).collect();
                let in_flight = if FAULTS {
                    // Materialize next round's inboxes through the fault
                    // engine; messages still pending (delayed or held for a
                    // stutterer) stay in flight. `flush_due` emits receivers
                    // in ascending global order, so each chunk's inboxes
                    // stay ranges of its arena.
                    for b in boxes.iter_mut() {
                        b.clear();
                    }
                    let sunk = fstate.flush_due(round + 1, |to, s, m| {
                        boxes[to.index() / chunk].push(to, s, m);
                    });
                    sunk + fstate.in_flight()
                } else {
                    let staged = staging.len() as u64;
                    route(&mut staging, &mut boxes, chunk);
                    staged
                };
                let all_done = guards.iter().all(|g| g.done);
                Ok((in_flight, all_done))
            };

            // Init phase (round 0).
            if TRACED {
                tracer.begin_round(0);
            }
            if FAULTS {
                fstate.begin_round(0);
            }
            gate.open();
            gate.close();
            let (mut in_flight, mut all_done) = match deliver(0, metrics, &mut fstate, tracer) {
                Ok(v) => v,
                Err(v) => {
                    metrics.faults = fstate.counters();
                    shutdown();
                    return Err(RunError::Budget(v));
                }
            };
            if FAULTS {
                metrics.faults = fstate.counters();
            }
            if TRACED {
                tracer.end_round();
            }

            let mut round: u32 = 0;
            loop {
                if in_flight == 0 && all_done {
                    shutdown();
                    return Ok(());
                }
                if round >= max_rounds {
                    shutdown();
                    return Err(RunError::RoundLimit { max_rounds });
                }
                round += 1;
                metrics.rounds = round;
                if TRACED {
                    tracer.begin_round(round);
                }
                if FAULTS {
                    fstate.begin_round(round);
                }
                round_no.store(round, Ordering::Release);
                gate.open();
                gate.close();
                (in_flight, all_done) = match deliver(round, metrics, &mut fstate, tracer) {
                    Ok(v) => v,
                    Err(v) => {
                        metrics.faults = fstate.counters();
                        shutdown();
                        return Err(RunError::Budget(v));
                    }
                };
                if FAULTS {
                    metrics.faults = fstate.counters();
                }
                if TRACED {
                    tracer.end_round();
                }
            }
        });

        result.map(|()| {
            slots
                .into_iter()
                .flat_map(|m| m.into_inner().expect("slot poisoned").nodes)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::MinIdBroadcast;
    use crate::sync::Network;
    use spanner_graph::generators;

    #[test]
    fn parallel_matches_sequential() {
        let g = generators::erdos_renyi_gnm(80, 240, 7);
        let sources = |v: NodeId| v.0.is_multiple_of(13);
        let mut net = Network::new(&g, MessageBudget::Words(2), 99);
        let seq = net
            .run(|v, _| MinIdBroadcast::new(sources(v), 40), 256)
            .unwrap();
        for threads in [1, 2, 4] {
            let mut par = ParallelNetwork::new(&g, MessageBudget::Words(2), 99, threads);
            let states = par
                .run(|v, _| MinIdBroadcast::new(sources(v), 40), 256)
                .unwrap();
            for v in g.nodes() {
                assert_eq!(
                    seq[v.index()].nearest(),
                    states[v.index()].nearest(),
                    "node {v} with {threads} threads"
                );
            }
            assert_eq!(par.metrics(), net.metrics(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_round_limit() {
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
        let g = generators::cycle(6);
        let mut net = ParallelNetwork::new(&g, MessageBudget::CONGEST, 1, 2);
        let err = net.run(|_, _| Chatter, 3).unwrap_err();
        assert_eq!(err, RunError::RoundLimit { max_rounds: 3 });
    }

    #[test]
    fn parallel_empty_graph() {
        struct Quiet;
        impl Protocol for Quiet {
            type Msg = u64;
            fn init(&mut self, _: &mut Ctx<'_, u64>) {}
            fn round(&mut self, _: &mut Ctx<'_, u64>, _: &[(NodeId, u64)]) {}
        }
        let g = spanner_graph::Graph::empty(0);
        let mut net = ParallelNetwork::new(&g, MessageBudget::CONGEST, 1, 3);
        assert!(net.run(|_, _| Quiet, 4).unwrap().is_empty());
        assert_eq!(net.metrics().messages, 0);
    }

    #[test]
    fn more_threads_than_nodes() {
        let g = generators::path(3);
        let mut net = ParallelNetwork::new(&g, MessageBudget::Words(2), 5, 16);
        let states = net
            .run(|v, _| MinIdBroadcast::new(v == NodeId(0), 10), 32)
            .unwrap();
        assert!(states.iter().all(|s| s.nearest().is_some()));
    }

    /// A failed parallel run must leave the same partial metrics behind as
    /// the sequential executor (the seed version dropped them entirely).
    #[test]
    fn metrics_retained_on_budget_violation() {
        #[derive(Debug)]
        struct FatSecond;
        impl Protocol for FatSecond {
            type Msg = Vec<u64>;
            fn init(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) {
                ctx.broadcast(vec![1]);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, Vec<u64>>, _: &[(NodeId, Vec<u64>)]) {
                if ctx.round() == 1 && ctx.me() == NodeId(2) {
                    ctx.broadcast(vec![0; 9]); // over budget
                }
            }
        }
        let g = generators::cycle(6);
        let mut seq = Network::new(&g, MessageBudget::Words(4), 3);
        let seq_err = seq.run(|_, _| FatSecond, 16).unwrap_err();
        let mut par = ParallelNetwork::new(&g, MessageBudget::Words(4), 3, 3);
        let par_err = par.run(|_, _| FatSecond, 16).unwrap_err();
        assert_eq!(seq_err, par_err);
        assert_eq!(seq.metrics(), par.metrics());
        assert!(seq.metrics().messages > 0); // genuinely partial, not empty
    }
}
