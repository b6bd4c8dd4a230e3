//! The event-driven asynchronous executor.
//!
//! The paper's model (and the round-synchronous [`Network`](crate::Network)
//! executor) is perfectly synchronous: messages sent in round `r` arrive
//! at the start of round `r + 1`. Real links deliver with per-hop latency.
//! [`AsyncNetwork`] runs the **same unchanged [`Protocol`] state machines**
//! on such links by pairing a discrete-event scheduler with a
//! *synchronizer* — the classic construction (Awerbuch's α-synchronizer,
//! and the skeleton-based variant of Bitton et al., "Message Reduction in
//! the Local Model is a Free Lunch", arXiv:1909.08369) that recovers round
//! numbers from an asynchronous execution.
//!
//! # Event model
//!
//! Simulated time is a `u64` tick counter. Every message — protocol or
//! synchronizer — handed to a link at time `t` arrives at
//! `t + latency(edge, t)`, where the latency is the **pure hash** of
//! `(delay-plan seed, edge, send time)` computed by
//! [`FaultPlan::link_latency`]: at least one tick, plus the plan's
//! `delay=p:d` clause worth of extra ticks. The empty plan is the
//! unit-latency ("zero-delay") model. Arrivals are processed from a binary
//! heap ordered by `(time, sender, seq)` — `seq` is a global schedule
//! counter, so ties resolve stably and the whole execution is
//! deterministic and thread-count-independent by construction.
//!
//! # Synchronizers
//!
//! After a node finishes protocol round `r` it must not start `r + 1`
//! until every round-`r` message addressed to it has arrived. Both
//! variants detect this with per-message acknowledgements: a receiver acks
//! each protocol message on arrival, and a node is *safe* for round `r`
//! once all its round-`r` sends are acked (a node that sent nothing is
//! safe immediately).
//!
//! * [`Synchronizer::Alpha`] — every safe node broadcasts SAFE to all its
//!   graph neighbors; a node starts round `r + 1` once it is safe and has
//!   heard SAFE from every neighbor. Overhead per round: one ack per
//!   protocol message plus one SAFE per directed edge (≈ 2·|E|).
//! * [`Synchronizer::Skeleton`] — the safety acknowledgements are routed
//!   over a built spanner instead of the full graph: safe reports
//!   convergecast up a BFS tree of the skeleton to its root, which
//!   broadcasts the next-round PULSE back down. Overhead per round: one
//!   ack per protocol message plus 2·(n − 1) tree messages — the Bitton et
//!   al. transformation: same round complexity, measurably fewer messages
//!   (at the price of tree-depth extra latency per round).
//!
//! Synchronizer traffic is accounted separately
//! ([`RunMetrics::sync_messages`], plus one
//! [`RunMetrics::events`] per arrival and the
//! [`RunMetrics::sim_time`] horizon); protocol-level
//! rounds/messages/words stay exactly the round-synchronous executors'
//! numbers.
//!
//! # Determinism and parity
//!
//! Because the synchronizer recovers exact round semantics, the protocol
//! execution — inboxes (sender-sorted), RNG streams, budget checks, trace
//! stream — is *identical* to the sequential executor's for every delay
//! plan, and by construction: each recovered round's protocol calls run
//! through [`Network`](crate::Network)'s one node step over a single chunk
//! of all n nodes, every outbox goes through the same outbox check, and a
//! round's arrivals, sorted by sender, fill the inboxes through the same
//! router. Only where an accepted send goes differs: onto the event heap,
//! which computes when each node's round fires and what the synchronizer
//! costs. Two simplifications are sound for this reason and do not change
//! event times or counts: control messages carry no round tags (each
//! round's events fully drain before the next round executes), and
//! termination uses the simulator's global quiescence test rather than a
//! distributed termination-detection protocol (documented deviation; a
//! deployment would run one on top).
//!
//! This executor ignores [`Protocol::next_wake`] and calls every node's
//! [`Protocol::round`] in every recovered round. The wake contract makes
//! the extra calls no-ops, so a Sequential-vs-Async comparison also checks
//! that a protocol's wake hints skip only no-op rounds.
//!
//! # Example
//!
//! ```
//! use spanner_graph::generators;
//! use spanner_netsim::{
//!     patterns::FloodProtocol, AsyncNetwork, FaultPlan, MessageBudget,
//! };
//!
//! let g = generators::cycle(16);
//! let delays = FaultPlan::new(7).with_delays(0.3, 4);
//! let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 42)
//!     .with_delays(delays);
//! let states = net
//!     .run(|v, _| FloodProtocol::new(v.0 == 0, 8), 64)
//!     .expect("flood terminates");
//! assert!(states.iter().all(|s| s.reached()));
//! // Same protocol cost as the synchronous run, plus synchronizer traffic.
//! let m = net.metrics();
//! assert!(m.sync_messages > 0 && m.sim_time > m.rounds as u64);
//! assert_eq!(m.events, m.messages + m.sync_messages);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::SmallRng;

use spanner_graph::{Graph, NodeId};

use crate::budget::MessageBudget;
use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::route::{assert_addressable, expand, route, stage, Board};
use crate::sync::{Chunk, MessageSize, Protocol, RunError};
use crate::trace::{NullSink, TraceSink, Tracer};
use spanner_graph::CsrAdjacency;

/// How round safety is disseminated between protocol rounds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Synchronizer {
    /// Awerbuch's α-synchronizer: SAFE is broadcast to every graph
    /// neighbor. Overhead ≈ one ack per protocol message + 2·|E| per round.
    #[default]
    Alpha,
    /// The Bitton et al. skeleton synchronizer: safety convergecasts up a
    /// BFS tree of the given spanning subgraph (normally a built spanner)
    /// and the next-round pulse broadcasts back down. Overhead ≈ one ack
    /// per protocol message + 2·(n − 1) per round.
    ///
    /// Every listed edge must be a graph edge, and the subgraph must span
    /// and connect all nodes (checked at run start).
    Skeleton(Vec<(NodeId, NodeId)>),
}

impl Synchronizer {
    /// The skeleton synchronizer over an edge-id set, resolving endpoints
    /// through `g` (convenience for `Spanner::edges`-style sets).
    pub fn skeleton_of<I: IntoIterator<Item = spanner_graph::EdgeId>>(
        g: &Graph,
        edges: I,
    ) -> Synchronizer {
        Synchronizer::Skeleton(edges.into_iter().map(|e| g.endpoints(e)).collect())
    }
}

/// One scheduled arrival. Heap order is `(time, sender, seq)` ascending —
/// `Ord` looks only at that key, never the payload.
struct Event<M> {
    time: u64,
    sender: u32,
    seq: u64,
    kind: EventKind<M>,
}

enum EventKind<M> {
    /// A protocol message arriving at `to`.
    Proto { to: NodeId, from: NodeId, msg: M },
    /// An acknowledgement arriving back at the original sender `to`.
    Ack { to: NodeId },
    /// An α-synchronizer SAFE arriving at `to`.
    Safe { to: NodeId },
    /// A skeleton-tree safety report arriving at parent `to`.
    Converge { to: NodeId },
    /// A skeleton-tree next-round pulse arriving at child `to`.
    Pulse { to: NodeId },
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.sender, self.seq) == (other.time, other.sender, other.seq)
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    /// Reversed so the std max-heap pops the *smallest* key first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.sender, other.seq).cmp(&(self.time, self.sender, self.seq))
    }
}

/// The skeleton synchronizer's BFS tree. Children live in one flat arena
/// with per-node offsets (a tree has at most `n - 1` child slots total).
struct SyncTree {
    parent: Vec<Option<NodeId>>,
    children_flat: Vec<NodeId>,
    children_off: Vec<u32>,
    root: NodeId,
}

impl SyncTree {
    /// BFS tree (root 0, neighbor lists ascending) of the skeleton edges.
    ///
    /// Panics if an edge is not a graph edge or the subgraph does not
    /// connect all nodes — the synchronizer's pulse must reach everyone.
    fn build(adjacency: &CsrAdjacency, edges: &[(NodeId, NodeId)]) -> SyncTree {
        let n = adjacency.node_count();
        for &(a, b) in edges {
            assert!(
                adjacency.neighbors(a).binary_search(&b).is_ok(),
                "skeleton synchronizer edge ({a}, {b}) is not a graph edge"
            );
        }
        // Neighbor runs come out sorted and deduplicated, so the BFS below
        // visits neighbors ascending.
        let skeleton = CsrAdjacency::from_edges(n, edges.iter().map(|&(a, b)| (a.0, b.0)));
        let root = NodeId(0);
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut frontier = std::collections::VecDeque::new();
        if n > 0 {
            visited[0] = true;
            frontier.push_back(root);
        }
        // Genuine breadth-first order: the tree's depth — which bounds the
        // skeleton synchronizer's per-round latency — is the subgraph's
        // eccentricity from the root, not a DFS path length.
        while let Some(v) = frontier.pop_front() {
            for &w in skeleton.neighbors(v) {
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    parent[w.index()] = Some(v);
                    frontier.push_back(w);
                }
            }
        }
        assert!(
            visited.iter().all(|&b| b),
            "skeleton synchronizer requires a spanning connected subgraph"
        );
        // Children as a flat arena: counting scatter over ascending child
        // ids leaves every node's child run sorted for free.
        let mut children_off: Vec<u32> = vec![0; n + 1];
        for p in parent.iter().flatten() {
            children_off[p.index() + 1] += 1;
        }
        for v in 0..n {
            children_off[v + 1] += children_off[v];
        }
        let mut children_flat: Vec<NodeId> = vec![NodeId(0); children_off[n] as usize];
        let mut ccursor: Vec<u32> = children_off[..n].to_vec();
        for (w, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children_flat[ccursor[p.index()] as usize] = NodeId(w as u32);
                ccursor[p.index()] += 1;
            }
        }
        SyncTree {
            parent,
            children_flat,
            children_off,
            root,
        }
    }

    /// Node `v`'s tree children, ascending.
    fn children(&self, v: NodeId) -> &[NodeId] {
        let lo = self.children_off[v.index()] as usize;
        let hi = self.children_off[v.index() + 1] as usize;
        &self.children_flat[lo..hi]
    }
}

/// Per-round synchronizer scratch, reset each recovered round.
struct SyncState {
    /// Unacked sends of the executing round, per node.
    pending_acks: Vec<u32>,
    /// Outstanding start conditions per node. α: `deg + 1` (own safety +
    /// one SAFE per neighbor). Skeleton: `children + 1` (own safety + one
    /// CONVERGE per child) — pulses bypass this counter.
    need: Vec<u32>,
    /// When each node may start the next round (set once all conditions
    /// are met, or by the tree pulse).
    start: Vec<Option<u64>>,
}

impl SyncState {
    fn new(n: usize) -> SyncState {
        SyncState {
            pending_acks: vec![0; n],
            need: vec![0; n],
            start: vec![None; n],
        }
    }
}

/// An event-driven asynchronous network over a graph.
///
/// Construct once per run, like [`Network`](crate::Network); configure the
/// delay model with [`AsyncNetwork::with_delays`] and the synchronizer
/// with [`AsyncNetwork::with_synchronizer`]. See the
/// [module docs](crate::async_exec) for the execution model and the parity
/// guarantees.
/// Like the round-synchronous executor, the topology is one `Arc`'d
/// [`CsrAdjacency`]: a graph's ([`Graph::csr`]) or a streamed one.
pub struct AsyncNetwork {
    budget: MessageBudget,
    seed: u64,
    metrics: RunMetrics,
    adjacency: Arc<CsrAdjacency>,
    /// Delay model; only the plan's delay clause (and scope) is consulted.
    delays: FaultPlan,
    synchronizer: Synchronizer,
    trace_deliveries: bool,
}

impl AsyncNetwork {
    /// An asynchronous network over a shared adjacency with unit link
    /// latency and the α-synchronizer.
    pub fn from_csr(adjacency: Arc<CsrAdjacency>, budget: MessageBudget, seed: u64) -> Self {
        assert_addressable(adjacency.node_count());
        AsyncNetwork {
            budget,
            seed,
            metrics: RunMetrics::default(),
            adjacency,
            delays: FaultPlan::default(),
            synchronizer: Synchronizer::Alpha,
            trace_deliveries: false,
        }
    }

    /// Draws per-link latencies from `plan`'s delay machinery (see
    /// [`FaultPlan::link_latency`]). Only the delay clause and scope are
    /// consulted — drops, duplicates, crashes, and stutters are the
    /// round-synchronous fault engine's domain.
    pub fn with_delays(mut self, plan: FaultPlan) -> Self {
        self.delays = plan;
        self
    }

    /// Selects the synchronizer variant (default: [`Synchronizer::Alpha`]).
    pub fn with_synchronizer(mut self, synchronizer: Synchronizer) -> Self {
        self.synchronizer = synchronizer;
        self
    }

    /// Emits one [`Deliver`](crate::TraceEvent::Deliver) trace event per
    /// protocol message arrival on traced runs. Off by default, keeping
    /// default trace streams byte-identical to the round-synchronous
    /// executors'.
    pub fn with_delivery_trace(mut self, enabled: bool) -> Self {
        self.trace_deliveries = enabled;
        self
    }

    /// The message budget in force (protocol messages only; synchronizer
    /// control traffic is O(1) words by construction).
    pub fn budget(&self) -> MessageBudget {
        self.budget
    }

    /// The delay plan in force.
    pub fn delay_plan(&self) -> &FaultPlan {
        &self.delays
    }

    /// The synchronizer variant in force.
    pub fn synchronizer(&self) -> &Synchronizer {
        &self.synchronizer
    }

    /// Cost accounting of the most recent run: the protocol-level counters
    /// equal the round-synchronous executors' exactly, plus
    /// [`events`](RunMetrics::events),
    /// [`sync_messages`](RunMetrics::sync_messages), and
    /// [`sim_time`](RunMetrics::sim_time).
    pub fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// Runs `factory`-created protocols to quiescence, event-driven.
    ///
    /// Mirrors [`Network::run`](crate::Network::run): same factory
    /// contract, same quiescence and round-cap semantics, same final
    /// states for the same graph and seed.
    ///
    /// # Errors
    ///
    /// [`RunError::RoundLimit`] if not quiescent within `max_rounds`
    /// protocol rounds; [`RunError::Budget`] if any protocol message
    /// exceeds the budget — with partial accounting identical to the
    /// sequential executor's.
    pub fn run<P, F>(&mut self, factory: F, max_rounds: u32) -> Result<Vec<P>, RunError>
    where
        P: Protocol,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        self.run_traced(factory, max_rounds, &mut NullSink)
    }

    /// Like [`AsyncNetwork::run`], streaming
    /// [`TraceEvent`](crate::TraceEvent)s into `sink`.
    ///
    /// Without delivery tracing the stream is byte-identical to
    /// [`Network::run_traced`](crate::Network::run_traced)'s for the same
    /// run (asserted in `tests/executor_parity.rs`); with
    /// [`AsyncNetwork::with_delivery_trace`] each protocol arrival
    /// additionally appears as a `Deliver` record after its send round.
    ///
    /// # Errors
    ///
    /// Same as [`AsyncNetwork::run`].
    pub fn run_traced<P, F>(
        &mut self,
        factory: F,
        max_rounds: u32,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        let mut tracer = Tracer::new(sink);
        let result = self.run_inner(factory, max_rounds, &mut tracer);
        tracer.finish(&self.metrics, result.as_ref().err());
        result
    }

    fn run_inner<P, F>(
        &mut self,
        mut factory: F,
        max_rounds: u32,
        tracer: &mut Tracer<'_>,
    ) -> Result<Vec<P>, RunError>
    where
        P: Protocol,
        F: FnMut(NodeId, &mut SmallRng) -> P,
    {
        let n = self.adjacency.node_count();
        self.metrics = RunMetrics::default();
        let adjacency = Arc::clone(&self.adjacency);
        let tree = match &self.synchronizer {
            Synchronizer::Alpha => None,
            Synchronizer::Skeleton(edges) => Some(SyncTree::build(&adjacency, edges)),
        };

        // Every node in one chunk, stepped by the round-synchronous
        // executors' node step; the factory runs in node order.
        let mut chunk = Chunk::new(0, n, n, self.seed, &mut factory);
        let mut outbox: Vec<(NodeId, P::Msg)> = Vec::new();
        let mut heap: BinaryHeap<Event<P::Msg>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut horizon: u64 = 0;
        // The local time at which each node executes the current round.
        let mut exec_time: Vec<u64> = vec![0; n];
        // Arrivals for the next round as (receiver, sender, msg), sorted by
        // sender before the router fills the chunk's mailbox with them.
        let mut staging: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
        // Broadcasts are expanded into per-link events, so the router never
        // sees one here and needs no room on its board.
        let mut board: Board<P::Msg> = Board::new(0);
        let mut sync = SyncState::new(n);
        let mut in_flight: u64 = 0;

        let mut round: u32 = 0;
        loop {
            tracer.begin_round(round);
            // Every node runs every round: the asynchronous executor
            // ignores wake hints, which the wake contract allows.
            chunk.mailbox.mark_all();
            let (budget, delays, metrics) = (self.budget, &self.delays, &mut self.metrics);
            chunk.step::<false, _, _>(
                round,
                &adjacency,
                &board,
                delays,
                &mut outbox,
                |v, outbox| {
                    let neighbors = adjacency.neighbors(v);
                    let send_time = exec_time[v.index()];
                    // The tracer ignores its counters when disabled.
                    stage::<_, _, true>(
                        v,
                        neighbors,
                        round,
                        outbox.drain(..),
                        budget,
                        metrics,
                        tracer,
                        |to, msg| {
                            expand(to, msg, neighbors, |to, msg| {
                                let lat = delays.link_latency(send_time, v, to);
                                sync.pending_acks[v.index()] += 1;
                                in_flight += 1;
                                let proto = EventKind::Proto { to, from: v, msg };
                                push(&mut heap, &mut seq, send_time + lat, v, proto);
                            });
                        },
                    )
                },
            )?;
            tracer.end_round();
            // Quiescence test, identical to the sequential executor's: no
            // protocol messages in flight and every node content to stop.
            if in_flight == 0 && chunk.quiet {
                break;
            }
            if round >= max_rounds {
                return Err(RunError::RoundLimit { max_rounds });
            }

            // Drain round `round`'s events: protocol arrivals fill the
            // next inboxes; ack/safety traffic determines when each node
            // may start round `round + 1`.
            self.drain_round(
                round,
                &mut heap,
                &mut seq,
                &mut horizon,
                &mut staging,
                &mut sync,
                &mut in_flight,
                &exec_time,
                tree.as_ref(),
                tracer,
            );
            // Arrival order is delay-dependent; a stable sort by sender
            // restores the synchronous inbox order, which routing keeps.
            staging.sort_by_key(|&(_, sender, _)| sender);
            route(
                &mut staging,
                &mut [&mut chunk.mailbox],
                n,
                &adjacency,
                &mut board,
            );
            for (v, t) in exec_time.iter_mut().enumerate() {
                *t = sync.start[v].expect("synchronizer delivered a start time");
                horizon = horizon.max(*t);
            }
            self.metrics.sim_time = horizon;
            round += 1;
            self.metrics.rounds = round;
        }

        self.metrics.sim_time = horizon;
        Ok(chunk.nodes)
    }

    /// Processes every event of the round just executed: delivers protocol
    /// messages, runs the synchronizer state machines, and computes each
    /// node's next-round start time. The heap is empty on return.
    #[allow(clippy::too_many_arguments)]
    fn drain_round<M: MessageSize>(
        &mut self,
        round: u32,
        heap: &mut BinaryHeap<Event<M>>,
        seq: &mut u64,
        horizon: &mut u64,
        staging: &mut Vec<(NodeId, NodeId, M)>,
        sync: &mut SyncState,
        in_flight: &mut u64,
        exec_time: &[u64],
        tree: Option<&SyncTree>,
        tracer: &mut Tracer<'_>,
    ) {
        let n = self.adjacency.node_count();
        for v in 0..n {
            sync.need[v] = match tree {
                None => self.adjacency.neighbors(NodeId(v as u32)).len() as u32 + 1,
                Some(t) => t.children(NodeId(v as u32)).len() as u32 + 1,
            };
            sync.start[v] = None;
        }
        // Nodes that sent nothing this round are safe at their own send
        // time; seed their safety in node order before draining.
        for (v, &t) in exec_time.iter().enumerate() {
            if sync.pending_acks[v] == 0 {
                self.node_safe(NodeId(v as u32), t, heap, seq, sync, tree);
            }
        }
        while let Some(ev) = heap.pop() {
            self.metrics.events += 1;
            *horizon = (*horizon).max(ev.time);
            match ev.kind {
                EventKind::Proto { to, from, msg } => {
                    if self.trace_deliveries {
                        let words = msg.words() as u64;
                        tracer.on_deliver(ev.time, round, from.0, to.0, words);
                    }
                    staging.push((to, from, msg));
                    *in_flight -= 1;
                    // Ack back over the same link.
                    let lat = self.delays.link_latency(ev.time, to, from);
                    self.metrics.sync_messages += 1;
                    push(heap, seq, ev.time + lat, to, EventKind::Ack { to: from });
                }
                EventKind::Ack { to } => {
                    sync.pending_acks[to.index()] -= 1;
                    if sync.pending_acks[to.index()] == 0 {
                        self.node_safe(to, ev.time, heap, seq, sync, tree);
                    }
                }
                EventKind::Safe { to } => {
                    sync.need[to.index()] -= 1;
                    if sync.need[to.index()] == 0 {
                        sync.start[to.index()] = Some(ev.time);
                    }
                }
                EventKind::Converge { to } => {
                    sync.need[to.index()] -= 1;
                    if sync.need[to.index()] == 0 {
                        self.node_converged(
                            to,
                            ev.time,
                            heap,
                            seq,
                            sync,
                            tree.expect("converge implies tree"),
                        );
                    }
                }
                EventKind::Pulse { to } => {
                    sync.start[to.index()] = Some(ev.time);
                    let t = tree.expect("pulse implies tree");
                    for &c in t.children(to) {
                        let lat = self.delays.link_latency(ev.time, to, c);
                        self.metrics.sync_messages += 1;
                        push(heap, seq, ev.time + lat, to, EventKind::Pulse { to: c });
                    }
                }
            }
        }
    }

    /// Node `v` became safe (all its round sends acked) at time `t`:
    /// α broadcasts SAFE to the graph neighbors; the skeleton variant
    /// counts it toward `v`'s own converge condition.
    fn node_safe<M>(
        &mut self,
        v: NodeId,
        t: u64,
        heap: &mut BinaryHeap<Event<M>>,
        seq: &mut u64,
        sync: &mut SyncState,
        tree: Option<&SyncTree>,
    ) {
        match tree {
            None => {
                sync.need[v.index()] -= 1;
                if sync.need[v.index()] == 0 {
                    sync.start[v.index()] = Some(t);
                }
                for i in 0..self.adjacency.neighbors(v).len() {
                    let u = self.adjacency.neighbors(v)[i];
                    let lat = self.delays.link_latency(t, v, u);
                    self.metrics.sync_messages += 1;
                    push(heap, seq, t + lat, v, EventKind::Safe { to: u });
                }
            }
            Some(tr) => {
                sync.need[v.index()] -= 1;
                if sync.need[v.index()] == 0 {
                    self.node_converged(v, t, heap, seq, sync, tr);
                }
            }
        }
    }

    /// Node `v` and its whole subtree are safe at time `t`: report up, or
    /// — at the root — release the next-round pulse down the tree.
    fn node_converged<M>(
        &mut self,
        v: NodeId,
        t: u64,
        heap: &mut BinaryHeap<Event<M>>,
        seq: &mut u64,
        sync: &mut SyncState,
        tree: &SyncTree,
    ) {
        match tree.parent[v.index()] {
            Some(p) => {
                let lat = self.delays.link_latency(t, v, p);
                self.metrics.sync_messages += 1;
                push(heap, seq, t + lat, v, EventKind::Converge { to: p });
            }
            None => {
                debug_assert_eq!(v, tree.root);
                sync.start[v.index()] = Some(t);
                for &c in tree.children(v) {
                    let lat = self.delays.link_latency(t, v, c);
                    self.metrics.sync_messages += 1;
                    push(heap, seq, t + lat, v, EventKind::Pulse { to: c });
                }
            }
        }
    }
}

fn push<M>(
    heap: &mut BinaryHeap<Event<M>>,
    seq: &mut u64,
    time: u64,
    sender: NodeId,
    kind: EventKind<M>,
) {
    heap.push(Event {
        time,
        sender: sender.0,
        seq: *seq,
        kind,
    });
    *seq += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::FloodProtocol;
    use crate::{Ctx, Network};
    use spanner_graph::generators;

    fn flood_states(states: &[FloodProtocol]) -> Vec<(bool, Option<u32>)> {
        states.iter().map(|s| (s.reached(), s.dist())).collect()
    }

    #[test]
    fn unit_latency_alpha_matches_sequential() {
        let g = generators::connected_gnm(40, 100, 3);
        let radius = 40;
        let mut sync_net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 5);
        let seq = sync_net
            .run(|v, _| FloodProtocol::new(v.0 == 0, radius), 200)
            .unwrap();
        let mut anet = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 5);
        let a = anet
            .run(|v, _| FloodProtocol::new(v.0 == 0, radius), 200)
            .unwrap();
        assert_eq!(flood_states(&seq), flood_states(&a));
        assert_eq!(sync_net.metrics(), anet.metrics().protocol_only());
        let m = anet.metrics();
        assert_eq!(m.events, m.messages + m.sync_messages);
        assert!(m.sim_time >= m.rounds as u64);
    }

    #[test]
    fn delayed_runs_recover_round_semantics() {
        let g = generators::connected_gnm(30, 70, 9);
        let mut sync_net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 2);
        let seq = sync_net
            .run(|v, _| FloodProtocol::new(v.0 == 0, 30), 200)
            .unwrap();
        for dseed in [1u64, 2, 3] {
            let delays = FaultPlan::new(dseed).with_delays(0.5, 5);
            let mut anet = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 2)
                .with_delays(delays);
            let a = anet
                .run(|v, _| FloodProtocol::new(v.0 == 0, 30), 200)
                .unwrap();
            assert_eq!(flood_states(&seq), flood_states(&a), "delay seed {dseed}");
            assert_eq!(
                sync_net.metrics(),
                anet.metrics().protocol_only(),
                "delay seed {dseed}"
            );
        }
    }

    #[test]
    fn skeleton_synchronizer_sends_fewer_messages() {
        // Dense graph, sparse spanning tree as the "skeleton".
        let g = generators::connected_gnm(48, 300, 11);
        let tree_edges: Vec<(NodeId, NodeId)> = {
            // Any spanning connected subgraph works; use a BFS tree.
            let t = SyncTree::build(
                g.csr(),
                &g.edges().map(|(_, a, b)| (a, b)).collect::<Vec<_>>(),
            );
            (0..g.node_count())
                .filter_map(|v| t.parent[v].map(|p| (NodeId(v as u32), p)))
                .collect()
        };
        let delays = FaultPlan::new(4).with_delays(0.3, 3);
        let run = |synchronizer: Synchronizer| {
            let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 7)
                .with_delays(delays.clone())
                .with_synchronizer(synchronizer);
            let states = net
                .run(|v, _| FloodProtocol::new(v.0 == 0, 48), 300)
                .unwrap();
            assert!(states.iter().all(FloodProtocol::reached));
            net.metrics()
        };
        let alpha = run(Synchronizer::Alpha);
        let skel = run(Synchronizer::Skeleton(tree_edges));
        // Same recovered round complexity and protocol traffic...
        assert_eq!(alpha.protocol_only(), skel.protocol_only());
        // ...with measurably fewer synchronizer messages over the tree.
        assert!(
            skel.sync_messages < alpha.sync_messages,
            "tree {} vs alpha {}",
            skel.sync_messages,
            alpha.sync_messages
        );
        assert_eq!(skel.events, skel.messages + skel.sync_messages);
    }

    #[test]
    fn deterministic_across_invocations() {
        let g = generators::caveman(6, 8, 20, 2);
        let delays = FaultPlan::new(8).with_delays(0.4, 4);
        let run = || {
            let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 3)
                .with_delays(delays.clone());
            net.run(|v, _| FloodProtocol::new(v.0 == 0, 48), 300)
                .unwrap();
            net.metrics()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_and_single_node() {
        let g = Graph::empty(0);
        let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net.run(|v, _| FloodProtocol::new(v.0 == 0, 4), 8).unwrap();
        assert!(states.is_empty());
        let g1 = Graph::empty(1);
        let mut net1 = AsyncNetwork::from_csr(g1.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net1.run(|v, _| FloodProtocol::new(v.0 == 0, 4), 8).unwrap();
        assert_eq!(states.len(), 1);
        assert_eq!(net1.metrics().sync_messages, 0);
    }

    #[test]
    fn round_limit_propagates() {
        #[derive(Debug)]
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u64;
            fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.broadcast(1);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[(NodeId, u64)]) {
                ctx.broadcast(1);
            }
        }
        let g = generators::cycle(4);
        let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let err = net.run(|_, _| Chatter, 5).unwrap_err();
        assert_eq!(err, RunError::RoundLimit { max_rounds: 5 });
        let mut sync_net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let serr = sync_net.run(|_, _| Chatter, 5).unwrap_err();
        assert_eq!(err, serr);
        assert_eq!(sync_net.metrics(), net.metrics().protocol_only());
    }

    #[test]
    fn skeleton_synchronizer_runs_on_the_empty_graph() {
        let g = Graph::empty(0);
        let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1)
            .with_synchronizer(Synchronizer::Skeleton(Vec::new()));
        let states = net.run(|v, _| FloodProtocol::new(v.0 == 0, 6), 40);
        assert!(states.unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "spanning connected subgraph")]
    fn skeleton_synchronizer_rejects_disconnected_subgraph() {
        let g = generators::cycle(6);
        let edges = vec![(NodeId(0), NodeId(1))];
        let mut net = AsyncNetwork::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1)
            .with_synchronizer(Synchronizer::Skeleton(edges));
        let _ = net.run(|v, _| FloodProtocol::new(v.0 == 0, 6), 40);
    }
}
