//! The distributed skeleton construction (proof of Theorem 2).
//!
//! Every original vertex is a processor. The algorithm follows the
//! implementation in the paper:
//!
//! * **sampling is free**: a cluster's fate in every call is a pure
//!   function of its center's id
//!   ([`ClusterSampler`]), so any vertex
//!   that knows its cluster center's id can evaluate it locally — no
//!   coordination;
//! * each vertex `w` maintains two tree pointers: `p1(w)` toward the
//!   center of its *supervertex* (the contracted vertex of the current
//!   round) and `p2(w)` toward the center of its current *cluster*;
//! * an `Expand` call runs on a fixed, globally known **timetable** (all
//!   processors know n, D, ε, hence the schedule and the certified radius
//!   bounds of Lemma 3):
//!   1. *exchange* (1 step): every live vertex tells its neighbors its
//!      cluster center,
//!   2. *candidate convergecast* (≤ r_i + 2 steps): each vertex proposes
//!      its best edge into a sampled cluster; proposals flow up the p1
//!      tree, improvements forwarding one hop per step,
//!   3. *decision broadcast* (≤ r_i + 1 steps): the center either joins
//!      the winning cluster — the decision flows down, on-path vertices
//!      re-aim `p2` toward the winning edge (re-rooting the tree exactly
//!      as Fig. 4 describes) — or declares the supervertex dead,
//!   4. *kill phase*: members of a dead supervertex stream their
//!      (cluster, edge) candidates up the p1 tree, pipelined in batches
//!      that fit the O(log^ε n)-word budget and deduplicated per cluster
//!      en route; if anyone sees more than 4·s_i·ln n distinct clusters it
//!      floods ABORT through the tree and every member simply keeps all
//!      its incident edges (the paper's Monte-Carlo escape hatch, which
//!      inflates the expected size by o(1));
//! * at the end of a round every vertex sends one ADOPT message to its
//!   `p2` parent, which rebuilds the child lists, and `p1 := p2` — that is
//!   the contraction.
//!
//! **Deviation (documented in DESIGN.md §4):** the paper lets the kill
//! phase of a dying supervertex overlap subsequent calls (dead vertices
//! bother nobody); we instead append the kill window to every call, which
//! keeps the executor timetable trivially deterministic and inflates the
//! round count by a constant factor only — the measured rounds still scale
//! as O(ε⁻¹ 2^{log* n} log_D n) (experiment E3).

use std::collections::BTreeMap;
use std::sync::Arc;

use spanner_graph::{verify_stretch, CsrAdjacency, EdgeSet, NodeId, Pairs, StretchBound};
use spanner_netsim::{
    execute, Ctx, Executor, FaultPlan, MessageBudget, MessageSize, NullSink, PhaseMark, Protocol,
    RunError, RunMetrics, ScheduledSink, TraceSink,
};

use crate::expand::ClusterSampler;
use crate::faults::BuildError;
use crate::seq::Schedule;
use crate::skeleton::SkeletonParams;
use crate::spanner::Spanner;

/// A candidate edge into a sampled cluster: (target cluster, my endpoint,
/// neighbor endpoint). Ordered lexicographically; the minimum wins.
type Cand = (NodeId, NodeId, NodeId);

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkelMsg {
    /// "My cluster center is … (and I am alive)."
    Exchange {
        /// The sender's current cluster center.
        cluster: NodeId,
    },
    /// Candidate edge flowing up the p1 tree.
    CandUp(Cand),
    /// Center's decision: join `cluster` via the edge (a, b).
    Join(Cand),
    /// Center's decision: the supervertex dies.
    Die,
    /// Batched (cluster, a, b) entries flowing up during the kill phase.
    KillBatch(Vec<Cand>),
    /// Too many adjacent clusters: keep all incident edges.
    Abort,
    /// "I am your child in the contracted tree."
    Adopt,
}

impl MessageSize for SkelMsg {
    fn words(&self) -> usize {
        match self {
            SkelMsg::Exchange { .. } => 1,
            SkelMsg::CandUp(_) | SkelMsg::Join(_) => 3,
            SkelMsg::Die | SkelMsg::Abort | SkelMsg::Adopt => 1,
            SkelMsg::KillBatch(v) => 1 + 3 * v.len(),
        }
    }
}

/// Per-call timetable entry (absolute simulator rounds).
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Exchange broadcast round.
    exchange: u32,
    /// First candidate round (exchange + 1).
    cand_start: u32,
    /// Center decision round.
    decide: u32,
    /// Kill-entry collection round at the center (end of kill phase),
    /// and the ADOPT round if the call contracts.
    kill_end: u32,
    /// Contraction application round / end of this call's window.
    end: u32,
    /// Sampling probability of the call.
    probability: f64,
    /// Abort threshold: max distinct adjacent clusters before giving up.
    q_cap: usize,
    /// Whether a contraction follows this call.
    contract_after: bool,
}

/// Shared, precomputed configuration.
#[derive(Debug)]
struct SkelConfig {
    windows: Vec<Window>,
    sampler: ClusterSampler,
    /// Batch capacity of a kill message, in entries.
    batch: usize,
    /// Total rounds of the timetable.
    total_rounds: u32,
}

impl SkelConfig {
    fn build(schedule: &Schedule, n: usize, seed: u64, budget_words: usize) -> Self {
        let batch = ((budget_words.saturating_sub(1)) / 3).max(1);
        let ln_n = (n.max(2) as f64).ln();
        let mut windows = Vec::with_capacity(schedule.calls.len());
        let mut t = 1u32; // round 0 is init; actions start at round 1
        let mut last_positive_p = 0.25;
        for call in &schedule.calls {
            let r = call.radius_before as u32;
            let p = call.probability;
            if p > 0.0 {
                last_positive_p = p;
            }
            let q_cap = (4.0 * (1.0 / last_positive_p) * ln_n).ceil() as usize;
            let drain = (q_cap + 1).div_ceil(batch) as u32;
            let exchange = t;
            let cand_start = t + 1;
            let decide = t + r + 2;
            let kill_end = decide + 3 * r + drain + 4;
            let end = if call.contract_after {
                kill_end + 2
            } else {
                kill_end
            };
            windows.push(Window {
                exchange,
                cand_start,
                decide,
                kill_end,
                end,
                probability: p,
                q_cap,
                contract_after: call.contract_after,
            });
            // The next call starts on the round AFTER this one ends, so a
            // node can apply end-of-call actions and advance its window
            // pointer without racing the next exchange.
            t = end + 1;
        }
        SkelConfig {
            windows,
            sampler: ClusterSampler::new(seed),
            batch,
            total_rounds: t + 2,
        }
    }

    /// The trace's phase spans: `expand[NN]` from each call's exchange,
    /// closed at the last call's end.
    fn phase_schedule(&self) -> Vec<(u32, PhaseMark)> {
        let calls = self.windows.iter().enumerate();
        calls
            .map(|(c, w)| (w.exchange, PhaseMark::Enter(format!("expand[{c:02}]"))))
            .chain(self.windows.last().map(|w| (w.end, PhaseMark::Exit)))
            .collect()
    }
}

/// Per-node protocol state. After the run, [`SkelNode::selected`] holds the
/// spanner edges this processor is responsible for (centers record their
/// supervertex's selections; aborts record locally).
#[derive(Debug, Clone)]
pub struct SkelNode {
    cfg: Arc<SkelConfig>,
    /// Index of the call currently executing.
    call: usize,
    /// Participating in the clustering (false once the supervertex died).
    alive: bool,
    /// Center of my supervertex.
    sv_center: NodeId,
    /// My parent in the supervertex (p1) tree.
    p1_parent: Option<NodeId>,
    /// My children in the p1 tree.
    p1_children: Vec<NodeId>,
    /// Center of my current cluster.
    cluster_center: NodeId,
    /// My parent in the pending (p2) tree.
    p2_parent: Option<NodeId>,
    /// Live neighbors' cluster centers, snapshot at this call's exchange.
    nbr_cluster: Vec<(NodeId, NodeId)>,
    /// Best candidate seen this call and which child supplied it
    /// (`None` = myself).
    best: Option<(Cand, Option<NodeId>)>,
    /// Last candidate forwarded to the parent.
    sent: Option<Cand>,
    /// Kill state: streaming this call.
    dying: bool,
    /// Kill entries not yet sent up, keyed by cluster.
    kill_pending: BTreeMap<NodeId, (NodeId, NodeId)>,
    /// Clusters already forwarded (suppress duplicates).
    kill_done: std::collections::BTreeSet<NodeId>,
    /// Entries collected at the center during a kill.
    center_entries: BTreeMap<NodeId, (NodeId, NodeId)>,
    /// Abort flag for this kill.
    aborted: bool,
    /// ADOPT senders collected during contraction.
    adopters: Vec<NodeId>,
    /// Spanner edges recorded by this node, as (endpoint, endpoint).
    pub selected: Vec<(NodeId, NodeId)>,
    finished: bool,
}

impl SkelNode {
    fn new(cfg: Arc<SkelConfig>, me: NodeId) -> Self {
        SkelNode {
            cfg,
            call: 0,
            alive: true,
            sv_center: me,
            p1_parent: None,
            p1_children: Vec::new(),
            cluster_center: me,
            p2_parent: None,
            nbr_cluster: Vec::new(),
            best: None,
            sent: None,
            dying: false,
            kill_pending: BTreeMap::new(),
            kill_done: std::collections::BTreeSet::new(),
            center_entries: BTreeMap::new(),
            aborted: false,
            adopters: Vec::new(),
            selected: Vec::new(),
            finished: false,
        }
    }

    fn sampled(&self, cluster: NodeId) -> bool {
        let w = &self.cfg.windows[self.call];
        self.cfg
            .sampler
            .sampled(cluster, self.call as u32, w.probability)
    }

    /// Improve the running best candidate; returns true on improvement.
    fn improve(&mut self, cand: Cand, from: Option<NodeId>) -> bool {
        match &self.best {
            Some((b, _)) if *b <= cand => false,
            _ => {
                self.best = Some((cand, from));
                true
            }
        }
    }

    /// Start dying: snapshot adjacent clusters into the kill queue.
    fn begin_kill(&mut self, me: NodeId) {
        self.alive = false;
        self.dying = true;
        for &(w, cw) in &self.nbr_cluster {
            if cw != self.cluster_center {
                let entry = self.kill_pending.entry(cw).or_insert((me, w));
                if (me, w) < *entry {
                    *entry = (me, w);
                }
            }
        }
        self.check_abort();
    }

    /// Abort check: too many distinct adjacent clusters for the budgeted
    /// kill window. Returns true when this call newly triggers the abort.
    fn check_abort(&mut self) -> bool {
        let w = &self.cfg.windows[self.call];
        let seen = self.kill_pending.len() + self.kill_done.len() + self.center_entries.len();
        if seen > w.q_cap && !self.aborted {
            self.aborted = true;
            true
        } else {
            false
        }
    }

    /// Abort fallback: keep every incident cross-cluster edge.
    fn record_all_edges(&mut self, me: NodeId) {
        let pairs: Vec<(NodeId, NodeId)> = self
            .nbr_cluster
            .iter()
            .filter(|&&(_, cw)| cw != self.cluster_center)
            .map(|&(w, _)| (me, w))
            .collect();
        self.selected.extend(pairs);
    }
}

impl Protocol for SkelNode {
    type Msg = SkelMsg;

    fn init(&mut self, _ctx: &mut Ctx<'_, SkelMsg>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, SkelMsg>, inbox: &[(NodeId, SkelMsg)]) {
        if self.finished {
            return;
        }
        let t = ctx.round();
        let me = ctx.me();
        let is_center = self.p1_parent.is_none();

        // ---- message processing -------------------------------------
        // Plan at most one tree-downward message (to all children) and at
        // most one upward message per round, so the one-message-per-
        // neighbor-per-round rule is respected by construction.
        // Priority: Abort subsumes Die (abort implies death + keep-all).
        let mut down: Option<SkelMsg> = None;
        let mut abort_up = false;
        let w = self.cfg.windows[self.call];
        // Join, Die and Abort travel only between the call's decision and
        // the end of its kill window; unfaulted, none arrives outside it.
        // One that does is stale — a stutter held it back, or it travelled
        // p1 trees that a stuttered contraction left inconsistent — and is
        // ignored, so it cannot collide with this call's own sends.
        let tree_window = w.decide < t && t <= w.kill_end;
        for (from, msg) in inbox {
            match msg {
                SkelMsg::Join(_) | SkelMsg::Die | SkelMsg::Abort if !tree_window => {}
                SkelMsg::Exchange { cluster } => {
                    if self.alive {
                        self.nbr_cluster.push((*from, *cluster));
                    }
                }
                SkelMsg::CandUp(c) => {
                    if self.alive {
                        self.improve(*c, Some(*from));
                    }
                }
                SkelMsg::Join(c) => {
                    let c = *c;
                    let (cluster, a, b) = c;
                    self.cluster_center = cluster;
                    // Re-aim p2 (Fig. 4): on-path vertices point down the
                    // remembered candidate path; everyone else copies p1.
                    let on_path = matches!(&self.best, Some((bc, _)) if *bc == c);
                    if on_path {
                        if a == me {
                            self.p2_parent = Some(b);
                        } else {
                            let (_, from_child) = self.best.as_ref().expect("on-path");
                            self.p2_parent = *from_child;
                        }
                    } else {
                        self.p2_parent = self.p1_parent;
                    }
                    down = Some(SkelMsg::Join(c));
                }
                SkelMsg::Die => {
                    self.begin_kill(me);
                    down = Some(if self.aborted {
                        SkelMsg::Abort
                    } else {
                        SkelMsg::Die
                    });
                    if self.aborted {
                        self.record_all_edges(me);
                        self.kill_pending.clear();
                        abort_up = true;
                    }
                }
                SkelMsg::KillBatch(entries) => {
                    for &(cw, a, b) in entries {
                        if self.kill_done.contains(&cw) {
                            continue;
                        }
                        let sink = if is_center {
                            &mut self.center_entries
                        } else {
                            &mut self.kill_pending
                        };
                        let e = sink.entry(cw).or_insert((a, b));
                        if (a, b) < *e {
                            *e = (a, b);
                        }
                    }
                    if self.check_abort() {
                        self.record_all_edges(me);
                        self.kill_pending.clear();
                        abort_up = true;
                        down = Some(SkelMsg::Abort);
                    }
                }
                SkelMsg::Abort => {
                    if !self.aborted {
                        self.aborted = true;
                        self.alive = false;
                        self.dying = true;
                        self.record_all_edges(me);
                        self.kill_pending.clear();
                        abort_up = true;
                        down = Some(SkelMsg::Abort);
                    }
                }
                SkelMsg::Adopt => {
                    self.adopters.push(*from);
                }
            }
        }
        if let Some(msg) = down {
            for i in 0..self.p1_children.len() {
                let ch = self.p1_children[i];
                ctx.send(ch, msg.clone());
            }
        }
        if abort_up {
            if let Some(p) = self.p1_parent {
                ctx.send(p, SkelMsg::Abort);
            }
        }

        // ---- timetable-driven actions -------------------------------
        if t == w.exchange && self.alive {
            // Reset per-call scratch, then broadcast the cluster id.
            self.nbr_cluster.clear();
            self.best = None;
            self.sent = None;
            self.kill_pending.clear();
            self.kill_done.clear();
            self.center_entries.clear();
            self.aborted = false;
            ctx.broadcast(SkelMsg::Exchange {
                cluster: self.cluster_center,
            });
        }

        if t == w.cand_start && self.alive && !self.sampled(self.cluster_center) {
            // Local candidates: my edges into sampled foreign clusters.
            let mut local: Option<Cand> = None;
            for &(nbr, cw) in &self.nbr_cluster {
                if cw != self.cluster_center && self.sampled(cw) {
                    let c = (cw, me, nbr);
                    if local.is_none_or(|l| c < l) {
                        local = Some(c);
                    }
                }
            }
            if let Some(c) = local {
                self.improve(c, None);
            }
        }

        // Candidate forwarding (up window): forward improvements.
        if t >= w.cand_start && t < w.decide && self.alive {
            if let Some((c, _)) = &self.best {
                if self.sent != Some(*c) {
                    if let Some(p) = self.p1_parent {
                        ctx.send(p, SkelMsg::CandUp(*c));
                    }
                    self.sent = Some(*c);
                }
            }
        }

        // Center decision.
        if t == w.decide
            && self.alive
            && is_center
            && self.sv_center == me
            && !self.sampled(self.cluster_center)
        {
            match self.best {
                Some((c @ (cluster, a, b), from)) => {
                    self.selected.push((a, b));
                    self.cluster_center = cluster;
                    self.p2_parent = if a == me { Some(b) } else { from };
                    for i in 0..self.p1_children.len() {
                        let ch = self.p1_children[i];
                        ctx.send(ch, SkelMsg::Join(c));
                    }
                }
                None => {
                    self.begin_kill(me);
                    // The center's own entries go straight to the
                    // collection map (they need no transport).
                    let own = std::mem::take(&mut self.kill_pending);
                    self.center_entries.extend(own);
                    let msg = if self.aborted {
                        self.record_all_edges(me);
                        self.center_entries.clear();
                        SkelMsg::Abort
                    } else {
                        SkelMsg::Die
                    };
                    for i in 0..self.p1_children.len() {
                        let ch = self.p1_children[i];
                        ctx.send(ch, msg.clone());
                    }
                }
            }
        }

        // Kill streaming: one batch per round toward the parent.
        if self.dying && !self.aborted && t > w.decide && t < w.kill_end && !is_center {
            if let Some(p) = self.p1_parent {
                if !self.kill_pending.is_empty() {
                    let mut batch = Vec::with_capacity(self.cfg.batch);
                    let keys: Vec<NodeId> = self
                        .kill_pending
                        .keys()
                        .take(self.cfg.batch)
                        .copied()
                        .collect();
                    for k in keys {
                        let (a, b) = self.kill_pending.remove(&k).expect("key present");
                        self.kill_done.insert(k);
                        batch.push((k, a, b));
                    }
                    ctx.send(p, SkelMsg::KillBatch(batch));
                }
            }
        }

        // End of the kill window: centers record the selected edges, and
        // everyone stops streaming.
        if self.dying && t == w.kill_end {
            if is_center && self.sv_center == me && !self.aborted {
                for (&_c, &(a, b)) in &self.center_entries {
                    self.selected.push((a, b));
                }
            }
            self.center_entries.clear();
            self.dying = false;
        }

        // Contraction.
        if w.contract_after {
            if t == w.kill_end && self.alive {
                self.adopters.clear();
                if let Some(p) = self.p2_parent {
                    ctx.send(p, SkelMsg::Adopt);
                }
            }
            if t == w.end && self.alive {
                self.p1_parent = self.p2_parent;
                self.p1_children = std::mem::take(&mut self.adopters);
                // A duplicated `Adopt` lists its sender twice; unfaulted,
                // the adopters arrive in one sender-sorted inbox.
                self.p1_children.sort_unstable();
                self.p1_children.dedup();
                self.sv_center = self.cluster_center;
                self.best = None;
                self.sent = None;
            }
        }

        // Advance to the next call / finish.
        if t >= w.end {
            if self.call + 1 < self.cfg.windows.len() {
                self.call += 1;
            } else {
                self.finished = true;
            }
        }
    }

    /// The timetable's next action round. With an empty inbox, `round`
    /// acts only in the current window's boundary rounds and in rounds
    /// where a kill batch or an unforwarded candidate waits to go up, and
    /// never once finished; every other round is a no-op.
    fn next_wake(&self, t: u32) -> u32 {
        if self.finished {
            return u32::MAX;
        }
        let w = &self.cfg.windows[self.call];
        let next = t + 1;
        let streaming = self.dying
            && !self.aborted
            && self.p1_parent.is_some()
            && !self.kill_pending.is_empty()
            && w.decide < next
            && next < w.kill_end;
        // A candidate that arrived at or after `decide` stays unforwarded
        // until the next exchange resets it. A node that a stutter kept
        // from that exchange would forward it in the next forwarding
        // window, so it must wake there as an every-round run would.
        let forwarding = self.alive
            && matches!(&self.best, Some((c, _)) if self.sent != Some(*c))
            && w.cand_start <= next
            && next < w.decide;
        if streaming || forwarding {
            return next;
        }
        [w.exchange, w.cand_start, w.decide, w.kill_end, w.end]
            .into_iter()
            .find(|&b| b > t)
            .unwrap_or(next)
    }

    fn done(&self) -> bool {
        self.finished
    }
}

/// The message budget of Theorem 2 with the constant made explicit:
/// `3·⌈log^ε n⌉ + 8` words (three words encode one (cluster, edge) entry).
pub fn theorem2_budget(n: usize, eps: f64) -> MessageBudget {
    let w = (n.max(2) as f64).log2().powf(eps).ceil() as usize;
    MessageBudget::Words(3 * w.max(1) + 8)
}

/// Runs the distributed skeleton protocol of Theorem 2 on `executor`,
/// over a shared CSR adjacency, streaming round-level
/// [`TraceEvent`](spanner_netsim::TraceEvent)s into `sink`; each `Expand`
/// call appears as an `expand[..]` phase span.
///
/// Returns the spanner (collected from per-node selections) with the run's
/// communication metrics attached. Edge identifiers are recovered through
/// [`CsrAdjacency::edge_index`], which reproduces the lexicographic
/// edge-id order of [`Graph::from_edges`](spanner_graph::Graph::from_edges).
/// The spanner, the protocol-level metrics and the trace stream are the
/// same on every executor (asserted in `tests/executor_matrix.rs`); the
/// asynchronous executor adds its event, synchronizer and simulated-time
/// counters. Passing a previously built
/// spanner as [`Synchronizer::Skeleton`](spanner_netsim::Synchronizer)
/// edges reproduces the Bitton et al. message-reduction transformation.
///
/// Without `faults` no [`Graph`](spanner_graph::Graph) is ever
/// materialized and the output is not checked. Under a fault plan
/// (round-synchronous executors only) the driver never panics and never
/// returns an unchecked spanner: the output is certified against the
/// fault-free host graph (spanning plus the schedule's distortion bound,
/// checked exactly) by [`certify`](crate::faults::certify).
///
/// # Errors
///
/// [`BuildError::Run`] when the simulated run fails — without faults a
/// round-limit or budget violation would indicate a bug in the timetable,
/// and is asserted against in tests; [`BuildError::Uncertified`] when a
/// faulted run's output is not a certified skeleton.
pub fn build_distributed(
    csr: &Arc<CsrAdjacency>,
    params: &SkeletonParams,
    seed: u64,
    executor: &Executor,
    faults: Option<&FaultPlan>,
    sink: &mut dyn TraceSink,
) -> Result<Spanner, BuildError> {
    let built = run(csr, params, seed, executor, faults, sink);
    crate::faults::certify(csr, faults, built, |g, s| {
        let bound = params.schedule(g.node_count()).distortion_bound as f64;
        let bound = StretchBound::multiplicative(bound);
        verify_stretch(g, &s.edges, Pairs::All, 1, |d, ds| bound.allows(d, ds))
            .map_err(|v| v.to_string())
    })
}

/// The unfaulted driver on the sequential executor, untraced — the
/// construction path the million-node experiment tiers use.
///
/// # Errors
///
/// Propagates simulator failures, as [`build_distributed`] does.
pub fn build_distributed_csr(
    csr: &Arc<CsrAdjacency>,
    params: &SkeletonParams,
    seed: u64,
) -> Result<Spanner, RunError> {
    run(
        csr,
        params,
        seed,
        &Executor::Sequential,
        None,
        &mut NullSink,
    )
    .0
}

/// The unfaulted driver on the sequential executor, traced into `sink`.
///
/// # Errors
///
/// Propagates simulator failures, as [`build_distributed`] does.
pub fn build_distributed_csr_traced(
    csr: &Arc<CsrAdjacency>,
    params: &SkeletonParams,
    seed: u64,
    sink: &mut dyn TraceSink,
) -> Result<Spanner, RunError> {
    run(csr, params, seed, &Executor::Sequential, None, sink).0
}

/// The unfaulted driver on `threads` worker threads, untraced.
///
/// # Errors
///
/// Propagates simulator failures, as [`build_distributed`] does.
pub fn build_distributed_csr_parallel(
    csr: &Arc<CsrAdjacency>,
    params: &SkeletonParams,
    seed: u64,
    threads: usize,
) -> Result<Spanner, RunError> {
    let executor = Executor::Parallel { threads };
    run(csr, params, seed, &executor, None, &mut NullSink).0
}

/// The one driver body: configure, run on `executor`, collect.
fn run(
    csr: &Arc<CsrAdjacency>,
    params: &SkeletonParams,
    seed: u64,
    executor: &Executor,
    faults: Option<&FaultPlan>,
    sink: &mut dyn TraceSink,
) -> (Result<Spanner, RunError>, RunMetrics) {
    let n = csr.node_count();
    if n == 0 {
        let empty = Spanner::from_edges(EdgeSet::with_universe(0));
        return (Ok(empty), RunMetrics::default());
    }
    let schedule = params.schedule(n);
    let budget = theorem2_budget(n, params.eps);
    let words = budget.limit().expect("theorem2 budget is bounded");
    let cfg = Arc::new(SkelConfig::build(&schedule, n, seed, words));
    let max_rounds = cfg.total_rounds + 8;
    let factory = |v, _: &mut _| SkelNode::new(Arc::clone(&cfg), v);
    let mut sink = ScheduledSink::new(sink, || cfg.phase_schedule());
    let (states, metrics) = execute(
        executor, faults, csr, budget, seed, factory, max_rounds, &mut sink,
    );
    let collect = |states: Vec<SkelNode>| {
        let selected = states.iter().flat_map(|st| st.selected.iter().copied());
        Spanner::from_selected(csr, selected, metrics)
    };
    (states.map(collect), metrics)
}

/// Number of simulator rounds the timetable occupies for an n-node input —
/// the deterministic round bound the protocol runs to (used by E3).
pub fn timetable_rounds(n: usize, params: &SkeletonParams) -> u32 {
    let schedule = params.schedule(n.max(2));
    let budget = theorem2_budget(n.max(2), params.eps);
    SkelConfig::build(&schedule, n.max(2), 0, budget.limit().expect("bounded")).total_rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Pairs;
    use spanner_graph::{generators, Graph};

    fn build(g: &Graph, params: &SkeletonParams, seed: u64) -> Result<Spanner, RunError> {
        build_distributed_csr(g.csr(), params, seed)
    }

    #[test]
    fn distributed_is_spanning() {
        let params = SkeletonParams::default();
        for seed in 0..3 {
            let g = generators::connected_gnm(300, 1_800, seed);
            let s = build(&g, &params, seed + 50).expect("run succeeds");
            assert!(s.is_spanning(&g), "seed {seed}");
        }
    }

    #[test]
    fn distributed_linear_size() {
        let params = SkeletonParams::default();
        let g = generators::connected_gnm(2_000, 20_000, 7);
        let s = build(&g, &params, 3).unwrap();
        assert!(s.is_spanning(&g));
        let per_node = s.edges_per_node(&g);
        assert!(
            per_node < 7.0,
            "distributed skeleton size {per_node:.2}/node"
        );
    }

    #[test]
    fn distributed_stretch_within_bound() {
        let params = SkeletonParams::default();
        let g = generators::connected_gnm(400, 2_400, 11);
        let s = build(&g, &params, 5).unwrap();
        let bound = params.schedule(g.node_count()).distortion_bound as f64;
        let r = s.stretch(&g, Pairs::All, 1);
        assert_eq!(r.disconnected, 0);
        assert!(
            r.max_multiplicative <= bound,
            "stretch {} > certified {bound}",
            r.max_multiplicative
        );
    }

    #[test]
    fn rounds_match_timetable_and_budget_respected() {
        let params = SkeletonParams::default();
        let g = generators::connected_gnm(500, 3_000, 13);
        let s = build(&g, &params, 9).unwrap();
        let m = s.metrics.expect("distributed metrics");
        let planned = timetable_rounds(500, &params);
        assert!(m.rounds <= planned + 8, "{} vs {planned}", m.rounds);
        let cap = theorem2_budget(500, params.eps).limit().unwrap();
        assert!(m.max_message_words <= cap);
    }

    #[test]
    fn size_comparable_to_sequential() {
        let params = SkeletonParams::default();
        let g = generators::connected_gnm(1_000, 8_000, 21);
        let seq = crate::skeleton::build_sequential(&g, &params, 4);
        let dist = build(&g, &params, 4).unwrap();
        // Different tie-breaking, same algorithm: sizes in the same range.
        let (a, b) = (seq.len() as f64, dist.len() as f64);
        assert!(
            (a - b).abs() < 0.5 * a.max(b),
            "seq {a} vs dist {b} diverge"
        );
    }

    #[test]
    fn works_on_structured_graphs() {
        let params = SkeletonParams::default();
        for g in [
            generators::grid(15, 15),
            generators::cycle(150),
            generators::caveman(10, 12, 6, 3),
        ] {
            let s = build(&g, &params, 2).unwrap();
            assert!(s.is_spanning(&g));
        }
    }

    #[test]
    fn empty_and_single() {
        let params = SkeletonParams::default();
        let s = build(&spanner_graph::Graph::empty(0), &params, 1).unwrap();
        assert!(s.is_empty());
        let g1 = spanner_graph::Graph::empty(1);
        let s1 = build(&g1, &params, 1).unwrap();
        assert!(s1.is_spanning(&g1));
    }

    #[test]
    fn deterministic() {
        let params = SkeletonParams::default();
        let g = generators::connected_gnm(200, 1_000, 17);
        let a = build(&g, &params, 5).unwrap();
        let b = build(&g, &params, 5).unwrap();
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn timetable_rounds_grow_slowly() {
        let params = SkeletonParams::default();
        let r1 = timetable_rounds(1_000, &params);
        let r2 = timetable_rounds(100_000, &params);
        // O(eps^-1 2^{log*} log n) with our constant-factor inflation: the
        // growth from 1k to 100k nodes is modest.
        assert!(r2 < 8 * r1, "rounds {r1} -> {r2}");
    }

    /// Acceptance check for the tracing subsystem: on an Erdős–Rényi input
    /// the per-phase round totals of the trace sum exactly to the run's
    /// `RunMetrics::rounds`, every `Expand` call appears as its own span,
    /// and the traced spanner is the untraced one.
    #[test]
    fn traced_run_accounts_every_round() {
        let params = SkeletonParams::default();
        let g = generators::erdos_renyi_gnm(10_000, 30_000, 3);
        let mut summary = spanner_netsim::TraceSummary::new();
        let csr = g.csr();
        let s = build_distributed_csr_traced(csr, &params, 7, &mut summary).unwrap();
        let m = s.metrics.expect("distributed metrics");
        assert!(m.agrees_with(&summary), "{m} vs trace totals");
        let phase_rounds: u32 = summary.phases().iter().map(|p| p.rounds).sum::<u32>()
            + summary.untracked().map_or(0, |p| p.rounds);
        assert_eq!(phase_rounds, m.rounds);
        let expands = summary
            .phases()
            .iter()
            .filter(|p| p.name.starts_with("expand["))
            .count();
        assert_eq!(expands, params.schedule(g.node_count()).calls.len());
        assert!(summary.is_complete());
        // Tracing must not perturb the run itself.
        let untraced = build_distributed_csr(csr, &params, 7).unwrap();
        assert_eq!(s.edges, untraced.edges);
        assert_eq!(s.metrics, untraced.metrics);
    }

    /// [`SkelNode`] with the default `next_wake`: run in every round, as
    /// an executor that ignores wake hints runs it.
    #[derive(Debug)]
    struct Awake(SkelNode);

    impl Protocol for Awake {
        type Msg = SkelMsg;

        fn init(&mut self, ctx: &mut Ctx<'_, SkelMsg>) {
            self.0.init(ctx);
        }

        fn round(&mut self, ctx: &mut Ctx<'_, SkelMsg>, inbox: &[(NodeId, SkelMsg)]) {
            self.0.round(ctx, inbox);
        }

        fn done(&self) -> bool {
            self.0.done()
        }
    }

    /// Runs the skeleton with its wake hints and inside [`Awake`] on the
    /// sequential executor, traced, and asserts identical per-node
    /// selections (or errors), metrics with fault counters, and JSONL
    /// bytes. Returns the metrics.
    fn assert_wake_invisible(g: &Graph, seed: u64, plan: Option<&FaultPlan>) -> RunMetrics {
        use spanner_netsim::JsonLinesSink;
        let csr = g.csr();
        let params = SkeletonParams::default();
        let n = g.node_count();
        let budget = theorem2_budget(n, params.eps);
        let words = budget.limit().expect("bounded");
        let cfg = Arc::new(SkelConfig::build(&params.schedule(n), n, seed, words));
        let max_rounds = cfg.total_rounds + 8;
        let node = |v| SkelNode::new(Arc::clone(&cfg), v);

        let mut sink = JsonLinesSink::new(Vec::new());
        let factory = |v, _: &mut _| node(v);
        let (hinted, h_metrics) = execute(
            &Executor::Sequential,
            plan,
            csr,
            budget,
            seed,
            factory,
            max_rounds,
            &mut sink,
        );
        let h_bytes = sink.finish().expect("in-memory sink");
        let mut sink = JsonLinesSink::new(Vec::new());
        let factory = |v, _: &mut _| Awake(node(v));
        let (awake, a_metrics) = execute(
            &Executor::Sequential,
            plan,
            csr,
            budget,
            seed,
            factory,
            max_rounds,
            &mut sink,
        );
        let a_bytes = sink.finish().expect("in-memory sink");

        let hinted = hinted.map(|s| s.into_iter().map(|p| p.selected).collect::<Vec<_>>());
        let awake = awake.map(|s| s.into_iter().map(|p| p.0.selected).collect::<Vec<_>>());
        assert_eq!(hinted, awake, "selections, {plan:?}");
        assert_eq!(h_metrics, a_metrics, "{plan:?}");
        assert!(h_bytes == a_bytes, "JSONL traces differ, {plan:?}");
        h_metrics
    }

    /// The wake hints skip only no-op rounds, with and without faults: a
    /// drop/delay/crash/stutter plan knocks nodes off the timetable, and a
    /// node that a stutter kept from its wake round must then act as an
    /// every-round run would.
    #[test]
    fn wake_hints_do_not_change_runs() {
        let mut graphs: Vec<Graph> = (0..3)
            .map(|s| generators::connected_gnm(300, 1_500, s))
            .collect();
        graphs.push(generators::grid(12, 12));
        graphs.push(generators::caveman(8, 10, 5, 2));
        graphs.push(generators::star(40));
        let mut killed = false;
        for (i, g) in graphs.iter().enumerate() {
            let seed = 31 + i as u64;
            let m = assert_wake_invisible(g, seed, None);
            // Only a KillBatch carries more than 3 words.
            killed |= m.max_message_words > 3;
            let plan = FaultPlan::new(seed)
                .with_drops(0.02)
                .with_delays(0.05, 3)
                .with_stutters(0.05)
                .with_crash(NodeId(3), 40);
            let m = assert_wake_invisible(g, seed, Some(&plan));
            assert!(m.faults.stutters > 0 && m.faults.dropped > 0, "{m}");
        }
        assert!(killed, "no input reached the kill phase");
    }

    /// A duplicated `Adopt` must not make its sender a child twice, which
    /// would have the parent send it two messages in one round.
    #[test]
    fn duplicate_faults_still_certify() {
        for seed in 0..32u64 {
            let g = generators::connected_gnm(200 + 5 * seed as usize, 1_000, seed);
            let plan = FaultPlan::new(seed).with_duplicates(0.1).with_drops(0.02);
            let params = SkeletonParams::default();
            let exec = Executor::Sequential;
            let built =
                build_distributed(g.csr(), &params, seed, &exec, Some(&plan), &mut NullSink);
            let m = match built {
                Ok(s) => s.metrics.expect("metrics"),
                Err(e) => panic!("seed {seed}: {e}"),
            };
            assert!(m.faults.duplicated > 0, "seed {seed}: {m}");
        }
    }

    /// A stutter can hold a `Join`, `Die` or `Abort` past its call's kill
    /// window, or leave p1 trees inconsistent so that a `Join` keeps
    /// travelling; acted on in a later call, it was sent down in the same
    /// round as that call's exchange broadcast and the run panicked. Every
    /// stutter run must now certify or fail with a typed error.
    #[test]
    fn stutter_faults_certify_or_fail_typed() {
        let params = SkeletonParams::default();
        let mut certified = 0;
        for seed in 0..16u64 {
            for degree in [4, 8] {
                let n = 300 + 10 * seed as usize;
                let g = generators::connected_gnm(n, degree * n / 2, seed);
                let plan = FaultPlan::new(seed).with_stutters(0.05);
                let exec = Executor::Sequential;
                match build_distributed(g.csr(), &params, seed, &exec, Some(&plan), &mut NullSink) {
                    Ok(_) => certified += 1,
                    Err(BuildError::Uncertified { reason, .. }) => assert!(
                        !reason.contains("panicked"),
                        "seed {seed}, degree {degree}: {reason}"
                    ),
                    Err(BuildError::Run { error, .. }) => assert!(
                        !matches!(error, RunError::Panicked(_)),
                        "seed {seed}, degree {degree}: {error}"
                    ),
                }
            }
        }
        assert!(certified > 0, "no stutter run certified");
    }

    /// Under heavy stutters a node can miss an exchange reset and carry an
    /// unforwarded candidate into the next forwarding window; its wake
    /// hint must then wake it there (this input sends one `CandUp` more
    /// than a hint that only follows window boundaries would).
    #[test]
    fn wake_hints_forward_a_candidate_carried_past_a_stutter() {
        let g = generators::connected_gnm(60, 200, 116);
        let plan = FaultPlan::new(116).with_delays(0.3, 6).with_stutters(0.4);
        assert_wake_invisible(&g, 116, Some(&plan));
    }
}
