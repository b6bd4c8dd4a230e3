//! Distributed Fibonacci spanner construction (Sect. 4.4).
//!
//! The spanner "is composed of a collection of shortest paths that is
//! determined solely by the initial random sampling", so the protocol is a
//! sequence of bounded floods per level i = 1…o, on a globally known
//! timetable:
//!
//! 1. **Parent stage** (radius ℓ^{i−1}): the level-i vertices flood
//!    (distance, min-id) waves; each vertex then knows `p_i(v)` and its
//!    min-id shortest-path parent, and records the parent edge when
//!    `δ(v, V_i) ≤ ℓ^{i−1}` — with unit-size (2-word) messages, exactly
//!    the paper's first stage.
//! 2. **Truncation stage**: the same flood for V_{i+1} at radius ℓ^i + 1
//!    gives each vertex `δ(v, V_{i+1})` where it matters.
//! 3. **Ball stage** (radius ℓ^i): every `y ∈ V_i` broadcasts its
//!    identity; each vertex forwards the *newly learned* ids each round.
//!    If the forward list exceeds the O(n^{1/t})-word budget the vertex
//!    **ceases** participation, recording the step k at which it stopped.
//! 4. **Las Vegas repair**: ceased vertices flood the value k; a min-plus
//!    flood gives every `x ∈ V_{i−1}` the value `min_z(δ(x,z) + k_z)`; if
//!    it undercuts `δ(x, V_{i+1})` the protocol may have missed a ball
//!    member, and x floods a *failure* wave of radius ℓ^i commanding all
//!    recipients to keep every incident edge (the paper's error-detection
//!    mechanism, increasing the expected size by O(1/n)).
//! 5. **Path stage**: every `x ∈ V_{i−1}` computes
//!    `B_{i+1,ℓ}(x)` locally from the ball stage and sends one *token* per
//!    ball member back along the first-heard-from pointers; tokens
//!    deduplicate per target and batch per edge under the same word
//!    budget, and every forwarded token marks the traversed edge as a
//!    spanner edge. The union of token trails is exactly
//!    `∪ P(x, y)` for the required pairs.
//!
//! With an unbounded budget (t = 0) no vertex ever ceases and the
//! construction provably selects the *same edge set* as the sequential
//! implementation (both resolve ties by minimum id); the tests check that
//! equality, which is the strongest cross-validation we have.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spanner_graph::{verify_stretch, CsrAdjacency, EdgeSet, NodeId, Pairs};
use spanner_netsim::{
    execute, Ctx, Executor, FaultPlan, MessageBudget, MessageSize, PhaseMark, Protocol, RunError,
    RunMetrics, ScheduledSink, TraceSink,
};

use crate::faults::BuildError;
use crate::fibonacci::analysis::within_envelope;
use crate::fibonacci::params::FibonacciParams;
use crate::fibonacci::sequential::sample_levels_n;
use crate::spanner::Spanner;

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FibMsg {
    /// (distance, source) wave for the parent/truncation stages.
    Near {
        /// Hop distance from the wave's origin.
        dist: u32,
        /// The level-i vertex the wave originated at.
        src: NodeId,
    },
    /// Newly learned level-i identities (ball stage).
    Ids(Vec<NodeId>),
    /// Min-plus cease-potential wave.
    Cease(u32),
    /// Failure wave with remaining TTL.
    Fail(u32),
    /// Path tokens: targets whose shortest-path trail passes this edge.
    Tokens(Vec<NodeId>),
}

impl MessageSize for FibMsg {
    fn words(&self) -> usize {
        match self {
            FibMsg::Near { .. } => 2,
            FibMsg::Ids(v) | FibMsg::Tokens(v) => 1 + v.len(),
            FibMsg::Cease(_) | FibMsg::Fail(_) => 1,
        }
    }
}

/// Timetable of one level.
#[derive(Debug, Clone, Copy)]
struct LevelWindows {
    /// Parent flood [start, end): Near waves for V_i, radius ℓ^{i−1}.
    parent: (u32, u32),
    /// Truncation flood [start, end): Near waves for V_{i+1}.
    trunc: (u32, u32),
    /// Ball id flood [start, end).
    ball: (u32, u32),
    /// Cease-potential flood [start, end).
    cease: (u32, u32),
    /// Failure flood [start, end).
    fail: (u32, u32),
    /// Token routing [start, end).
    tokens: (u32, u32),
    /// Ball radius ℓ^i.
    radius: u32,
    /// Parent radius ℓ^{i−1}.
    parent_radius: u32,
}

#[derive(Debug)]
struct FibConfig {
    params: FibonacciParams,
    levels: Vec<LevelWindows>,
    /// Ids per Ids/Tokens message.
    batch: usize,
    total_rounds: u32,
}

impl FibConfig {
    /// Builds the timetable. `diam_cap` is a certified upper bound on the
    /// graph diameter: a wave of radius min(ℓ^i, diam_cap) reaches exactly
    /// the same vertices as one of radius ℓ^i, so capping the flood
    /// windows is semantically neutral — it only removes guaranteed-idle
    /// rounds. (A real deployment obtains such a bound with one BFS echo
    /// in O(diameter) rounds before the construction starts.)
    fn build(params: &FibonacciParams, n: usize, budget: MessageBudget, diam_cap: u32) -> Self {
        let batch = match budget.limit() {
            None => usize::MAX,
            Some(w) => w.saturating_sub(1).max(1),
        };
        let ln_n = (n.max(2) as f64).ln();
        let cap = u64::from(diam_cap.max(2));
        let mut t = 1u32;
        let mut levels = Vec::new();
        for i in 1..=params.order {
            let r = params.ball_radius(i).min(cap) as u32;
            let pr = params.ball_radius(i - 1).min(cap) as u32;
            // Expected ball content: 4·(q_i/q_{i+1})·ln n (the paper's
            // message-length bound); drives the token-drain window.
            let q_ratio =
                params.level_probability(i) / params.level_probability(i + 1).max(1.0 / n as f64);
            let expected_ball = (4.0 * q_ratio * ln_n).ceil() as usize + 1;
            let drain = if batch == usize::MAX {
                1
            } else {
                expected_ball.div_ceil(batch) as u32 + 2
            };
            let parent = (t, t + pr + 3);
            let trunc = (parent.1, parent.1 + r + 4);
            let ball = (trunc.1, trunc.1 + r + 3 + drain);
            let cease = (ball.1, ball.1 + r + 3);
            let fail = (cease.1, cease.1 + r + 3);
            let tokens = (fail.1, fail.1 + r + 3 + 2 * drain);
            levels.push(LevelWindows {
                parent,
                trunc,
                ball,
                cease,
                fail,
                tokens,
                radius: r,
                parent_radius: pr,
            });
            t = tokens.1 + 1;
        }
        FibConfig {
            params: params.clone(),
            levels,
            batch,
            total_rounds: t + 2,
        }
    }

    /// The trace's phase spans: `L<i>.<stage>` from each stage window's
    /// start, closed in the round the nodes finish.
    fn phase_schedule(&self) -> Vec<(u32, PhaseMark)> {
        let names = ["parent", "trunc", "ball", "cease", "fail", "tokens"];
        let spans = self.levels.iter().enumerate().flat_map(|(stage, w)| {
            let starts = [
                w.parent.0, w.trunc.0, w.ball.0, w.cease.0, w.fail.0, w.tokens.0,
            ];
            let level = format!("L{}", stage + 1);
            (starts.into_iter().zip(names))
                .map(move |(at, name)| (at, PhaseMark::Enter(format!("{level}.{name}"))))
        });
        let end = self
            .levels
            .last()
            .map(|w| (w.tokens.1 + 1, PhaseMark::Exit));
        spans.chain(end).collect()
    }
}

/// Per-node state.
#[derive(Debug, Clone)]
pub struct FibNode {
    cfg: Arc<FibConfig>,
    /// My sampled level.
    level: u32,
    /// Level currently being processed (1-based index into windows).
    stage: usize,
    /// Latest Near report per neighbor (parent stage).
    nbr_near: BTreeMap<NodeId, (u32, NodeId)>,
    /// My own best (dist, src) for the parent stage, and what I last sent.
    near_best: Option<(u32, NodeId)>,
    near_sent: Option<(u32, NodeId)>,
    /// Truncation-stage equivalents.
    trunc_best: Option<(u32, NodeId)>,
    trunc_sent: Option<(u32, NodeId)>,
    /// Ball stage: known level-i vertices → (distance, first-hop).
    known: BTreeMap<NodeId, (u32, NodeId)>,
    /// Ids learned this round, to forward next round.
    fresh: Vec<NodeId>,
    /// Step (within the ball window) at which this vertex ceased, if any.
    ceased: Option<u32>,
    /// Min-plus cease potential.
    cease_pot: u32,
    cease_sent: Option<u32>,
    /// Failure TTL to propagate.
    fail_ttl: Option<u32>,
    fail_sent: Option<u32>,
    /// Keep-all flag set by the repair mechanism.
    include_all: bool,
    /// Token queue per next-hop.
    token_queue: BTreeMap<NodeId, Vec<NodeId>>,
    /// Targets already forwarded.
    token_seen: BTreeSet<NodeId>,
    /// Selected spanner edges (undirected, deduplicated).
    pub selected: BTreeSet<(NodeId, NodeId)>,
    /// Truncation distance δ(v, V_{i+1}) per the just-finished stage.
    trunc_dist: u32,
    finished: bool,
}

impl FibNode {
    fn new(cfg: Arc<FibConfig>, level: u32) -> Self {
        FibNode {
            cfg,
            level,
            stage: 0,
            nbr_near: BTreeMap::new(),
            near_best: None,
            near_sent: None,
            trunc_best: None,
            trunc_sent: None,
            known: BTreeMap::new(),
            fresh: Vec::new(),
            ceased: None,
            cease_pot: u32::MAX,
            cease_sent: None,
            fail_ttl: None,
            fail_sent: None,
            include_all: false,
            token_queue: BTreeMap::new(),
            token_seen: BTreeSet::new(),
            selected: BTreeSet::new(),
            trunc_dist: u32::MAX,
            finished: false,
        }
    }

    fn edge(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (a.min(b), a.max(b))
    }
}

impl Protocol for FibNode {
    type Msg = FibMsg;

    fn init(&mut self, _ctx: &mut Ctx<'_, FibMsg>) {}

    #[allow(clippy::too_many_lines)]
    fn round(&mut self, ctx: &mut Ctx<'_, FibMsg>, inbox: &[(NodeId, FibMsg)]) {
        if self.finished {
            return;
        }
        let t = ctx.round();
        let me = ctx.me();
        // Advance to the level whose windows contain this round: level
        // i + 1's parent window opens the round after level i's tokens.
        while t > self.cfg.levels[self.stage].tokens.1 && self.stage + 1 < self.cfg.levels.len() {
            self.stage += 1;
        }
        let i = (self.stage + 1) as u32; // paper's level index
        let w = self.cfg.levels[self.stage];

        // ---- message processing --------------------------------------
        let in_parent = t >= w.parent.0 && t <= w.parent.1;
        let in_trunc = t >= w.trunc.0 && t <= w.trunc.1;
        for (from, msg) in inbox {
            match msg {
                FibMsg::Near { dist, src } => {
                    if in_parent {
                        // Latest report per neighbor (it only improves).
                        self.nbr_near.insert(*from, (*dist, *src));
                        let cand = (*dist + 1, *src);
                        if *dist < w.parent_radius && self.near_best.is_none_or(|b| cand < b) {
                            self.near_best = Some(cand);
                        }
                    } else if in_trunc {
                        let cand = (*dist + 1, *src);
                        if *dist <= w.radius && self.trunc_best.is_none_or(|b| cand < b) {
                            self.trunc_best = Some(cand);
                        }
                    }
                }
                FibMsg::Ids(ids) => {
                    if self.ceased.is_none() {
                        let d = t - w.ball.0;
                        for &y in ids {
                            self.known.entry(y).or_insert_with(|| {
                                self.fresh.push(y);
                                (d, *from)
                            });
                        }
                    }
                }
                FibMsg::Cease(p) => {
                    let cand = p.saturating_add(1);
                    if cand < self.cease_pot {
                        self.cease_pot = cand;
                    }
                }
                FibMsg::Fail(ttl) => {
                    if !self.include_all {
                        self.include_all = true;
                        for &nb in ctx.neighbors() {
                            self.selected.insert(Self::edge(me, nb));
                        }
                    }
                    if *ttl > 0 && self.fail_ttl.is_none_or(|f| *ttl > f) {
                        self.fail_ttl = Some(*ttl);
                    }
                }
                FibMsg::Tokens(ys) => {
                    for &y in ys {
                        if y == me || self.token_seen.contains(&y) {
                            continue;
                        }
                        if let Some(&(_, hop)) = self.known.get(&y) {
                            self.token_seen.insert(y);
                            self.token_queue.entry(hop).or_default().push(y);
                        }
                    }
                }
            }
        }

        // ---- stage actions --------------------------------------------
        // Parent stage: sources seed themselves at the start; everyone
        // rebroadcasts improvements; at the end, mark the parent edge.
        if t == w.parent.0 {
            self.nbr_near.clear();
            self.near_best = if self.level >= i { Some((0, me)) } else { None };
            self.near_sent = None;
        }
        if t >= w.parent.0 && t < w.parent.1 {
            if let Some(b) = self.near_best {
                if self.near_sent != Some(b) && b.0 < w.parent_radius {
                    ctx.broadcast(FibMsg::Near {
                        dist: b.0,
                        src: b.1,
                    });
                    self.near_sent = Some(b);
                }
            }
        }
        if t == w.parent.1 {
            // Mark P(v, p_i(v)) when 1 ≤ δ(v, V_i) ≤ ℓ^{i−1}: one edge to
            // the min-id neighbor reporting (d−1, same source).
            if let Some((d, src)) = self.near_best {
                if d >= 1 && d as u64 <= self.cfg.params.ball_radius(i - 1) {
                    let parent = self
                        .nbr_near
                        .iter()
                        .filter(|(_, &(nd, ns))| nd == d - 1 && ns == src)
                        .map(|(&w2, _)| w2)
                        .min();
                    if let Some(p) = parent {
                        self.selected.insert(Self::edge(me, p));
                    }
                }
            }
            // Level-0 term of the spanner, evaluated once (at i = 1):
            // keep all incident edges iff δ(v, V_1) ≥ 2.
            if i == 1 {
                let d1 = self.near_best.map_or(u32::MAX, |(d, _)| d);
                if d1 >= 2 {
                    for &nb in ctx.neighbors() {
                        self.selected.insert(Self::edge(me, nb));
                    }
                }
            }
        }

        // Truncation stage: flood for V_{i+1}.
        if t == w.trunc.0 {
            self.trunc_best = if self.level > i { Some((0, me)) } else { None };
            self.trunc_sent = None;
        }
        if t >= w.trunc.0 && t < w.trunc.1 {
            if let Some(b) = self.trunc_best {
                if self.trunc_sent != Some(b) && b.0 <= w.radius {
                    ctx.broadcast(FibMsg::Near {
                        dist: b.0,
                        src: b.1,
                    });
                    self.trunc_sent = Some(b);
                }
            }
        }
        if t == w.trunc.1 {
            self.trunc_dist = self.trunc_best.map_or(u32::MAX, |(d, _)| d);
        }

        // Ball stage.
        if t == w.ball.0 {
            self.known.clear();
            self.fresh.clear();
            self.ceased = None;
            if self.level >= i {
                self.known.insert(me, (0, me));
                self.fresh.push(me);
            }
        }
        if t >= w.ball.0 && t < w.ball.1 && self.ceased.is_none() && !self.fresh.is_empty() {
            let step = t - w.ball.0;
            if step >= w.radius {
                self.fresh.clear(); // wave has gone far enough
            } else if self.fresh.len() > self.cfg.batch {
                self.ceased = Some(step);
                self.fresh.clear();
            } else {
                let ids = std::mem::take(&mut self.fresh);
                ctx.broadcast(FibMsg::Ids(ids));
            }
        }

        // Cease-potential stage (min-plus flood).
        if t == w.cease.0 {
            self.cease_pot = self.ceased.unwrap_or(u32::MAX);
            self.cease_sent = None;
        }
        if t >= w.cease.0
            && t < w.cease.1
            && self.cease_pot != u32::MAX
            && self.cease_sent.is_none_or(|s| self.cease_pot < s)
        {
            ctx.broadcast(FibMsg::Cease(self.cease_pot));
            self.cease_sent = Some(self.cease_pot);
        }

        // Failure stage: detect and flood.
        if t == w.fail.0 {
            self.fail_ttl = None;
            self.fail_sent = None;
            let relevant = self.level + 1 >= i; // x ∈ V_{i−1}
            if relevant && self.cease_pot < self.trunc_dist.min(w.radius + 1) {
                // A ceased vertex may have hidden a ball member: repair.
                if !self.include_all {
                    self.include_all = true;
                    for &nb in ctx.neighbors() {
                        self.selected.insert(Self::edge(me, nb));
                    }
                }
                self.fail_ttl = Some(w.radius);
            }
        }
        if t >= w.fail.0 && t < w.fail.1 {
            if let Some(ttl) = self.fail_ttl {
                if self.fail_sent.is_none_or(|s| ttl > s) && ttl > 0 {
                    ctx.broadcast(FibMsg::Fail(ttl - 1));
                    self.fail_sent = Some(ttl);
                }
            }
        }

        // Token stage.
        if t == w.tokens.0 {
            self.token_queue.clear();
            self.token_seen.clear();
            // x ∈ V_{i−1} initiates a token per ball member.
            if self.level + 1 >= i {
                let ball: Vec<(NodeId, NodeId)> = self
                    .known
                    .iter()
                    .filter(|(&y, &(d, _))| {
                        y != me && d as u64 <= self.cfg.params.ball_radius(i) && d < self.trunc_dist
                    })
                    .map(|(&y, &(_, hop))| (y, hop))
                    .collect();
                for (y, hop) in ball {
                    if self.token_seen.insert(y) {
                        self.token_queue.entry(hop).or_default().push(y);
                    }
                }
            }
        }
        if t >= w.tokens.0 && t < w.tokens.1 && !self.token_queue.is_empty() {
            // One batched message per next-hop per round, within budget.
            let hops: Vec<NodeId> = self.token_queue.keys().copied().collect();
            for hop in hops {
                let queue = self.token_queue.get_mut(&hop).expect("key exists");
                let take = queue.len().min(self.cfg.batch);
                let batch: Vec<NodeId> = queue.drain(..take).collect();
                if queue.is_empty() {
                    self.token_queue.remove(&hop);
                }
                if !batch.is_empty() {
                    self.selected.insert(Self::edge(me, hop));
                    ctx.send(hop, FibMsg::Tokens(batch));
                }
            }
        }
        if t == w.tokens.1 && !self.token_queue.is_empty() && !self.include_all {
            // Could not drain in the window (astronomically unlikely with
            // the sized windows): fall back to keeping everything local.
            self.include_all = true;
            for &nb in ctx.neighbors() {
                self.selected.insert(Self::edge(me, nb));
            }
            self.token_queue.clear();
        }

        // Past the last level's token window: done.
        if t > w.tokens.1 {
            self.finished = true;
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

/// The message budget of Theorem 8: `⌈n^{1/t}⌉ + 2` words for `t ≥ 1`, or
/// unbounded for `t = 0`.
pub fn theorem8_budget(n: usize, t: u32) -> MessageBudget {
    if t == 0 {
        MessageBudget::Unbounded
    } else {
        let w = (n.max(2) as f64).powf(1.0 / t as f64).ceil() as usize;
        MessageBudget::Words(w.max(4) + 2)
    }
}

/// Runs the distributed Fibonacci construction on `executor`, over a
/// shared CSR adjacency, streaming round-level
/// [`TraceEvent`](spanner_netsim::TraceEvent)s into `sink`; each stage of
/// each level appears as an `L<i>.<stage>` phase span (`parent`, `trunc`,
/// `ball`, `cease`, `fail`, `tokens`).
///
/// Uses the same per-vertex level sampling as
/// [`build_sequential`](crate::fibonacci::sequential::build_sequential)
/// (same seed ⇒ same hierarchy), so the two constructions are directly
/// comparable. The spanner, the protocol-level metrics and the trace
/// stream are the same on every executor; the asynchronous executor adds
/// its event, synchronizer and simulated-time counters.
///
/// Without `faults` no [`Graph`](spanner_graph::Graph) is ever
/// materialized and the output is not checked. Under a fault plan
/// (round-synchronous executors only) the driver never panics and never
/// returns an unchecked spanner: the output is certified against the
/// fault-free host graph (spanning plus the Theorem 7 distortion envelope,
/// checked exactly) by [`certify`](crate::faults::certify).
///
/// # Errors
///
/// [`BuildError::Run`] when the simulated run fails (round cap / budget
/// violation; neither occurs without faults for the timetable this
/// function derives); [`BuildError::Uncertified`] when a faulted run's
/// output is not a certified Fibonacci spanner.
pub fn build_distributed(
    csr: &Arc<CsrAdjacency>,
    params: &FibonacciParams,
    seed: u64,
    executor: &Executor,
    faults: Option<&FaultPlan>,
    sink: &mut dyn TraceSink,
) -> Result<Spanner, BuildError> {
    let built = run(csr, params, seed, executor, faults, sink);
    let (order, ell) = (params.order, params.ell);
    crate::faults::certify(csr, faults, built, |g, s| {
        verify_stretch(g, &s.edges, Pairs::All, 1, |d, ds| {
            within_envelope(order, ell, d, ds)
        })
        .map_err(|v| v.to_string())
    })
}

/// The one driver body: sample levels, configure, run on `executor`,
/// collect.
fn run(
    csr: &Arc<CsrAdjacency>,
    params: &FibonacciParams,
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
    let levels = sample_levels_n(n, params, seed);
    let budget = theorem8_budget(n, params.t);
    let cfg = Arc::new(FibConfig::build(params, n, budget, diameter_cap(csr)));
    let max_rounds = cfg.total_rounds + 8;
    let factory = |v: NodeId, _: &mut _| FibNode::new(Arc::clone(&cfg), levels[v.index()]);
    let mut sink = ScheduledSink::new(sink, || cfg.phase_schedule());
    let (states, metrics) = execute(
        executor, faults, csr, budget, seed, factory, max_rounds, &mut sink,
    );
    let collect = |states: Vec<FibNode>| {
        let selected = states.iter().flat_map(|st| st.selected.iter().copied());
        Spanner::from_selected(csr, selected, metrics)
    };
    (states.map(collect), metrics)
}

/// Planned timetable length in rounds for a concrete input topology (used
/// by E9's tradeoff table).
pub fn timetable_rounds(csr: &CsrAdjacency, params: &FibonacciParams) -> u32 {
    let n = csr.node_count().max(2);
    FibConfig::build(params, n, theorem8_budget(n, params.t), diameter_cap(csr)).total_rounds
}

/// A certified upper bound on the diameter: twice the eccentricity found
/// by the classic two-sweep heuristic, plus slack.
fn diameter_cap(csr: &CsrAdjacency) -> u32 {
    if csr.node_count() == 0 {
        return 2;
    }
    let ecc = spanner_graph::distance::diameter_two_sweep_csr(csr, NodeId(0));
    2 * ecc + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibonacci::sequential::build_sequential;
    use spanner_graph::distance::PairSample;
    use spanner_graph::{generators, Graph};
    use spanner_netsim::NullSink;

    fn build(g: &Graph, p: &FibonacciParams, seed: u64) -> Result<Spanner, BuildError> {
        build_distributed(g.csr(), p, seed, &Executor::Sequential, None, &mut NullSink)
    }

    fn params(n: usize, o: u32, t: u32) -> FibonacciParams {
        FibonacciParams::new(n, o, 0.5, t).unwrap()
    }

    #[test]
    fn unbounded_budget_matches_sequential_exactly() {
        for seed in 0..3u64 {
            let g = generators::connected_gnm(250, 900, seed);
            let p = params(250, 2, 0);
            let seq = build_sequential(&g, &p, seed + 7);
            let dist = build(&g, &p, seed + 7).expect("run");
            let a: Vec<_> = seq.edges.iter().collect();
            let b: Vec<_> = dist.edges.iter().collect();
            assert_eq!(a, b, "seed {seed}: sequential and distributed differ");
        }
    }

    #[test]
    fn spanning_and_envelope() {
        let g = generators::grid(14, 14);
        let p = params(196, 2, 0);
        let s = build(&g, &p, 5).unwrap();
        assert!(s.is_spanning(&g));
        let viol = verify_stretch(&g, &s.edges, Pairs::All, 1, |d, ds| {
            within_envelope(p.order, p.ell, d, ds)
        });
        assert!(viol.is_ok(), "{viol:?}");
    }

    #[test]
    fn bounded_budget_still_spans() {
        let g = generators::connected_gnm(300, 1_200, 11);
        let p = params(300, 2, 3);
        let s = build(&g, &p, 3).unwrap();
        assert!(s.is_spanning(&g));
        let m = s.metrics.unwrap();
        let cap = theorem8_budget(300, 3).limit().unwrap();
        assert!(m.max_message_words <= cap);
        let sample = PairSample::new(&g, 500, 9, 1);
        let viol = verify_stretch(&g, &s.edges, Pairs::Sampled(&sample), 1, |d, ds| {
            within_envelope(p.order, p.ell, d, ds)
        });
        assert!(viol.is_ok(), "{viol:?}");
    }

    #[test]
    fn rounds_within_timetable() {
        let g = generators::connected_gnm(200, 700, 2);
        let p = params(200, 2, 0);
        let planned = timetable_rounds(g.csr(), &p);
        let s = build(&g, &p, 1).unwrap();
        assert!(s.metrics.unwrap().rounds <= planned + 8);
    }

    #[test]
    fn tighter_budget_means_smaller_messages() {
        let g = generators::connected_gnm(400, 1_600, 4);
        let mut maxes = Vec::new();
        for t in [2u32, 4] {
            let p = params(400, 2, t);
            let s = build(&g, &p, 6).unwrap();
            assert!(s.is_spanning(&g), "t={t}");
            maxes.push(s.metrics.unwrap().max_message_words);
        }
        assert!(maxes[1] <= maxes[0], "t=4 should use smaller messages");
    }

    #[test]
    fn empty_graph() {
        let p = FibonacciParams::new(4, 1, 0.5, 0).unwrap();
        let s = build(&spanner_graph::Graph::empty(0), &p, 1).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn deterministic() {
        let g = generators::connected_gnm(150, 500, 8);
        let p = params(150, 2, 0);
        let a = build(&g, &p, 3).unwrap();
        let b = build(&g, &p, 3).unwrap();
        assert_eq!(a.edges, b.edges);
    }

    /// Every per-level stage of the timetable shows up as its own phase
    /// span and the trace totals reconcile with the metrics.
    #[test]
    fn traced_run_has_stage_spans() {
        let g = generators::connected_gnm(400, 2_000, 19);
        let p = params(400, 2, 0);
        let mut summary = spanner_netsim::TraceSummary::new();
        let mut seq_sink = spanner_netsim::JsonLinesSink::new(Vec::<u8>::new());
        let s = {
            // One run feeds both the summary and the byte stream: replaying
            // recorded events into a second summary must agree too.
            let csr = g.csr();
            let exec = Executor::Sequential;
            let seq = build_distributed(csr, &p, 4, &exec, None, &mut seq_sink).unwrap();
            let bytes = seq_sink.finish().unwrap();
            for line in std::str::from_utf8(&bytes).unwrap().lines() {
                let ev = spanner_netsim::TraceEvent::from_json_line(line).expect("parseable");
                summary.observe(&ev);
            }
            seq
        };
        let m = s.metrics.expect("metrics");
        assert!(m.agrees_with(&summary), "{m} vs trace totals");
        for stage in ["parent", "trunc", "ball", "cease", "fail", "tokens"] {
            for level in 1..=p.order {
                let name = format!("L{level}.{stage}");
                assert!(
                    summary.phases().iter().any(|ph| ph.name == name),
                    "missing span {name}"
                );
            }
        }
    }
}
