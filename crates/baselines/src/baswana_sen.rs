//! The Baswana–Sen randomized (2k−1)-spanner \[10\].
//!
//! Phase 1 runs k−1 iterations of cluster sampling (probability n^{−1/k})
//! where unclustered-but-adjacent vertices join a sampled cluster (one
//! spanner edge) and vertices with no sampled neighbor connect once to each
//! adjacent cluster and leave the clustering. Phase 2 connects every
//! remaining vertex once to each adjacent cluster of the final clustering.
//! The result is a (2k−1)-spanner.
//!
//! Pettie's paper corrects the size analysis of \[10\]: the argument of
//! their Lemma 4.1 gives O(kn + (log k)·n^{1+1/k}) in expectation, not
//! O(kn + n^{1+1/k}). Experiment E8 measures the realized size against both
//! forms.
//!
//! Both implementations share the per-cluster sampling function
//! ([`ClusterSampler`]), so a cluster's
//! fate is locally recomputable — which is what makes the distributed
//! version run in O(k) rounds with 2-word messages.

use std::sync::Arc;

use spanner_graph::{
    verify_stretch, CsrAdjacency, EdgeId, EdgeSet, Graph, NodeId, Pairs, StretchBound,
};
use spanner_netsim::{
    execute, Ctx, Executor, FaultPlan, MessageBudget, NullSink, PhaseMark, Protocol, RunError,
    RunMetrics, ScheduledSink, TraceSink,
};
use ultrasparse::expand::ClusterSampler;
use ultrasparse::{BuildError, Spanner};

/// Parameters: the stretch is 2k−1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaswanaSenParams {
    /// Number of clustering levels; the spanner is a (2k−1)-spanner with
    /// expected size O(kn + log k · n^{1+1/k}).
    pub k: u32,
}

impl BaswanaSenParams {
    /// Validated parameters.
    ///
    /// # Errors
    ///
    /// Returns a message if `k == 0`.
    pub fn new(k: u32) -> Result<Self, String> {
        if k == 0 {
            return Err("k must be at least 1".to_string());
        }
        Ok(BaswanaSenParams { k })
    }

    /// The guaranteed multiplicative stretch 2k−1.
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// Per-iteration sampling probability n^{−1/k}.
    pub fn probability(&self, n: usize) -> f64 {
        (n.max(2) as f64).powf(-1.0 / self.k as f64)
    }
}

/// Builds the Baswana–Sen (2k−1)-spanner sequentially. Deterministic in
/// `seed`.
pub fn build_sequential(g: &Graph, params: &BaswanaSenParams, seed: u64) -> Spanner {
    let n = g.node_count();
    let mut edges = EdgeSet::new(g);
    if n == 0 {
        return Spanner::from_edges(edges);
    }
    let p = params.probability(n);
    let sampler = ClusterSampler::new(seed);

    // cluster[v]: Some(center) while v is clustered, None once it left.
    let mut cluster: Vec<Option<NodeId>> = g.nodes().map(Some).collect();

    for iter in 0..params.k.saturating_sub(1) {
        let sampled = |c: NodeId| -> bool { sampler.sampled(c, iter, p) };
        let mut next: Vec<Option<NodeId>> = cluster.clone();
        for v in g.nodes() {
            let Some(cv) = cluster[v.index()] else {
                continue;
            };
            if sampled(cv) {
                continue; // stays in its sampled cluster
            }
            // Adjacent clusters (through currently clustered neighbors),
            // each with its minimum connecting edge.
            let mut adj: Vec<(NodeId, EdgeId)> = Vec::new();
            for (w, e) in g.incident(v) {
                if let Some(cw) = cluster[w.index()] {
                    if cw != cv {
                        adj.push((cw, e));
                    }
                }
            }
            adj.sort_unstable();
            adj.dedup_by_key(|&mut (c, _)| c);
            match adj.iter().find(|&&(c, _)| sampled(c)) {
                Some(&(c, e)) => {
                    edges.insert(e); // join the sampled cluster
                    next[v.index()] = Some(c);
                }
                None => {
                    for &(_, e) in &adj {
                        edges.insert(e); // one edge per adjacent cluster
                    }
                    next[v.index()] = None; // leaves the clustering
                }
            }
        }
        cluster = next;
    }

    // Phase 2: every clustered vertex connects once to each adjacent
    // cluster of the final clustering. (Vertices that left the clustering
    // already connected to everything adjacent when they left; their other
    // edges were discarded, matching [10].)
    for v in g.nodes() {
        let cv = cluster[v.index()];
        let mut adj: Vec<(NodeId, EdgeId)> = Vec::new();
        for (w, e) in g.incident(v) {
            if let Some(cw) = cluster[w.index()] {
                if Some(cw) != cv {
                    adj.push((cw, e));
                }
            }
        }
        adj.sort_unstable();
        adj.dedup_by_key(|&mut (c, _)| c);
        for &(_, e) in &adj {
            edges.insert(e);
        }
    }

    Spanner::from_edges(edges)
}

/// Re-clusters only the subgraph induced by `region` (strictly ascending
/// node ids): runs [`build_sequential`] on `g[region]` and returns the
/// chosen edges as a host-graph [`EdgeSet`] — the Baswana–Sen flavor of
/// the dirty-region hook used by the log-structured update path's
/// compaction (`spanner-store`), where only the locality an edit batch
/// touched is rebuilt.
///
/// With `region` = all nodes this equals `build_sequential(g, params,
/// seed).edges` exactly (monotone relabeling preserves edge ids), which
/// the differential tests pin.
///
/// # Panics
///
/// Panics if `region` is not strictly ascending or out of range.
pub fn recluster_region(
    g: &Graph,
    region: &[NodeId],
    params: &BaswanaSenParams,
    seed: u64,
) -> EdgeSet {
    let (sub, host) = g.induced_subgraph(region);
    let local = build_sequential(&sub, params, seed);
    let mut out = EdgeSet::new(g);
    for e in local.edges.iter() {
        out.insert(host[e.index()]);
    }
    out
}

/// Message of the distributed protocol: the sender's cluster center this
/// iteration (`None` when unclustered). Two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsMsg {
    /// Cluster center of the sender, if clustered.
    center: Option<NodeId>,
}

impl spanner_netsim::MessageSize for BsMsg {
    fn words(&self) -> usize {
        2
    }
}

/// Per-node state of the distributed Baswana–Sen protocol.
///
/// Each iteration costs exactly one communication round: every vertex
/// broadcasts its cluster center, then decides locally (sampling decisions
/// are the shared pseudo-random function of the center id, so no
/// coordination is needed). Joining vertices adopt the *center* of the
/// sampled neighbor cluster; since cluster radii grow by one per iteration
/// this matches the sequential algorithm exactly.
#[derive(Debug, Clone)]
pub struct BsNode {
    params: BaswanaSenParams,
    sampler: ClusterSampler,
    p: f64,
    /// Current cluster center, `None` once unclustered.
    cluster: Option<NodeId>,
    /// Edges this node selected (by neighbor id).
    pub chosen: Vec<NodeId>,
    /// Iterations completed.
    iter: u32,
    finished: bool,
}

impl BsNode {
    fn decide(&mut self, inbox: &[(NodeId, BsMsg)]) {
        let Some(cv) = self.cluster else { return };
        let iter = self.iter;
        if self.sampler.sampled(cv, iter, self.p) {
            return;
        }
        let foreign = || {
            inbox
                .iter()
                .filter_map(move |&(w, m)| m.center.filter(|&c| c != cv).map(|c| (c, w)))
        };
        // Join the least sampled foreign cluster through its least
        // neighbor: one pass, no allocation.
        let mut join: Option<(NodeId, NodeId)> = None;
        for (c, w) in foreign() {
            if join.is_none_or(|j| (c, w) < j) && self.sampler.sampled(c, iter, self.p) {
                join = Some((c, w));
            }
        }
        if let Some((c, w)) = join {
            self.chosen.push(w);
            self.cluster = Some(c);
            return;
        }
        // No neighboring cluster is sampled: leave the clustering, keeping
        // one edge to each neighboring cluster.
        let mut adj: Vec<(NodeId, NodeId)> = foreign().collect();
        adj.sort_unstable();
        adj.dedup_by_key(|&mut (c, _)| c);
        self.chosen.extend(adj.iter().map(|&(_, w)| w));
        self.cluster = None;
    }

    fn phase2(&mut self, inbox: &[(NodeId, BsMsg)]) {
        let cv = self.cluster;
        let mut adj: Vec<(NodeId, NodeId)> = inbox
            .iter()
            .filter_map(|&(w, m)| m.center.filter(|&c| Some(c) != cv).map(|c| (c, w)))
            .collect();
        adj.sort_unstable();
        adj.dedup_by_key(|&mut (c, _)| c);
        for &(_, w) in &adj {
            self.chosen.push(w);
        }
        self.finished = true;
    }
}

impl Protocol for BsNode {
    type Msg = BsMsg;

    fn init(&mut self, ctx: &mut Ctx<'_, BsMsg>) {
        ctx.broadcast(BsMsg {
            center: self.cluster,
        });
    }

    fn round(&mut self, ctx: &mut Ctx<'_, BsMsg>, inbox: &[(NodeId, BsMsg)]) {
        if self.finished {
            return;
        }
        if self.iter < self.params.k - 1 {
            self.decide(inbox);
            self.iter += 1;
            if self.iter < self.params.k {
                ctx.broadcast(BsMsg {
                    center: self.cluster,
                });
            }
        } else {
            self.phase2(inbox);
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

/// Runs the distributed Baswana–Sen protocol on `executor`, over a shared
/// CSR adjacency, streaming round-level trace events into `sink`: one
/// `cluster[i]` span per phase-1 iteration and a final `connect` span for
/// phase 2. Returns the spanner (collected through the CSR edge index)
/// with its communication metrics.
///
/// Without `faults` no [`Graph`] is materialized and the output is not
/// checked. Under a fault plan (round-synchronous executors only) the
/// driver never panics and never returns an unchecked spanner: the
/// surviving output is certified against the fault-free host graph
/// (spanning plus the exact (2k−1) stretch bound) by
/// [`certify`](ultrasparse::faults::certify).
///
/// # Errors
///
/// [`BuildError::Run`] when the simulated run fails — without faults it
/// never does for valid parameters: the protocol runs exactly k rounds
/// with 2-word messages; [`BuildError::Uncertified`] when a faulted run's
/// output is not a certified (2k−1)-spanner.
pub fn build_distributed(
    csr: &Arc<CsrAdjacency>,
    params: &BaswanaSenParams,
    seed: u64,
    executor: &Executor,
    faults: Option<&FaultPlan>,
    sink: &mut dyn TraceSink,
) -> Result<Spanner, BuildError> {
    let built = run(csr, params, seed, executor, faults, sink);
    let stretch = StretchBound::multiplicative((2 * params.k - 1) as f64);
    ultrasparse::faults::certify(csr, faults, built, |g, s| {
        verify_stretch(g, &s.edges, Pairs::All, 1, |d, ds| stretch.allows(d, ds))
            .map_err(|v| v.to_string())
    })
}

/// The unfaulted driver on the sequential executor, untraced — the
/// memory-lean entry point for `--scale huge` tiers.
///
/// # Errors
///
/// Propagates simulator errors, as [`build_distributed`] does.
pub fn build_distributed_csr(
    csr: &Arc<CsrAdjacency>,
    params: &BaswanaSenParams,
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

/// The one driver body: run on `executor`, collect.
fn run(
    csr: &Arc<CsrAdjacency>,
    params: &BaswanaSenParams,
    seed: u64,
    executor: &Executor,
    faults: Option<&FaultPlan>,
    sink: &mut dyn TraceSink,
) -> (Result<Spanner, RunError>, RunMetrics) {
    let p = params.probability(csr.node_count());
    let factory = |v, _: &mut _| BsNode {
        params: *params,
        sampler: ClusterSampler::new(seed),
        p,
        cluster: Some(v),
        chosen: Vec::new(),
        iter: 0,
        finished: false,
    };
    let budget = MessageBudget::Words(2);
    // Iteration i runs in round i + 1 and phase 2 in round k, the last
    // one; the run end closes `connect`.
    let mut sink = ScheduledSink::new(sink, || {
        (0..params.k - 1)
            .map(|i| (i + 1, PhaseMark::Enter(format!("cluster[{i:02}]"))))
            .chain([(params.k, PhaseMark::Enter("connect".into()))])
            .collect()
    });
    let (states, metrics) = execute(
        executor,
        faults,
        csr,
        budget,
        seed,
        factory,
        params.k + 4,
        &mut sink,
    );
    let collect = |states: Vec<BsNode>| {
        let selected = states.iter().enumerate().flat_map(|(v, st)| {
            let v = NodeId(v as u32);
            st.chosen.iter().map(move |&w| (v, w))
        });
        Spanner::from_selected(csr, selected, metrics)
    };
    (states.map(collect), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Pairs;
    use spanner_graph::generators;

    #[test]
    fn recluster_full_region_matches_build_sequential() {
        let params = BaswanaSenParams::new(3).unwrap();
        let g = generators::connected_gnm(250, 1_200, 23);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(
            recluster_region(&g, &all, &params, 9),
            build_sequential(&g, &params, 9).edges
        );
    }

    #[test]
    fn recluster_subregion_is_local_spanner() {
        let params = BaswanaSenParams::new(2).unwrap();
        let g = generators::connected_gnm(180, 800, 31);
        let region: Vec<NodeId> = g.nodes().filter(|v| v.0 < 120).collect();
        let chosen = recluster_region(&g, &region, &params, 3);
        let (sub, host) = g.induced_subgraph(&region);
        let mut local = EdgeSet::new(&sub);
        for (i, e) in host.iter().enumerate() {
            if chosen.contains(*e) {
                local.insert(EdgeId(i as u32));
            }
        }
        let s = Spanner::from_edges(local);
        assert!(s.is_spanning(&sub));
        let r = s.stretch(&sub, Pairs::All, 1);
        assert!(r.satisfies_multiplicative(params.stretch() as f64));
    }

    #[test]
    fn params_validation() {
        assert!(BaswanaSenParams::new(0).is_err());
        let p = BaswanaSenParams::new(3).unwrap();
        assert_eq!(p.stretch(), 5);
        assert!((p.probability(1000) - 1000f64.powf(-1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn sequential_is_spanner_with_guaranteed_stretch() {
        for k in [2u32, 3, 4] {
            let params = BaswanaSenParams::new(k).unwrap();
            let g = generators::connected_gnm(300, 2_500, k as u64);
            let s = build_sequential(&g, &params, 7);
            assert!(s.is_spanning(&g), "k={k}");
            let r = s.stretch(&g, Pairs::All, 1);
            assert!(
                r.satisfies_multiplicative(params.stretch() as f64),
                "k={k}: stretch {} > {}",
                r.max_multiplicative,
                params.stretch()
            );
        }
    }

    #[test]
    fn k1_keeps_all_edges() {
        // A 1-spanner must keep every edge (stretch 1).
        let g = generators::erdos_renyi_gnm(50, 200, 1);
        let params = BaswanaSenParams::new(1).unwrap();
        let s = build_sequential(&g, &params, 3);
        assert_eq!(s.len(), g.edge_count());
        let r = s.stretch(&g, Pairs::All, 1);
        assert_eq!(r.max_multiplicative, 1.0);
    }

    #[test]
    fn size_near_theoretical() {
        // k = 3 on a dense graph: expected size O(kn + log k n^{4/3}).
        let n = 2_000usize;
        let g = generators::connected_gnm(n, 100_000, 5);
        let params = BaswanaSenParams::new(3).unwrap();
        let s = build_sequential(&g, &params, 11);
        let bound = 2.0 * (3 * n) as f64 + 2.0 * (n as f64).powf(4.0 / 3.0);
        assert!(
            (s.len() as f64) < bound,
            "size {} vs bound {bound}",
            s.len()
        );
        // And it actually sparsifies.
        assert!(s.len() < g.edge_count() / 2);
    }

    #[test]
    fn distributed_matches_sequential_exactly() {
        // Same seed => same sampler => identical cluster evolution; the
        // edge *choices* (min (cluster, neighbor)) also coincide because
        // both pick the minimum (cluster, edge/neighbor) pair.
        let g = generators::connected_gnm(200, 1_000, 9);
        let params = BaswanaSenParams::new(3).unwrap();
        let seq = build_sequential(&g, &params, 21);
        let csr = g.csr();
        let dist = build_distributed_csr(csr, &params, 21).unwrap();
        assert!(dist.is_spanning(&g));
        let r = dist.stretch(&g, Pairs::All, 1);
        assert!(r.satisfies_multiplicative(params.stretch() as f64));
        // The distributed run takes k+O(1) rounds with 2-word messages.
        let m = dist.metrics.unwrap();
        assert!(m.rounds <= params.k + 2, "rounds {}", m.rounds);
        assert_eq!(m.max_message_words, 2);
        // Sizes agree closely (identical decisions up to edge-id vs
        // neighbor-id tie-breaks).
        let diff = (seq.len() as i64 - dist.len() as i64).abs();
        assert!(
            diff <= (seq.len() / 10 + 5) as i64,
            "seq {} vs dist {}",
            seq.len(),
            dist.len()
        );
    }

    #[test]
    fn distributed_stretch_guarantee() {
        for k in [2u32, 4] {
            let params = BaswanaSenParams::new(k).unwrap();
            let g = generators::connected_gnm(250, 2_000, 31 + k as u64);
            let s = build_distributed_csr(g.csr(), &params, 5).unwrap();
            assert!(s.is_spanning(&g));
            let r = s.stretch(&g, Pairs::All, 1);
            assert!(
                r.satisfies_multiplicative((2 * k - 1) as f64),
                "k={k}: {}",
                r.max_multiplicative
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = generators::connected_gnm(150, 700, 2);
        let params = BaswanaSenParams::new(3).unwrap();
        assert_eq!(
            build_sequential(&g, &params, 5).edges,
            build_sequential(&g, &params, 5).edges
        );
    }

    #[test]
    fn disconnected_input() {
        let g = spanner_graph::Graph::from_edges(8, [(0u32, 1), (1, 2), (4, 5), (5, 6), (6, 4)]);
        let params = BaswanaSenParams::new(2).unwrap();
        let s = build_sequential(&g, &params, 3);
        assert!(s.is_spanning(&g));
    }
}
