//! Clusterings, contraction, and the centralized `Expand` engine.
//!
//! The skeleton algorithm of Sect. 2 works on a sequence of graph–cluster
//! pairs (G_{i,j}, C_{i,j}) where G_{i,j} is a contracted version of the
//! original graph. [`ContractionState`] maintains everything implicitly
//! over the **original** graph:
//!
//! * each live original vertex knows the center of its *supervertex*
//!   (the contracted vertex of G_{i,0} it belongs to) — the φ⁻¹ map,
//! * and the center of its current *cluster* in C_{i,j},
//! * dead vertices are marked and excluded (the graph induced by live
//!   vertices is G_{i,j}).
//!
//! An `Expand` call (Fig. 2) is then one pass over the original edge list:
//! supervertex adjacency (with one representative original edge per
//! adjacent cluster, as the paper's φ⁻¹ edge-selection shorthand requires)
//! is recomputed, each live supervertex applies the [`Decision`] rule, and
//! the selected edges accumulate into the spanner. A contraction merely
//! reassigns supervertex centers — the key economy that makes the
//! centralized algorithm run in O(m) time per call.

use spanner_graph::{EdgeId, EdgeSet, Graph, NodeId};

use crate::expand::{ClusterSampler, Decision};

/// Identifier of a cluster: the original-graph id of its center vertex.
///
/// Clusters (and supervertices) are identified by their center's original
/// vertex id throughout, which is what makes sampling decisions locally
/// recomputable in the distributed implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub NodeId);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C[{}]", self.0)
    }
}

/// Statistics of one `Expand` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpandStats {
    /// Supervertices whose own cluster was sampled.
    pub stayed: usize,
    /// Supervertices that joined a sampled neighbor cluster (line 4).
    pub joined: usize,
    /// Supervertices that died (line 7).
    pub died: usize,
    /// Spanner edges added by this call.
    pub edges_added: usize,
    /// Clusters remaining after the call.
    pub clusters_after: usize,
}

/// The evolving contraction/clustering state of the skeleton algorithm.
#[derive(Debug, Clone)]
pub struct ContractionState<'g> {
    g: &'g Graph,
    /// Per original vertex: center of its supervertex; `None` = dead.
    sv_center: Vec<Option<NodeId>>,
    /// Per original vertex: center of its current cluster (valid iff live).
    cluster_center: Vec<NodeId>,
    /// Selected spanner edges.
    spanner: EdgeSet,
    /// Index of the next `Expand` call (feeds the sampler).
    call_index: u32,
    sampler: ClusterSampler,
}

impl<'g> ContractionState<'g> {
    /// Fresh state: every vertex is its own live supervertex and cluster.
    pub fn new(g: &'g Graph, seed: u64) -> Self {
        let ids: Vec<NodeId> = g.nodes().collect();
        ContractionState {
            g,
            sv_center: ids.iter().copied().map(Some).collect(),
            cluster_center: ids,
            spanner: EdgeSet::new(g),
            call_index: 0,
            sampler: ClusterSampler::new(seed),
        }
    }

    /// The host graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The spanner edges selected so far.
    pub fn spanner(&self) -> &EdgeSet {
        &self.spanner
    }

    /// Consumes the state, returning the selected spanner edges.
    pub fn into_spanner(self) -> EdgeSet {
        self.spanner
    }

    /// Number of live original vertices.
    pub fn live_count(&self) -> usize {
        self.sv_center.iter().filter(|c| c.is_some()).count()
    }

    /// Number of live supervertices (vertices of the current G_{i,j}).
    pub fn supervertex_count(&self) -> usize {
        let mut centers: Vec<NodeId> = self.sv_center.iter().flatten().copied().collect();
        centers.sort_unstable();
        centers.dedup();
        centers.len()
    }

    /// Number of clusters in the current clustering.
    pub fn cluster_count(&self) -> usize {
        let mut centers: Vec<NodeId> = self
            .sv_center
            .iter()
            .zip(&self.cluster_center)
            .filter_map(|(sv, c)| sv.map(|_| *c))
            .collect();
        centers.sort_unstable();
        centers.dedup();
        centers.len()
    }

    /// Whether original vertex `v` is still live.
    pub fn is_live(&self, v: NodeId) -> bool {
        self.sv_center[v.index()].is_some()
    }

    /// The cluster of live original vertex `v`, if live.
    pub fn cluster_of(&self, v: NodeId) -> Option<ClusterId> {
        self.sv_center[v.index()].map(|_| ClusterId(self.cluster_center[v.index()]))
    }

    /// One `Expand` call with sampling probability `p` (Fig. 2).
    ///
    /// Decisions are drawn from the shared [`ClusterSampler`] at the
    /// state's internal call index, which increments afterwards.
    pub fn expand(&mut self, p: f64) -> ExpandStats {
        let call = self.call_index;
        self.call_index += 1;

        // 1. Supervertex ↔ cluster adjacency with representative edges:
        //    entries (supervertex center, adjacent cluster, edge id).
        let mut entries: Vec<(NodeId, NodeId, EdgeId)> = Vec::new();
        for (e, a, b) in self.g.edges() {
            let (sa, sb) = (self.sv_center[a.index()], self.sv_center[b.index()]);
            let (Some(sa), Some(sb)) = (sa, sb) else {
                continue;
            };
            if sa == sb {
                continue;
            }
            let (ca, cb) = (
                self.cluster_center[a.index()],
                self.cluster_center[b.index()],
            );
            if ca != cb {
                entries.push((sa, cb, e));
                entries.push((sb, ca, e));
            }
        }
        entries.sort_unstable();
        // Dedup (supervertex, cluster) keeping the minimum edge id — the
        // deterministic stand-in for the paper's "arbitrary edge in
        // φ⁻¹(u) × φ⁻¹(v)".
        entries.dedup_by_key(|&mut (u, c, _)| (u, c));

        // 2. Per-supervertex decisions.
        let mut decisions: std::collections::HashMap<NodeId, Decision> =
            std::collections::HashMap::new();
        let mut stats = ExpandStats::default();
        let mut idx = 0usize;
        // Iterate groups of `entries` by supervertex; supervertices with no
        // entries are handled afterwards (they die with q = 0 if unsampled).
        while idx < entries.len() {
            let u = entries[idx].0;
            let mut end = idx;
            while end < entries.len() && entries[end].0 == u {
                end += 1;
            }
            let group = &entries[idx..end];
            idx = end;

            let own = self.cluster_center[u.index()];
            if self.sampler.sampled(own, call, p) {
                decisions.insert(u, Decision::Stay);
                continue;
            }
            // Among adjacent clusters, find the sampled one with the
            // smallest (cluster, edge).
            let join = group
                .iter()
                .find(|&&(_, c, _)| self.sampler.sampled(c, call, p));
            match join {
                Some(&(_, c, e)) => {
                    self.spanner.insert(e); // line 4
                    stats.edges_added += 1;
                    decisions.insert(u, Decision::Join(ClusterId(c)));
                }
                None => {
                    for &(_, _, e) in group {
                        if self.spanner.insert(e) {
                            stats.edges_added += 1; // line 7
                        }
                    }
                    decisions.insert(u, Decision::Die);
                }
            }
        }
        // Supervertices with no adjacency entries.
        for v in self.g.nodes() {
            if let Some(sv) = self.sv_center[v.index()] {
                if sv == v && !decisions.contains_key(&v) {
                    let own = self.cluster_center[v.index()];
                    let d = if self.sampler.sampled(own, call, p) {
                        Decision::Stay
                    } else {
                        Decision::Die
                    };
                    decisions.insert(v, d);
                }
            }
        }

        // 3. Apply decisions to every member vertex.
        for v in 0..self.sv_center.len() {
            let Some(sv) = self.sv_center[v] else {
                continue;
            };
            match decisions.get(&sv) {
                Some(Decision::Stay) | None => {}
                Some(Decision::Join(c)) => self.cluster_center[v] = c.0,
                Some(Decision::Die) => self.sv_center[v] = None,
            }
        }
        for d in decisions.values() {
            match d {
                Decision::Stay => stats.stayed += 1,
                Decision::Join(_) => stats.joined += 1,
                Decision::Die => stats.died += 1,
            }
        }
        stats.clusters_after = self.cluster_count();
        stats
    }

    /// Contracts the current clustering: each cluster becomes a single
    /// supervertex (centered at the cluster center) and the clustering
    /// resets to the trivial one.
    pub fn contract(&mut self) {
        for v in 0..self.sv_center.len() {
            if self.sv_center[v].is_some() {
                self.sv_center[v] = Some(self.cluster_center[v]);
            }
        }
    }

    /// Invariant of the algorithm: for every cluster C in the current
    /// clustering, the selected spanner edges restricted to φ⁻¹(C) connect
    /// all of φ⁻¹(C), and the center's eccentricity inside the cluster is
    /// at most `radius_bound`. Returns the maximum realized radius.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if a cluster is not spanned or exceeds
    /// the bound. Intended for tests and debug assertions.
    pub fn assert_clusters_spanned(&self, radius_bound: u64) -> u64 {
        use std::collections::VecDeque;
        let adj = self.g.csr().subgraph(&self.spanner);
        // Group live vertices by cluster center.
        let mut by_cluster: std::collections::HashMap<NodeId, Vec<NodeId>> =
            std::collections::HashMap::new();
        for v in self.g.nodes() {
            if self.sv_center[v.index()].is_some() {
                by_cluster
                    .entry(self.cluster_center[v.index()])
                    .or_default()
                    .push(v);
            }
        }
        let mut max_radius = 0u64;
        for (&center, members) in &by_cluster {
            let member_set: std::collections::HashSet<NodeId> = members.iter().copied().collect();
            assert!(
                member_set.contains(&center),
                "{center} is not a member of its own cluster"
            );
            // BFS from the center inside the member set.
            let mut dist: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
            dist.insert(center, 0);
            let mut q = VecDeque::from([center]);
            while let Some(u) = q.pop_front() {
                let du = dist[&u];
                for &w in adj.neighbors(u) {
                    if member_set.contains(&w) && !dist.contains_key(&w) {
                        dist.insert(w, du + 1);
                        q.push_back(w);
                    }
                }
            }
            for &m in members {
                let d = *dist
                    .get(&m)
                    .unwrap_or_else(|| panic!("cluster {center}: member {m} not spanned"));
                assert!(
                    d <= radius_bound,
                    "cluster {center}: member {m} at radius {d} > bound {radius_bound}"
                );
                max_radius = max_radius.max(d);
            }
        }
        max_radius
    }

    /// Invariant: the live clusters form a complete clustering of the live
    /// vertices (every live vertex belongs to a cluster whose center is
    /// live and in the same cluster).
    pub fn assert_complete_clustering(&self) {
        for v in self.g.nodes() {
            if self.sv_center[v.index()].is_some() {
                let c = self.cluster_center[v.index()];
                assert!(
                    self.sv_center[c.index()].is_some(),
                    "live vertex {v} in cluster of dead center {c}"
                );
                assert_eq!(
                    self.cluster_center[c.index()],
                    c,
                    "center {c} not in its own cluster"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::generators;

    #[test]
    fn fresh_state_counts() {
        let g = generators::cycle(10);
        let st = ContractionState::new(&g, 1);
        assert_eq!(st.live_count(), 10);
        assert_eq!(st.supervertex_count(), 10);
        assert_eq!(st.cluster_count(), 10);
        assert!(st.is_live(NodeId(3)));
        assert_eq!(st.cluster_of(NodeId(3)), Some(ClusterId(NodeId(3))));
        st.assert_complete_clustering();
        st.assert_clusters_spanned(0);
    }

    #[test]
    fn expand_with_p_zero_kills_everyone() {
        let g = generators::cycle(8);
        let mut st = ContractionState::new(&g, 1);
        let stats = st.expand(0.0);
        assert_eq!(stats.died, 8);
        assert_eq!(stats.stayed + stats.joined, 0);
        assert_eq!(st.live_count(), 0);
        // Every vertex added one edge per adjacent cluster (2 each on a
        // cycle), but shared edges dedup: the spanner is the whole cycle.
        assert_eq!(st.spanner().len(), 8);
    }

    #[test]
    fn expand_with_p_one_keeps_everyone() {
        let g = generators::cycle(8);
        let mut st = ContractionState::new(&g, 1);
        let stats = st.expand(1.0);
        assert_eq!(stats.stayed, 8);
        assert_eq!(st.live_count(), 8);
        assert_eq!(st.spanner().len(), 0);
    }

    #[test]
    fn expand_decisions_partition() {
        let g = generators::connected_gnm(200, 600, 3);
        let mut st = ContractionState::new(&g, 5);
        let stats = st.expand(0.25);
        assert_eq!(stats.stayed + stats.joined + stats.died, 200);
        st.assert_complete_clustering();
        // Clusters after one expand have radius <= 1.
        st.assert_clusters_spanned(1);
    }

    #[test]
    fn expand_reduces_clusters_geometrically() {
        let g = generators::connected_gnm(2_000, 10_000, 7);
        let mut st = ContractionState::new(&g, 9);
        let before = st.cluster_count();
        let stats = st.expand(0.25);
        // E[clusters after] = p * before; allow generous slack.
        assert!(
            (stats.clusters_after as f64) < 0.45 * before as f64,
            "clusters_after {} vs before {}",
            stats.clusters_after,
            before
        );
    }

    #[test]
    fn contract_then_radius_grows() {
        let g = generators::connected_gnm(300, 1_200, 11);
        let mut st = ContractionState::new(&g, 13);
        st.expand(0.3);
        st.assert_clusters_spanned(1);
        st.contract();
        st.assert_complete_clustering();
        // After contraction, clusters are the supervertices (radius <= 1
        // w.r.t. the original graph), trivially clustered.
        let r = st.assert_clusters_spanned(1);
        assert!(r <= 1);
        // Second round: expand again; cluster radius w.r.t. original graph
        // is now <= 1*(2*1+1)+1 = 4 (Lemma 2 with j = 1, r_i = 1).
        st.expand(0.3);
        st.assert_clusters_spanned(4);
    }

    #[test]
    fn isolated_vertices_die_quietly() {
        let g = spanner_graph::Graph::from_edges(4, [(0u32, 1u32)]);
        let mut st = ContractionState::new(&g, 2);
        // With p = 0 everyone dies; isolated vertices contribute no edges.
        let stats = st.expand(0.0);
        assert_eq!(stats.died, 4);
        assert_eq!(st.spanner().len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::connected_gnm(150, 500, 21);
        let run = |seed| {
            let mut st = ContractionState::new(&g, seed);
            st.expand(0.3);
            st.expand(0.3);
            st.contract();
            st.expand(0.3);
            st.into_spanner()
        };
        assert_eq!(run(5).len(), run(5).len());
        let a: Vec<_> = run(5).iter().collect();
        let b: Vec<_> = run(5).iter().collect();
        assert_eq!(a, b);
    }
}
