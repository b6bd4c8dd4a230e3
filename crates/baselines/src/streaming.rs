//! Streaming (2k−1)-spanners (related work, Sect. 1.4).
//!
//! The paper's related-work section cites Elkin \[21\] and Baswana \[5\]
//! for spanners in the online streaming model: *"edges arrive one at a
//! time and the algorithm can only keep O(n^{1+1/k}) edges in memory."*
//! [`StreamingSpanner`] implements the correctness-equivalent online
//! filter: keep an arriving edge iff the current spanner distance between
//! its endpoints exceeds 2k−1. The kept subgraph always has girth > 2k,
//! hence ≤ O(n^{1+1/k}) edges — the stated memory bound — and is a
//! (2k−1)-spanner of the stream's prefix at every point.
//!
//! (Baswana's algorithm \[5\] achieves O(1) *processing time* per edge
//! with clustering; we trade that for the simple distance filter, whose
//! per-edge cost is a bidirectional BFS in the sparse kept subgraph whose
//! two radii sum to at most 2k−1 — the same space profile, which is what
//! the model constrains. Documented as a substitution in DESIGN.md §4.)
//! The same filter run over a graph's edge list in order is the greedy
//! spanner of Althöfer et al. ([`crate::greedy`]).
//!
//! [`DynamicSpanner`] extends the same filter to the *fully dynamic*
//! model (insertions **and** deletions), the scenario behind the
//! log-structured update path of `spanner-store`. It maintains the
//! edge-cover invariant — every current graph edge `{u, v}` satisfies
//! δ_S(u, v) ≤ 2k−1 in the maintained subgraph S — which is exactly the
//! (2k−1)-spanner property. Insertion is the streaming filter; deleting a
//! spanner edge repairs the invariant by re-checking every graph edge
//! with an endpoint in the ball of radius k−1 around the removed edge's
//! endpoint `u`, computed *before* removal. That ball is enough: a cover
//! path of length ≤ 2k−1 through the removed edge has two outer pieces of
//! total length ≤ 2k−2, so the piece that ends at `u` is ≤ k−1 long or the
//! other one is ≤ k−2 (and its end within k−1 of `u` over the edge).
//! Either way the covered edge has an endpoint in the ball, and nothing
//! outside it can break.

use std::collections::BTreeSet;

use spanner_graph::{EdgeSet, Graph, LinkedAdjacency, NodeId};

/// The growing subgraph of a bounded-distance filter and the scratch of
/// its two searches. Every "δ_S(u, v) ≤ 2k−1?" decision in this crate —
/// streaming, dynamic and greedy — is [`BoundedSearch::within`].
#[derive(Debug, Clone)]
struct BoundedSearch {
    adj: LinkedAdjacency,
    /// Per node: the stamp of the last search side that reached it. A
    /// [`BoundedSearch::within`] query takes two fresh stamps (one per
    /// endpoint), a [`BoundedSearch::ball`] one.
    stamp: Vec<u32>,
    epoch: u32,
    /// The nodes each side of the current `within` query has reached, in
    /// BFS order; a side's frontier is the suffix from `start`.
    sides: [Vec<NodeId>; 2],
}

impl BoundedSearch {
    fn new(n: usize) -> Self {
        BoundedSearch {
            adj: LinkedAdjacency::new(n),
            stamp: vec![0; n],
            epoch: 0,
            sides: [Vec::new(), Vec::new()],
        }
    }

    fn node_count(&self) -> usize {
        self.stamp.len()
    }

    /// `count` stamps no node carries yet; the first is returned.
    fn fresh_stamps(&mut self, count: u32) -> u32 {
        if self.epoch > u32::MAX - count {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += count;
        self.epoch - count + 1
    }

    /// Is δ(u, v) ≤ `limit` in the subgraph? A bidirectional bounded BFS
    /// that always grows the smaller frontier by one level.
    ///
    /// The two reached sets stay disjoint until the search answers: a
    /// node found by one side that the other side already stamped closes
    /// a u–v walk of length at most the sum of the two radii, which never
    /// exceeds `limit`. Conversely a shortest path of length D ≤ `limit`
    /// has, once the radii sum to D, a node within both radii, so the
    /// search meets it before the radii pass `limit`. An empty frontier
    /// means its side's whole component is reached without meeting the
    /// other side.
    fn within(&mut self, u: NodeId, v: NodeId, limit: u32) -> bool {
        if u == v {
            return true;
        }
        let first = self.fresh_stamps(2);
        let stamps = [first, first + 1];
        self.stamp[u.index()] = stamps[0];
        self.stamp[v.index()] = stamps[1];
        let mut start = [0usize; 2];
        for (side, root) in self.sides.iter_mut().zip([u, v]) {
            side.clear();
            side.push(root);
        }
        for _ in 0..limit {
            let frontier = |s: usize| self.sides[s].len() - start[s];
            let s = usize::from(frontier(1) < frontier(0));
            if frontier(s) == 0 {
                return false;
            }
            let (mine, theirs) = (stamps[s], stamps[1 - s]);
            let side = &mut self.sides[s];
            let end = side.len();
            for i in start[s]..end {
                for y in self.adj.neighbors(side[i]) {
                    let t = &mut self.stamp[y.index()];
                    if *t == theirs {
                        return true;
                    }
                    if *t != mine {
                        *t = mine;
                        side.push(y);
                    }
                }
            }
            start[s] = end;
        }
        false
    }

    /// Multi-source bounded BFS: all nodes within `radius` of `sources`,
    /// ascending.
    fn ball(&mut self, sources: &[NodeId], radius: u32) -> Vec<NodeId> {
        let mine = self.fresh_stamps(1);
        let mut ball: Vec<NodeId> = Vec::new();
        for &s in sources {
            if self.stamp[s.index()] != mine {
                self.stamp[s.index()] = mine;
                ball.push(s);
            }
        }
        let mut start = 0;
        for _ in 0..radius {
            let end = ball.len();
            for i in start..end {
                for y in self.adj.neighbors(ball[i]) {
                    if self.stamp[y.index()] != mine {
                        self.stamp[y.index()] = mine;
                        ball.push(y);
                    }
                }
            }
            start = end;
        }
        ball.sort_unstable();
        ball
    }
}

/// An online (2k−1)-spanner over an edge stream on a fixed vertex set.
///
/// # Example
///
/// ```
/// use spanner_baselines::streaming::StreamingSpanner;
/// use spanner_graph::{LinkedAdjacency, NodeId};
///
/// let mut s = StreamingSpanner::new(4, 2);
/// assert!(s.offer(NodeId(0), NodeId(1)));
/// assert!(s.offer(NodeId(1), NodeId(2)));
/// assert!(s.offer(NodeId(2), NodeId(3)));
/// // 0-3 closes a cycle of length 4 <= 2k = 4: redundant, filtered out.
/// assert!(!s.offer(NodeId(0), NodeId(3)));
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingSpanner {
    k: u32,
    /// The kept subgraph.
    search: BoundedSearch,
    kept: Vec<(NodeId, NodeId)>,
}

impl StreamingSpanner {
    /// An empty spanner over `n` vertices with stretch parameter `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        StreamingSpanner {
            k,
            search: BoundedSearch::new(n),
            kept: Vec::new(),
        }
    }

    /// The stretch guarantee 2k−1.
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// Number of edges currently kept.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether no edges are kept.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Processes the next stream edge; returns whether it was kept.
    /// Duplicate edges and self-loops are filtered (never kept).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn offer(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.search.node_count() && v.index() < self.search.node_count(),
            "endpoint out of range"
        );
        if u == v || self.search.within(u, v, self.stretch()) {
            return false;
        }
        self.search.adj.add_edge(u, v);
        self.kept.push((u.min(v), u.max(v)));
        true
    }

    /// The kept edges, in arrival order, as (min, max) endpoint pairs.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.kept
    }
}

/// Statistics of one [`DynamicSpanner::compact`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Dirty nodes re-clustered.
    pub region: usize,
    /// Nodes in the repair ball around the region.
    pub ball: usize,
    /// Spanner edges dropped (both endpoints dirty) before re-clustering.
    pub removed: usize,
    /// Edges chosen by the re-clustering hook and installed.
    pub reclustered: usize,
    /// Edges re-added by the invariant fixup pass over the ball.
    pub refilled: usize,
}

/// A fully dynamic (2k−1)-spanner over a fixed vertex set: edge
/// insertions *and* deletions, with periodic compaction that re-clusters
/// only the dirty region through a construction hook such as
/// `baswana_sen::recluster_region`.
///
/// The maintained invariant is the edge cover: every current graph edge
/// `{u, v}` has δ_S(u, v) ≤ 2k−1 inside the maintained subgraph S —
/// equivalent to S being a (2k−1)-spanner. The spanner is always a
/// subgraph of the current graph (deleting a graph edge deletes it from
/// S too, then repairs the cover).
///
/// # Example
///
/// ```
/// use spanner_baselines::streaming::DynamicSpanner;
/// use spanner_graph::NodeId;
///
/// let mut s = DynamicSpanner::new(4, 2);
/// for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
///     s.insert(NodeId(u), NodeId(v));
/// }
/// // The 4-cycle closes within stretch 3: one edge stays graph-only.
/// assert_eq!(s.graph_len(), 4);
/// assert_eq!(s.spanner_len(), 3);
/// // Deleting a spanner edge re-promotes the bypass to repair the cover.
/// let (a, b) = s.spanner_edges().next().unwrap();
/// s.delete(a, b);
/// assert_eq!(s.spanner_len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicSpanner {
    k: u32,
    /// Current graph edges, canonical `(min, max)` pairs.
    graph: BTreeSet<(u32, u32)>,
    /// Maintained spanner edges — always a subset of `graph`.
    spanner: BTreeSet<(u32, u32)>,
    /// Graph adjacency (for enumerating edges incident to a repair ball).
    gadj: LinkedAdjacency,
    /// The spanner subgraph (for the bounded-distance cover checks).
    search: BoundedSearch,
    /// Nodes touched by edits since the last compaction.
    dirty: BTreeSet<u32>,
}

impl DynamicSpanner {
    /// An empty dynamic spanner over `n` vertices with stretch 2k−1.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        DynamicSpanner {
            k,
            graph: BTreeSet::new(),
            spanner: BTreeSet::new(),
            gadj: LinkedAdjacency::new(n),
            search: BoundedSearch::new(n),
            dirty: BTreeSet::new(),
        }
    }

    /// Rebuilds a dynamic spanner from persisted state: the current graph
    /// edges and the maintained spanner edges (canonical or not — pairs
    /// are normalized). The spanner property itself is **not** re-derived
    /// here (the differential tests own that); only structural sanity is.
    ///
    /// # Errors
    ///
    /// A message if a pair is a self-loop, out of range, duplicated, or a
    /// spanner edge is not a graph edge.
    pub fn from_state<I, J>(n: usize, k: u32, graph: I, spanner: J) -> Result<Self, String>
    where
        I: IntoIterator<Item = (u32, u32)>,
        J: IntoIterator<Item = (u32, u32)>,
    {
        assert!(k >= 1, "k must be at least 1");
        let mut s = DynamicSpanner::new(n, k);
        for (u, v) in graph {
            let key = Self::key_checked(n, u, v)?;
            if !s.graph.insert(key) {
                return Err(format!("duplicate graph edge {u}-{v}"));
            }
            s.gadj.add_edge(NodeId(key.0), NodeId(key.1));
        }
        for (u, v) in spanner {
            let key = Self::key_checked(n, u, v)?;
            if !s.graph.contains(&key) {
                return Err(format!("spanner edge {u}-{v} is not a graph edge"));
            }
            if !s.spanner.insert(key) {
                return Err(format!("duplicate spanner edge {u}-{v}"));
            }
            s.search.adj.add_edge(NodeId(key.0), NodeId(key.1));
        }
        Ok(s)
    }

    fn key_checked(n: usize, u: u32, v: u32) -> Result<(u32, u32), String> {
        if u == v {
            return Err(format!("self-loop {u}-{v}"));
        }
        if u as usize >= n || v as usize >= n {
            return Err(format!("edge {u}-{v} out of range for n = {n}"));
        }
        Ok((u.min(v), u.max(v)))
    }

    /// The stretch guarantee 2k−1.
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// The clustering parameter k.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.search.node_count()
    }

    /// Number of current graph edges.
    pub fn graph_len(&self) -> usize {
        self.graph.len()
    }

    /// Number of maintained spanner edges.
    pub fn spanner_len(&self) -> usize {
        self.spanner.len()
    }

    /// Whether `{u, v}` is a current graph edge.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.graph.contains(&(u.0.min(v.0), u.0.max(v.0)))
    }

    /// Whether `{u, v}` is a maintained spanner edge.
    pub fn spanner_contains(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.spanner.contains(&(u.0.min(v.0), u.0.max(v.0)))
    }

    /// Current graph edges in canonical sorted order.
    pub fn graph_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.graph.iter().map(|&(u, v)| (NodeId(u), NodeId(v)))
    }

    /// Maintained spanner edges in canonical sorted order.
    pub fn spanner_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.spanner.iter().map(|&(u, v)| (NodeId(u), NodeId(v)))
    }

    /// Nodes dirtied by edits since the last [`DynamicSpanner::compact`].
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Materializes the current graph. Edge ids follow the canonical
    /// lexicographic order of [`Graph::from_edges`].
    pub fn to_graph(&self) -> Graph {
        Graph::from_sorted_edges(self.node_count(), self.graph.iter().copied())
    }

    /// The maintained spanner as an [`EdgeSet`] over `g`, which must be
    /// [`DynamicSpanner::to_graph`] of the current state.
    ///
    /// # Panics
    ///
    /// Panics if a spanner edge is missing from `g`.
    pub fn spanner_edge_set(&self, g: &Graph) -> EdgeSet {
        let mut set = EdgeSet::new(g);
        for &(u, v) in &self.spanner {
            let e = g
                .find_edge(NodeId(u), NodeId(v))
                .expect("spanner edge must be a graph edge");
            set.insert(e);
        }
        set
    }

    /// Inserts the graph edge `{u, v}`; returns whether the graph changed
    /// (false for self-loops and duplicates). The edge joins the spanner
    /// iff the current spanner distance between its endpoints exceeds
    /// 2k−1 — the invariant for every other edge is untouched, since
    /// adding edges never increases spanner distances.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "endpoint out of range"
        );
        if u == v {
            return false;
        }
        let key = (u.0.min(v.0), u.0.max(v.0));
        if !self.graph.insert(key) {
            return false;
        }
        self.gadj.add_edge(u, v);
        self.dirty.extend([key.0, key.1]);
        if !self.search.within(u, v, self.stretch()) {
            self.spanner.insert(key);
            self.search.adj.add_edge(u, v);
        }
        true
    }

    /// Deletes the graph edge `{u, v}`; returns whether the graph changed.
    ///
    /// A graph-only edge just disappears. Deleting a *spanner* edge
    /// additionally repairs the cover invariant: the ball of radius k−1
    /// around `u` in S is computed **before** the removal (every edge
    /// with a cover path through `{u, v}` has an endpoint in that ball;
    /// see the module docs), the edge is
    /// dropped, and every remaining graph edge with an endpoint in the
    /// ball is re-checked — re-entering S when its endpoints drifted
    /// beyond 2k−1 apart.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "endpoint out of range"
        );
        if u == v {
            return false;
        }
        let key = (u.0.min(v.0), u.0.max(v.0));
        if !self.graph.remove(&key) {
            return false;
        }
        self.gadj.remove_edge(u, v);
        self.dirty.extend([key.0, key.1]);
        if self.spanner.remove(&key) {
            let ball = self.search.ball(&[u], self.k - 1);
            self.search.adj.remove_edge(u, v);
            self.refill(&ball);
        }
        true
    }

    /// Compacts the accumulated edits: re-clusters the dirty region
    /// through `recluster` (a hook like
    /// `baswana_sen::recluster_region(g, region, ...)` partially applied),
    /// replacing every spanner edge internal to the region with the
    /// hook's choice, then restores the cover invariant with one fixup
    /// pass over the graph edges incident to the region's pre-removal
    /// ball. Clears the dirty set.
    ///
    /// The hook receives the materialized current graph and the sorted
    /// dirty region, and must return a subset of the graph's edges
    /// spanning the induced subgraph within stretch 2k−1
    /// (`baswana_sen::recluster_region` guarantees this).
    pub fn compact<F>(&mut self, recluster: F) -> CompactStats
    where
        F: FnOnce(&Graph, &[NodeId]) -> EdgeSet,
    {
        if self.dirty.is_empty() {
            return CompactStats::default();
        }
        let region: Vec<NodeId> = self.dirty.iter().map(|&v| NodeId(v)).collect();
        // Pre-removal ball: a cover path of length ≤ 2k−1 through a
        // region-internal spanner edge has outer pieces of total length
        // ≤ 2k−2, so one of them ends within k−1 of the region.
        let ball = self.search.ball(&region, self.k - 1);
        let g = self.to_graph();
        let chosen = recluster(&g, &region);
        let doomed: Vec<(u32, u32)> = self
            .spanner
            .iter()
            .copied()
            .filter(|&(a, b)| self.dirty.contains(&a) && self.dirty.contains(&b))
            .collect();
        for &(a, b) in &doomed {
            self.spanner.remove(&(a, b));
            self.search.adj.remove_edge(NodeId(a), NodeId(b));
        }
        let mut reclustered = 0usize;
        for e in chosen.iter() {
            let (a, b) = g.endpoints(e);
            let key = (a.0.min(b.0), a.0.max(b.0));
            debug_assert!(self.graph.contains(&key), "hook chose a non-graph edge");
            if self.spanner.insert(key) {
                self.search.adj.add_edge(a, b);
                reclustered += 1;
            }
        }
        let refilled = self.refill(&ball);
        let stats = CompactStats {
            region: region.len(),
            ball: ball.len(),
            removed: doomed.len(),
            reclustered,
            refilled,
        };
        self.dirty.clear();
        stats
    }

    /// Re-checks every graph edge with an endpoint in `ball` against the
    /// current spanner, adding the ones whose cover broke. Candidates are
    /// visited in canonical sorted order so the result is deterministic.
    /// Returns the number of edges added.
    fn refill(&mut self, ball: &[NodeId]) -> usize {
        let mut candidates: BTreeSet<(u32, u32)> = BTreeSet::new();
        for &x in ball {
            for y in self.gadj.neighbors(x) {
                candidates.insert((x.0.min(y.0), x.0.max(y.0)));
            }
        }
        let mut added = 0usize;
        for (a, b) in candidates {
            if self.spanner.contains(&(a, b)) {
                continue;
            }
            let (u, v) = (NodeId(a), NodeId(b));
            if !self.search.within(u, v, self.stretch()) {
                self.spanner.insert((a, b));
                self.search.adj.add_edge(u, v);
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Pairs;
    use std::collections::VecDeque;

    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use spanner_graph::girth::girth_exceeds;
    use spanner_graph::{generators, Graph};
    use ultrasparse::Spanner;

    /// Streams all edges of `g` in the given order; returns the kept set
    /// as a spanner of `g`.
    fn stream_graph(g: &Graph, k: u32, shuffle_seed: Option<u64>) -> Spanner {
        let mut order: Vec<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        if let Some(seed) = shuffle_seed {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
        }
        let mut s = StreamingSpanner::new(g.node_count(), k);
        for (u, v) in order {
            s.offer(u, v);
        }
        let mut edges = spanner_graph::EdgeSet::new(g);
        for &(u, v) in s.edges() {
            edges.insert(g.find_edge(u, v).expect("streamed edge"));
        }
        Spanner::from_edges(edges)
    }

    #[test]
    fn stretch_and_girth_any_order() {
        let g = generators::connected_gnm(150, 1_500, 3);
        for (k, shuffle) in [(2u32, None), (2, Some(7)), (3, Some(8))] {
            let s = stream_graph(&g, k, shuffle);
            assert!(s.is_spanning(&g));
            let r = s.stretch(&g, Pairs::All, 1);
            assert!(
                r.satisfies_multiplicative((2 * k - 1) as f64),
                "k={k} shuffle={shuffle:?}: {}",
                r.max_multiplicative
            );
            let sub = s.edges.to_graph(&g);
            assert!(girth_exceeds(&sub, 2 * k));
        }
    }

    #[test]
    fn memory_bound_k2() {
        // Girth > 4 => O(n^{3/2}) kept edges regardless of stream length.
        let n = 400;
        let g = generators::connected_gnm(n, 15_000, 5);
        let s = stream_graph(&g, 2, Some(1));
        let bound = (n as f64).powf(1.5) + n as f64;
        assert!((s.len() as f64) < bound, "{} vs {bound}", s.len());
    }

    #[test]
    fn prefix_property() {
        // At every point of the stream the kept set spans the prefix.
        let g = generators::connected_gnm(60, 300, 9);
        let mut s = StreamingSpanner::new(60, 2);
        let mut prefix: Vec<(u32, u32)> = Vec::new();
        for (i, (_, u, v)) in g.edges().enumerate() {
            s.offer(u, v);
            prefix.push((u.0, v.0));
            if i % 50 == 49 {
                let pg = Graph::from_edges(60, prefix.iter().copied());
                let mut kept = spanner_graph::EdgeSet::new(&pg);
                for &(a, b) in s.edges() {
                    kept.insert(pg.find_edge(a, b).expect("kept edge in prefix"));
                }
                assert!(Spanner::from_edges(kept).is_spanning(&pg), "prefix {i}");
            }
        }
    }

    /// The single-direction bounded BFS the filters once ran, kept as the
    /// reference the proptest suite cross-checks [`BoundedSearch::within`]
    /// against.
    fn within_one_sided(search: &mut BoundedSearch, u: NodeId, v: NodeId, limit: u32) -> bool {
        let mine = search.fresh_stamps(1);
        search.stamp[u.index()] = mine;
        let mut queue = VecDeque::from([(u, 0u32)]);
        while let Some((x, d)) = queue.pop_front() {
            if x == v {
                return true;
            }
            if d == limit {
                continue;
            }
            for y in search.adj.neighbors(x) {
                if search.stamp[y.index()] != mine {
                    search.stamp[y.index()] = mine;
                    queue.push_back((y, d + 1));
                }
            }
        }
        false
    }

    // Both filters' searches against the one-sided reference: the
    // streaming filter after `m` random offers, and the dynamic spanner
    // after the same inserts followed by `removals` random deletions
    // (whose cover repairs, over the search's ball, must restore the
    // invariant).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn bidirectional_matches_unidirectional(
            n in 2usize..=40,
            m in 0usize..=160,
            removals in 0usize..=80,
            k in 1u32..=4,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut stream = StreamingSpanner::new(n, k);
            let mut dynamic = DynamicSpanner::new(n, k);
            for _ in 0..m {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                if u != v {
                    stream.offer(u, v);
                    dynamic.insert(u, v);
                }
            }
            let mut live: Vec<(NodeId, NodeId)> = dynamic.graph_edges().collect();
            for _ in 0..removals.min(live.len()) {
                let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                prop_assert!(dynamic.delete(u, v));
            }
            assert_dynamic_invariant(&dynamic);
            for _ in 0..64 {
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                if u == v {
                    continue;
                }
                let limit = rng.gen_range(0..=2 * k + 2);
                for search in [&mut stream.search, &mut dynamic.search] {
                    prop_assert_eq!(
                        search.within(u, v, limit),
                        within_one_sided(search, u, v, limit),
                        "query ({u}, {v}) limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn stamps_restart_when_the_epoch_runs_out() {
        let mut s = StreamingSpanner::new(4, 2);
        s.offer(NodeId(0), NodeId(1));
        s.offer(NodeId(1), NodeId(2));
        s.search.epoch = u32::MAX - 2;
        assert!(s.search.within(NodeId(0), NodeId(2), 2));
        // The next query needs two stamps past u32::MAX: all stamps reset.
        assert!(!s.search.within(NodeId(0), NodeId(3), 3));
        assert_eq!(s.search.epoch, 2);
        assert!(s.search.within(NodeId(2), NodeId(0), 2));
        assert_eq!(s.search.ball(&[NodeId(0)], 1), [NodeId(0), NodeId(1)]);
    }

    #[test]
    fn duplicates_and_loops_filtered() {
        let mut s = StreamingSpanner::new(3, 2);
        assert!(!s.offer(NodeId(1), NodeId(1)));
        assert!(s.offer(NodeId(0), NodeId(1)));
        assert!(!s.offer(NodeId(0), NodeId(1)));
        assert!(!s.offer(NodeId(1), NodeId(0)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    /// Asserts the cover invariant of `s` directly: the spanner is a
    /// subgraph of the graph and every graph edge's endpoints are within
    /// stretch in the spanner (checked by exact verification).
    fn assert_dynamic_invariant(s: &DynamicSpanner) {
        let g = s.to_graph();
        let set = s.spanner_edge_set(&g);
        let spanner = Spanner::from_edges(set);
        let r = spanner.stretch(&g, Pairs::All, 1);
        assert!(
            r.satisfies_multiplicative(s.stretch() as f64),
            "cover invariant broken: stretch {} > {}",
            r.max_multiplicative,
            s.stretch()
        );
    }

    #[test]
    fn dynamic_insert_matches_streaming_filter() {
        // With insert-only traffic the dynamic spanner IS the streaming
        // filter: same kept set for the same arrival order.
        let g = generators::connected_gnm(80, 400, 13);
        let mut stream = StreamingSpanner::new(80, 2);
        let mut dynamic = DynamicSpanner::new(80, 2);
        for (_, u, v) in g.edges() {
            let kept = stream.offer(u, v);
            dynamic.insert(u, v);
            assert_eq!(kept, dynamic.spanner_contains(u, v), "edge {u}-{v}");
        }
        assert_eq!(dynamic.spanner_len(), stream.len());
        assert_eq!(dynamic.graph_len(), g.edge_count());
    }

    #[test]
    fn dynamic_delete_repairs_cover() {
        use rand::{Rng, SeedableRng};
        let g = generators::connected_gnm(60, 240, 21);
        let mut s = DynamicSpanner::new(60, 2);
        for (_, u, v) in g.edges() {
            s.insert(u, v);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut live: Vec<(NodeId, NodeId)> = s.graph_edges().collect();
        for _ in 0..120 {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            assert!(s.delete(u, v));
            assert!(!s.contains(u, v));
            assert!(!s.spanner_contains(u, v));
        }
        assert_eq!(s.graph_len(), g.edge_count() - 120);
        assert_dynamic_invariant(&s);
    }

    /// The repair ball's radius k−1 is tight. On the 2k-cycle, S is the
    /// path 0–1–…–(2k−1) and covers the left-out edge {2k−1, 0} with
    /// length 2k−1. Deleting the S edge {k−1, k}, at distance k−1 from
    /// both ends of the left-out edge, breaks that cover; only node 0 is
    /// within k−1 of the ball's centre k−1, so a ball of radius k−2
    /// misses the edge.
    #[test]
    fn dynamic_delete_ball_reaches_k_minus_one() {
        for k in 2..=5u32 {
            let n = 2 * k;
            let mut s = DynamicSpanner::new(n as usize, k);
            for v in 0..n {
                s.insert(NodeId(v), NodeId((v + 1) % n));
            }
            assert!(!s.spanner_contains(NodeId(n - 1), NodeId(0)), "k = {k}");
            assert!(s.delete(NodeId(k - 1), NodeId(k)));
            assert!(s.spanner_contains(NodeId(n - 1), NodeId(0)), "k = {k}");
            assert_eq!(s.spanner_len(), s.graph_len(), "k = {k}");
            assert_dynamic_invariant(&s);
        }
    }

    /// Compaction's repair ball needs radius k−1 as well. The 2k-cycle is
    /// loaded with S the path 0–1–…–(2k−1), which covers {2k−1, 0} with
    /// length 2k−1; inserting {k−1, w} and {w, k} for a new node w dirties
    /// {k−1, k, w}. The hook re-covers the region edge {k−1, k} only by
    /// the longer path through w, so the cover of {2k−1, 0} grows to 2k.
    /// Both its ends are at distance k−1 from the region, so a ball of
    /// radius k−2 misses it.
    #[test]
    fn dynamic_compact_ball_reaches_k_minus_one() {
        for k in 2..=5u32 {
            let (n, w) = (2 * k, 2 * k);
            let cycle: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            let path = cycle[..cycle.len() - 1].to_vec();
            let mut s = DynamicSpanner::from_state(n as usize + 1, k, cycle, path).unwrap();
            assert!(s.insert(NodeId(k - 1), NodeId(w)));
            assert!(s.insert(NodeId(w), NodeId(k)));
            assert_eq!(s.dirty_len(), 3);
            let detour = |g: &Graph, _: &[NodeId]| {
                let mut chosen = EdgeSet::new(g);
                for (a, b) in [(k - 1, w), (w, k)] {
                    chosen.insert(g.find_edge(NodeId(a), NodeId(b)).unwrap());
                }
                chosen
            };
            let stats = s.compact(detour);
            assert_eq!(stats.removed, 2, "k = {k}");
            assert!(!s.spanner_contains(NodeId(k - 1), NodeId(k)), "k = {k}");
            assert!(s.spanner_contains(NodeId(n - 1), NodeId(0)), "k = {k}");
            assert_dynamic_invariant(&s);
        }
    }

    #[test]
    fn dynamic_compact_preserves_cover() {
        use rand::{Rng, SeedableRng};
        // Re-cluster through the real Baswana–Sen hook mid-stream. The
        // closure captures nothing, so it is `Copy` and reusable.
        let hook = |g: &Graph, region: &[NodeId]| {
            let params = crate::baswana_sen::BaswanaSenParams::new(2).unwrap();
            crate::baswana_sen::recluster_region(g, region, &params, 11)
        };
        let g = generators::connected_gnm(70, 300, 9);
        let mut s = DynamicSpanner::new(70, 2);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        for (i, (_, u, v)) in g.edges().enumerate() {
            s.insert(u, v);
            if i % 40 == 39 {
                // Also delete something to dirty more of the region.
                let (du, dv) = s
                    .graph_edges()
                    .nth(rng.gen_range(0..s.graph_len()))
                    .unwrap();
                s.delete(du, dv);
                assert!(s.dirty_len() > 0);
                let stats = s.compact(hook);
                assert!(stats.region > 0);
                assert_eq!(s.dirty_len(), 0);
                assert_dynamic_invariant(&s);
            }
        }
        assert_dynamic_invariant(&s);
        // Drain the tail edits, then compacting with nothing dirty is a
        // no-op.
        s.compact(hook);
        assert_eq!(s.dirty_len(), 0);
        let stats = s.compact(hook);
        assert_eq!(stats, CompactStats::default());
        assert_dynamic_invariant(&s);
    }

    #[test]
    fn dynamic_from_state_round_trips_and_validates() {
        let g = generators::connected_gnm(40, 150, 2);
        let mut s = DynamicSpanner::new(40, 3);
        for (_, u, v) in g.edges() {
            s.insert(u, v);
        }
        let graph: Vec<(u32, u32)> = s.graph_edges().map(|(u, v)| (u.0, v.0)).collect();
        let spanner: Vec<(u32, u32)> = s.spanner_edges().map(|(u, v)| (u.0, v.0)).collect();
        let back =
            DynamicSpanner::from_state(40, 3, graph.iter().copied(), spanner.iter().copied())
                .unwrap();
        assert_eq!(
            back.graph_edges().collect::<Vec<_>>(),
            s.graph_edges().collect::<Vec<_>>()
        );
        assert_eq!(
            back.spanner_edges().collect::<Vec<_>>(),
            s.spanner_edges().collect::<Vec<_>>()
        );
        // Structural validation failures are typed messages, not panics.
        assert!(DynamicSpanner::from_state(40, 3, [(1, 1)], []).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 99)], []).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 1), (1, 0)], []).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 1)], [(0, 2)]).is_err());
        assert!(DynamicSpanner::from_state(40, 3, [(0, 1)], [(0, 1), (1, 0)]).is_err());
    }

    #[test]
    fn dynamic_delete_to_disconnection() {
        // Deleting a bridge disconnects the graph; the exempt pair stays
        // exempt and the spanner tracks the surviving components.
        let mut s = DynamicSpanner::new(6, 2);
        for (u, v) in [(0u32, 1), (1, 2), (3, 4), (4, 5), (2, 3)] {
            s.insert(NodeId(u), NodeId(v));
        }
        assert!(s.delete(NodeId(2), NodeId(3)));
        assert_eq!(s.graph_len(), 4);
        assert_dynamic_invariant(&s);
        // Delete everything: empty graph, empty spanner.
        let live: Vec<(NodeId, NodeId)> = s.graph_edges().collect();
        for (u, v) in live {
            assert!(s.delete(u, v));
        }
        assert_eq!(s.graph_len(), 0);
        assert_eq!(s.spanner_len(), 0);
        assert_dynamic_invariant(&s);
    }
}
