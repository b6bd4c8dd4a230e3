//! Approximate distance oracles — the application domain the paper's
//! conclusion points at.
//!
//! *"Perhaps the most interesting applications of spanners are in
//! constructing distance labeling schemes, approximate distance oracles,
//! and compact routing tables"* (Pettie, Sect. 5). This crate implements
//! the canonical such structure, the **Thorup–Zwick oracle** \[38\]:
//! O(k·n^{1+1/k}) space, O(k) query time, stretch 2k−1 — and the
//! (2k−1)-spanner it induces (the union of the bunch shortest paths),
//! which is the "same girth-bound tradeoff" the paper's open problems
//! measure everything against.
//!
//! The oracle construction reuses the level-sampling idiom shared with the
//! Fibonacci spanner: `A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k−1}`, sampling probability
//! n^{−1/k} per level, with *witnesses* `p_i(v)` (nearest `A_i` vertex,
//! min-id tie-break) and *bunches*
//! `B(v) = ∪_i { w ∈ A_i \ A_{i+1} : δ(w, v) < δ(v, A_{i+1}) }`.
//!
//! It also shares the Fibonacci spanner's tree builders. The witnesses
//! are [`DistanceEngine::nearest_sources`] per level, and each `v`'s edge
//! toward `p_i(v)` is [`MultiSourceFlat::parent`]. The bunches are the
//! transposed clusters `C(w) = { v : δ(w, v) < δ(v, A_{i+1}) }`, each a
//! BFS tree from `w` whose edges go into the induced spanner. Below the
//! top level a cluster is truncated and grown alone by
//! [`ClusterBfs::grow`]; a top-level centre (`A_{k−1}`) keeps its whole
//! component, and those trees come 64 centres at a time from
//! [`DistanceEngine::batch_trees`]. The clusters are
//! stored one per centre in a cluster table (a row of n slots for a
//! cluster of at least n/2 members, a sorted run otherwise), so the probe
//! `w ∈ B(v)` reads member `v` of `C(w)`. [`RoutingScheme`] is the k = 2
//! case of the same cluster forest over its landmark set, in the same
//! kind of table.

#![deny(missing_docs)]

pub mod routing;
mod table;

pub use routing::{Address, RoutingScheme};

use std::fmt;

use rand::Rng;

use spanner_graph::components::connected_components;
use spanner_graph::distance::UNREACHABLE;
use spanner_graph::engine::MultiSourceFlat;
use spanner_graph::traversal::ClusterBfs;
use spanner_graph::{DistanceEngine, EdgeSet, Graph, NodeId};
use spanner_netsim::rng::node_rng;
use ultrasparse::Spanner;

use table::{ClusterTable, Value};

/// Typed error returned by the fallible query endpoints
/// ([`DistanceOracle::try_query`], [`RoutingScheme::try_route`], …): the
/// caller supplied a node id that is not a vertex of the graph the
/// structure was built over.
///
/// The panicking endpoints ([`DistanceOracle::query`],
/// [`RoutingScheme::route`]) remain for callers that control their
/// inputs; serving layers, which face untrusted ids, use the `try_*`
/// forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The node id is out of range for the underlying graph.
    UnknownNode {
        /// The offending id.
        node: NodeId,
        /// Number of vertices of the graph; valid ids are `0..nodes`.
        nodes: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::UnknownNode { node, nodes } => {
                write!(f, "unknown node {node}: graph has {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-query cost counters — the message/word lens of the Bitton et al.
/// message-reduction line of work applied to oracle queries: how many
/// table reads a query performed, independent of wall-clock time.
///
/// A bunch probe reads one cluster-table entry (two `O(log n)`-bit
/// words: member and distance); a witness read touches one entry of the
/// `p_i` witness array (also two words). `words()` is the total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Probes into bunch tables `B(·)`.
    pub bunch_probes: u32,
    /// Reads of witness entries `p_i(·)`.
    pub witness_reads: u32,
}

impl QueryCost {
    /// Total `O(log n)`-bit words touched (two per probe/read).
    pub fn words(&self) -> u32 {
        2 * (self.bunch_probes + self.witness_reads)
    }
}

/// A Thorup–Zwick approximate distance oracle with stretch 2k−1.
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    k: u32,
    /// `witness[i]`: distance from every v to A_i and p_i(v), its
    /// nearest A_i vertex (unreachable if A_i is empty or in another
    /// component).
    witness: Vec<MultiSourceFlat>,
    /// The bunches, stored as their clusters: `bunch.get(w, v)` is
    /// δ(w, v) exactly when `w ∈ B(v)`.
    bunch: ClusterTable,
    /// Edges of the induced (2k−1)-spanner (union of bunch/witness
    /// shortest-path trees).
    spanner_edges: EdgeSet,
}

impl DistanceOracle {
    /// Builds the oracle with `k` levels. Deterministic in `seed`.
    ///
    /// Expected preprocessing O(k·m·n^{1/k})-ish: a truncated
    /// [`ClusterBfs`] per vertex below the top level, and the whole-graph
    /// BFS trees of the ~n^{1/k} top-level centres from
    /// [`DistanceEngine::batch_trees`], 64 centres per call; expected size
    /// O(k·n^{1+1/k}).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn build(g: &Graph, k: u32, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = g.node_count();
        let p = (n.max(2) as f64).powf(-1.0 / k as f64);

        // Level of each vertex: largest i with v ∈ A_i.
        let level: Vec<u32> = g
            .nodes()
            .map(|v| {
                let mut rng = node_rng(seed, v.0, 3);
                let mut l = 0;
                for _ in 1..k {
                    if rng.gen::<f64>() < p {
                        l += 1;
                    } else {
                        break;
                    }
                }
                l
            })
            .collect();

        // Witnesses per level: nearest A_i vertex, min-id attribution.
        let engine = DistanceEngine::new(g);
        let witness: Vec<MultiSourceFlat> = (0..k)
            .map(|i| {
                let sources: Vec<NodeId> = g.nodes().filter(|v| level[v.index()] >= i).collect();
                engine.nearest_sources(&sources)
            })
            .collect();

        // Bunches: the cluster of each w at exactly level i keeps the
        // vertices v with δ(w, v) < δ(v, A_{i+1}); its tree edges go into
        // the induced spanner. The top level A_{k−1} is not truncated: its
        // clusters are whole components, built in engine batches.
        let mut spanner_edges = EdgeSet::new(g);
        let top: Vec<NodeId> = g.nodes().filter(|v| level[v.index()] == k - 1).collect();
        let comps = connected_components(g);
        let value = Value::Distance(&mut spanner_edges);
        let mut full = table::full_clusters(g, &comps, &top, value).into_iter();
        let mut bunch = ClusterTable::new(n);
        let mut bfs = ClusterBfs::new(n);
        for w in g.nodes() {
            let Some(trunc) = witness.get(level[w.index()] as usize + 1) else {
                bunch.push_full(full.next().expect("one cluster per top-level centre"));
                continue;
            };
            bfs.grow(g, w, u32::MAX, |y, d| d < trunc.dist[y.index()]);
            bunch.push(bfs.tree().map(|(v, d, _, e)| {
                spanner_edges.insert(e);
                (v, d)
            }));
        }
        // Witness paths: each v keeps its edge toward p_i(v) at every
        // level (needed so queries are realizable inside the spanner).
        for wit in &witness {
            for v in g.nodes() {
                if let Some((_, e)) = wit.parent(g, v) {
                    spanner_edges.insert(e);
                }
            }
        }

        DistanceOracle {
            k,
            witness,
            bunch,
            spanner_edges,
        }
    }

    /// The stretch parameter: queries return at most (2k−1)·δ(u, v).
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// The number of levels `k` the oracle was built with.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices of the graph the oracle was built over; valid
    /// query ids are `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.witness[0].dist.len()
    }

    fn check(&self, v: NodeId) -> Result<(), QueryError> {
        if v.index() < self.node_count() {
            Ok(())
        } else {
            Err(QueryError::UnknownNode {
                node: v,
                nodes: self.node_count(),
            })
        }
    }

    /// Total bunch entries — the oracle's space, up to the O(k·n) witness
    /// arrays.
    pub fn size(&self) -> usize {
        self.bunch.len()
    }

    /// Estimated distance between `u` and `v`: exact distances compose as
    /// `δ(w, u) + δ(w, v)` for the first witness `w` of one endpoint lying
    /// in the other's bunch. Returns
    /// [`UNREACHABLE`] for
    /// disconnected pairs.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a vertex of the underlying graph; use
    /// [`DistanceOracle::try_query`] for untrusted ids.
    pub fn query(&self, u: NodeId, v: NodeId) -> u32 {
        match self.query_cost(u, v) {
            Ok((d, _)) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`DistanceOracle::query`]: returns a typed
    /// [`QueryError`] instead of panicking on out-of-range ids.
    pub fn try_query(&self, u: NodeId, v: NodeId) -> Result<u32, QueryError> {
        self.query_cost(u, v).map(|(d, _)| d)
    }

    /// [`DistanceOracle::try_query`] plus the per-query [`QueryCost`]
    /// (bunch probes and witness reads performed by the query chain).
    pub fn query_cost(&self, mut u: NodeId, mut v: NodeId) -> Result<(u32, QueryCost), QueryError> {
        self.check(u)?;
        self.check(v)?;
        let mut cost = QueryCost::default();
        if u == v {
            return Ok((0, cost));
        }
        let mut w = u;
        let mut dwu = 0u32;
        for i in 0..self.k as usize {
            // Invariant: w = p_i(u) with δ(w, u) = dwu.
            if w == v {
                return Ok((dwu, cost));
            }
            cost.bunch_probes += 1;
            if let Some(dwv) = self.bunch.get(w, v) {
                return Ok((dwu + dwv, cost));
            }
            if i + 1 == self.k as usize {
                break;
            }
            std::mem::swap(&mut u, &mut v);
            cost.witness_reads += 1;
            match nearest(&self.witness[i + 1], u) {
                Some((d, s)) => {
                    dwu = d;
                    w = s;
                }
                None => return Ok((UNREACHABLE, cost)),
            }
        }
        Ok((UNREACHABLE, cost))
    }

    /// The direct-probe leg of the query: `Some(0)` if `u == v`, the exact
    /// distance `δ(u, v)` if `u ∈ B(v)`, `None` otherwise.
    ///
    /// This is the first bunch probe of the query chain, exposed on its
    /// own so callers can read one table entry: whether `u ∈ B(v)`, and
    /// at what distance.
    pub fn direct_distance(&self, u: NodeId, v: NodeId) -> Result<Option<u32>, QueryError> {
        self.check(u)?;
        self.check(v)?;
        if u == v {
            return Ok(Some(0));
        }
        Ok(self.bunch.get(u, v))
    }

    /// The level-1 witness `p_1(v)` of `v` — its *landmark bucket* — and
    /// the distance to it, or `None` if `A_1` is unreachable from `v` (or
    /// `k == 1`, where no sampled level exists).
    pub fn sampled_witness(&self, v: NodeId) -> Result<Option<(u32, NodeId)>, QueryError> {
        self.check(v)?;
        Ok(self.witness.get(1).and_then(|w| nearest(w, v)))
    }

    /// The (2k−1)-spanner induced by the oracle's shortest-path trees.
    pub fn to_spanner(&self) -> Spanner {
        Spanner::from_edges(self.spanner_edges.clone())
    }
}

/// `(δ(v, A_i), p_i(v))` from level i's witness search, or `None` if no
/// A_i vertex reaches `v`.
fn nearest(witness: &MultiSourceFlat, v: NodeId) -> Option<(u32, NodeId)> {
    let d = witness.dist[v.index()];
    (d != UNREACHABLE).then(|| (d, NodeId(witness.source[v.index()])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Apsp;
    use spanner_graph::distance::Pairs;
    use spanner_graph::generators;

    fn check_oracle(g: &Graph, k: u32, seed: u64) {
        let oracle = DistanceOracle::build(g, k, seed);
        let apsp = Apsp::new(g);
        let stretch = oracle.stretch() as u64;
        for u in g.nodes() {
            for v in g.nodes() {
                let exact = apsp.dist(u, v);
                let est = oracle.query(u, v);
                if exact == UNREACHABLE {
                    assert_eq!(est, UNREACHABLE, "({u},{v})");
                } else {
                    assert!(est as u64 >= exact as u64, "({u},{v}): est < exact");
                    assert!(
                        est as u64 <= stretch * exact as u64,
                        "({u},{v}): est {est} > {stretch} * {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn stretch_guarantee_small_graphs() {
        for (seed, k) in [(1u64, 2u32), (2, 3), (3, 4)] {
            let g = generators::connected_gnm(120, 600, seed);
            check_oracle(&g, k, seed + 10);
        }
    }

    #[test]
    fn stretch_on_structured_graphs() {
        check_oracle(&generators::grid(9, 11), 2, 5);
        check_oracle(&generators::cycle(60), 3, 6);
        check_oracle(&generators::caveman(8, 8, 5, 2), 2, 7);
    }

    #[test]
    fn disconnected_pairs() {
        let g = Graph::from_edges(6, [(0u32, 1), (1, 2), (3, 4), (4, 5)]);
        let oracle = DistanceOracle::build(&g, 2, 1);
        assert_eq!(oracle.query(NodeId(0), NodeId(3)), UNREACHABLE);
        assert!(oracle.query(NodeId(0), NodeId(2)) >= 2);
    }

    #[test]
    fn k1_is_exact() {
        // k = 1: every vertex's bunch is everything — exact distances.
        let g = generators::connected_gnm(80, 300, 4);
        let oracle = DistanceOracle::build(&g, 1, 2);
        let apsp = Apsp::new(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(oracle.query(u, v), apsp.dist(u, v));
            }
        }
    }

    #[test]
    fn size_scales_with_k() {
        let g = generators::connected_gnm(2_000, 30_000, 9);
        let o2 = DistanceOracle::build(&g, 2, 3);
        let o4 = DistanceOracle::build(&g, 4, 3);
        let n = g.node_count() as f64;
        // k = 2: E[size] ~ k n^{3/2}; generous constant.
        assert!(
            (o2.size() as f64) < 6.0 * n.powf(1.5),
            "k=2 size {}",
            o2.size()
        );
        // Larger k is smaller (asymptotically); allow noise.
        assert!(
            (o4.size() as f64) < 1.2 * o2.size() as f64,
            "k=4 {} vs k=2 {}",
            o4.size(),
            o2.size()
        );
    }

    #[test]
    fn induced_spanner_has_oracle_stretch() {
        let g = generators::connected_gnm(200, 1_200, 6);
        let k = 2;
        let oracle = DistanceOracle::build(&g, k, 8);
        let s = oracle.to_spanner();
        assert!(s.is_spanning(&g));
        let r = s.stretch(&g, Pairs::All, 1);
        assert!(
            r.satisfies_multiplicative((2 * k - 1) as f64),
            "spanner stretch {}",
            r.max_multiplicative
        );
    }

    #[test]
    fn query_symmetric_enough() {
        // The TZ query is not literally symmetric, but both directions
        // must satisfy the stretch bound; check they agree on a sample.
        let g = generators::connected_gnm(150, 700, 3);
        let oracle = DistanceOracle::build(&g, 3, 4);
        let apsp = Apsp::new(&g);
        for (a, b) in [(0u32, 97), (5, 60), (33, 149)] {
            let (u, v) = (NodeId(a), NodeId(b));
            let exact = apsp.dist(u, v) as u64;
            for est in [oracle.query(u, v), oracle.query(v, u)] {
                assert!(est as u64 >= exact);
                assert!(est as u64 <= 5 * exact);
            }
        }
    }

    #[test]
    fn try_query_rejects_unknown_nodes_on_both_endpoints() {
        let g = generators::connected_gnm(40, 120, 11);
        let oracle = DistanceOracle::build(&g, 2, 1);
        let bad = NodeId(40);
        let err = QueryError::UnknownNode {
            node: bad,
            nodes: 40,
        };
        assert_eq!(oracle.try_query(bad, NodeId(0)), Err(err));
        assert_eq!(oracle.try_query(NodeId(0), bad), Err(err));
        assert_eq!(
            oracle.try_query(NodeId(u32::MAX), NodeId(0)),
            Err(QueryError::UnknownNode {
                node: NodeId(u32::MAX),
                nodes: 40
            })
        );
        // In-range ids agree with the panicking endpoint.
        for (a, b) in [(0u32, 1), (3, 17), (39, 0)] {
            assert_eq!(
                oracle.try_query(NodeId(a), NodeId(b)),
                Ok(oracle.query(NodeId(a), NodeId(b)))
            );
        }
        // The decomposed helpers reject bad ids too.
        assert!(oracle.direct_distance(bad, NodeId(0)).is_err());
        assert!(oracle.direct_distance(NodeId(0), bad).is_err());
        assert!(oracle.sampled_witness(bad).is_err());
    }

    #[test]
    fn query_cost_counts_table_reads() {
        let g = generators::connected_gnm(60, 200, 12);
        let oracle = DistanceOracle::build(&g, 3, 5);
        let (_, zero) = oracle.query_cost(NodeId(7), NodeId(7)).unwrap();
        assert_eq!(zero, QueryCost::default());
        assert_eq!(zero.words(), 0);
        let mut max_probes = 0;
        for (a, b) in [(0u32, 1), (2, 50), (13, 44), (59, 3)] {
            let (d, cost) = oracle.query_cost(NodeId(a), NodeId(b)).unwrap();
            assert_eq!(d, oracle.query(NodeId(a), NodeId(b)));
            // The chain does at most k bunch probes and k−1 witness reads.
            assert!(cost.bunch_probes >= 1 && cost.bunch_probes <= oracle.k());
            assert!(cost.witness_reads < oracle.k());
            assert_eq!(cost.words(), 2 * (cost.bunch_probes + cost.witness_reads));
            max_probes = max_probes.max(cost.bunch_probes);
        }
        assert!(max_probes >= 1);
    }

    #[test]
    fn deterministic() {
        let g = generators::connected_gnm(100, 400, 2);
        let a = DistanceOracle::build(&g, 2, 9);
        let b = DistanceOracle::build(&g, 2, 9);
        assert_eq!(a.size(), b.size());
        assert_eq!(
            a.query(NodeId(0), NodeId(50)),
            b.query(NodeId(0), NodeId(50))
        );
    }
}
