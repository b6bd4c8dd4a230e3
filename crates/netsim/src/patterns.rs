//! Reusable protocol building blocks.
//!
//! The constructions in the paper are assembled from a handful of
//! communication patterns:
//!
//! * [`FloodProtocol`] — radius-bounded flooding ("every vertex in `V_i`
//!   notifies its neighbors…", Sect. 4.4 stage 1),
//! * [`MinIdBroadcast`] — distributed multi-source BFS computing, at every
//!   node, the distance to and identity of the nearest source with
//!   minimum-id tie-breaking; this is exactly the first stage of the
//!   Fibonacci construction (computing `p_i(v)`) and doubles as a leader
//!   election,
//! * [`ConvergecastCount`] — counting/aggregation up a rooted tree, the
//!   primitive behind the candidate-edge aggregation of Theorem 2's
//!   implementation.
//!
//! Each is a complete [`Protocol`] usable on its own and serves as a tested
//! reference for the composite algorithm protocols in the `ultrasparse`
//! crate.

use spanner_graph::NodeId;

use crate::sync::{Ctx, MessageSize, Protocol};

/// Radius-bounded flood: sources start "reached" and the wave propagates
/// `radius` hops. Message: remaining time-to-live.
#[derive(Debug, Clone)]
pub struct FloodProtocol {
    source: bool,
    radius: u32,
    reached: bool,
    /// Distance at which the wave arrived (0 for sources).
    dist: Option<u32>,
}

impl FloodProtocol {
    /// A node that is a source iff `source`, flooding `radius` hops.
    pub fn new(source: bool, radius: u32) -> Self {
        FloodProtocol {
            source,
            radius,
            reached: source,
            dist: if source { Some(0) } else { None },
        }
    }

    /// Whether the wave reached this node.
    pub fn reached(&self) -> bool {
        self.reached
    }

    /// Hop distance from the nearest source, if reached.
    pub fn dist(&self) -> Option<u32> {
        self.dist
    }
}

impl Protocol for FloodProtocol {
    type Msg = u64; // remaining TTL

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.source && self.radius > 0 {
            ctx.broadcast(self.radius as u64 - 1);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        let best = inbox.iter().map(|&(_, ttl)| ttl).max();
        if let Some(ttl) = best {
            if !self.reached {
                self.reached = true;
                self.dist = Some(ctx.round());
                if ttl > 0 {
                    ctx.broadcast(ttl - 1);
                }
            }
        }
    }

    /// Message-driven: an empty inbox changes nothing.
    fn next_wake(&self, _round: u32) -> u32 {
        u32::MAX
    }
}

/// A (distance, source-id) pair flooded by [`MinIdBroadcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceInfo {
    /// Hop distance to the attributed source.
    pub dist: u32,
    /// The attributed source (minimum id among nearest sources).
    pub source: NodeId,
}

impl MessageSize for SourceInfo {
    fn words(&self) -> usize {
        2
    }
}

/// Distributed multi-source BFS with min-id attribution, radius-bounded.
///
/// After the run, every node within `radius` of a source knows its nearest
/// source (ties to the minimum id) and the exact distance — the
/// `p_i(v)` computation of Sect. 4.4: *"In general, in the kth step each
/// vertex v receives a message from each neighbor w indicating the
/// V_i-vertex with the minimum unique identifier at distance k−1 from w."*
///
/// Runs in `radius + 1` rounds with 2-word messages.
#[derive(Debug, Clone)]
pub struct MinIdBroadcast {
    is_source: bool,
    radius: u32,
    /// Best (dist, source) known so far.
    best: Option<SourceInfo>,
    /// Last value broadcast (to avoid resending unchanged state).
    sent: Option<SourceInfo>,
}

impl MinIdBroadcast {
    /// A node that is a source iff `is_source`, within radius `radius`.
    pub fn new(is_source: bool, radius: u32) -> Self {
        MinIdBroadcast {
            is_source,
            radius,
            best: None,
            sent: None,
        }
    }

    /// The attributed nearest source, if any within the radius.
    pub fn nearest(&self) -> Option<SourceInfo> {
        self.best
    }
}

impl Protocol for MinIdBroadcast {
    type Msg = SourceInfo;

    fn init(&mut self, ctx: &mut Ctx<'_, SourceInfo>) {
        if self.is_source {
            let info = SourceInfo {
                dist: 0,
                source: ctx.me(),
            };
            self.best = Some(info);
            if self.radius > 0 {
                ctx.broadcast(info);
                self.sent = Some(info);
            }
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, SourceInfo>, inbox: &[(NodeId, SourceInfo)]) {
        let mut improved = false;
        for &(_, info) in inbox {
            let cand = SourceInfo {
                dist: info.dist + 1,
                source: info.source,
            };
            let better = match self.best {
                None => true,
                Some(b) => (cand.dist, cand.source) < (b.dist, b.source),
            };
            if better {
                self.best = Some(cand);
                improved = true;
            }
        }
        if improved {
            let b = self.best.expect("improved implies set");
            if b.dist < self.radius && self.sent != Some(b) {
                ctx.broadcast(b);
                self.sent = Some(b);
            }
        }
    }

    /// Message-driven: an empty inbox changes nothing.
    fn next_wake(&self, _round: u32) -> u32 {
        u32::MAX
    }
}

/// Convergecast up a fixed tree: each node learns the number of nodes in
/// its subtree; the root ends with the tree size.
///
/// `parent[v]` defines the tree (roots have `None`); nodes with no children
/// fire immediately, internal nodes fire once all children reported.
/// Runs in (tree height) rounds with 1-word messages.
#[derive(Debug, Clone)]
pub struct ConvergecastCount {
    parent: Option<NodeId>,
    expected_children: usize,
    reports: usize,
    subtotal: u64,
    fired: bool,
}

impl ConvergecastCount {
    /// A node with the given parent and number of tree children.
    pub fn new(parent: Option<NodeId>, children: usize) -> Self {
        ConvergecastCount {
            parent,
            expected_children: children,
            reports: 0,
            subtotal: 1,
            fired: false,
        }
    }

    /// Subtree size accumulated at this node (valid once the run ends).
    pub fn subtree_size(&self) -> u64 {
        self.subtotal
    }

    fn maybe_fire(&mut self, ctx: &mut Ctx<'_, u64>) {
        if !self.fired && self.reports == self.expected_children {
            self.fired = true;
            if let Some(p) = self.parent {
                ctx.send(p, self.subtotal);
            }
        }
    }
}

impl Protocol for ConvergecastCount {
    type Msg = u64;

    fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.maybe_fire(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
        for &(_, count) in inbox {
            self.reports += 1;
            self.subtotal += count;
        }
        self.maybe_fire(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::MessageBudget;
    use crate::sync::Network;
    use spanner_graph::traversal::{bfs_tree, multi_source_bfs};
    use spanner_graph::{generators, Graph};

    #[test]
    fn flood_reaches_exactly_radius() {
        let g = generators::path(10);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net.run(|v, _| FloodProtocol::new(v.0 == 0, 4), 32).unwrap();
        for (v, s) in states.iter().enumerate() {
            assert_eq!(s.reached(), v <= 4, "node {v}");
            if v <= 4 {
                assert_eq!(s.dist(), Some(v as u32));
            }
        }
        // The farthest reached node (distance 4) hears the wave in round 4.
        assert_eq!(net.metrics().rounds, 4);
    }

    #[test]
    fn flood_radius_zero_stays_home() {
        let g = generators::path(4);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net.run(|v, _| FloodProtocol::new(v.0 == 2, 0), 8).unwrap();
        assert!(states[2].reached());
        assert!(!states[1].reached() && !states[3].reached());
        assert_eq!(net.metrics().messages, 0);
    }

    #[test]
    fn min_id_broadcast_matches_sequential_bfs() {
        let g = generators::erdos_renyi_gnm(60, 150, 3);
        let sources: Vec<NodeId> = vec![NodeId(5), NodeId(17), NodeId(42)];
        let radius = 60u32;
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Words(2), 1);
        let states = net
            .run(
                |v, _| MinIdBroadcast::new(sources.contains(&v), radius),
                256,
            )
            .unwrap();
        let reference = multi_source_bfs(&g, &sources);
        for v in g.nodes() {
            let got = states[v.index()].nearest();
            match (got, reference.dist[v.index()]) {
                (Some(info), Some(d)) => {
                    assert_eq!(info.dist, d, "distance at {v}");
                    assert_eq!(
                        Some(info.source),
                        reference.source[v.index()],
                        "source at {v}"
                    );
                }
                (None, None) => {}
                (g2, r2) => panic!("mismatch at {v}: {g2:?} vs {r2:?}"),
            }
        }
    }

    #[test]
    fn min_id_broadcast_respects_radius() {
        let g = generators::path(10);
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Words(2), 1);
        let states = net
            .run(|v, _| MinIdBroadcast::new(v.0 == 0, 3), 64)
            .unwrap();
        for (v, st) in states.iter().enumerate() {
            assert_eq!(st.nearest().is_some(), v <= 3, "node {v}");
        }
    }

    #[test]
    fn convergecast_counts_subtrees() {
        let g: Graph = generators::grid(4, 5);
        let root = NodeId(0);
        let tree = bfs_tree(&g, root);
        let mut children = vec![0usize; g.node_count()];
        for v in g.nodes() {
            if let Some(p) = tree.parent[v.index()] {
                children[p.index()] += 1;
            }
        }
        let mut net = Network::from_csr(g.csr().clone(), MessageBudget::CONGEST, 1);
        let states = net
            .run(
                |v, _| ConvergecastCount::new(tree.parent[v.index()], children[v.index()]),
                128,
            )
            .unwrap();
        assert_eq!(states[root.index()].subtree_size(), 20);
        // Every leaf has subtotal 1.
        for v in g.nodes() {
            if children[v.index()] == 0 {
                assert_eq!(states[v.index()].subtree_size(), 1);
            }
        }
        // Exactly one message per non-root node.
        assert_eq!(net.metrics().messages, 19);
    }
}
