//! The trivial skeleton: a BFS spanning forest.
//!
//! n − 1 edges (per component), preserves connectivity, but guarantees
//! nothing about distortion beyond the component diameter — the anchor row
//! of the Fig. 1 comparison ("a sparse substitute should at the very least
//! preserve connectivity").
//!
//! Also provides the distributed variant (a min-id BFS forest built with
//! the [`MinIdBroadcast`](spanner_netsim::patterns::MinIdBroadcast)
//! pattern), which runs in O(diameter) rounds with 2-word messages.

use spanner_graph::components::connected_components;
use std::sync::Arc;

use spanner_graph::{CsrAdjacency, DistanceEngine, EdgeSet, Graph, NodeId};
use spanner_netsim::patterns::SourceInfo;
use spanner_netsim::{
    execute, Ctx, Executor, MessageBudget, PhaseMark, Protocol, RunError, ScheduledSink, TraceSink,
};
use ultrasparse::Spanner;

/// BFS spanning forest rooted at the minimum-id vertex of each component.
pub fn build(g: &Graph) -> Spanner {
    let comps = connected_components(g);
    // Minimum-id root per component.
    let mut root: Vec<Option<NodeId>> = vec![None; comps.count];
    for v in g.nodes() {
        let c = comps.labels[v.index()] as usize;
        if root[c].is_none() {
            root[c] = Some(v);
        }
    }
    // One root per component, so every node's attributed source is its
    // component's root and the forest is that root's BFS tree.
    let roots: Vec<NodeId> = root.into_iter().flatten().collect();
    let forest = DistanceEngine::new(g).nearest_sources(&roots);
    let mut edges = EdgeSet::new(g);
    for v in g.nodes() {
        if let Some((_, e)) = forest.parent(g, v) {
            edges.insert(e);
        }
    }
    Spanner::from_edges(edges)
}

/// Leader-election BFS: each vertex tracks the lexicographically minimal
/// (root id, distance) pair it has heard of. At quiescence the minimum-id
/// vertex of each component is the elected root and every vertex knows its
/// exact BFS distance to it.
#[derive(Debug, Clone)]
struct MinRootBfs {
    best: SourceInfo,
    sent: Option<SourceInfo>,
}

impl Protocol for MinRootBfs {
    type Msg = SourceInfo;

    fn init(&mut self, ctx: &mut Ctx<'_, SourceInfo>) {
        self.best = SourceInfo {
            dist: 0,
            source: ctx.me(),
        };
        ctx.broadcast(self.best);
        self.sent = Some(self.best);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, SourceInfo>, inbox: &[(NodeId, SourceInfo)]) {
        let mut improved = false;
        for &(_, info) in inbox {
            let cand = SourceInfo {
                dist: info.dist + 1,
                source: info.source,
            };
            // Root id dominates, then distance.
            if (cand.source, cand.dist) < (self.best.source, self.best.dist) {
                self.best = cand;
                improved = true;
            }
        }
        if improved && self.sent != Some(self.best) {
            ctx.broadcast(self.best);
            self.sent = Some(self.best);
        }
    }

    /// Message-driven: an empty inbox changes nothing.
    fn next_wake(&self, _round: u32) -> u32 {
        u32::MAX
    }
}

/// Distributed BFS forest on `executor`, over a shared CSR adjacency with
/// no [`Graph`] materialization: the minimum-id vertex of each component is
/// elected root by flooding and each non-root vertex keeps one edge toward
/// its minimum-id parent on a shortest path to the root. Round-level trace
/// events stream into `sink`; the whole flood is one `elect` phase span.
///
/// # Errors
///
/// Propagates simulator errors; with `max_rounds ≥ O(diameter)` none
/// occur.
pub fn build_distributed(
    csr: &Arc<CsrAdjacency>,
    seed: u64,
    max_rounds: u32,
    executor: &Executor,
    sink: &mut dyn TraceSink,
) -> Result<Spanner, RunError> {
    let factory = |v, _: &mut _| MinRootBfs {
        best: SourceInfo { dist: 0, source: v },
        sent: None,
    };
    let budget = MessageBudget::Words(2);
    let mut sink = ScheduledSink::new(sink, || vec![(0, PhaseMark::Enter("elect".into()))]);
    let (states, metrics) = execute(
        executor, None, csr, budget, seed, factory, max_rounds, &mut sink,
    );
    let states = states?;
    // Each non-root vertex keeps one edge, to its min-id neighbor one hop
    // closer to the same root; a component root (distance 0) keeps none.
    let parents = states.iter().enumerate().filter(|(_, st)| st.best.dist > 0);
    let parents = parents.map(|(v, st)| {
        let v = NodeId(v as u32);
        let parent = csr.neighbors(v).iter().copied().filter(|w| {
            let b = states[w.index()].best;
            b.source == st.best.source && b.dist + 1 == st.best.dist
        });
        (v, parent.min().expect("BFS parent exists"))
    });
    Ok(Spanner::from_selected(csr, parents, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::distance::Pairs;
    use spanner_graph::generators;
    use spanner_netsim::NullSink;

    #[test]
    fn forest_size_and_spanning() {
        let g = generators::connected_gnm(200, 800, 3);
        let s = build(&g);
        assert!(s.is_spanning(&g));
        assert_eq!(s.len(), 199);
    }

    #[test]
    fn forest_on_disconnected() {
        let g = spanner_graph::Graph::from_edges(7, [(0u32, 1), (1, 2), (4, 5), (5, 6)]);
        let s = build(&g);
        assert!(s.is_spanning(&g));
        assert_eq!(s.len(), 4); // 2 + 2 edges; node 3 isolated
    }

    #[test]
    fn tree_distance_is_exact_from_root() {
        // On a tree the forest is the whole tree: stretch 1.
        let g = generators::path(30);
        let s = build(&g);
        let r = s.stretch(&g, Pairs::All, 1);
        assert_eq!(r.max_multiplicative, 1.0);
    }

    #[test]
    fn distortion_can_reach_diameter_scale() {
        let g = generators::cycle(40);
        let s = build(&g);
        assert_eq!(s.len(), 39);
        let r = s.stretch(&g, Pairs::All, 1);
        // Adjacent pair across the cut has spanner distance 39.
        assert_eq!(r.max_multiplicative, 39.0);
    }

    #[test]
    fn distributed_matches_sequential() {
        let g = generators::connected_gnm(150, 500, 9);
        let seq = build(&g);
        let dist =
            build_distributed(g.csr(), 1, 400, &Executor::Sequential, &mut NullSink).unwrap();
        assert!(dist.is_spanning(&g));
        assert_eq!(dist.len(), seq.len());
        // Same root election (min id) and same min-id parent rule: the two
        // forests are identical.
        assert_eq!(dist.edges, seq.edges);
        assert_eq!(dist.metrics.unwrap().max_message_words, 2);
    }

    #[test]
    fn distributed_on_disconnected() {
        let g = spanner_graph::Graph::from_edges(6, [(0u32, 1), (3, 4), (4, 5)]);
        let s = build_distributed(g.csr(), 2, 64, &Executor::Sequential, &mut NullSink).unwrap();
        assert!(s.is_spanning(&g));
        assert_eq!(s.len(), 3);
    }
}
