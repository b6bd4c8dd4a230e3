//! Exact and sampled distance computations.
//!
//! The experiments compare distances in a spanner against distances in the
//! host graph for many pairs; this module provides the machinery: exact APSP,
//! a seeded [`PairSample`] per host graph for larger graphs, eccentricities
//! and diameter (exact and the classic two-sweep lower bound). The heavy
//! lifting routes through the [`DistanceEngine`] (flat CSR; 64-way
//! bit-parallel or one top-down BFS per source, picked per graph by the
//! engine's [`Strategy`](crate::engine::Strategy) probe; optionally
//! threaded).
//!
//! Every distance row here comes from one stride loop that fills the rows
//! of `64 · threads` sources at a time: a sample's host distances, and the
//! rows of every unweighted stretch check. Each check is a visitor on one
//! ordered pair walk, [`walk_pairs`], over all pairs or over one graph's
//! [`PairSample`], which is drawn once and handed to every spanner of that
//! graph. Every distortion bound `δ_S(u, v) ≤ f(δ(u, v))` — an (α, β)
//! [`StretchBound`] or Theorem 7's per-distance Fibonacci envelope — is
//! checked by the one visitor [`verify_stretch`], which takes `f` as a
//! per-pair predicate and returns the first violation as a
//! [`StretchViolation`]; `ultrasparse::Spanner`'s reports and profile are
//! the other visitors. The weighted counterpart is
//! [`walk_weighted_pairs`](crate::weighted::walk_weighted_pairs). The
//! original one-BFS-per-source APSP, stretch verifier and pair sampler
//! live on only as references in `tests/engine_parity.rs`. The
//! single-source BFS they ran, `traversal::bfs_distances_in_subgraph` and
//! its wrappers, is still library code: [`eccentricity`] and the two-sweep
//! bounds here call it, as do the lower-bound adversary's distortion
//! measurements and the repo benchmark's construction check, and it is
//! the parity suite's single-source reference.

use std::convert::Infallible;
use std::ops::ControlFlow;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrAdjacency;
use crate::edgeset::EdgeSet;
use crate::engine::DistanceEngine;
use crate::graph::{Graph, NodeId};
use crate::traversal::{bfs_distances, bfs_distances_csr};

/// All-pairs shortest path distances, `u32::MAX` for unreachable pairs.
///
/// O(n(n+m)/64) traversal work via the bit-parallel engine, O(n²) space.
/// The quadratic matrix is what bounds the feasible size; use
/// [`DistanceEngine`] directly (e.g. [`DistanceEngine::eccentricities`])
/// when full rows are not needed.
#[derive(Debug, Clone)]
pub struct Apsp {
    n: usize,
    dist: Vec<u32>,
}

/// The one unreachable-distance sentinel for unweighted (hop-count)
/// distances: `u32::MAX`, used identically by the engine entry points and
/// the pair walk. The weighted counterpart is
/// [`W_UNREACHABLE`](crate::weighted::W_UNREACHABLE) (`u64::MAX`), and
/// unattributed nodes in multi-source results use
/// [`NO_SOURCE`](crate::engine::NO_SOURCE).
pub const UNREACHABLE: u32 = u32::MAX;

impl Apsp {
    /// Computes APSP on `g` via the single-threaded distance engine.
    pub fn new(g: &Graph) -> Self {
        Apsp::with_threads(g, 1)
    }

    /// Computes APSP with the engine fanned out over `threads` workers.
    /// The matrix is identical at every thread count.
    pub fn with_threads(g: &Graph, threads: usize) -> Self {
        let engine = DistanceEngine::new(g).with_threads(threads);
        Apsp {
            n: g.node_count(),
            dist: engine.apsp_matrix(),
        }
    }

    /// Distance between `u` and `v` (`UNREACHABLE` if disconnected).
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u32 {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Maximum finite distance (the diameter of the largest component by
    /// distance, i.e. the graph diameter if connected). `None` if there are
    /// no finite distances between distinct nodes.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = None;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let d = self.dist[i * self.n + j];
                if d != UNREACHABLE {
                    best = Some(best.map_or(d, |b: u32| b.max(d)));
                }
            }
        }
        best
    }
}

/// A stretch guarantee of the form `d_S(u, v) ≤ α · d_G(u, v) + β`.
///
/// Multiplicative-only and additive-only guarantees are the two special
/// cases (β = 0 resp. α = 1); mixed (α, β)-spanners use both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchBound {
    /// Multiplicative factor α (≥ 1).
    pub alpha: f64,
    /// Additive surplus β (in hops, or weight for weighted graphs).
    pub beta: u64,
}

impl StretchBound {
    /// A purely multiplicative bound `d_S ≤ t · d_G`.
    pub fn multiplicative(t: f64) -> Self {
        assert!(t >= 1.0, "stretch factor below 1");
        StretchBound { alpha: t, beta: 0 }
    }

    /// A purely additive bound `d_S ≤ d_G + b`.
    pub fn additive(b: u64) -> Self {
        StretchBound {
            alpha: 1.0,
            beta: b,
        }
    }

    /// A mixed bound `d_S ≤ α · d_G + β`.
    pub fn mixed(alpha: f64, beta: u64) -> Self {
        assert!(alpha >= 1.0, "stretch factor below 1");
        StretchBound { alpha, beta }
    }

    /// Whether spanner distance `in_spanner` satisfies the bound for base
    /// distance `d`.
    ///
    /// When α is integral or a small rational p/q (q ≤ 64 — covers every
    /// (2k−1)- and (α, β)-bound the suite checks), the comparison is exact
    /// integer arithmetic in `u128`: `in_spanner · q ≤ p · d + β · q`.
    /// Distances near 2⁵³ are not representable in `f64`, so the float path
    /// would silently accept violations there. The 1e-9 slack survives only
    /// as the fractional-α fallback.
    pub fn allows(&self, d: u64, in_spanner: u64) -> bool {
        if let Some((num, den)) = rational_alpha(self.alpha) {
            return (in_spanner as u128) * (den as u128)
                <= (num as u128) * (d as u128) + (self.beta as u128) * (den as u128);
        }
        in_spanner as f64 <= self.alpha * d as f64 + self.beta as f64 + 1e-9
    }
}

/// Recovers α as an exactly-representable rational `num / den` with
/// `den ≤ 64`, if possible. The round-trip check guarantees the rational
/// equals α bit-for-bit, so the exact path never changes a verdict the
/// real-valued bound would give.
fn rational_alpha(alpha: f64) -> Option<(u64, u64)> {
    if !alpha.is_finite() || alpha < 1.0 {
        return None;
    }
    for den in 1..=64u64 {
        let scaled = alpha * den as f64;
        if scaled.fract() == 0.0 && scaled <= u64::MAX as f64 {
            let num = scaled as u64;
            if num as f64 / den as f64 == alpha {
                return Some((num, den));
            }
        }
    }
    None
}

/// The witness returned when a spanner violates its claimed stretch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchViolation {
    /// First endpoint of the offending pair.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Exact distance in the host graph.
    pub base: u64,
    /// Exact distance inside the spanner; `None` if the spanner
    /// disconnects the pair.
    pub in_spanner: Option<u64>,
}

impl std::fmt::Display for StretchViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.in_spanner {
            Some(s) => write!(
                f,
                "stretch violated for ({}, {}): {} in spanner vs {} in graph",
                self.u, self.v, s, self.base
            ),
            None => write!(
                f,
                "spanner disconnects ({}, {}) at graph distance {}",
                self.u, self.v, self.base
            ),
        }
    }
}

/// Checks the distortion bound `allows(d_G(u, v), d_S(u, v))` of
/// `spanner` on every pair of `pairs`.
///
/// A visitor on [`walk_pairs`], with the distance rows computed by
/// `threads` workers. For an (α, β) bound pass
/// `|d, ds| bound.allows(d, ds)` ([`StretchBound::allows`]); a
/// per-distance envelope passes its own predicate. Returns the first violating pair in
/// walk order (lowest `u`, then `v`) as a witness, `Ok(())` if the bound
/// holds everywhere; the pairs are checked in that order at every thread
/// count, so the witness, like the verdict, does not depend on `threads`.
/// Pairs disconnected in `g` impose no requirement; pairs connected in `g`
/// but not in the spanner are violations without consulting `allows`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn verify_stretch(
    g: &Graph,
    spanner: &EdgeSet,
    pairs: Pairs<'_>,
    threads: usize,
    allows: impl Fn(u64, u64) -> bool,
) -> Result<(), StretchViolation> {
    let walk = walk_pairs(g, spanner, pairs, threads, |u, v, base, s| {
        if s != UNREACHABLE && allows(base as u64, s as u64) {
            return ControlFlow::Continue(());
        }
        ControlFlow::Break(StretchViolation {
            u,
            v,
            base: base as u64,
            in_spanner: (s != UNREACHABLE).then_some(s as u64),
        })
    });
    walk.break_value().map_or(Ok(()), Err)
}

/// The pairs a [`walk_pairs`] visits.
#[derive(Debug, Clone, Copy)]
pub enum Pairs<'a> {
    /// Every pair `u < v` connected in the host graph, ascending by
    /// `(u, v)`; host distances come from the walk's own host rows.
    All,
    /// A sample's pairs in its order, ascending by `(u, v)`; host
    /// distances come from the sample, so only spanner rows are computed.
    Sampled(&'a PairSample),
}

/// The one stretch-check loop: visits `pairs` as
/// `visit(u, v, host_distance, spanner_distance)`, ascending by `(u, v)`,
/// until `visit` returns [`ControlFlow::Break`], whose value it returns.
/// `spanner_distance` is [`UNREACHABLE`] where `spanner` disconnects the
/// pair; the host distance is always finite.
///
/// The spanner-subgraph rows (and, for [`Pairs::All`], the host rows) come
/// from the stride loop behind [`PairSample::new`]: sources in strides of
/// `64 · threads`, each stride's rows filled by up to `threads` workers,
/// split as in [`DistanceEngine::many_distances`] with each engine
/// resolving its own [`Strategy`](crate::engine::Strategy). The pairs are
/// then visited sequentially, so what a visitor sees — and any witness or
/// float sum it keeps — is identical at every thread count. Peak row
/// memory is `64 · threads · n` cells per engine.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn walk_pairs<B, F>(
    g: &Graph,
    spanner: &EdgeSet,
    pairs: Pairs<'_>,
    threads: usize,
    mut visit: F,
) -> ControlFlow<B>
where
    F: FnMut(NodeId, NodeId, u32, u32) -> ControlFlow<B>,
{
    let sub = DistanceEngine::for_subgraph(g, spanner);
    match pairs {
        Pairs::All => {
            let sources: Vec<NodeId> = g.nodes().collect();
            let host = DistanceEngine::new(g);
            walk_rows([sub, host], &sources, threads, |u, [ds, dg]| {
                for v in (u.index() + 1)..dg.len() {
                    if dg[v] != UNREACHABLE {
                        visit(u, NodeId(v as u32), dg[v], ds[v])?;
                    }
                }
                ControlFlow::Continue(())
            })
        }
        Pairs::Sampled(sample) => walk_runs(sub, &sample.pairs, threads, |p, s| {
            visit(p.u, p.v, p.dist, s)
        }),
    }
}

/// Visits `pairs`, which must be grouped by ascending source, as
/// `visit(pair, distance)` with each pair's distance in `engine`'s graph.
fn walk_runs<B>(
    engine: DistanceEngine,
    pairs: &[SampledPair],
    threads: usize,
    mut visit: impl FnMut(&SampledPair, u32) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut sources: Vec<NodeId> = pairs.iter().map(|p| p.u).collect();
    sources.dedup();
    let mut rest = pairs;
    walk_rows([engine], &sources, threads, |u, [d]| {
        while let Some((p, tail)) = rest.split_first().filter(|(p, _)| p.u == u) {
            visit(p, d[p.v.index()])?;
            rest = tail;
        }
        ControlFlow::Continue(())
    })
}

/// The one stride loop: fills the rows of `sources` in every engine (all
/// over the same node set), `64 · threads` sources at a time (the row
/// buffers and per-worker scratch are allocated once), and hands each
/// source its `N` rows in `sources` order until `visit` breaks.
fn walk_rows<const N: usize, B>(
    engines: [DistanceEngine; N],
    sources: &[NodeId],
    threads: usize,
    mut visit: impl FnMut(NodeId, [&[u32]; N]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let n = engines[0].node_count();
    let stride = (64 * threads).min(sources.len());
    let mut fills = engines.map(|e| {
        let e = e.with_threads(threads);
        let scratch = e.worker_scratch(stride);
        (e, scratch, vec![0u32; stride * n])
    });
    for chunk in sources.chunks(stride.max(1)) {
        for (engine, scratch, rows) in &mut fills {
            engine.rows_fanned(chunk, scratch, &mut rows[..chunk.len() * n]);
        }
        for (i, &u) in chunk.iter().enumerate() {
            visit(u, std::array::from_fn(|k| &fills[k].2[i * n..(i + 1) * n]))?;
        }
    }
    ControlFlow::Continue(())
}

/// Eccentricity of `v`: max distance from `v` to any reachable node.
pub fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)
}

/// Exact diameter via the bit-parallel engine (64 sources per traversal,
/// no distance matrix); `None` for graphs with < 2 nodes. For disconnected
/// graphs, returns the max eccentricity over components.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    DistanceEngine::new(g).diameter()
}

/// Two-sweep diameter lower bound: BFS from `start`, then BFS from the
/// farthest node found. Exact on trees, a good estimate in general.
pub fn diameter_two_sweep(g: &Graph, start: NodeId) -> u32 {
    diameter_two_sweep_csr(g.csr(), start)
}

/// [`diameter_two_sweep`] over a bare CSR adjacency. The farthest node is
/// the one at maximum distance, the larger id on ties.
pub fn diameter_two_sweep_csr(csr: &CsrAdjacency, start: NodeId) -> u32 {
    let d1 = bfs_distances_csr(csr, start);
    let far = d1
        .iter()
        .enumerate()
        .filter_map(|(v, d)| d.map(|x| (x, v)))
        .max()
        .map(|(_, v)| NodeId(v as u32));
    match far {
        Some(f) => bfs_distances_csr(csr, f)
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0),
        None => 0,
    }
}

/// A sampled pair of distinct nodes together with its exact host-graph
/// distance (finite; disconnected pairs are skipped during sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledPair {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Exact distance in the host graph.
    pub dist: u32,
}

/// Up to `count` seeded connected pairs of one host graph with their exact
/// host distances: drawn once per graph and handed, as [`Pairs::Sampled`],
/// to the stretch check of every spanner of that graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSample {
    /// Sorted by `(u, v)`, so each source's pairs form one run, as
    /// [`walk_pairs`] reads them.
    pairs: Vec<SampledPair>,
}

impl PairSample {
    /// Samples up to `count` node pairs of `g` uniformly at random (with a
    /// deterministic seed) and records their exact host distances, sorted
    /// by `(u, v)`; a pair drawn twice appears twice.
    ///
    /// At most `16 * max(count, 1)` draws are made in total, and the first
    /// `count` draws with distinct endpoints are kept. Pairs the host
    /// disconnects are then dropped, not redrawn, so tiny or heavily
    /// disconnected graphs may yield fewer than `count` pairs. The host
    /// rows come from the stride loop of [`walk_pairs`], `threads` workers
    /// at a time; the sample is identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(g: &Graph, count: usize, seed: u64, threads: usize) -> Self {
        let n = g.node_count();
        let mut draws = Vec::with_capacity(count);
        if n >= 2 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut budget = 16 * count.max(1);
            while draws.len() < count && budget > 0 {
                budget -= 1;
                let u = NodeId(rng.gen_range(0..n as u32));
                let v = NodeId(rng.gen_range(0..n as u32));
                if u != v {
                    draws.push(SampledPair {
                        u,
                        v,
                        dist: UNREACHABLE,
                    });
                }
            }
        }
        draws.sort_unstable_by_key(|p| (p.u, p.v));
        let mut pairs = Vec::with_capacity(draws.len());
        let ControlFlow::Continue(()) =
            walk_runs(DistanceEngine::new(g), &draws, threads, |p, dist| {
                if dist != UNREACHABLE {
                    pairs.push(SampledPair { dist, ..*p });
                }
                ControlFlow::<Infallible>::Continue(())
            });
        PairSample { pairs }
    }

    /// The sampled pairs, ascending by `(u, v)`.
    pub fn pairs(&self) -> &[SampledPair] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::{walk_weighted_pairs, WeightedGraph, W_UNREACHABLE};

    fn cycle(n: u32) -> Graph {
        Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)))
    }

    /// [`verify_stretch`] of an (α, β) bound over every pair.
    fn verify_all(
        g: &Graph,
        span: &EdgeSet,
        bound: StretchBound,
        threads: usize,
    ) -> Result<(), StretchViolation> {
        verify_stretch(g, span, Pairs::All, threads, |d, s| bound.allows(d, s))
    }

    #[test]
    fn apsp_on_cycle() {
        let g = cycle(8);
        let a = Apsp::new(&g);
        assert_eq!(a.dist(NodeId(0), NodeId(4)), 4);
        assert_eq!(a.dist(NodeId(0), NodeId(7)), 1);
        assert_eq!(a.dist(NodeId(3), NodeId(3)), 0);
        assert_eq!(a.diameter(), Some(4));
    }

    #[test]
    fn apsp_symmetric() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]);
        let a = Apsp::new(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.dist(u, v), a.dist(v, u));
            }
        }
    }

    #[test]
    fn apsp_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let a = Apsp::new(&g);
        assert_eq!(a.dist(NodeId(0), NodeId(2)), UNREACHABLE);
        assert_eq!(a.diameter(), Some(1));
    }

    #[test]
    fn diameter_exact_and_two_sweep_on_path() {
        let g = Graph::from_edges(7, (0..6u32).map(|i| (i, i + 1)));
        assert_eq!(diameter_exact(&g), Some(6));
        // two-sweep is exact on trees, from any start
        for v in g.nodes() {
            assert_eq!(diameter_two_sweep(&g, v), 6);
        }
    }

    #[test]
    fn diameter_tiny() {
        assert_eq!(diameter_exact(&Graph::empty(1)), None);
        assert_eq!(diameter_exact(&Graph::empty(0)), None);
    }

    #[test]
    fn eccentricity_center_of_path() {
        let g = Graph::from_edges(5, (0..4u32).map(|i| (i, i + 1)));
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
        assert_eq!(eccentricity(&g, NodeId(0)), 4);
    }

    #[test]
    fn sample_pairs_deterministic_and_exact() {
        let g = cycle(20);
        let s1 = PairSample::new(&g, 50, 7, 1);
        let s2 = PairSample::new(&g, 50, 7, 1);
        assert_eq!(s1, s2);
        assert!(!s1.pairs().is_empty());
        let a = Apsp::new(&g);
        for p in s1.pairs() {
            assert_eq!(p.dist, a.dist(p.u, p.v));
            assert_ne!(p.u, p.v);
        }
    }

    #[test]
    fn sample_pairs_skips_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        for p in PairSample::new(&g, 100, 3, 1).pairs() {
            assert!(p.dist <= 1);
        }
    }

    #[test]
    fn sample_pairs_tiny_graph() {
        for n in [0, 1] {
            assert!(PairSample::new(&Graph::empty(n), 10, 1, 1)
                .pairs()
                .is_empty());
        }
    }

    #[test]
    fn verify_stretch_accepts_full_graph_and_spanning_subsets() {
        let g = cycle(9);
        assert!(verify_all(&g, &EdgeSet::full(&g), StretchBound::multiplicative(1.0), 1).is_ok());
        // Removing one cycle edge forces the long way around: stretch n-1.
        let mut span = EdgeSet::full(&g);
        span.remove(g.find_edge(NodeId(0), NodeId(1)).unwrap());
        assert!(verify_all(&g, &span, StretchBound::multiplicative(8.0), 1).is_ok());
        let err = verify_all(&g, &span, StretchBound::multiplicative(7.0), 1).unwrap_err();
        assert_eq!((err.u, err.v), (NodeId(0), NodeId(1)));
        assert_eq!((err.base, err.in_spanner), (1, Some(8)));
        // The same gap expressed additively.
        assert!(verify_all(&g, &span, StretchBound::additive(7), 1).is_ok());
        assert!(verify_all(&g, &span, StretchBound::additive(6), 1).is_err());
    }

    #[test]
    fn verify_stretch_threads_identical_witness() {
        let g = cycle(9);
        let mut span = EdgeSet::full(&g);
        span.remove(g.find_edge(NodeId(0), NodeId(1)).unwrap());
        for threads in 1..=8usize {
            let bound = StretchBound::multiplicative(7.0);
            let err = verify_all(&g, &span, bound, threads).unwrap_err();
            assert_eq!(
                (err.u, err.v, err.base, err.in_spanner),
                (NodeId(0), NodeId(1), 1, Some(8)),
                "threads={threads}"
            );
            let ok = StretchBound::multiplicative(8.0);
            assert!(verify_all(&g, &span, ok, threads).is_ok());
        }
    }

    #[test]
    fn allows_is_exact_for_integral_alpha_near_2_pow_53() {
        let b = StretchBound::multiplicative(3.0);
        let d = 1u64 << 53;
        assert!(b.allows(d, 3 * d));
        // One hop over the bound rounds back to 3·2^53 in f64, so the old
        // float comparison accepted it; only exact integers catch it.
        assert!(!b.allows(d, 3 * d + 1));
        assert!(!b.allows(d, 3 * d + 5));
        let add = StretchBound::additive(2);
        assert!(add.allows(d, d + 2));
        assert!(!add.allows(d, d + 3));
    }

    #[test]
    fn allows_handles_small_rationals_exactly() {
        let b = StretchBound::mixed(2.5, 1);
        assert!(b.allows(2, 6)); // 2.5 · 2 + 1 = 6 exactly
        assert!(!b.allows(2, 7));
        assert_eq!(rational_alpha(2.5), Some((5, 2)));
        assert_eq!(rational_alpha(1.0), Some((1, 1)));
        assert_eq!(rational_alpha(7.0), Some((7, 1)));
        assert!(rational_alpha(std::f64::consts::PI).is_none());
        // The fractional fallback still works.
        assert!(StretchBound::multiplicative(std::f64::consts::PI).allows(3, 9));
    }

    #[test]
    fn verify_stretch_flags_disconnection() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut span = EdgeSet::new(&g);
        span.insert(g.find_edge(NodeId(0), NodeId(1)).unwrap());
        let err = verify_all(&g, &span, StretchBound::multiplicative(100.0), 1).unwrap_err();
        assert_eq!(err.in_spanner, None);
        assert!(err.to_string().contains("disconnects"));
    }

    #[test]
    fn verify_stretch_ignores_pairs_disconnected_in_host() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(verify_all(&g, &EdgeSet::full(&g), StretchBound::multiplicative(1.0), 1).is_ok());
    }

    #[test]
    fn verify_stretch_weighted_uses_weights() {
        // Triangle with a heavy shortcut: dropping the light edge (0,1)
        // leaves the 0→2→1 route of weight 7 against a base of 1.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let w: Vec<u32> = g
            .edges()
            .map(|(_, a, b)| {
                if (a, b) == (NodeId(0), NodeId(1)) || (a, b) == (NodeId(1), NodeId(0)) {
                    1
                } else {
                    4
                }
            })
            .collect();
        let wg = WeightedGraph::new(g, w);
        let mut span = EdgeSet::full(wg.graph());
        span.remove(wg.graph().find_edge(NodeId(0), NodeId(1)).unwrap());
        // The weighted bound check: a visitor on the weighted pair walk
        // that stops at the first pair outside the bound.
        let sources: Vec<NodeId> = wg.graph().nodes().collect();
        let verify = |bound: StretchBound| {
            walk_weighted_pairs(&wg, &span, &sources, |u, v, base, s| {
                if s != W_UNREACHABLE && bound.allows(base, s) {
                    return ControlFlow::Continue(());
                }
                let in_spanner = (s != W_UNREACHABLE).then_some(s);
                ControlFlow::Break(StretchViolation {
                    u,
                    v,
                    base,
                    in_spanner,
                })
            })
            .break_value()
        };
        assert_eq!(verify(StretchBound::multiplicative(8.0)), None);
        let err = verify(StretchBound::multiplicative(7.0)).unwrap();
        assert_eq!((err.u, err.v), (NodeId(0), NodeId(1)));
        assert_eq!((err.base, err.in_spanner), (1, Some(8)));
    }
}
