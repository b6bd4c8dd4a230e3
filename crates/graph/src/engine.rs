//! The adaptive flat-frontier distance engine.
//!
//! Every experiment and conformance check ultimately reduces to "many BFS
//! passes over the same graph (or spanner subgraph)". The naive shape — one
//! `VecDeque` BFS over `Vec<Option<u32>>` per source, rebuilding the
//! subgraph adjacency each time — is what capped verification at a few
//! thousand nodes. [`DistanceEngine`] replaces it with:
//!
//! 1. a [`CsrAdjacency`] built **once** per graph or subgraph,
//! 2. a plain top-down single-source BFS: a flat two-pointer queue over
//!    the CSR, with the `u32` distance row itself as the visited set (no
//!    `Option`, no `VecDeque`, no per-source allocation),
//! 3. 64-way **bit-parallel multi-source BFS**: one `u64` seen/frontier
//!    word per node lets a single traversal serve 64 sources at once, so
//!    APSP and stretch verification touch each edge once per 64 sources
//!    instead of once per source,
//! 4. a per-graph [`Strategy`] verdict: bit-parallelism pays only when the
//!    64 BFS waves overlap (low-diameter graphs); on high-diameter shapes
//!    (grids, paths, tori) one BFS per source is strictly faster. A cheap
//!    bounded BFS decides once per graph,
//! 5. fan-out of source batches across a [`pool`](crate::pool) worker team,
//!    with **thread-count-independent results**: every output cell is a
//!    pure function of (graph, source index), and workers write disjoint
//!    regions determined by arithmetic, never by timing.
//!
//! [`DistanceEngine::nearest_sources`] and [`MultiSourceFlat::parent`] are
//! the nearest-source forests (`p_i(v)` with minimum-id attribution) the
//! centralized builders share; [`DistanceEngine::batch_trees`] gives the
//! whole BFS trees of up to 64 centers from one bit-parallel traversal,
//! and the one-center tree-growing BFS they share is
//! [`ClusterBfs`](crate::traversal::ClusterBfs). `tests/engine_parity.rs`
//! checks every entry point against the plain BFS references it keeps
//! (APSP, stretch, girth) and against [`traversal`](crate::traversal)'s
//! distance functions, `bfs_tree` and `multi_source_bfs`, on shapes that
//! resolve to either strategy and at every thread count.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use crate::csr::CsrAdjacency;
use crate::distance::UNREACHABLE;
use crate::edgeset::EdgeSet;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::pool::{chunk_range, for_each_region, run_workers};

/// Sentinel source id in [`MultiSourceFlat::source`] for nodes no source
/// reaches (companion to [`UNREACHABLE`] distances).
pub const NO_SOURCE: u32 = u32::MAX;

/// How the batched row entry points ([`DistanceEngine::many_distances`],
/// [`DistanceEngine::rows_into`], [`DistanceEngine::eccentricities`])
/// traverse the graph: the verdict of
/// [`DistanceEngine::resolved_strategy`].
///
/// Bit-parallel multi-source BFS touches each edge once per 64 sources,
/// but a node re-enters the frontier every time a new source's wave
/// reaches it — on high-diameter graphs (grids, paths, tori) the waves
/// never overlap and the 64-way batch degrades to 64 sequential
/// traversals with extra word traffic. One BFS per source is the right
/// tool there. The verdict never affects results, only wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// 64-way bit-parallel multi-source batches.
    BitParallel,
    /// One top-down BFS per source.
    PerSource,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::BitParallel => "bit-parallel",
            Strategy::PerSource => "per-source",
        })
    }
}

/// [`DistanceEngine::nearest_sources`]' level choice: sweep the unvisited
/// nodes bottom-up when the frontier's out-edges exceed 1/ALPHA of the
/// edges still incident to unvisited nodes (and the frontier holds at
/// least n/BETA nodes).
const ALPHA: usize = 14;
/// See [`ALPHA`]: the minimum frontier width, as a fraction of n, for a
/// bottom-up level.
const BETA: usize = 24;
/// The strategy probe: a component that a bounded BFS does not exhaust
/// within this many levels counts as high-diameter, and the engine
/// batches per-source instead of bit-parallel. 64 consecutive sources
/// whose waves stay more than ~half a word apart never overlap enough to
/// amortize the word traffic.
const PROBE_DEPTH: u32 = 32;

/// A reusable distance-computation engine over a fixed adjacency.
///
/// Build once per graph (or per spanner subgraph via
/// [`DistanceEngine::for_subgraph`]), then run as many traversals as
/// needed; the engine itself is immutable (cloning shares nothing but the
/// CSR data and the cached probe verdict), so one instance can be shared
/// across worker threads.
#[derive(Debug, Clone)]
pub struct DistanceEngine {
    /// The adjacency, shared with the [`Graph`] it came from.
    csr: Arc<CsrAdjacency>,
    threads: usize,
    /// Cached probe verdict (pure function of the CSR, so sharing or
    /// cloning the cache is always sound).
    strategy: OnceLock<Strategy>,
}

/// Reusable scratch for the row entry point [`DistanceEngine::rows_into`]:
/// the per-source BFS queue, and the bit-parallel scratch, allocated the
/// first time a bit-parallel batch runs, so either strategy can serve a
/// batch and the per-source one never pays for the `u64` words.
#[derive(Debug, Clone)]
pub struct RowsScratch {
    n: usize,
    ms: Option<MsBfsScratch>,
    queue: Vec<NodeId>,
}

impl RowsScratch {
    /// Scratch for an `n`-node engine.
    pub fn new(n: usize) -> Self {
        RowsScratch {
            n,
            ms: None,
            queue: Vec::new(),
        }
    }

    /// The bit-parallel scratch, allocated on first use.
    fn ms(&mut self) -> &mut MsBfsScratch {
        let n = self.n;
        self.ms.get_or_insert_with(|| MsBfsScratch::new(n))
    }
}

/// Reusable scratch for 64-way bit-parallel multi-source BFS: one seen /
/// current / next `u64` word per node plus the frontier node lists.
#[derive(Debug, Clone)]
pub struct MsBfsScratch {
    seen: Vec<u64>,
    cur: Vec<u64>,
    next: Vec<u64>,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    /// Every node the last traversal reached: the next one clears only
    /// these `seen` words.
    reached: Vec<NodeId>,
    /// Node-major level buffer (`64 * n`, lazily sized) for the batched
    /// row entry points: levels land here contiguously per node during the
    /// traversal, then a cache-tiled transpose streams them into the
    /// row-major output — much cheaper than scattering 64 stride-`n`
    /// writes per node while the BFS runs.
    levels: Vec<u32>,
    /// Each node's levels mod 3 for [`DistanceEngine::batch_trees`]
    /// (`n`, lazily sized): bit `i` of word 0 is set where source `i`'s
    /// level is 1 mod 3, of word 1 where it is 2 mod 3. Meaningful where
    /// bit `i` of the node's `seen` word is set.
    planes: Vec<[u64; 2]>,
}

impl MsBfsScratch {
    /// Scratch for an `n`-node engine.
    pub fn new(n: usize) -> Self {
        MsBfsScratch {
            seen: vec![0u64; n],
            cur: vec![0u64; n],
            next: vec![0u64; n],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            reached: Vec::new(),
            levels: Vec::new(),
            planes: Vec::new(),
        }
    }
}

/// Result of [`DistanceEngine::nearest_sources`]: flat-array counterpart of
/// [`MultiSourceBfs`](crate::traversal::MultiSourceBfs).
#[derive(Debug, Clone)]
pub struct MultiSourceFlat {
    /// `dist[v]` is the distance from `v` to its nearest source;
    /// [`UNREACHABLE`] if no source reaches `v`.
    pub dist: Vec<u32>,
    /// `source[v]` is the attributed nearest source id (minimum id among
    /// equidistant sources); [`NO_SOURCE`] if unreached.
    pub source: Vec<u32>,
}

impl MultiSourceFlat {
    /// `v`'s parent in its source's shortest-path forest, with the
    /// connecting edge of `g`: the minimum-id neighbor one step closer
    /// with the same attributed source. `None` for sources and unreached
    /// nodes; every other node has one, since its attribution came from
    /// such a neighbor. `g` must be the graph the search ran over.
    pub fn parent(&self, g: &Graph, v: NodeId) -> Option<(NodeId, EdgeId)> {
        let d = self.dist[v.index()];
        if d == 0 || d == UNREACHABLE {
            return None;
        }
        let s = self.source[v.index()];
        // Runs are ascending, so the first match is the min-id one.
        g.incident(v)
            .find(|&(u, _)| self.dist[u.index()] == d - 1 && self.source[u.index()] == s)
    }
}

impl DistanceEngine {
    /// An engine over the full adjacency of `g` (single-threaded until
    /// [`DistanceEngine::with_threads`]).
    /// Shares `g`'s adjacency instead of copying it.
    pub fn new(g: &Graph) -> Self {
        DistanceEngine::from_csr(Arc::clone(g.csr()))
    }

    /// An engine over the subgraph of `g` induced by the edges in `span`.
    pub fn for_subgraph(g: &Graph, span: &EdgeSet) -> Self {
        DistanceEngine::from_csr(g.csr().subgraph(span))
    }

    /// An engine over an already-built adjacency, owned or shared.
    pub fn from_csr(csr: impl Into<Arc<CsrAdjacency>>) -> Self {
        DistanceEngine {
            csr: csr.into(),
            threads: 1,
            strategy: OnceLock::new(),
        }
    }

    /// Sets the worker count for the batched entry points. Results are
    /// identical at every thread count; only wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The strategy the batched entry points use: the verdict of a cheap
    /// one-shot probe, a BFS from the first non-isolated node bounded at
    /// `PROBE_DEPTH` levels. A component exhausted within the bound is
    /// low-diameter (64-source waves overlap, bit-parallel wins); a BFS
    /// that reaches the bound marks a high-diameter shape (one BFS per
    /// source wins). The probe runs at most once per engine and is a pure
    /// function of the adjacency.
    pub fn resolved_strategy(&self) -> Strategy {
        *self.strategy.get_or_init(|| {
            let n = self.node_count();
            let Some(src) = (0..n as u32).map(NodeId).find(|&v| self.csr.degree(v) > 0) else {
                return Strategy::BitParallel; // edgeless: nothing to traverse
            };
            let mut dist = vec![UNREACHABLE; n];
            if self.bfs(src, PROBE_DEPTH, &mut Vec::new(), &mut dist) == PROBE_DEPTH {
                Strategy::PerSource
            } else {
                Strategy::BitParallel
            }
        })
    }

    /// Worker count actually used for `work_items` independent pieces:
    /// never more than the configured threads, the items, or the machine's
    /// available cores — oversubscribing CPU-bound workers only adds
    /// scratch-allocation and scheduling overhead, and results do not
    /// depend on the fan-out.
    fn fanout(&self, work_items: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        self.threads.min(work_items).min(cores).max(1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// The underlying sorted CSR adjacency.
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// The single-source BFS: overwrites `dist` with the distances from
    /// `src` up to `radius` levels ([`UNREACHABLE`] beyond them and
    /// outside `src`'s component) and returns the deepest level reached —
    /// with an unbounded `radius`, the eccentricity of `src` within its
    /// component. `radius` must be at least 1.
    ///
    /// `queue` is sized to `n` and used as a flat array: discoveries are
    /// written at `tail` and `head` consumes, with `level_end` marking the
    /// level boundary, so a boundary costs one comparison per node —
    /// essential on high-diameter shapes, where a path of 600 nodes has
    /// 599 one-node levels and any per-level clear or swap dominates. The
    /// `dist` row is the visited set: one load and one store per
    /// discovery. Out of line deliberately: this loop is the whole cost of
    /// the engine on the shapes the picker routes here, and compiled as
    /// its own small function it keeps every loop variable in a register
    /// (folded into a larger driver, per-edge stack spills cost a measured
    /// ~25% on mid-size grids).
    #[inline(never)]
    fn bfs(&self, src: NodeId, radius: u32, queue: &mut Vec<NodeId>, dist: &mut [u32]) -> u32 {
        debug_assert!(radius >= 1);
        dist.fill(UNREACHABLE);
        dist[src.index()] = 0;
        queue.resize(dist.len(), src);
        queue[0] = src;
        let (mut head, mut tail, mut level_end, mut d) = (0, 1, 1, 0u32);
        while head < tail {
            if head == level_end {
                // A new (nonempty) level begins.
                d += 1;
                if d == radius {
                    break;
                }
                level_end = tail;
            }
            let u = queue[head];
            head += 1;
            let lvl = d + 1;
            for &v in self.csr.neighbors(u) {
                let dv = &mut dist[v.index()];
                if *dv == UNREACHABLE {
                    *dv = lvl;
                    queue[tail] = v;
                    tail += 1;
                }
            }
        }
        d
    }

    /// Distance rows for up to 64 `sources` into `out` (row-major
    /// `sources.len() * n`, overwritten entirely), dispatched through the
    /// resolved [`Strategy`]: one bit-parallel traversal for the whole
    /// batch, or one BFS per source. The rows are byte-identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() > 64` or the buffer sizes do not match.
    pub fn rows_into(&self, sources: &[NodeId], scratch: &mut RowsScratch, out: &mut [u32]) {
        match self.resolved_strategy() {
            Strategy::PerSource => {
                let n = self.node_count();
                assert!(sources.len() <= 64, "at most 64 sources per batch");
                assert_eq!(out.len(), sources.len() * n, "row buffer size mismatch");
                for (&s, row) in sources.iter().zip(out.chunks_exact_mut(n)) {
                    self.bfs(s, u32::MAX, &mut scratch.queue, row);
                }
            }
            Strategy::BitParallel => self.batch_distances_into(sources, scratch.ms(), out),
        }
    }

    /// Core 64-way bit-parallel BFS: source `i` of `sources` owns bit `i`
    /// of every word. `visit(v, bits, level)` fires once per node per level
    /// with the set of sources that first reach `v` at that level. Costs
    /// the part of the graph the sources reach (plus the part the last
    /// traversal on `scratch` reached), not `n`.
    fn ms_bfs<F>(&self, sources: &[NodeId], scratch: &mut MsBfsScratch, mut visit: F)
    where
        F: FnMut(usize, u64, u32),
    {
        assert!(sources.len() <= 64, "at most 64 sources per batch");
        let MsBfsScratch {
            seen,
            cur,
            next,
            frontier,
            next_frontier,
            reached,
            ..
        } = scratch;
        assert_eq!(seen.len(), self.node_count(), "scratch sized for engine");
        // `cur` and `next` are zero after every traversal.
        for &v in reached.iter() {
            seen[v.index()] = 0;
        }
        reached.clear();
        frontier.clear();
        next_frontier.clear();
        for (i, s) in sources.iter().enumerate() {
            if seen[s.index()] == 0 {
                frontier.push(*s);
                reached.push(*s);
            }
            seen[s.index()] |= 1u64 << i;
            cur[s.index()] |= 1u64 << i;
        }
        for &s in frontier.iter() {
            visit(s.index(), cur[s.index()], 0);
        }
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            for &u in frontier.iter() {
                let w = cur[u.index()];
                cur[u.index()] = 0; // consumed; commit refills next level's words
                for &v in self.csr.neighbors(u) {
                    let t = w & !seen[v.index()];
                    if t != 0 {
                        if next[v.index()] == 0 {
                            next_frontier.push(v);
                        }
                        next[v.index()] |= t;
                    }
                }
            }
            // Commit: the accumulate pass masked bits routed through
            // already-seen nodes, but a node can collect the same new bit
            // from several parents — the word is already the union. Nodes
            // whose accumulated bits all went stale stay off the frontier.
            frontier.clear();
            for &v in next_frontier.iter() {
                let new = next[v.index()] & !seen[v.index()];
                next[v.index()] = 0;
                if new != 0 {
                    if seen[v.index()] == 0 {
                        reached.push(v);
                    }
                    seen[v.index()] |= new;
                    cur[v.index()] = new;
                    visit(v.index(), new, level);
                    frontier.push(v);
                }
            }
            next_frontier.clear();
        }
    }

    /// Distances from up to 64 `sources` at once into `out` (row-major:
    /// `out[i * n + v]` is the distance from `sources[i]` to `v`;
    /// overwritten entirely), reusing `scratch`. One bit-parallel traversal
    /// serves the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() > 64` or the buffer sizes do not match.
    pub fn batch_distances_into(
        &self,
        sources: &[NodeId],
        scratch: &mut MsBfsScratch,
        out: &mut [u32],
    ) {
        let n = self.node_count();
        let k = sources.len();
        assert_eq!(out.len(), k * n, "row buffer size mismatch");
        // Record levels node-major (64 contiguous slots per node) so the
        // traversal's writes stay local; stale slots are masked by `seen`
        // below, so the buffer needs no clearing between batches.
        let mut levels = std::mem::take(&mut scratch.levels);
        if levels.len() != 64 * n {
            // Zeroed (lazily mapped) allocation — stale values are fine.
            levels = vec![0u32; 64 * n];
        }
        self.ms_bfs(sources, scratch, |v, mut bits, level| {
            let row = &mut levels[v * 64..v * 64 + 64];
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                row[i] = level;
            }
        });
        // Tiled transpose to the row-major output: the level tile stays in
        // cache across the `k` row passes and every output write is part of
        // a short contiguous run. `seen` still holds the final reachability
        // words, masking slots this batch never wrote.
        const TILE: usize = 256;
        let mut v0 = 0;
        while v0 < n {
            let v1 = (v0 + TILE).min(n);
            let seen_tile = &scratch.seen[v0..v1];
            let levels_tile = &levels[v0 * 64..v1 * 64];
            for (i, row) in out.chunks_exact_mut(n).enumerate() {
                for ((dst, &s), lv) in row[v0..v1]
                    .iter_mut()
                    .zip(seen_tile)
                    .zip(levels_tile.chunks_exact(64))
                {
                    *dst = if s >> i & 1 == 1 { lv[i] } else { UNREACHABLE };
                }
            }
            v0 = v1;
        }
        scratch.levels = levels;
    }

    /// Shortest-path trees from up to 64 `sources`, for builders that
    /// keep whole BFS trees rather than distance rows. Source `i` of
    /// `sources` is reported as index `i`.
    ///
    /// * `reached(i, v, d)` fires once for every node `v` that source `i`
    ///   reaches, the source itself included, with the distance `d`, in
    ///   ascending `d`;
    /// * `parent(i, v, pos)` fires once for every reached `v` other than
    ///   the source, after every `reached`, in ascending `v`: `v`'s
    ///   parent is `csr().neighbors(v)[pos]`, its minimum-id neighbour
    ///   one level closer to the source, the rule of
    ///   [`ClusterBfs`](crate::traversal::ClusterBfs) and
    ///   [`MultiSourceFlat::parent`].
    ///
    /// One bit-parallel traversal serves the batch, whatever the
    /// engine's strategy and thread count; it keeps each (node, source)
    /// level mod 3 in two bit-planes per node. Adjacent nodes' levels
    /// differ by at most one, so "`u` is one level closer than `v`" is
    /// "`u`'s level is `v`'s minus one, mod 3", exact at any depth, and
    /// the parents come from one node-major pass over the planes; every
    /// neighbour of a reached node is reached by the same sources, so
    /// only `v`'s own `seen` word selects them. Each call clears only what
    /// the previous call on the same scratch reached, so batches in small
    /// components cost their components, not `n`.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() > 64` or `scratch` was sized for a
    /// different engine.
    pub fn batch_trees(
        &self,
        sources: &[NodeId],
        scratch: &mut MsBfsScratch,
        mut reached: impl FnMut(usize, NodeId, u32),
        mut parent: impl FnMut(usize, NodeId, usize),
    ) {
        let mut planes = std::mem::take(&mut scratch.planes);
        if planes.len() != self.node_count() {
            // Zeroed (lazily mapped): stale planes are masked by `seen`.
            planes = vec![[0u64; 2]; self.node_count()];
        }
        self.ms_bfs(sources, scratch, |v, bits, level| {
            let [one, two] = &mut planes[v];
            *one = (*one & !bits) | if level % 3 == 1 { bits } else { 0 };
            *two = (*two & !bits) | if level % 3 == 2 { bits } else { 0 };
            let mut bits = bits;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                reached(i, NodeId(v as u32), level);
            }
        });
        // Parent pass, node-major and in ascending `v` (so the callers'
        // row writes stream): walk each reached `v`'s run in ascending
        // order and give every source still without a parent the first
        // neighbour one level closer. Sources at `v` never match (their
        // neighbours sit at level 1) and are left over when the run ends.
        scratch.reached.sort_unstable();
        for &v in &scratch.reached {
            let [one, two] = planes[v.index()];
            // `v`'s level minus one, mod 3: 0 → 2, 1 → 0, 2 → 1.
            let (want_one, want_two) = (two, !(one | two));
            let mut pending = scratch.seen[v.index()];
            for (pos, &u) in self.csr.neighbors(v).iter().enumerate() {
                let [u_one, u_two] = planes[u.index()];
                let mut hit = pending & !(u_one ^ want_one) & !(u_two ^ want_two);
                pending &= !hit;
                while hit != 0 {
                    let i = hit.trailing_zeros() as usize;
                    hit &= hit - 1;
                    parent(i, v, pos);
                }
                if pending == 0 {
                    break;
                }
            }
        }
        scratch.planes = planes;
    }

    /// Distance rows for arbitrarily many `sources` (row-major,
    /// `sources.len() * n`), fanned out across the engine's worker threads.
    /// Row `i` depends only on `sources[i]`, so the result is identical at
    /// every thread count.
    pub fn many_distances(&self, sources: &[NodeId]) -> Vec<u32> {
        // Zeroed (lazily mapped) allocation: every cell is overwritten by
        // its unit's traversal, so no sentinel pre-fill is needed.
        let mut out = vec![0u32; sources.len() * self.node_count()];
        self.rows_fanned(sources, &mut self.worker_scratch(sources.len()), &mut out);
        out
    }

    /// One scratch per worker the fan-out uses for up to `sources` rows.
    pub(crate) fn worker_scratch(&self, sources: usize) -> Vec<RowsScratch> {
        let units = sources.div_ceil(self.sources_per_unit());
        (0..self.fanout(units))
            .map(|_| RowsScratch::new(self.node_count()))
            .collect()
    }

    /// [`DistanceEngine::many_distances`] into `out`, one worker per
    /// `scratch` entry (at most one per unit of work).
    pub(crate) fn rows_fanned(
        &self,
        sources: &[NodeId],
        scratch: &mut [RowsScratch],
        out: &mut [u32],
    ) {
        let per = self.sources_per_unit();
        let unit = per * self.node_count();
        for_each_region(out, unit, scratch, |first, region, scratch| {
            let units = sources[first * per..].chunks(per);
            for (unit_sources, rows) in units.zip(region.chunks_mut(unit)) {
                self.rows_into(unit_sources, scratch, rows);
            }
        });
    }

    /// Sources per unit of work for the fan-out: one per per-source BFS,
    /// or one full 64-source batch, so every
    /// bit-parallel traversal carries a full word of work and threads
    /// beyond ⌈sources/64⌉ idle rather than pay for narrower traversals.
    fn sources_per_unit(&self) -> usize {
        match self.resolved_strategy() {
            Strategy::PerSource => 1,
            Strategy::BitParallel => 64,
        }
    }

    /// The full APSP matrix (row-major `n * n`), equivalent to
    /// [`Apsp::new`](crate::distance::Apsp::new) but 64 sources per
    /// traversal and fanned out across the worker threads.
    pub fn apsp_matrix(&self) -> Vec<u32> {
        let sources: Vec<NodeId> = (0..self.node_count() as u32).map(NodeId).collect();
        self.many_distances(&sources)
    }

    /// Eccentricity of every node — the per-source **maximum** BFS level —
    /// without materializing any distance rows, so exact diameters stay
    /// feasible far beyond APSP's O(n²) memory.
    pub fn eccentricities(&self) -> Vec<u32> {
        let n = self.node_count();
        let mut out = vec![0u32; n];
        let per = self.sources_per_unit();
        let mut scratch = self.worker_scratch(n);
        for_each_region(&mut out, per, &mut scratch, |first, ecc, scratch| {
            let lo = first * per;
            if per == 1 {
                // The per-source BFS already returns the max level; one
                // dist row per worker is the only buffer, so exact
                // diameters stay O(n) in memory.
                let mut row = vec![0u32; n];
                for (i, e) in ecc.iter_mut().enumerate() {
                    *e = self.bfs(
                        NodeId((lo + i) as u32),
                        u32::MAX,
                        &mut scratch.queue,
                        &mut row,
                    );
                }
                return;
            }
            for (b, ecc) in ecc.chunks_mut(64).enumerate() {
                let s0 = lo + b * 64;
                let sources: Vec<NodeId> = (s0..s0 + ecc.len()).map(|s| NodeId(s as u32)).collect();
                // Levels only grow, so the last write per bit is the max.
                self.ms_bfs(&sources, scratch.ms(), |_, mut bits, level| {
                    while bits != 0 {
                        let i = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        ecc[i] = level;
                    }
                });
            }
        });
        out
    }

    /// Exact diameter (max eccentricity over all nodes; for disconnected
    /// graphs, over all components). `None` for graphs with < 2 nodes,
    /// matching [`diameter_exact`](crate::distance::diameter_exact).
    pub fn diameter(&self) -> Option<u32> {
        if self.node_count() < 2 {
            return None;
        }
        self.eccentricities().into_iter().max()
    }

    /// Length of the shortest cycle, or `None` for a forest — the engine
    /// counterpart of [`girth`](crate::girth::girth): one pruned flat BFS
    /// per source, fanned out across the worker threads.
    ///
    /// Workers share the current best cycle length (an upper bound) purely
    /// for pruning; pruning with any valid upper bound never changes the
    /// final minimum, so the result is thread-count-independent.
    pub fn girth(&self) -> Option<u32> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let best = AtomicU32::new(u32::MAX);
        let t = self.fanout(n);
        run_workers(t, |w| {
            let mut dist = vec![UNREACHABLE; n];
            let mut parent = vec![u32::MAX; n];
            let mut cur: Vec<NodeId> = Vec::new();
            let mut next: Vec<NodeId> = Vec::new();
            let mut touched: Vec<u32> = Vec::new();
            for s in chunk_range(n, t, w) {
                debug_assert!(touched.is_empty());
                let s = NodeId(s as u32);
                dist[s.index()] = 0;
                parent[s.index()] = u32::MAX;
                touched.push(s.0);
                cur.clear();
                cur.push(s);
                let mut d = 0u32;
                while !cur.is_empty() {
                    // Cycles through s found at depth >= best/2 cannot
                    // improve on the shared bound.
                    if 2 * d + 1 >= best.load(Ordering::Relaxed) {
                        break;
                    }
                    for &u in &cur {
                        for &v in self.csr.neighbors(u) {
                            if v.0 == parent[u.index()] {
                                continue; // the tree edge (simple graph)
                            }
                            if dist[v.index()] == UNREACHABLE {
                                dist[v.index()] = d + 1;
                                parent[v.index()] = u.0;
                                touched.push(v.0);
                                next.push(v);
                            } else {
                                let len = d + dist[v.index()] + 1;
                                best.fetch_min(len, Ordering::Relaxed);
                            }
                        }
                    }
                    d += 1;
                    std::mem::swap(&mut cur, &mut next);
                    next.clear();
                }
                for &v in &touched {
                    dist[v as usize] = UNREACHABLE;
                }
                touched.clear();
            }
        });
        let g = best.into_inner();
        (g != u32::MAX).then_some(g)
    }

    /// Multi-source BFS with the paper's minimum-id attribution rule
    /// (nearest source, minimum id among equidistant ones, Sect. 4.1);
    /// distances and attributions equal the test reference
    /// [`multi_source_bfs`](crate::traversal::multi_source_bfs).
    /// [`MultiSourceFlat::parent`] reads the forest off the result.
    pub fn nearest_sources(&self, sources: &[NodeId]) -> MultiSourceFlat {
        let n = self.node_count();
        let mut dist = vec![UNREACHABLE; n];
        let mut source = vec![NO_SOURCE; n];
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut sorted: Vec<NodeId> = sources.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut frontier_edges = 0usize;
        for &s in &sorted {
            dist[s.index()] = 0;
            source[s.index()] = s.0;
            frontier.push(s);
            frontier_edges += self.csr.degree(s);
        }
        let mut unvisited_edges = self.csr.half_edge_count() - frontier_edges;
        let mut next: Vec<NodeId> = Vec::new();
        let mut d = 0u32;
        while !frontier.is_empty() {
            d += 1;
            // Direction choice, fresh per level (the oracle seeds dense
            // source sets whose first levels swallow most of the graph):
            // bottom-up pays when the frontier is edge-heavy AND wide — a
            // narrow frontier with huge degrees (a star hub, a lollipop
            // head) would make the full unvisited sweep scan nearly every
            // node for a handful of discoveries. The distance array itself
            // is the frontier membership test (`dist == d - 1`), so no
            // bitmap is needed, and the min-over-parents scan below *is*
            // the reference attribution rule — results stay identical to
            // the top-down branch.
            let dense = frontier_edges > unvisited_edges / ALPHA && frontier.len() >= n / BETA;
            if dense {
                for v in 0..n {
                    if dist[v] != UNREACHABLE {
                        continue;
                    }
                    let mut bst = NO_SOURCE;
                    for &u in self.csr.neighbors(NodeId(v as u32)) {
                        if dist[u.index()] == d - 1 && source[u.index()] < bst {
                            bst = source[u.index()];
                        }
                    }
                    if bst != NO_SOURCE {
                        dist[v] = d;
                        source[v] = bst;
                        next.push(NodeId(v as u32));
                    }
                }
            } else {
                // First pass: discover; keep the min-id source among
                // frontier parents seen so far.
                for &u in &frontier {
                    let su = source[u.index()];
                    for &v in self.csr.neighbors(u) {
                        if dist[v.index()] == UNREACHABLE {
                            dist[v.index()] = d;
                            source[v.index()] = su;
                            next.push(v);
                        } else if dist[v.index()] == d && su < source[v.index()] {
                            source[v.index()] = su;
                        }
                    }
                }
                // Second pass: fix attribution against *all* parents,
                // exactly like the reference (a node's best source may
                // arrive via a parent that scanned it after a worse one).
                for &v in &next {
                    let mut bst = source[v.index()];
                    for &u in self.csr.neighbors(v) {
                        if dist[u.index()] == d - 1 && source[u.index()] < bst {
                            bst = source[u.index()];
                        }
                    }
                    source[v.index()] = bst;
                }
            }
            frontier_edges = next.iter().map(|&v| self.csr.degree(v)).sum();
            unvisited_edges -= frontier_edges;
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        MultiSourceFlat { dist, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::eccentricity;
    use crate::generators;
    use crate::traversal::{bfs_distances, bfs_distances_in_subgraph, multi_source_bfs};

    fn flat(expected: &[Option<u32>]) -> Vec<u32> {
        expected.iter().map(|d| d.unwrap_or(UNREACHABLE)).collect()
    }

    /// The per-source BFS row from `s`, whatever the engine resolves to.
    fn row(eng: &DistanceEngine, s: NodeId) -> Vec<u32> {
        let mut row = vec![0; eng.node_count()];
        eng.bfs(s, u32::MAX, &mut Vec::new(), &mut row);
        row
    }

    #[test]
    fn single_source_matches_reference() {
        let g = generators::erdos_renyi_gnm(80, 200, 7);
        let eng = DistanceEngine::new(&g);
        let mut queue = Vec::new();
        for s in [NodeId(0), NodeId(41), NodeId(79)] {
            assert_eq!(row(&eng, s), flat(&bfs_distances(&g, s)));
            // Bounded at `radius`: the reference's bounded row, and the
            // deepest level in it.
            for radius in [1, 2, 3, 6] {
                let mut dist = vec![0; 80];
                let deepest = eng.bfs(s, radius, &mut queue, &mut dist);
                assert_eq!(dist, flat(&bfs_distances_in_subgraph(g.csr(), s, radius)));
                let max = dist.iter().filter(|&&d| d != UNREACHABLE).max();
                assert_eq!(Some(&deepest), max, "{s} radius {radius}");
            }
        }
    }

    #[test]
    fn batch_matches_single_source_rows() {
        let g = generators::connected_gnm(70, 210, 3);
        let eng = DistanceEngine::new(&g);
        let sources: Vec<NodeId> = (0..70).map(NodeId).collect();
        let rows = eng.many_distances(&sources);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rows[i * 70..(i + 1) * 70], row(&eng, s), "source {s}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = generators::erdos_renyi_gnm(90, 180, 11); // disconnected bits too
        let sources: Vec<NodeId> = (0..90).map(NodeId).collect();
        let base = DistanceEngine::new(&g).many_distances(&sources);
        let ecc1 = DistanceEngine::new(&g).eccentricities();
        for threads in [2usize, 3, 8] {
            let eng = DistanceEngine::new(&g).with_threads(threads);
            assert_eq!(eng.many_distances(&sources), base, "threads={threads}");
            assert_eq!(eng.eccentricities(), ecc1, "threads={threads}");
            assert_eq!(eng.girth(), DistanceEngine::new(&g).girth());
        }
    }

    #[test]
    fn duplicate_sources_share_a_row() {
        let g = generators::cycle(12);
        let eng = DistanceEngine::new(&g);
        let rows = eng.many_distances(&[NodeId(3), NodeId(3), NodeId(7)]);
        assert_eq!(rows[0..12], rows[12..24]);
        assert_eq!(rows[12..24], row(&eng, NodeId(3)));
        assert_eq!(rows[24..36], row(&eng, NodeId(7)));
    }

    #[test]
    fn subgraph_engine_respects_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut s = EdgeSet::new(&g);
        for (e, u, v) in g.edges() {
            if !(u == NodeId(0) && v == NodeId(3)) {
                s.insert(e);
            }
        }
        let eng = DistanceEngine::for_subgraph(&g, &s);
        assert_eq!(row(&eng, NodeId(0))[3], 3);
        assert_eq!(row(&DistanceEngine::new(&g), NodeId(0))[3], 1);
    }

    #[test]
    fn eccentricities_and_diameter() {
        let g = generators::path(7);
        let eng = DistanceEngine::new(&g);
        assert_eq!(eng.eccentricities(), vec![6, 5, 4, 3, 4, 5, 6]);
        assert_eq!(eng.diameter(), Some(6));
        assert_eq!(DistanceEngine::new(&Graph::empty(1)).diameter(), None);
        assert_eq!(DistanceEngine::new(&Graph::empty(0)).diameter(), None);
    }

    #[test]
    fn girth_basics() {
        assert_eq!(DistanceEngine::new(&generators::path(5)).girth(), None);
        assert_eq!(DistanceEngine::new(&generators::cycle(9)).girth(), Some(9));
        // Petersen graph: girth 5.
        let outer = (0u32..5).map(|i| (i, (i + 1) % 5));
        let inner = (0u32..5).map(|i| (5 + i, 5 + (i + 2) % 5));
        let spokes = (0u32..5).map(|i| (i, i + 5));
        let g = Graph::from_edges(10, outer.chain(inner).chain(spokes));
        assert_eq!(DistanceEngine::new(&g).girth(), Some(5));
    }

    #[test]
    fn nearest_sources_matches_reference() {
        let g = generators::erdos_renyi_gnm(60, 150, 9);
        let eng = DistanceEngine::new(&g);
        let sources = [NodeId(50), NodeId(3), NodeId(17), NodeId(3)];
        let got = eng.nearest_sources(&sources);
        let want = multi_source_bfs(&g, &sources);
        for v in g.nodes() {
            assert_eq!(got.dist[v.index()], flat(&want.dist)[v.index()], "{v}");
            assert_eq!(
                got.source[v.index()],
                want.source[v.index()].map_or(u32::MAX, |s| s.0),
                "{v}"
            );
        }
    }

    #[test]
    fn probe_picks_expected_strategies() {
        // High-diameter shapes: the bounded probe runs out of depth.
        for g in [
            generators::path(200),
            generators::cycle(100),
            generators::grid(40, 40),
            generators::torus(40, 40), // ecc 40 > PROBE_DEPTH (a 30×30 torus, ecc 30, stays bit-parallel)
        ] {
            assert_eq!(
                DistanceEngine::new(&g).resolved_strategy(),
                Strategy::PerSource
            );
        }
        // Low-diameter shapes: the probe exhausts the component early.
        for g in [
            generators::star(500),
            generators::erdos_renyi_gnm(200, 800, 1),
            generators::caveman(4, 12, 3, 2),
            Graph::empty(5),
        ] {
            assert_eq!(
                DistanceEngine::new(&g).resolved_strategy(),
                Strategy::BitParallel
            );
        }
    }

    /// Shapes the probe sends to per-source BFS: a chain of cliques (its
    /// traversals end on dense levels), a clique with a long path
    /// attached, and a path of 100 nodes beside a triangle and an
    /// isolated node.
    fn per_source_shapes() -> [Graph; 3] {
        let clique = (0u32..20).flat_map(|u| (u + 1..20).map(move |v| (u, v)));
        let tail = (19u32..69).map(|u| (u, u + 1));
        let path = (0u32..99).map(|u| (u, u + 1));
        let triangle = [(100, 101), (101, 102), (100, 102)];
        [
            generators::caveman(60, 14, 0, 5),
            Graph::from_edges(70, clique.chain(tail)),
            Graph::from_edges(104, path.chain(triangle)),
        ]
    }

    #[test]
    fn strategies_agree_on_all_entry_points() {
        // Whichever way a shape resolves, both arms — one `bfs` per
        // source, or `batch_distances_into` 64 sources at a time — and
        // every row entry point at threads 1–3 match the reference.
        let low = [
            generators::grid(9, 7),
            generators::erdos_renyi_gnm(90, 180, 3), // disconnected bits too
            generators::star(40),
        ];
        let mut verdicts = Vec::new();
        for g in low.into_iter().chain(per_source_shapes()) {
            let eng = DistanceEngine::new(&g);
            verdicts.push(eng.resolved_strategy());
            let n = g.node_count();
            let sources: Vec<NodeId> = g.nodes().collect();
            let want: Vec<u32> = sources
                .iter()
                .flat_map(|&s| flat(&bfs_distances(&g, s)))
                .collect();
            let ecc: Vec<u32> = g.nodes().map(|v| eccentricity(&g, v)).collect();
            let mut per_source = vec![0u32; n * n];
            let mut queue = Vec::new();
            for (&s, row) in sources.iter().zip(per_source.chunks_exact_mut(n)) {
                assert_eq!(eng.bfs(s, u32::MAX, &mut queue, row), ecc[s.index()]);
            }
            assert_eq!(per_source, want);
            let mut batched = vec![0u32; n * n];
            let mut ms = MsBfsScratch::new(n);
            for (batch, rows) in sources.chunks(64).zip(batched.chunks_mut(64 * n)) {
                eng.batch_distances_into(batch, &mut ms, rows);
            }
            assert_eq!(batched, want);
            let batch = &sources[..n.min(64)];
            let mut rows = vec![0u32; batch.len() * n];
            eng.rows_into(batch, &mut RowsScratch::new(n), &mut rows);
            assert_eq!(rows, want[..batch.len() * n]);
            for threads in 1..=3 {
                let eng = DistanceEngine::new(&g).with_threads(threads);
                assert_eq!(eng.many_distances(&sources), want, "threads={threads}");
                assert_eq!(eng.eccentricities(), ecc, "threads={threads}");
                assert_eq!(eng.diameter(), ecc.iter().max().copied());
            }
        }
        use Strategy::{BitParallel as Bp, PerSource as Ps};
        assert_eq!(verdicts, [Bp, Bp, Bp, Ps, Ps, Ps]);
    }

    #[test]
    fn nearest_sources_dense_source_sets_match_reference() {
        // Half the nodes as sources triggers the bottom-up level choice.
        let g = generators::erdos_renyi_gnm(150, 600, 21);
        let eng = DistanceEngine::new(&g);
        let sources: Vec<NodeId> = (0..75u32).map(|i| NodeId(i * 2)).collect();
        let got = eng.nearest_sources(&sources);
        let want = multi_source_bfs(&g, &sources);
        assert_eq!(got.dist, flat(&want.dist));
        let want_src: Vec<u32> = want
            .source
            .iter()
            .map(|s| s.map_or(NO_SOURCE, |x| x.0))
            .collect();
        assert_eq!(got.source, want_src);
    }

    #[test]
    fn empty_inputs() {
        let g = generators::cycle(5);
        let eng = DistanceEngine::new(&g);
        assert!(eng.many_distances(&[]).is_empty());
        let none = eng.nearest_sources(&[]);
        assert!(none.dist.iter().all(|&d| d == UNREACHABLE));
        let empty = DistanceEngine::new(&Graph::empty(0));
        assert!(empty.apsp_matrix().is_empty());
        assert_eq!(empty.girth(), None);
    }
}
