//! Flat CSR adjacency: the one adjacency layout of the workspace.
//!
//! In the paper's model every node knows its incident edges; here each
//! node's neighbor list is a run **sorted ascending** (the determinism
//! contract: `Ctx::neighbors` is sorted, `Ctx::send` binary searches it,
//! and the engine's traversal order is a pure function of the layout).
//! [`CsrAdjacency`] lays the data out as two flat arrays (offsets +
//! targets), built once and shared behind an `Arc` by a
//! [`Graph`](crate::Graph), the netsim executors and the distance engine
//! alike. A `Graph` adds only an edge-id column parallel to the targets.

use std::fmt;

use crate::edgeset::EdgeSet;
use crate::graph::{EdgeId, NodeId};

/// A graph that does not fit the u32 id space of [`NodeId`] / [`EdgeId`].
///
/// Returned by [`CsrAdjacency::try_from_edges`] **before** any
/// proportional allocation happens, so a generator asked for an oversized
/// n fails immediately with an actionable message instead of panicking
/// mid-generation (or after gigabytes of work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrSizeError {
    /// More nodes than `u32` node ids can address.
    Nodes {
        /// The requested node count.
        n: usize,
    },
    /// More than `u32::MAX` half-edges (directed adjacency entries).
    HalfEdges,
}

impl fmt::Display for CsrSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrSizeError::Nodes { n } => write!(
                f,
                "graph too large: n = {n} nodes exceeds the u32 node-id space \
                 (max {}); shard the input or reduce n",
                u32::MAX
            ),
            CsrSizeError::HalfEdges => write!(
                f,
                "graph too large: more than {} half-edges overflow the u32 \
                 CSR offsets; reduce the edge count",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for CsrSizeError {}

/// A flat-array pair that is not a valid [`CsrAdjacency`].
///
/// Returned by [`CsrAdjacency::try_from_parts`], the decode half of the
/// snapshot round-trip: a persisted adjacency is rebuilt from raw
/// `(offsets, targets)` arrays, and every structural invariant the rest of
/// the codebase assumes (sorted runs, symmetry, no loops) is re-validated
/// so a corrupted or hand-crafted file can never produce a silently wrong
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrPartsError {
    /// `offsets` is empty or does not start at 0.
    BadOffsetHead,
    /// `offsets` is not monotone non-decreasing at the given node.
    NonMonotoneOffsets {
        /// The node whose offset decreases.
        node: u32,
    },
    /// The final offset does not equal `targets.len()`.
    LengthMismatch {
        /// The final offset.
        last: u32,
        /// The actual target-array length.
        targets: usize,
    },
    /// A neighbor id is out of the node range.
    TargetOutOfRange {
        /// The node whose run contains the bad target.
        node: u32,
    },
    /// A neighbor run is not strictly ascending (unsorted or duplicate).
    UnsortedRun {
        /// The node whose run is out of order.
        node: u32,
    },
    /// A node lists itself as a neighbor.
    SelfLoop {
        /// The offending node.
        node: u32,
    },
    /// Edge `{a, b}` appears in `a`'s run but not in `b`'s.
    Asymmetric {
        /// The endpoint whose run has the half-edge.
        from: u32,
        /// The endpoint whose run is missing the reverse half-edge.
        to: u32,
    },
}

impl fmt::Display for CsrPartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrPartsError::BadOffsetHead => {
                write!(f, "CSR offsets must be non-empty and start at 0")
            }
            CsrPartsError::NonMonotoneOffsets { node } => {
                write!(f, "CSR offsets decrease at node {node}")
            }
            CsrPartsError::LengthMismatch { last, targets } => write!(
                f,
                "CSR final offset {last} does not match target count {targets}"
            ),
            CsrPartsError::TargetOutOfRange { node } => {
                write!(f, "CSR run of node {node} has an out-of-range neighbor")
            }
            CsrPartsError::UnsortedRun { node } => write!(
                f,
                "CSR run of node {node} is not strictly ascending (unsorted or duplicate)"
            ),
            CsrPartsError::SelfLoop { node } => {
                write!(f, "CSR run of node {node} contains a self-loop")
            }
            CsrPartsError::Asymmetric { from, to } => {
                write!(f, "CSR edge {from}-{to} is missing its reverse half-edge")
            }
        }
    }
}

impl std::error::Error for CsrPartsError {}

/// Sorted neighbor lists in compressed sparse row layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, each run sorted ascending.
    targets: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Builds the sorted CSR adjacency of the `n`-node simple graph with
    /// the given edges, **without** an edge-id column or any per-node
    /// `Vec` in between — the streaming path that takes the generators to
    /// n ≥ 10⁶ nodes.
    ///
    /// The edge stream is consumed twice (degree count, then scatter), so
    /// the iterator must be `Clone` — generator closures and ranges are.
    /// Self-loops are skipped and duplicate edges collapsed. This is the
    /// build behind [`Graph::from_edges`](crate::Graph::from_edges) too, so
    /// the result is that graph's [`Graph::csr`](crate::Graph::csr).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the graph exceeds the u32
    /// id space (see [`CsrAdjacency::try_from_edges`] for the fallible
    /// variant).
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        match Self::try_from_edges(n, edges) {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CsrAdjacency::from_edges`]: checks the node count
    /// against the u32 id space **before** allocating anything, and turns
    /// half-edge overflow into a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`CsrSizeError::Nodes`] when `n` exceeds `u32::MAX`,
    /// [`CsrSizeError::HalfEdges`] when the adjacency would overflow the
    /// u32 CSR offsets. Out-of-range endpoints still panic (a generator
    /// bug, not an input-size problem).
    pub fn try_from_edges<I>(n: usize, edges: I) -> Result<Self, CsrSizeError>
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        if n > u32::MAX as usize {
            return Err(CsrSizeError::Nodes { n });
        }
        let iter = edges.into_iter();
        let mut degree = vec![0u32; n];
        let mut half_edges = 0u64;
        for (a, b) in iter.clone() {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge endpoint out of range"
            );
            if a == b {
                continue; // simple graph: self-loops dropped
            }
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            half_edges += 2;
            if half_edges > u32::MAX as u64 {
                return Err(CsrSizeError::HalfEdges);
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![NodeId(0); acc as usize];
        // Reuse `degree` as per-node write cursors.
        let cursor = &mut degree;
        cursor.fill(0);
        for (a, b) in iter {
            if a == b {
                continue;
            }
            let ia = offsets[a as usize] + cursor[a as usize];
            targets[ia as usize] = NodeId(b);
            cursor[a as usize] += 1;
            let ib = offsets[b as usize] + cursor[b as usize];
            targets[ib as usize] = NodeId(a);
            cursor[b as usize] += 1;
        }
        // Sort each run and collapse duplicate edges in place: the write
        // cursor never catches up to the run being read, so compaction and
        // offset rebuilding happen in a single pass with no extra memory.
        let mut write = 0usize;
        let mut start = 0usize;
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            targets[start..end].sort_unstable();
            let mut last = None;
            for r in start..end {
                let t = targets[r];
                if last != Some(t) {
                    targets[write] = t;
                    write += 1;
                    last = Some(t);
                }
            }
            start = end;
            offsets[v + 1] = write as u32;
        }
        targets.truncate(write);
        Ok(CsrAdjacency { offsets, targets })
    }

    /// The raw flat arrays `(offsets, targets)` — the encode half of the
    /// snapshot round-trip. [`CsrAdjacency::try_from_parts`] inverts this
    /// exactly: `try_from_parts` of `parts()` is always `Ok` and equal.
    #[inline]
    pub fn parts(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    /// Rebuilds an adjacency from raw `(offsets, targets)` arrays,
    /// re-validating every structural invariant: offsets start at 0 and
    /// are monotone with `offsets.last() == targets.len()`, every run is
    /// strictly ascending, in node range, loop-free, and every half-edge
    /// has its reverse. O(n + m log Δ) — the symmetry check binary
    /// searches the reverse run.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`CsrPartsError`]; a decoded
    /// snapshot can therefore never yield a structurally invalid graph.
    pub fn try_from_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Result<Self, CsrPartsError> {
        if offsets.first() != Some(&0) {
            return Err(CsrPartsError::BadOffsetHead);
        }
        let n = offsets.len() - 1;
        for v in 0..n {
            if offsets[v + 1] < offsets[v] {
                return Err(CsrPartsError::NonMonotoneOffsets { node: v as u32 });
            }
        }
        let last = offsets[n];
        if last as usize != targets.len() {
            return Err(CsrPartsError::LengthMismatch {
                last,
                targets: targets.len(),
            });
        }
        let csr = CsrAdjacency { offsets, targets };
        // Pass 1: every run is in range, loop-free, strictly ascending.
        for v in 0..n {
            let v32 = v as u32;
            let run = csr.neighbors(NodeId(v32));
            for (i, &w) in run.iter().enumerate() {
                if w.index() >= n {
                    return Err(CsrPartsError::TargetOutOfRange { node: v32 });
                }
                if w.0 == v32 {
                    return Err(CsrPartsError::SelfLoop { node: v32 });
                }
                if i > 0 && run[i - 1] >= w {
                    return Err(CsrPartsError::UnsortedRun { node: v32 });
                }
            }
        }
        // Pass 2: every half-edge has its reverse (runs are now known
        // sorted, so the reverse lookup can binary search).
        for v in 0..n {
            let v32 = v as u32;
            for &w in csr.neighbors(NodeId(v32)) {
                if csr.neighbors(w).binary_search(&NodeId(v32)).is_err() {
                    return Err(CsrPartsError::Asymmetric { from: v32, to: w.0 });
                }
            }
        }
        Ok(csr)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total length of the neighbor lists — twice the undirected edge
    /// count.
    #[inline]
    pub fn half_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(NodeId(v as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Builds the [`CsrEdgeIndex`] assigning this adjacency the exact
    /// [`EdgeId`]s a [`Graph`](crate::Graph) over it has: ids in
    /// lexicographic `(min, max)` endpoint order. One O(n + m) pass.
    pub fn edge_index(&self) -> CsrEdgeIndex {
        let n = self.node_count();
        let mut fwd = Vec::with_capacity(n + 1);
        fwd.push(0u32);
        let mut acc = 0u32;
        for v in 0..n {
            let v = NodeId(v as u32);
            let nb = self.neighbors(v);
            acc += (nb.len() - nb.partition_point(|&w| w <= v)) as u32;
            fwd.push(acc);
        }
        CsrEdgeIndex { fwd }
    }

    /// Iterator over all edges as `(EdgeId, NodeId, NodeId)` with the
    /// smaller endpoint first, in [`EdgeId`] order — the CSR equivalent of
    /// [`Graph::edges`](crate::Graph::edges), enumerating exactly the ids
    /// [`CsrEdgeIndex`] assigns.
    pub fn forward_edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        (0..self.node_count() as u32)
            .scan(0u32, move |base, a| {
                let a = NodeId(a);
                let nb = self.neighbors(a);
                let from = nb.partition_point(|&w| w <= a);
                let start = *base;
                *base += (nb.len() - from) as u32;
                Some(
                    nb[from..]
                        .iter()
                        .enumerate()
                        .map(move |(i, &b)| (EdgeId(start + i as u32), a, b)),
                )
            })
            .flatten()
    }

    /// The subgraph keeping exactly the edges in `set`, on the full vertex
    /// set, with edge universe ids as assigned by [`CsrAdjacency::edge_index`]
    /// (the ids of the [`Graph`](crate::Graph) around this adjacency).
    ///
    /// # Panics
    ///
    /// Panics if `set` ranges over a different edge universe.
    pub fn subgraph(&self, set: &EdgeSet) -> CsrAdjacency {
        assert_eq!(
            set.universe(),
            self.edge_count(),
            "edge set built for a different graph"
        );
        let n = self.node_count();
        let mut degree = vec![0u32; n];
        for (e, a, b) in self.forward_edges() {
            if set.contains(e) {
                degree[a.index()] += 1;
                degree[b.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![NodeId(0); acc as usize];
        // Reuse `degree` as per-node write cursors. Forward-edge order is
        // lexicographic, so every run comes out already sorted ascending
        // (all smaller-endpoint neighbors arrive first, each in ascending
        // order, then all larger-endpoint ones, also ascending).
        let cursor = &mut degree;
        cursor.fill(0);
        for (e, a, b) in self.forward_edges() {
            if set.contains(e) {
                let ia = offsets[a.index()] + cursor[a.index()];
                targets[ia as usize] = b;
                cursor[a.index()] += 1;
                let ib = offsets[b.index()] + cursor[b.index()];
                targets[ib as usize] = a;
                cursor[b.index()] += 1;
            }
        }
        CsrAdjacency { offsets, targets }
    }

    /// Whether the graph is connected (vacuously true when empty). One BFS.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = vec![NodeId(0)];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(v) = queue.pop() {
            for &w in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    reached += 1;
                    queue.push(w);
                }
            }
        }
        reached == n
    }
}

/// Graph-identical edge ids for a [`CsrAdjacency`], without the `Graph`'s
/// edge-id column.
///
/// A [`Graph`](crate::Graph)'s [`EdgeId`]s enumerate edges in
/// lexicographic `(min, max)` endpoint order — which is exactly the order
/// the forward half-edges (`a → b` with `a < b`) appear in a CSR
/// traversal. This index is one prefix-sum array over that observation: `fwd[a]` counts the forward
/// half-edges before node `a`, and the id of `{a, b}` is `fwd[a]` plus the
/// rank of `b` among `a`'s larger neighbors. CSR-native construction
/// drivers use it to emit [`EdgeSet`]s over the `Graph`'s edge ids with an
/// O(n) index instead of an O(m) column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrEdgeIndex {
    /// `fwd[v]` = number of edges whose smaller endpoint is `< v`;
    /// `fwd[n]` = edge count.
    fwd: Vec<u32>,
}

impl CsrEdgeIndex {
    /// Number of undirected edges (the edge-universe size).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.fwd[self.fwd.len() - 1] as usize
    }

    /// The edge id of `{u, v}` in `csr`, if present. O(log degree).
    ///
    /// Must be queried against the same adjacency the index was built
    /// from; ids match [`Graph::find_edge`](crate::Graph::find_edge) on the
    /// equivalent graph.
    pub fn edge_id(&self, csr: &CsrAdjacency, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let nb = csr.neighbors(a);
        let from = nb.partition_point(|&w| w <= a);
        let rank = nb[from..].binary_search(&b).ok()?;
        Some(EdgeId(self.fwd[a.index()] + rank as u32))
    }
}

/// Incrementally growable adjacency with flat storage: one singly linked
/// half-edge chain per node, all chains sharing a single arena. The
/// CSR-style companion for algorithms that *grow* their subgraph edge by
/// edge (greedy/streaming spanner filters), where a static [`CsrAdjacency`]
/// cannot be prebuilt and per-node `Vec<Vec<_>>` growth would scatter the
/// hot BFS loops across thousands of small allocations.
///
/// Neighbors iterate in reverse insertion order; callers must be
/// order-insensitive (bounded-distance predicates are).
///
/// Edges can also be *removed* ([`LinkedAdjacency::remove_edge`]): the
/// half-edge pair is unlinked from both chains in O(degree). Arena slots
/// of removed edges are not reclaimed (the arena only grows), which keeps
/// every live slot index stable — the right trade for the dynamic-spanner
/// workload, where the live set stays near the girth bound while the
/// edit stream may be much longer.
#[derive(Debug, Clone)]
pub struct LinkedAdjacency {
    /// Per node: arena index of its most recent half-edge, or `NO_EDGE`.
    head: Vec<u32>,
    /// Per half-edge: the previous half-edge of the same node.
    next: Vec<u32>,
    /// Per half-edge: the neighbor it points at.
    dst: Vec<NodeId>,
    /// Half-edges currently linked (arena slots minus removed ones).
    live_half: usize,
}

const NO_EDGE: u32 = u32::MAX;

impl LinkedAdjacency {
    /// An edgeless adjacency over `n` nodes.
    pub fn new(n: usize) -> Self {
        LinkedAdjacency {
            head: vec![NO_EDGE; n],
            next: Vec::new(),
            dst: Vec::new(),
            live_half: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.head.len()
    }

    /// Number of undirected edges currently present (added minus removed).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_half / 2
    }

    /// Appends the undirected edge `{u, v}`. O(1). No dedup: offering the
    /// same pair twice stores it twice (callers filter duplicates).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the arena would exceed
    /// `u32::MAX` half-edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            self.dst.len() + 2 < NO_EDGE as usize,
            "LinkedAdjacency arena exceeds u32 half-edge capacity"
        );
        for (a, b) in [(u, v), (v, u)] {
            let slot = self.dst.len() as u32;
            self.next.push(self.head[a.index()]);
            self.dst.push(b);
            self.head[a.index()] = slot;
        }
        self.live_half += 2;
    }

    /// Removes one copy of the undirected edge `{u, v}` if present;
    /// returns whether an edge was removed. O(degree(u) + degree(v)).
    /// When the pair was added more than once (no dedup on insert), the
    /// most recently added copy is the one unlinked.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.unlink_half(u, v) {
            return false;
        }
        let reverse = self.unlink_half(v, u);
        debug_assert!(reverse, "half-edge pair out of sync");
        self.live_half -= 2;
        true
    }

    /// Unlinks the first chain entry of `a` pointing at `b`, if any.
    fn unlink_half(&mut self, a: NodeId, b: NodeId) -> bool {
        let mut at = self.head[a.index()];
        let mut prev = NO_EDGE;
        while at != NO_EDGE {
            if self.dst[at as usize] == b {
                let tail = self.next[at as usize];
                if prev == NO_EDGE {
                    self.head[a.index()] = tail;
                } else {
                    self.next[prev as usize] = tail;
                }
                return true;
            }
            prev = at;
            at = self.next[at as usize];
        }
        false
    }

    /// The neighbors of `v`, most recently added first.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut at = self.head[v.index()];
        std::iter::from_fn(move || {
            if at == NO_EDGE {
                return None;
            }
            let w = self.dst[at as usize];
            at = self.next[at as usize];
            Some(w)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Graph};

    #[test]
    fn linked_adjacency_matches_vec_of_vecs() {
        let g = generators::erdos_renyi_gnm(40, 100, 11);
        let mut linked = LinkedAdjacency::new(40);
        let mut vecs: Vec<Vec<NodeId>> = vec![Vec::new(); 40];
        for (_, u, v) in g.edges() {
            linked.add_edge(u, v);
            vecs[u.index()].push(v);
            vecs[v.index()].push(u);
        }
        assert_eq!(linked.node_count(), 40);
        assert_eq!(linked.edge_count(), g.edge_count());
        for v in g.nodes() {
            let mut a: Vec<NodeId> = linked.neighbors(v).collect();
            a.sort_unstable();
            let mut b = vecs[v.index()].clone();
            b.sort_unstable();
            assert_eq!(a, b, "node {v}");
        }
    }

    #[test]
    fn matches_graph_adjacency_sorted() {
        let g = generators::erdos_renyi_gnm(50, 120, 3);
        let csr = g.csr();
        assert_eq!(csr.node_count(), 50);
        for v in g.nodes() {
            assert!(csr.neighbors(v).windows(2).all(|w| w[0] < w[1]), "{v}");
            assert_eq!(csr.neighbors(v), g.neighbors(v), "node {v}");
            assert_eq!(csr.degree(v), g.degree(v));
        }
        assert_eq!(csr.max_degree(), g.max_degree());
    }

    #[test]
    fn from_edges_matches_on_random_graph() {
        let g = generators::erdos_renyi_gnm(70, 210, 11);
        let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(
            CsrAdjacency::from_edges(70, edges.iter().rev().copied()),
            **g.csr()
        );
    }

    #[test]
    fn empty_graph() {
        let csr = CsrAdjacency::from_edges(0, std::iter::empty());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.max_degree(), 0);
    }

    #[test]
    fn star_hub_sees_all_leaves() {
        let g = generators::star(1000);
        let csr = g.csr();
        assert_eq!(csr.degree(NodeId(0)), 999);
        assert!(csr.neighbors(NodeId(0)).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn edge_set_full_matches_from_graph() {
        let g = generators::erdos_renyi_gnm(60, 180, 5);
        let full = g.csr().subgraph(&EdgeSet::full(&g));
        assert_eq!(full, **g.csr());
    }

    #[test]
    fn edge_set_subgraph_keeps_only_selected_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut s = EdgeSet::new(&g);
        for (e, u, v) in g.edges() {
            if !(u == NodeId(0) && v == NodeId(3)) {
                s.insert(e);
            }
        }
        let csr = g.csr().subgraph(&s);
        assert_eq!(csr.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(csr.neighbors(NodeId(3)), &[NodeId(2)]);
        assert_eq!(csr.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    fn edge_index_matches_graph_edge_ids() {
        let g = generators::erdos_renyi_gnm(80, 300, 21);
        let csr = g.csr();
        let idx = csr.edge_index();
        assert_eq!(idx.edge_count(), g.edge_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for (e, u, v) in g.edges() {
            assert_eq!(idx.edge_id(csr, u, v), Some(e), "edge {u}-{v}");
            assert_eq!(idx.edge_id(csr, v, u), Some(e), "edge {v}-{u}");
        }
        // Non-edges and self-loops resolve to None.
        for v in g.nodes() {
            assert_eq!(idx.edge_id(csr, v, v), None);
        }
        let mut missing = 0;
        for u in 0..80u32 {
            for v in (u + 1)..80 {
                if g.find_edge(NodeId(u), NodeId(v)).is_none() {
                    assert_eq!(idx.edge_id(csr, NodeId(u), NodeId(v)), None);
                    missing += 1;
                }
            }
        }
        assert!(missing > 0);
    }

    #[test]
    fn forward_edges_match_graph_edges() {
        let g = generators::erdos_renyi_gnm(60, 200, 9);
        let ours: Vec<_> = g.csr().forward_edges().collect();
        let theirs: Vec<_> = g.edges().collect();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn connectivity_matches_graph() {
        use crate::components::is_connected;
        for (g, name) in [
            (generators::connected_gnm(64, 100, 1), "connected"),
            (generators::erdos_renyi_gnm(64, 30, 2), "sparse"),
            (Graph::empty(5), "isolated"),
            (Graph::empty(0), "empty"),
            (Graph::empty(1), "single"),
        ] {
            assert_eq!(g.csr().is_connected(), is_connected(&g), "{name}");
        }
    }

    #[test]
    fn try_from_edges_rejects_oversized_n_before_allocating() {
        // 2^33 nodes would be a 32 GiB degree array: the check must fire
        // before the allocation, instantly.
        let err = CsrAdjacency::try_from_edges(1usize << 33, std::iter::empty()).unwrap_err();
        assert_eq!(err, CsrSizeError::Nodes { n: 1usize << 33 });
        let msg = err.to_string();
        assert!(msg.contains("shard the input"), "unactionable: {msg}");
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 node-id space")]
    fn from_edges_panics_with_actionable_message() {
        let _ = CsrAdjacency::from_edges(1usize << 33, std::iter::empty());
    }

    #[test]
    fn parts_round_trip_is_lossless() {
        for (g, name) in [
            (generators::erdos_renyi_gnm(60, 180, 5), "er"),
            (Graph::empty(4), "isolated"),
            (Graph::empty(0), "empty"),
        ] {
            let (offsets, targets) = g.csr().parts();
            let back =
                CsrAdjacency::try_from_parts(offsets.to_vec(), targets.to_vec()).expect(name);
            assert_eq!(back, **g.csr(), "{name}");
        }
    }

    #[test]
    fn try_from_parts_rejects_each_invariant_violation() {
        let good = CsrAdjacency::from_edges(3, [(0, 1), (1, 2)]);
        let (o, t) = good.parts();
        let (o, t) = (o.to_vec(), t.to_vec());
        let cases: Vec<(Vec<u32>, Vec<NodeId>, CsrPartsError)> = vec![
            (vec![], vec![], CsrPartsError::BadOffsetHead),
            (vec![1, 2], vec![NodeId(0)], CsrPartsError::BadOffsetHead),
            (
                vec![0, 2, 1, 4],
                t.clone(),
                CsrPartsError::NonMonotoneOffsets { node: 1 },
            ),
            (
                vec![0, 1, 3, 5],
                t.clone(),
                CsrPartsError::LengthMismatch {
                    last: 5,
                    targets: 4,
                },
            ),
            (
                o.clone(),
                vec![NodeId(1), NodeId(9), NodeId(2), NodeId(1)],
                CsrPartsError::TargetOutOfRange { node: 1 },
            ),
            (
                o.clone(),
                vec![NodeId(1), NodeId(2), NodeId(0), NodeId(1)],
                CsrPartsError::UnsortedRun { node: 1 },
            ),
            (
                o.clone(),
                vec![NodeId(1), NodeId(1), NodeId(2), NodeId(1)],
                CsrPartsError::SelfLoop { node: 1 },
            ),
            (
                o.clone(),
                vec![NodeId(2), NodeId(0), NodeId(2), NodeId(1)],
                CsrPartsError::Asymmetric { from: 0, to: 2 },
            ),
        ];
        for (offsets, targets, want) in cases {
            let got = CsrAdjacency::try_from_parts(offsets, targets).unwrap_err();
            assert_eq!(got, want);
            assert!(!got.to_string().is_empty());
        }
    }

    #[test]
    fn linked_adjacency_remove_edge() {
        let mut adj = LinkedAdjacency::new(5);
        adj.add_edge(NodeId(0), NodeId(1));
        adj.add_edge(NodeId(0), NodeId(2));
        adj.add_edge(NodeId(0), NodeId(3));
        assert_eq!(adj.edge_count(), 3);
        // Remove from the middle of the chain.
        assert!(adj.remove_edge(NodeId(2), NodeId(0)));
        assert_eq!(adj.edge_count(), 2);
        let mut nb: Vec<NodeId> = adj.neighbors(NodeId(0)).collect();
        nb.sort_unstable();
        assert_eq!(nb, vec![NodeId(1), NodeId(3)]);
        assert_eq!(adj.neighbors(NodeId(2)).count(), 0);
        // Removing again fails; the rest is untouched.
        assert!(!adj.remove_edge(NodeId(0), NodeId(2)));
        assert!(!adj.remove_edge(NodeId(1), NodeId(3)));
        assert_eq!(adj.edge_count(), 2);
        // Remove the head entry, then the last, emptying the chain.
        assert!(adj.remove_edge(NodeId(0), NodeId(3)));
        assert!(adj.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(adj.edge_count(), 0);
        assert_eq!(adj.neighbors(NodeId(0)).count(), 0);
        // The arena is append-only: re-adding after removals still works.
        adj.add_edge(NodeId(0), NodeId(4));
        assert_eq!(
            adj.neighbors(NodeId(0)).collect::<Vec<_>>(),
            vec![NodeId(4)]
        );
    }

    #[test]
    fn linked_adjacency_removal_matches_reference_sets() {
        use rand::{Rng, SeedableRng};
        let n = 30u32;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let mut adj = LinkedAdjacency::new(n as usize);
        let mut reference: std::collections::BTreeSet<(u32, u32)> = Default::default();
        for _ in 0..600 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if rng.gen_bool(0.6) {
                if reference.insert(key) {
                    adj.add_edge(NodeId(u), NodeId(v));
                }
            } else if reference.remove(&key) {
                assert!(adj.remove_edge(NodeId(u), NodeId(v)));
            } else {
                assert!(!adj.remove_edge(NodeId(u), NodeId(v)));
            }
            assert_eq!(adj.edge_count(), reference.len());
        }
        for v in 0..n {
            let mut got: Vec<u32> = adj.neighbors(NodeId(v)).map(|w| w.0).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = reference
                .iter()
                .filter_map(|&(a, b)| match v {
                    _ if a == v => Some(b),
                    _ if b == v => Some(a),
                    _ => None,
                })
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "node {v}");
        }
    }

    #[test]
    fn empty_edge_set_has_isolated_nodes() {
        let g = generators::cycle(10);
        let csr = g.csr().subgraph(&EdgeSet::new(&g));
        assert_eq!(csr.node_count(), 10);
        for v in g.nodes() {
            assert!(csr.neighbors(v).is_empty());
        }
    }
}
