//! Engine ↔ reference parity suite (property-based).
//!
//! The distance engine re-implements every traversal it serves — flat
//! single-source BFS, 64-way bit-parallel batches, pruned girth search,
//! attributed multi-source BFS, the ordered stretch pair walk, the host
//! distances of a pair sample — so each
//! entry point is pinned **byte-identical** to a one-BFS-per-source
//! reference on random graphs: connected, disconnected, and
//! self-loop-free multigraph edge lists (the builder collapses the
//! duplicates), at every thread count from 1 to 8. The single-source
//! references are `traversal`'s public functions; the APSP, stretch,
//! pair-sampling and girth references exist only for this suite and live
//! below. The shared
//! tree builders are held to the same references: `ClusterBfs::grow`
//! against `bfs_tree` (unbounded) and the radius-bounded BFS,
//! `ClusterBfs::grow_truncated` against `grow` with the same truncation as
//! its `keep` test, and
//! `MultiSourceFlat::parent` against `bfs_tree` when each component holds
//! one source, and the 64-source `DistanceEngine::batch_trees` against
//! `bfs_tree` from every source, deep paths included.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::components::connected_components;
use spanner_graph::distance::{
    diameter_exact, eccentricity, verify_stretch, Apsp, PairSample, Pairs, SampledPair,
    StretchBound, StretchViolation, UNREACHABLE,
};
use spanner_graph::engine::MsBfsScratch;
use spanner_graph::girth::girth;
use spanner_graph::traversal::{
    bfs_distances, bfs_distances_in_subgraph, bfs_tree, multi_source_bfs, ClusterBfs, Truncation,
};
use spanner_graph::weighted::{dijkstra, WeightedGraph, W_UNREACHABLE};
use spanner_graph::{
    generators, DistanceEngine, EdgeId, EdgeSet, Graph, NodeId, Strategy, NO_SOURCE,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A random graph in one of three shapes: connected, a sparse (usually
/// disconnected) G(n, m), or a raw multigraph edge list with duplicate
/// edges (never self-loops; `Graph::from_edges` discards the duplicates).
fn random_graph(n: usize, m: usize, shape: u8, seed: u64) -> Graph {
    let m = m.min(n * (n - 1) / 2); // the generators reject overfull graphs
    match shape % 3 {
        0 => generators::connected_gnm(n, m.max(n - 1), seed),
        1 => generators::erdos_renyi_gnm(n, m / 2, seed),
        _ => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..n as u32);
                    let mut v = rng.gen_range(0..n as u32 - 1);
                    if v >= u {
                        v += 1; // self-loop-free by construction
                    }
                    (u, v)
                })
                .flat_map(|e| [e, e]) // duplicate every edge: multigraph input
                .collect();
            Graph::from_edges(n, edges)
        }
    }
}

fn flat(reference: &[Option<u32>]) -> Vec<u32> {
    reference.iter().map(|d| d.unwrap_or(UNREACHABLE)).collect()
}

/// The original one-BFS-per-source APSP construction: the row-major
/// `n * n` matrix [`Apsp`] must reproduce.
fn apsp_reference(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n * n];
    for s in g.nodes() {
        let d = bfs_distances(g, s);
        let row = &mut dist[s.index() * n..(s.index() + 1) * n];
        for (v, dv) in d.iter().enumerate() {
            if let Some(x) = dv {
                row[v] = *x;
            }
        }
    }
    dist
}

/// The original one-BFS-per-source verifier over the spanner's CSR
/// adjacency: the verdict and witness the pair walk must reproduce.
fn verify_stretch_exact_reference(
    g: &Graph,
    spanner: &EdgeSet,
    bound: StretchBound,
) -> Result<(), StretchViolation> {
    let adj = g.csr().subgraph(spanner);
    for u in g.nodes() {
        let dg = bfs_distances(g, u);
        let ds = bfs_distances_in_subgraph(&adj, u, u32::MAX);
        for v in (u.index() + 1)..g.node_count() {
            let Some(base) = dg[v] else { continue };
            let witness = |in_spanner| StretchViolation {
                u,
                v: NodeId(v as u32),
                base: base as u64,
                in_spanner,
            };
            match ds[v] {
                Some(s) if bound.allows(base as u64, s as u64) => {}
                Some(s) => return Err(witness(Some(s as u64))),
                None => return Err(witness(None)),
            }
        }
    }
    Ok(())
}

/// The original scalar pair sampler: the same seeded draws, then one BFS
/// per distinct source for the host distances. [`PairSample`] must
/// reproduce its pairs and distances from the batched row walk.
fn sample_pairs_reference(g: &Graph, count: usize, seed: u64) -> Vec<SampledPair> {
    let n = g.node_count();
    if n < 2 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut budget = 16 * count.max(1);
    let mut picks: Vec<(NodeId, NodeId)> = Vec::new();
    while picks.len() < count && budget > 0 {
        budget -= 1;
        let a = NodeId(rng.gen_range(0..n as u32));
        let b = NodeId(rng.gen_range(0..n as u32));
        if a != b {
            picks.push((a, b));
        }
    }
    picks.sort_unstable();
    let mut out = Vec::new();
    let mut by_source: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for (a, b) in picks {
        match by_source.last_mut() {
            Some((s, targets)) if *s == a => targets.push(b),
            _ => by_source.push((a, vec![b])),
        }
    }
    for (s, targets) in by_source {
        let d = bfs_distances(g, s);
        for t in targets {
            if let Some(dist) = d[t.index()] {
                out.push(SampledPair { u: s, v: t, dist });
            }
        }
    }
    out
}

/// The original `VecDeque`-based girth computation.
fn girth_reference(g: &Graph) -> Option<u32> {
    let mut best: Option<u32> = None;
    let n = g.node_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut via = vec![EdgeId(u32::MAX); n];
    for s in g.nodes() {
        dist.fill(UNREACHABLE);
        let mut queue = VecDeque::new();
        dist[s.index()] = 0;
        via[s.index()] = EdgeId(u32::MAX);
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if let Some(b) = best {
                // Cycles through s found at depth >= b/2 cannot improve.
                if 2 * du + 1 >= b {
                    break;
                }
            }
            for (v, e) in g.incident(u) {
                if e == via[u.index()] {
                    continue; // don't walk back along the tree edge
                }
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = du + 1;
                    via[v.index()] = e;
                    queue.push_back(v);
                } else {
                    // Found a cycle through s of length dist(u) + dist(v) + 1.
                    let len = du + dist[v.index()] + 1;
                    if best.is_none_or(|b| len < b) {
                        best = Some(len);
                    }
                }
            }
        }
    }
    best
}

/// Runs [`DistanceEngine::batch_trees`] over `sources` in batches of 64
/// on one scratch and checks every source's distances, parent ids and
/// tree edge ids against [`bfs_tree`]; each `reached` and `parent` event
/// must fire exactly once, `reached` in ascending distance and `parent`
/// in ascending node, after every `reached`. The scratch first serves a
/// batch of distance rows, whose traversal the first tree batch has to
/// clear.
fn check_batch_trees(g: &Graph, sources: &[NodeId], threads: usize) {
    let n = g.node_count();
    let eng = DistanceEngine::new(g).with_threads(threads);
    let mut scratch = MsBfsScratch::new(n);
    let rows = &sources[sources.len() / 2..];
    eng.batch_distances_into(rows, &mut scratch, &mut vec![0; rows.len() * n]);
    let mut dist = vec![UNREACHABLE; sources.len() * n];
    let mut parent: Vec<Option<usize>> = vec![None; sources.len() * n];
    let mut twice = 0usize;
    let disorder = std::cell::Cell::new(0usize);
    for (b, batch) in sources.chunks(64).enumerate() {
        let first = 64 * b;
        let (dist, parent) = (&mut dist, &mut parent);
        let mut twice_parent = 0usize;
        // The last distance reported, and the last parent's node once
        // the parents have begun.
        let (last_d, last_v) = (std::cell::Cell::new(0), std::cell::Cell::new(None));
        eng.batch_trees(
            batch,
            &mut scratch,
            |i, v, d| {
                let out = d < last_d.replace(d) || last_v.get().is_some();
                disorder.set(disorder.get() + usize::from(out));
                let cell = &mut dist[(first + i) * n + v.index()];
                twice += usize::from(*cell != UNREACHABLE);
                *cell = d;
            },
            |i, v, pos| {
                let out = last_v.replace(Some(v)).is_some_and(|u| v < u);
                disorder.set(disorder.get() + usize::from(out));
                let cell = &mut parent[(first + i) * n + v.index()];
                twice_parent += usize::from(cell.is_some());
                *cell = Some(pos);
            },
        );
        twice += twice_parent;
    }
    prop_assert_eq!(twice, 0, "an event fired twice");
    prop_assert_eq!(disorder.get(), 0, "an event out of order");
    for (i, &s) in sources.iter().enumerate() {
        let want = bfs_tree(g, s);
        for v in g.nodes() {
            let cell = i * n + v.index();
            prop_assert_eq!(
                dist[cell],
                want.dist[v.index()].unwrap_or(UNREACHABLE),
                "{}->{}",
                s,
                v
            );
            let got = parent[cell].map(|pos| (g.neighbors(v)[pos], g.incident_ids(v)[pos]));
            prop_assert_eq!(got.map(|(p, _)| p), want.parent[v.index()], "{}->{}", s, v);
            if let Some((p, e)) = got {
                prop_assert_eq!(g.find_edge(v, p), Some(e));
            }
        }
    }
}

/// A connected G(n, m), a path and a grid on one node set, their ids
/// interleaved by a fixed stride so no component is a contiguous range,
/// plus two isolated nodes.
fn disjoint_components(n: usize, m: usize, seed: u64) -> Graph {
    let parts = [
        random_graph(n, m, 0, seed),
        generators::path(n),
        generators::grid(2 + n % 5, 2 + m % 5),
    ];
    let total = parts.iter().map(Graph::node_count).sum::<usize>() + 2;
    // 7 is coprime to `total` unless 7 divides it; then fall back to 1.
    let stride = if total % 7 == 0 { 1 } else { 7 };
    let id = |i: usize| ((i * stride) % total) as u32;
    let mut edges = Vec::new();
    let mut base = 0;
    for part in &parts {
        edges.extend(
            part.edges()
                .map(|(_, u, v)| (id(base + u.index()), id(base + v.index()))),
        );
        base += part.node_count();
    }
    Graph::from_edges(total, edges)
}

/// A structured graph in one of six shapes: the high-diameter families the
/// per-source path exists for (path, cycle, grid, torus) and the
/// adversarial low-diameter ones (star, caveman).
fn structured_graph(shape: u8, a: usize, b: usize) -> Graph {
    match shape % 6 {
        0 => generators::path(a * b),
        1 => generators::cycle((a * b).max(3)),
        2 => generators::grid(a, b),
        3 => generators::torus(a.max(3), b.max(3)),
        4 => generators::star(a * b),
        _ => generators::caveman(a.clamp(1, 6), b.clamp(2, 12), a, 7),
    }
}

/// A path of 100 nodes (nodes 0..100), a triangle (100..103) and an
/// isolated node (103): high-diameter and disconnected.
fn path_triangle_isolated() -> Graph {
    let path = (0u32..99).map(|u| (u, u + 1));
    Graph::from_edges(104, path.chain([(100, 101), (101, 102), (100, 102)]))
}

/// Shapes the probe sends to per-source BFS: a chain of cliques (its
/// traversals end on dense levels), a clique with a long path attached,
/// and [`path_triangle_isolated`].
fn per_source_shapes() -> [Graph; 3] {
    let clique = (0u32..30).flat_map(|u| (u + 1..30).map(move |v| (u, v)));
    let tail = (29u32..89).map(|u| (u, u + 1));
    [
        generators::caveman(60, 14, 0, 5),
        Graph::from_edges(90, clique.chain(tail)),
        path_triangle_isolated(),
    ]
}

#[test]
fn per_source_shapes_match_reference() {
    for g in per_source_shapes() {
        let sources: Vec<NodeId> = g.nodes().collect();
        let expect: Vec<u32> = sources
            .iter()
            .flat_map(|&s| flat(&bfs_distances(&g, s)))
            .collect();
        let ecc: Vec<u32> = g.nodes().map(|v| eccentricity(&g, v)).collect();
        for threads in 1..=3 {
            let eng = DistanceEngine::new(&g).with_threads(threads);
            assert_eq!(eng.resolved_strategy(), Strategy::PerSource);
            assert_eq!(eng.many_distances(&sources), expect, "threads={threads}");
            assert_eq!(eng.eccentricities(), ecc, "threads={threads}");
            assert_eq!(eng.diameter(), ecc.iter().max().copied());
        }
    }
}

/// The case set of
/// `strategies_and_picker_match_reference_on_structured_shapes` reaches
/// both verdicts of the picker.
#[test]
fn structured_shapes_resolve_both_ways() {
    let mut seen = [false; 2];
    for shape in 0u8..6 {
        for a in 2usize..=12 {
            for b in 3usize..=12 {
                let eng = DistanceEngine::new(&structured_graph(shape, a, b));
                seen[usize::from(eng.resolved_strategy() == Strategy::BitParallel)] = true;
            }
        }
    }
    assert_eq!(seen, [true, true]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_distances_match_single_source_reference(
        n in 2usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, m, shape, seed);
        let sources: Vec<NodeId> = g.nodes().collect();
        let expect: Vec<u32> = sources
            .iter()
            .flat_map(|&s| flat(&bfs_distances(&g, s)))
            .collect();
        for threads in THREAD_COUNTS {
            let eng = DistanceEngine::new(&g).with_threads(threads);
            prop_assert_eq!(&eng.many_distances(&sources), &expect, "threads={}", threads);
        }
    }

    #[test]
    fn apsp_diameter_girth_match_references(
        n in 2usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, m, shape, seed);
        let reference = apsp_reference(&g);
        let ref_diameter = g.nodes().map(|v| eccentricity(&g, v)).max();
        let ref_girth = girth_reference(&g);
        for threads in THREAD_COUNTS {
            let apsp = Apsp::with_threads(&g, threads);
            for u in g.nodes() {
                for v in g.nodes() {
                    let want = reference[u.index() * n + v.index()];
                    prop_assert_eq!(apsp.dist(u, v), want, "{}->{}", u, v);
                }
            }
            let eng = DistanceEngine::new(&g).with_threads(threads);
            prop_assert_eq!(eng.diameter(), ref_diameter, "threads={}", threads);
            prop_assert_eq!(diameter_exact(&g), ref_diameter);
            prop_assert_eq!(eng.girth(), ref_girth, "threads={}", threads);
        }
    }

    #[test]
    fn verify_stretch_witness_matches_reference(
        n in 2usize..=50,
        m in 0usize..=150,
        shape in 0u8..3,
        drop in 0usize..6,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, m, shape, seed);
        // A subgraph missing a few edges so both verdicts occur; the bound
        // is tight enough that violations are common.
        let mut span = EdgeSet::new(&g);
        for (e, _, _) in g.edges() {
            if g.edge_count() == 0 || e.index() % 6 >= drop {
                span.insert(e);
            }
        }
        let bound = StretchBound::multiplicative(2.0);
        let expect = verify_stretch_exact_reference(&g, &span, bound);
        for threads in THREAD_COUNTS {
            let got = verify_stretch(&g, &span, Pairs::All, threads, |d, s| bound.allows(d, s));
            prop_assert_eq!(got, expect, "threads={}", threads);
        }
    }

    // Graphs below two nodes have no pairs; on one node every draw is a
    // self-pair, so the 16·count draw budget runs out.
    #[test]
    fn pair_sample_matches_scalar_reference(
        n in 0usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        count in 0usize..=200,
        seed in any::<u64>(),
    ) {
        let g = if n < 2 { Graph::empty(n) } else { random_graph(n, m, shape, seed) };
        let expect = sample_pairs_reference(&g, count, seed);
        for threads in 1..=3 {
            let got = PairSample::new(&g, count, seed, threads);
            prop_assert_eq!(got.pairs(), &expect[..], "threads={}", threads);
        }
    }

    #[test]
    fn strategies_and_picker_match_reference_on_structured_shapes(
        shape in 0u8..6,
        a in 2usize..=12,
        b in 3usize..=12,
    ) {
        let g = structured_graph(shape, a, b);
        let sources: Vec<NodeId> = g.nodes().collect();
        let expect: Vec<u32> = sources
            .iter()
            .flat_map(|&s| flat(&bfs_distances(&g, s)))
            .collect();
        // The picker (whatever it probes to) must be byte-identical to
        // the reference at every thread count — paths/cycles up to n=144
        // cross the probe's depth bound, so it resolves both ways across
        // the case set (`structured_shapes_resolve_both_ways`).
        for threads in THREAD_COUNTS {
            let eng = DistanceEngine::new(&g).with_threads(threads);
            prop_assert_eq!(
                &eng.many_distances(&sources),
                &expect,
                "strategy={} threads={}",
                eng.resolved_strategy(),
                threads
            );
            prop_assert_eq!(eng.diameter(), g.nodes().map(|v| eccentricity(&g, v)).max());
        }
    }

    #[test]
    fn nearest_sources_matches_multi_source_reference(
        n in 1usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        nsources in 0usize..8,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n.max(2), m, shape, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
        // Duplicates allowed: both implementations must collapse them.
        let sources: Vec<NodeId> = (0..nsources)
            .map(|_| NodeId(rng.gen_range(0..g.node_count() as u32)))
            .collect();
        let got = DistanceEngine::new(&g).nearest_sources(&sources);
        let want = multi_source_bfs(&g, &sources);
        prop_assert_eq!(&got.dist, &flat(&want.dist));
        let want_src: Vec<u32> = want
            .source
            .iter()
            .map(|s| s.map_or(u32::MAX, |x| x.0))
            .collect();
        prop_assert_eq!(&got.source, &want_src);
    }

    #[test]
    fn cluster_bfs_full_growth_matches_bfs_tree(
        n in 1usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n.max(2), m, shape, seed);
        // One scratch for every center: each grow must forget the last.
        let mut bfs = ClusterBfs::new(g.node_count());
        for center in g.nodes() {
            bfs.grow(&g, center, u32::MAX, |_, _| true);
            let want = bfs_tree(&g, center);
            for v in g.nodes() {
                prop_assert_eq!(bfs.dist(v), want.dist[v.index()].unwrap_or(UNREACHABLE));
                let got = bfs.parent(v);
                prop_assert_eq!(got.map(|(p, _)| p), want.parent[v.index()], "{}->{}", center, v);
                if let Some((p, e)) = got {
                    prop_assert_eq!(g.find_edge(v, p), Some(e));
                }
            }
        }
    }

    #[test]
    fn cluster_bfs_depth_bound_matches_bounded_reference(
        n in 1usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        radius in 0u32..6,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n.max(2), m, shape, seed);
        let mut bfs = ClusterBfs::new(g.node_count());
        for center in g.nodes() {
            bfs.grow(&g, center, radius, |_, _| true);
            let want = flat(&bfs_distances_in_subgraph(g.csr(), center, radius));
            let got: Vec<u32> = g.nodes().map(|v| bfs.dist(v)).collect();
            prop_assert_eq!(got, want, "center {} radius {}", center, radius);
        }
    }

    // Shapes: connected and sparse G(n, m), a grid, a path and disjoint
    // components. Bounds: arbitrary, 0 and `u32::MAX` included, or the
    // distances to a few random sources, as the oracle and routing use.
    #[test]
    fn cluster_bfs_truncated_matches_keep_reference(
        shape in 0u8..5,
        n in 2usize..=60,
        m in 0usize..=180,
        from_sources in any::<bool>(),
        nsources in 0usize..6,
        seed in any::<u64>(),
    ) {
        let g = match shape {
            0 => random_graph(n, m, 0, seed),
            1 => random_graph(n, m, 1, seed),
            2 => generators::grid(2 + n % 9, 2 + m % 9),
            3 => generators::path(n),
            _ => disjoint_components(n, m, seed),
        };
        let nodes = g.node_count();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7f4a_7c15);
        let bound: Vec<u32> = if from_sources {
            let sources: Vec<NodeId> = (0..nsources)
                .map(|_| NodeId(rng.gen_range(0..nodes as u32)))
                .collect();
            DistanceEngine::new(&g).nearest_sources(&sources).dist
        } else {
            (0..nodes)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => 0,
                    1 => u32::MAX,
                    _ => rng.gen_range(1..8),
                })
                .collect()
        };
        let truncation = Truncation::new(&g, &bound);
        // One scratch each for every center: each grow must forget the last.
        let (mut want, mut got) = (ClusterBfs::new(nodes), ClusterBfs::new(nodes));
        for center in g.nodes() {
            want.grow(&g, center, u32::MAX, |y, d| d < bound[y.index()]);
            got.grow_truncated(&truncation, center);
            // Only the order within a level may differ.
            let mut want_tree: Vec<_> = want.tree().collect();
            let mut got_tree: Vec<_> = got.tree().collect();
            want_tree.sort_unstable();
            got_tree.sort_unstable();
            prop_assert_eq!(got_tree, want_tree, "center {}", center);
        }
    }

    // Shapes: connected G(n, m), a sparse (usually disconnected) G(n, m),
    // a grid deep enough that the engine resolves it to per-source BFS
    // (which `batch_trees` does not follow), and a path of more than 300
    // nodes, far deeper than the levels' mod-3 planes.
    #[test]
    fn batch_trees_match_bfs_tree(
        shape in 0u8..4,
        n in 2usize..=60,
        m in 0usize..=180,
        len in 301usize..=700,
        count in 0usize..4,
        seed in any::<u64>(),
    ) {
        let g = match shape {
            0 => random_graph(n, m, 0, seed),
            1 => random_graph(n, m, 1, seed),
            2 => generators::grid(24, 12 + n % 12),
            _ => generators::path(len),
        };
        if shape == 2 {
            prop_assert_eq!(DistanceEngine::new(&g).resolved_strategy(), Strategy::PerSource);
        }
        // Drawn with replacement: duplicates are common, and a repeated
        // source must get the same tree under each of its bits.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x2545_f491);
        let sources: Vec<NodeId> = (0..[1, 63, 64, 65][count])
            .map(|_| NodeId(rng.gen_range(0..g.node_count() as u32)))
            .collect();
        for threads in 1..=3 {
            check_batch_trees(&g, &sources, threads);
        }
    }

    #[test]
    fn multi_source_parent_matches_bfs_tree(
        n in 1usize..=60,
        m in 0usize..=180,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n.max(2), m, shape, seed);
        // One random source per component, so each component's forest is
        // its source's BFS tree.
        let comps = connected_components(&g);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5bd1_e995);
        let mut source: Vec<Option<NodeId>> = vec![None; comps.count];
        for v in g.nodes() {
            let c = comps.labels[v.index()] as usize;
            if source[c].is_none() || rng.gen_range(0..3u32) == 0 {
                source[c] = Some(v);
            }
        }
        let sources: Vec<NodeId> = source.iter().flatten().copied().collect();
        let forest = DistanceEngine::new(&g).nearest_sources(&sources);
        for &s in &sources {
            let want = bfs_tree(&g, s);
            for v in g.nodes().filter(|v| want.dist[v.index()].is_some()) {
                let got = forest.parent(&g, v);
                prop_assert_eq!(got.map(|(p, _)| p), want.parent[v.index()], "{}->{}", s, v);
                if let Some((p, e)) = got {
                    prop_assert_eq!(g.find_edge(v, p), Some(e));
                }
            }
        }
    }
}

/// The one-sentinel contract on disconnected and single-node graphs:
/// unreachable hop distances are [`UNREACHABLE`] everywhere (engine, APSP,
/// multi-source), unattributed nodes are [`NO_SOURCE`], and weighted
/// distances use [`W_UNREACHABLE`] — under either strategy.
#[test]
fn sentinel_regression_disconnected_graph() {
    // Two components plus an isolated node: the bit-parallel side.
    let g = Graph::from_edges(5, [(0u32, 1), (2, 3)]);
    let eng = DistanceEngine::new(&g);
    assert_eq!(eng.resolved_strategy(), Strategy::BitParallel);
    let rows = eng.many_distances(&[NodeId(0), NodeId(2), NodeId(4)]);
    assert_eq!(rows[0..5], [0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]);
    assert_eq!(rows[5..10], [UNREACHABLE, UNREACHABLE, 0, 1, UNREACHABLE]);
    assert_eq!(
        rows[10..15],
        [UNREACHABLE, UNREACHABLE, UNREACHABLE, UNREACHABLE, 0]
    );
    // The per-source side: the path outlasts the picker's probe.
    let split = path_triangle_isolated();
    let eng = DistanceEngine::new(&split);
    assert_eq!(eng.resolved_strategy(), Strategy::PerSource);
    let rows = eng.many_distances(&[NodeId(0), NodeId(101), NodeId(103)]);
    let (path, triangle, isolated) = (&rows[..104], &rows[104..208], &rows[208..]);
    assert_eq!(path[..100], (0..100).collect::<Vec<u32>>()[..]);
    assert_eq!(path[100..], [UNREACHABLE; 4]);
    assert_eq!(triangle[..100], [UNREACHABLE; 100]);
    assert_eq!(triangle[100..], [1, 0, 1, UNREACHABLE]);
    assert_eq!(isolated[..103], [UNREACHABLE; 103]);
    assert_eq!(isolated[103], 0);
    let apsp = Apsp::new(&g);
    assert_eq!(apsp.dist(NodeId(0), NodeId(4)), UNREACHABLE);
    assert_eq!(apsp.dist(NodeId(1), NodeId(2)), UNREACHABLE);
    let ms = DistanceEngine::new(&g).nearest_sources(&[NodeId(0)]);
    assert_eq!(ms.dist, vec![0, 1, UNREACHABLE, UNREACHABLE, UNREACHABLE]);
    assert_eq!(ms.source[2], NO_SOURCE);
    assert_eq!(ms.source[4], NO_SOURCE);
    // The weighted sentinel is distinct (u64) but plays the same role.
    let wg = WeightedGraph::new(g.clone(), vec![2; g.edge_count()]);
    let wd = dijkstra(&wg, NodeId(0));
    assert_eq!(wd[1], 2);
    assert_eq!(wd[2], W_UNREACHABLE);
    assert_eq!(wd[4], W_UNREACHABLE);
}

#[test]
fn sentinel_regression_single_node_graph() {
    let one = Graph::empty(1);
    let eng = DistanceEngine::new(&one);
    assert_eq!(eng.many_distances(&[NodeId(0)]), vec![0]);
    assert_eq!(eng.diameter(), None, "single node has no diameter");
    assert_eq!(diameter_exact(&one), None);
    assert_eq!(Apsp::new(&one).dist(NodeId(0), NodeId(0)), 0);
    let ms = DistanceEngine::new(&one).nearest_sources(&[]);
    assert_eq!(ms.dist, vec![UNREACHABLE]);
    assert_eq!(ms.source, vec![NO_SOURCE]);
}

#[test]
fn apsp_matches_reference() {
    let g = generators::erdos_renyi_gnm(80, 160, 5);
    let n = g.node_count();
    let a = Apsp::new(&g);
    let r = apsp_reference(&g);
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(a.dist(u, v), r[u.index() * n + v.index()]);
        }
    }
    let ref_diameter = (0..n)
        .flat_map(|i| r[i * n + i + 1..(i + 1) * n].iter())
        .filter(|&&d| d != UNREACHABLE)
        .max();
    assert_eq!(a.diameter(), ref_diameter.copied());
    let t = Apsp::with_threads(&g, 4);
    assert_eq!(
        t.dist(NodeId(17), NodeId(63)),
        a.dist(NodeId(17), NodeId(63))
    );
}

#[test]
fn engine_girth_matches_reference_on_random_graphs() {
    for seed in 0..8u64 {
        let g = generators::erdos_renyi_gnm(60, 40 + 15 * seed as usize, seed);
        assert_eq!(girth(&g), girth_reference(&g), "seed {seed}");
    }
}
