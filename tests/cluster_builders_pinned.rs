//! Pins the exact outputs of the centralized cluster builders — the
//! Thorup–Zwick oracle, the compact routing scheme, the sequential
//! Fibonacci spanner and the additive-2 and BFS-forest baselines — by an
//! FNV-1a digest per workload.
//!
//! Each of these builders grows BFS trees whose parents follow the
//! paper's minimum-identifier rule (Sect. 4.1: "the one whose unique
//! identifier is minimum"), so a change in tie-breaking moves which
//! edges, next hops and address paths come out even when every stretch
//! bound still holds. The guarantee tests elsewhere cannot see that; these
//! digests do. They cover three connected G(n, m) graphs and a grid.

use ultrasparse_spanners::baselines::{additive2, bfs_skeleton};
use ultrasparse_spanners::core::fibonacci::{self, FibonacciParams};
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::{generators, Graph, NodeId};
use ultrasparse_spanners::oracle::{DistanceOracle, RoutingScheme};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The pinned workloads: `connected_gnm(2000, 8000, s)` for s = 1..3 and
/// the 30 × 30 grid.
fn workloads() -> Vec<Graph> {
    let mut gs: Vec<Graph> = (1..=3u64)
        .map(|s| generators::connected_gnm(2_000, 8_000, s))
        .collect();
    gs.push(generators::grid(30, 30));
    gs
}

/// 64 sources spread evenly over the node ids.
fn sampled_sources(g: &Graph) -> impl Iterator<Item = NodeId> {
    let n = g.node_count();
    (0..64).map(move |i| NodeId((i * n / 64) as u32))
}

/// The edge ids and endpoints of a spanner, ascending by id.
fn hash_edges(h: &mut Fnv, g: &Graph, s: &Spanner) {
    h.word(s.len() as u64);
    for e in s.edges.iter() {
        let (u, v) = g.endpoints(e);
        h.word(e.index() as u64);
        h.word(u64::from(u.0) << 32 | u64::from(v.0));
    }
}

fn check(label: &str, got: &[u64], want: &[u64]) {
    assert_eq!(
        got,
        want,
        "{label}: digests moved; got {}",
        got.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn oracle_digest(g: &Graph, k: u32) -> u64 {
    let oracle = DistanceOracle::build(g, k, 7);
    let mut h = Fnv::new();
    // Every bunch entry: w ∈ B(v) exactly when the direct probe hits.
    for v in g.nodes() {
        for w in g.nodes() {
            if w == v {
                continue;
            }
            if let Some(d) = oracle.direct_distance(w, v).unwrap() {
                h.word(u64::from(v.0) << 32 | u64::from(w.0));
                h.word(u64::from(d));
            }
        }
    }
    // Every level-1 witness, then query chains that read the deeper ones.
    for v in g.nodes() {
        match oracle.sampled_witness(v).unwrap() {
            Some((d, w)) => h.word(u64::from(d) << 32 | u64::from(w.0)),
            None => h.word(u64::MAX),
        }
    }
    for u in sampled_sources(g) {
        for v in g.nodes() {
            h.word(u64::from(oracle.query(u, v)));
        }
    }
    hash_edges(&mut h, g, &oracle.to_spanner());
    h.0
}

#[test]
fn distance_oracle_k2_pinned() {
    let got: Vec<u64> = workloads().iter().map(|g| oracle_digest(g, 2)).collect();
    check(
        "oracle k=2",
        &got,
        &[
            0xbc77332c39feab86,
            0x0ec43262102f788d,
            0x4ff86c4993ecc85b,
            0x9c91ba7aa9188a32,
        ],
    );
}

#[test]
fn distance_oracle_k3_pinned() {
    let got: Vec<u64> = workloads().iter().map(|g| oracle_digest(g, 3)).collect();
    check(
        "oracle k=3",
        &got,
        &[
            0x26e4563faecc3dfa,
            0x6b06cf981d6b5152,
            0x7f009dc7e4e94fd2,
            0x26e0288d5f612d34,
        ],
    );
}

fn routing_digest(g: &Graph) -> u64 {
    let scheme = RoutingScheme::build(g, 5);
    let mut h = Fnv::new();
    h.word(scheme.landmark_count() as u64);
    h.word(scheme.table_entries() as u64);
    for v in g.nodes() {
        let a = scheme.address(v);
        h.word(u64::from(a.target.0) << 32 | u64::from(a.landmark.0));
        h.word(a.down_path.len() as u64);
        for x in &a.down_path {
            h.word(u64::from(x.0));
        }
    }
    for u in sampled_sources(g) {
        for v in g.nodes() {
            match scheme.route(u, scheme.address(v)) {
                Some(path) => {
                    h.word(path.len() as u64);
                    for x in path {
                        h.word(u64::from(x.0));
                    }
                }
                None => h.word(u64::MAX),
            }
        }
    }
    h.0
}

#[test]
fn routing_scheme_pinned() {
    let got: Vec<u64> = workloads().iter().map(routing_digest).collect();
    check(
        "routing",
        &got,
        &[
            0xdac0ceb0a10037c7,
            0x1cd513ea77b45f68,
            0x0c9f6424d029b61b,
            0x7238bcab67a38876,
        ],
    );
}

/// Connected G(n, 4n) components of the given sizes on one node set,
/// their ids interleaved by a fixed permutation so no component is a
/// contiguous id range.
fn split(sizes: &[usize]) -> Graph {
    let n: usize = sizes.iter().sum();
    let mut edges = Vec::new();
    let mut base = 0u32;
    for (s, &size) in sizes.iter().enumerate() {
        if size > 1 {
            let part = generators::connected_gnm(
                size,
                (4 * size).min(size * (size - 1) / 2),
                s as u64 + 1,
            );
            edges.extend(part.edges().map(|(_, u, v)| (base + u.0, base + v.0)));
        }
        base += size as u32;
    }
    // 7919 is prime and coprime to every n used here.
    let perm: Vec<u32> = (0..n).map(|v| (v * 7919 % n) as u32).collect();
    Graph::from_edges(n, edges).relabel(&perm)
}

/// Deep and split shapes for the untruncated clusters: a 600-node path,
/// whose BFS trees are hundreds of levels deep; components of exactly n/2 and
/// n/2 − 1 nodes beside an isolated vertex (every cluster a run); and
/// components of n/2 + 1 and n/2 − 1 nodes, where a cluster of the larger
/// one has exactly n/2 members besides its centre, the smallest row.
fn deep_and_split_workloads() -> Vec<Graph> {
    vec![
        generators::path(600),
        split(&[500, 499, 1]),
        split(&[501, 499]),
    ]
}

#[test]
fn distance_oracle_deep_and_split_pinned() {
    let got: Vec<u64> = deep_and_split_workloads()
        .iter()
        .flat_map(|g| [1u32, 2, 3].map(|k| oracle_digest(g, k)))
        .collect();
    check(
        "oracle deep and split, k = 1..3",
        &got,
        &[
            0x6579f32696511805,
            0x216e1f72db5bd133,
            0xf403f6ce303225fc,
            0x4f66db1e0e69eb89,
            0x1cfaee0af8937a49,
            0x34cae6444565849d,
            0x64095e908a1da226,
            0xee187d0059678145,
            0x7de0bcba00bdf14a,
        ],
    );
}

#[test]
fn routing_scheme_deep_and_split_pinned() {
    let got: Vec<u64> = deep_and_split_workloads()
        .iter()
        .map(routing_digest)
        .collect();
    check(
        "routing deep and split",
        &got,
        &[0xa63604e6f0a874f3, 0x3b8a09f7b5670b11, 0x07794a7c60604b40],
    );
}

#[test]
fn fibonacci_sequential_pinned() {
    let got: Vec<u64> = workloads()
        .iter()
        .flat_map(|g| {
            [2u32, 3].map(|order| {
                let p = FibonacciParams::new(g.node_count(), order, 0.5, 0).unwrap();
                let mut h = Fnv::new();
                hash_edges(&mut h, g, &fibonacci::build_sequential(g, &p, 11));
                h.0
            })
        })
        .collect();
    check(
        "fibonacci sequential",
        &got,
        &[
            0xfbaf1bf460e16c80,
            0xfbaf1bf460e16c80,
            0x55c5764531d66d9c,
            0x55c5764531d66d9c,
            0xd2c98318d1aa5b2f,
            0xd2c98318d1aa5b2f,
            0xc3e1d2d708c6279a,
            0xc3e1d2d708c6279a,
        ],
    );
}

/// At these sizes the sampled hierarchy is nearly empty and the spanner
/// keeps most edges; a dense hand-set hierarchy (about 25% of the nodes at
/// level ≥ 1, 5% at level 2) exercises the parent forests, the truncated
/// balls and the path walks on every workload.
#[test]
fn fibonacci_dense_levels_pinned() {
    let got: Vec<u64> = workloads()
        .iter()
        .map(|g| {
            let p = FibonacciParams::new(g.node_count(), 2, 1.0, 0).unwrap();
            let levels: Vec<u32> = g
                .nodes()
                .map(
                    |v| match u64::from(v.0).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54 {
                        0..=50 => 2,
                        51..=255 => 1,
                        _ => 0,
                    },
                )
                .collect();
            let mut h = Fnv::new();
            hash_edges(
                &mut h,
                g,
                &fibonacci::sequential::build_with_levels(g, &p, &levels),
            );
            h.0
        })
        .collect();
    check(
        "fibonacci dense levels",
        &got,
        &[
            0x6953125a3ebb446a,
            0xa858d9706453994b,
            0xb202cabc1f5606af,
            0x3f75f9987a4a73fb,
        ],
    );
}

#[test]
fn additive2_pinned() {
    let got: Vec<u64> = workloads()
        .iter()
        .map(|g| {
            let mut h = Fnv::new();
            hash_edges(&mut h, g, &additive2::build(g, 13));
            h.0
        })
        .collect();
    check(
        "additive2",
        &got,
        &[
            0xc2844518d8fb3f37,
            0x55c5764531d66d9c,
            0xd2c98318d1aa5b2f,
            0xc3e1d2d708c6279a,
        ],
    );
}

/// The sparse workloads sit below the default degree threshold, so
/// `additive2::build` keeps nearly every edge there. On G(400, 40000) with
/// Δ = 150 every node is high-degree and about 12% of them root a BFS
/// tree, so the spanner keeps roughly a quarter of the edges.
#[test]
fn additive2_dense_pinned() {
    let got: Vec<u64> = (1..=3u64)
        .map(|s| {
            let g = generators::connected_gnm(400, 40_000, s);
            let mut h = Fnv::new();
            hash_edges(&mut h, &g, &additive2::build_with_threshold(&g, 150, 13));
            h.0
        })
        .collect();
    check(
        "additive2 dense",
        &got,
        &[0x392314c983267631, 0x44e3a40a8ae8ad7c, 0xa986d93ab30a26c3],
    );
}

#[test]
fn bfs_skeleton_pinned() {
    let got: Vec<u64> = workloads()
        .iter()
        .map(|g| {
            let mut h = Fnv::new();
            hash_edges(&mut h, g, &bfs_skeleton::build(g));
            h.0
        })
        .collect();
    check(
        "bfs skeleton",
        &got,
        &[
            0x7af7a9b985b83558,
            0xceb209aeeed30999,
            0xded15f9959c4dccc,
            0x3b6de349bc55d234,
        ],
    );
}
