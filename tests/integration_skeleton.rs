//! Cross-crate integration: the skeleton pipeline end to end —
//! generators → schedule → sequential & distributed construction →
//! verification, all through the facade crate.

use ultrasparse_spanners::core::skeleton::{self, SkeletonParams};
use ultrasparse_spanners::core::Spanner;
use ultrasparse_spanners::graph::distance::{PairSample, Pairs};
use ultrasparse_spanners::graph::{generators, Graph};

fn check(g: &Graph, sample: &PairSample, s: &Spanner, params: &SkeletonParams, label: &str) {
    assert!(s.is_spanning(g), "{label}: not spanning");
    let bound = params.schedule(g.node_count().max(2)).distortion_bound as f64;
    let r = s.stretch(g, Pairs::Sampled(sample), 1);
    assert_eq!(r.disconnected, 0, "{label}");
    assert!(
        r.max_multiplicative <= bound,
        "{label}: stretch {} exceeds certified {bound}",
        r.max_multiplicative
    );
}

#[test]
fn skeleton_across_graph_families() {
    let params = SkeletonParams::default();
    let graphs: Vec<(&str, Graph)> = vec![
        ("gnm", generators::connected_gnm(800, 6_000, 1)),
        ("grid", generators::grid(25, 30)),
        ("torus", generators::torus(20, 25)),
        ("hypercube", generators::hypercube(9)),
        (
            "preferential",
            generators::preferential_attachment(700, 4, 2),
        ),
        ("caveman", generators::caveman(30, 15, 20, 3)),
        ("cycle", generators::cycle(500)),
    ];
    for (label, g) in &graphs {
        let sample = PairSample::new(g, 800, 3, 1);
        let seq = skeleton::build_sequential(g, &params, 11);
        check(g, &sample, &seq, &params, &format!("seq/{label}"));
        let dist = skeleton::distributed::build_distributed_csr(g.csr(), &params, 11).expect("run");
        check(g, &sample, &dist, &params, &format!("dist/{label}"));
    }
}

#[test]
fn sequential_and_distributed_sizes_track_each_other() {
    let params = SkeletonParams::default();
    for seed in 0..4u64 {
        let g = generators::connected_gnm(600, 4_800, seed);
        let a = skeleton::build_sequential(&g, &params, seed).len() as f64;
        let b = skeleton::distributed::build_distributed_csr(g.csr(), &params, seed)
            .expect("run")
            .len() as f64;
        assert!(
            (a - b).abs() <= 0.5 * a.max(b),
            "seed {seed}: sizes diverge ({a} vs {b})"
        );
    }
}

#[test]
fn density_parameter_monotone_in_size() {
    let g = generators::connected_gnm(1_200, 20_000, 9);
    let mut last = 0usize;
    for d in [4.0, 8.0, 16.0, 32.0] {
        let params = SkeletonParams::new(d, 0.5).unwrap();
        let s = skeleton::build_sequential(&g, &params, 5);
        assert!(
            s.len() + 400 >= last,
            "size should grow (noisily) with D: {} after {last} at D={d}",
            s.len()
        );
        last = s.len();
    }
}

#[test]
fn skeleton_on_disconnected_components() {
    // Two components of very different sizes and densities.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..200u32 {
        for j in (i + 1)..200 {
            if (i * 7919 + j * 104729) % 97 < 8 {
                edges.push((i, j));
            }
        }
    }
    edges.push((200, 201)); // tiny second component
    edges.push((201, 202));
    let g = Graph::from_edges(203, edges);
    let params = SkeletonParams::default();
    let s = skeleton::build_sequential(&g, &params, 1);
    assert!(s.is_spanning(&g));
    let d = skeleton::distributed::build_distributed_csr(g.csr(), &params, 1).expect("run");
    assert!(d.is_spanning(&g));
}
