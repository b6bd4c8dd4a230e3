//! Snapshot round-trip throughput: loading a persisted spanner vs
//! rebuilding it from the graph.
//!
//! The `spanner-store` snapshot format exists so a served spanner can be
//! brought back in O(size-on-disk) instead of O(construction): this bench
//! measures both sides at the same scale — the distributed skeleton
//! construction over a connected G(n, m) CSR, then `Store::save` and
//! `Store::open` of the same (graph, spanner) pair — and certifies the
//! round trip on the way:
//!
//! * **lossless**: the reopened state reproduces the CSR, the spanner
//!   pair list, and the metadata exactly;
//! * **canonical**: re-saving the reopened state into a fresh directory
//!   produces byte-identical MANIFEST, data blocks, and WAL — encode is
//!   a function of the state alone.
//!
//! Flags (after `--`) and environment knob:
//! * `--scale tiny|quick|full|huge` — `tiny` is the sub-second smoke
//!   run, `quick` (n = 2¹⁴) the CI configuration, `full` (n = 2¹⁷) the
//!   default, `huge` (n = 2²⁰) the million-node row of EXPERIMENTS.md
//!   ("Persistence");
//! * `--json <path>` — write the results there (the committed copy is
//!   `BENCH_store.json` at the repo root);
//! * `STORE_ROUNDTRIP_ASSERT=1` — fail (panic) unless loading beats
//!   rebuilding by ≥ 10× (skipped at `tiny`, where both sides are
//!   microseconds and the ratio is noise). The parity and byte-identity
//!   asserts above run unconditionally.

use std::sync::Arc;
use std::time::Instant;

use spanner_bench::{json_out_arg, peak_rss_bytes, write_json, Scale};
use spanner_graph::generators;
use spanner_store::{scratch_dir, SnapshotMeta, Store};
use ultrasparse::skeleton::{distributed as skel, SkeletonParams};

/// Total bytes of every file in the snapshot directory.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("snapshot dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

/// The files of a snapshot directory as sorted (name, bytes) pairs.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("snapshot dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read snapshot file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn main() {
    let scale = Scale::from_args(&Scale::ALL);
    let json_path = json_out_arg();
    // Per tier: n and the samples the save/load timings take the best of
    // (the build runs once); m = 4n.
    let (n, samples) = match scale {
        Scale::Tiny => (1 << 10, 3),
        Scale::Quick => (1 << 14, 3),
        Scale::Full => (1 << 17, 3),
        Scale::Huge => (1 << 20, 2),
    };
    let (m, seed) = (4 * n, 42u64);
    println!(
        "store_roundtrip: scale = {}, n = {n}, m = {m}",
        scale.name()
    );

    let csr = Arc::new(generators::connected_gnm_csr(n, m, seed));
    let params = SkeletonParams::default();

    // The rebuild side: one distributed skeleton construction.
    let start = Instant::now();
    let spanner = skel::build_distributed_csr(&csr, &params, seed).expect("skeleton build");
    let build_secs = start.elapsed().as_secs_f64();
    let pairs: Vec<(u32, u32)> = csr
        .forward_edges()
        .filter(|&(e, _, _)| spanner.edges.contains(e))
        .map(|(_, a, b)| (a.0, b.0))
        .collect();
    println!("build: {build_secs:.3}s, |S| = {}", pairs.len());

    // The persistence side: save once per sample into a fresh directory
    // (best-of over samples), then reopen the last one.
    let meta = SnapshotMeta {
        k: 2,
        seed,
        routing: false,
    };
    let dir = scratch_dir("bench-roundtrip");
    let mut save_secs = f64::INFINITY;
    for _ in 0..samples {
        std::fs::remove_dir_all(&dir).ok();
        let start = Instant::now();
        Store::save(&dir, &csr, &pairs, meta).expect("save");
        save_secs = save_secs.min(start.elapsed().as_secs_f64());
    }
    let snapshot_bytes = dir_bytes(&dir);

    let mut load_secs = f64::INFINITY;
    let mut state = None;
    for _ in 0..samples {
        let start = Instant::now();
        state = Some(Store::open(&dir).expect("open"));
        load_secs = load_secs.min(start.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one sample");
    println!(
        "save: {save_secs:.3}s ({} bytes), load: {load_secs:.3}s",
        snapshot_bytes
    );

    // Lossless: the reopened state reproduces graph, spanner, and meta.
    assert_eq!(state.csr.parts(), csr.parts(), "CSR round-trip parity");
    assert_eq!(state.spanner, pairs, "spanner round-trip parity");
    assert_eq!(state.meta, meta, "meta round-trip parity");
    assert!(state.edits.is_empty(), "fresh snapshot has an empty WAL");

    // Canonical: re-encoding the reopened state is byte-identical.
    let dir2 = scratch_dir("bench-roundtrip-2");
    Store::save(&dir2, &state.csr, &state.spanner, state.meta).expect("re-save");
    assert_eq!(
        dir_contents(&dir),
        dir_contents(&dir2),
        "re-saved snapshot differs byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();

    let speedup_load = build_secs / load_secs;
    println!("speedup_load = {speedup_load:.1}x (build / load)");

    let rss = peak_rss_bytes();
    let json = format!(
        "{{\n  \"bench\": \"store_roundtrip\",\n  \"scale\": \"{}\",\n  \"n\": {},\n  \"m\": {},\n  \
         \"spanner_edges\": {},\n  \"snapshot_bytes\": {},\n  \"build_secs\": {:.6},\n  \
         \"save_secs\": {:.6},\n  \"load_secs\": {:.6},\n  \"speedup_load\": {:.2},\n  \
         \"peak_rss_bytes\": {}\n}}\n",
        scale.name(),
        n,
        m,
        pairs.len(),
        snapshot_bytes,
        build_secs,
        save_secs,
        load_secs,
        speedup_load,
        rss,
    );
    println!("peak RSS {} MiB", rss / (1 << 20));
    write_json(json_path.as_deref(), &json);

    // The acceptance gate: a snapshot load must beat a rebuild by an
    // order of magnitude — that is the reason the format exists. Skipped
    // at tiny scale, where both sides are microseconds-noise.
    if std::env::var("STORE_ROUNDTRIP_ASSERT").as_deref() == Ok("1") && scale != Scale::Tiny {
        assert!(
            speedup_load >= 10.0,
            "loading a snapshot is only {speedup_load:.1}x faster than rebuilding (need >= 10x)"
        );
        println!("assertion passed: speedup_load >= 10x");
    }
}
