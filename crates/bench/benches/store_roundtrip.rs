//! Snapshot round-trip throughput: loading a persisted spanner vs
//! rebuilding it from the graph.
//!
//! The `spanner-store` snapshot format exists so a served spanner can be
//! brought back in O(size-on-disk) instead of O(construction): this bench
//! measures both sides at the same scale — the distributed skeleton
//! construction over a connected G(n, m) CSR, then `Store::save` and
//! `Store::open` of the same (graph, spanner) pair, interleaved over five
//! samples and each reported as {min, median, max} — and certifies the
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
//!   rebuilding by ≥ 10×, minimum against minimum (skipped at `tiny`,
//!   where both sides are microseconds and the ratio is noise). The parity and byte-identity
//!   asserts above run unconditionally.

use std::cell::OnceCell;
use std::sync::Arc;

use spanner_bench::report::{self, Json};
use spanner_bench::{
    deny_unknown_args, json_out_arg, peak_rss_bytes, switch_arg, timed, write_json, Scale,
};
use spanner_graph::generators;
use spanner_store::{scratch_dir, SnapshotMeta, Store};
use ultrasparse::skeleton::{distributed as skel, SkeletonParams};

/// Timed rounds of build, save and load.
const SAMPLES: usize = 5;

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
    // `cargo bench` appends `--bench`.
    switch_arg("--bench");
    deny_unknown_args();
    let n = match scale {
        Scale::Tiny => 1 << 10,
        Scale::Quick => 1 << 14,
        Scale::Full => 1 << 17,
        Scale::Huge => 1 << 20,
    };
    let (m, seed) = (4 * n, 42u64);
    println!(
        "store_roundtrip: scale = {}, n = {n}, m = {m}, {SAMPLES} samples",
        scale.name()
    );

    let csr = Arc::new(generators::connected_gnm_csr(n, m, seed));
    let params = SkeletonParams::default();
    let meta = SnapshotMeta {
        k: 2,
        seed,
        routing: false,
    };
    let dir = scratch_dir("bench-roundtrip");

    // One round: the rebuild side (a distributed skeleton construction),
    // then a save into a fresh directory of the first build's spanner,
    // then a reopen of that directory. Every build yields the same
    // spanner.
    let pairs = OnceCell::new();
    let mut state = None;
    let mut build = || {
        let (spanner, secs) = timed(|| skel::build_distributed_csr(&csr, &params, seed));
        let spanner = spanner.expect("skeleton build");
        pairs.get_or_init(|| {
            csr.forward_edges()
                .filter(|&(e, _, _)| spanner.edges.contains(e))
                .map(|(_, a, b)| (a.0, b.0))
                .collect::<Vec<(u32, u32)>>()
        });
        secs
    };
    let mut save = || {
        std::fs::remove_dir_all(&dir).ok();
        let pairs = pairs.get().expect("built this round");
        timed(|| Store::save(&dir, &csr, pairs, meta).expect("save")).1
    };
    let mut load = || {
        let (opened, secs) = timed(|| Store::open(&dir).expect("open"));
        state = Some(opened);
        secs
    };
    let secs = report::sample(
        SAMPLES,
        &mut [&mut build as &mut dyn FnMut() -> f64, &mut save, &mut load],
    );
    let (build_secs, save_secs, load_secs) = (secs[0], secs[1], secs[2]);
    let state = state.expect("at least one sample");
    let pairs = pairs.get().expect("at least one sample");
    let snapshot_bytes: usize = dir_contents(&dir).iter().map(|(_, b)| b.len()).sum();
    println!(
        "minima: build {:.3}s (|S| = {}), save {:.3}s ({snapshot_bytes} bytes), load {:.3}s",
        build_secs.min,
        pairs.len(),
        save_secs.min,
        load_secs.min
    );

    // Lossless: the reopened state reproduces graph, spanner, and meta.
    assert_eq!(state.csr.parts(), csr.parts(), "CSR round-trip parity");
    assert_eq!(&state.spanner, pairs, "spanner round-trip parity");
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

    let speedup_load = build_secs.min / load_secs.min;
    println!("speedup_load = {speedup_load:.1}x (build / load, minima)");

    let rss = peak_rss_bytes();
    let json = Json::obj([
        ("bench", "store_roundtrip".into()),
        ("scale", scale.name().into()),
        (
            "available_parallelism",
            report::available_parallelism().into(),
        ),
        ("n", n.into()),
        ("m", m.into()),
        ("spanner_edges", pairs.len().into()),
        ("snapshot_bytes", snapshot_bytes.into()),
        ("build_secs", build_secs.json(6)),
        ("save_secs", save_secs.json(6)),
        ("load_secs", load_secs.json(6)),
        ("speedup_load", Json::Fixed(speedup_load, 2)),
        ("peak_rss_bytes", rss.into()),
    ]);
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
