//! Crash-recovery suite: kill a checkpoint at **every** filesystem
//! operation boundary and prove recovery.
//!
//! The save path is a sequence of mutating operations (create, write
//! temp, rename, ..., rename MANIFEST, cleanup). The op-counting `Fs`
//! layer behind [`DynamicStore::checkpoint_with_budget`] turns operation
//! number `b` and everything after it into a simulated crash
//! ([`StoreError::Injected`]). This test sweeps `b` from 0 until the
//! checkpoint survives, and after every single crash point demands:
//!
//! * the directory still opens — no torn state, ever;
//! * the graph read back is exactly the graph (it never changes across a
//!   checkpoint);
//! * the spanner read back is exactly the **old** state (base snapshot +
//!   WAL replay) or exactly the **new** state (post-compaction) — never a
//!   hybrid;
//! * the recovered spanner passes the exact stretch verification.

use std::fs;
use std::path::Path;

use spanner_baselines::streaming::StreamingSpanner;
use spanner_graph::distance::{verify_stretch, Pairs, StretchBound};
use spanner_graph::{generators, NodeId};
use spanner_store::{scratch_dir, DynamicStore, SnapshotMeta, StoreError};

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create copy dir");
    for entry in fs::read_dir(from).expect("read dir").flatten() {
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

type Edges = Vec<(NodeId, NodeId)>;

fn state_of(store: &DynamicStore) -> (Edges, Edges) {
    (
        store.spanner().graph_edges().collect(),
        store.spanner().spanner_edges().collect(),
    )
}

fn assert_verified(store: &DynamicStore) {
    let g = store.spanner().to_graph();
    let s = store.spanner().spanner_edge_set(&g);
    let bound = StretchBound::multiplicative(f64::from(store.spanner().stretch()));
    verify_stretch(&g, &s, Pairs::All, 1, |d, ds| bound.allows(d, ds))
        .expect("recovered spanner must verify");
}

#[test]
fn checkpoint_killed_at_every_op_recovers_old_or_new() {
    // Base snapshot + a WAL of edits that dirty the spanner.
    let base = scratch_dir("crash-base");
    let csr = generators::connected_gnm_csr(100, 300, 41);
    let initial: Vec<(u32, u32)> = {
        let mut filter = StreamingSpanner::new(100, 2);
        for (_, a, b) in csr.forward_edges() {
            filter.offer(a, b);
        }
        filter.edges().iter().map(|&(a, b)| (a.0, b.0)).collect()
    };
    let meta = SnapshotMeta {
        k: 2,
        seed: 41,
        routing: false,
    };
    let mut seeded = DynamicStore::create(&base, &csr, &initial, meta).expect("create base");
    for i in 0..10u32 {
        let (u, v) = (i, 50 + 3 * i);
        if seeded.spanner().contains(NodeId(u), NodeId(v)) {
            seeded.delete(u, v).expect("delete");
        } else {
            seeded.insert(u, v).expect("insert");
        }
    }
    assert_eq!(seeded.wal_len(), 10);
    let old_state = state_of(&seeded);
    drop(seeded);

    // Reference "new" state: one fully successful checkpoint.
    let done = scratch_dir("crash-done");
    copy_dir(&base, &done);
    let mut finished = DynamicStore::open(&done).expect("open reference");
    finished.checkpoint().expect("reference checkpoint");
    assert_eq!(finished.generation(), 2);
    let new_state = state_of(&finished);
    assert_eq!(
        old_state.0, new_state.0,
        "a checkpoint must not change the graph"
    );
    drop(finished);
    fs::remove_dir_all(&done).ok();

    // The sweep: budgets 0, 1, 2, ... until the save runs to completion.
    let mut completed_at = None;
    for budget in 0..200usize {
        let dir = scratch_dir("crash-sweep");
        copy_dir(&base, &dir);
        let mut store = DynamicStore::open(&dir).expect("open sweep copy");
        match store.checkpoint_with_budget(Some(budget)) {
            Ok(_) => {
                assert_eq!(store.generation(), 2);
                assert_eq!(store.wal_len(), 0);
                completed_at = Some(budget);
            }
            Err(StoreError::Injected { index, .. }) => {
                assert!(index <= budget, "injection fired late");
            }
            Err(other) => panic!("budget {budget}: non-injected failure {other}"),
        }
        drop(store);

        // Recovery: the directory must open cleanly to old or new.
        let recovered = DynamicStore::open(&dir).expect("crashed dir must reopen");
        let state = state_of(&recovered);
        assert_eq!(state.0, old_state.0, "budget {budget}: graph diverged");
        let is_old = state.1 == old_state.1 && recovered.generation() == 1;
        let is_new = state.1 == new_state.1 && recovered.generation() == 2;
        assert!(
            is_old || is_new,
            "budget {budget}: recovered spanner is neither the old nor the new state \
             (generation {})",
            recovered.generation()
        );
        assert_verified(&recovered);
        drop(recovered);
        fs::remove_dir_all(&dir).ok();

        if completed_at.is_some() {
            break;
        }
    }
    let total = completed_at.expect("checkpoint never completed within the sweep");
    // The save is 7 core ops (mkdir + 3×(write, rename)) plus cleanup of
    // the old generation; the sweep must actually have exercised them.
    assert!(total >= 7, "suspiciously short op sequence: {total}");
    fs::remove_dir_all(&base).ok();
}

#[test]
fn commit_point_is_the_manifest_rename() {
    // Pin *where* the old/new transition happens: with the op sequence
    // mkdir, write, rename, write, rename, write, rename(MANIFEST), the
    // first budget that recovers to generation 2 is exactly 7 — nothing
    // before the manifest rename publishes, everything after it does.
    let base = scratch_dir("crash-commit");
    let csr = generators::grid_csr(8, 8);
    let initial: Vec<(u32, u32)> = csr.forward_edges().map(|(_, a, b)| (a.0, b.0)).collect();
    let meta = SnapshotMeta {
        k: 2,
        seed: 5,
        routing: false,
    };
    let mut store = DynamicStore::create(&base, &csr, &initial, meta).expect("create");
    store.insert(0, 63).expect("insert");
    drop(store);

    let mut first_new = None;
    for budget in 0..64usize {
        let dir = scratch_dir("crash-commit-sweep");
        copy_dir(&base, &dir);
        let mut s = DynamicStore::open(&dir).expect("open");
        let done = s.checkpoint_with_budget(Some(budget)).is_ok();
        drop(s);
        let generation = DynamicStore::open(&dir).expect("reopen").generation();
        if generation == 2 && first_new.is_none() {
            first_new = Some(budget);
        }
        fs::remove_dir_all(&dir).ok();
        if done {
            break;
        }
    }
    assert_eq!(
        first_new,
        Some(7),
        "the commit point moved — update the op-sequence documentation"
    );
    fs::remove_dir_all(&base).ok();
}
