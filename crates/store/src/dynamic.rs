//! The log-structured update path: a durable [`DynamicSpanner`].
//!
//! [`DynamicStore`] pairs the in-memory incremental spanner with a
//! snapshot directory. Edits go through [`DynamicStore::insert`] /
//! [`DynamicStore::delete`]: each is appended to the live generation's
//! WAL *before* being applied in memory (write-ahead), so a process that
//! dies at any point reopens to exactly the edits it had acknowledged.
//! [`DynamicStore::checkpoint`] is the compaction step: it re-clusters
//! the dirty region through
//! [`baswana_sen::recluster_region`](spanner_baselines::baswana_sen::recluster_region),
//! folds graph + spanner into a new snapshot generation, and starts an
//! empty WAL — the memtable-flush of this LSM.
//!
//! Amortization shape: an edit is O(WAL append) plus the bounded-radius
//! cover repair inside [`DynamicSpanner`]; a checkpoint is O(size) for
//! the snapshot write plus a rebuild of only the region the edits since
//! the last checkpoint touched. Reopening is O(size + WAL length) —
//! no construction algorithm runs.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use spanner_baselines::baswana_sen::{recluster_region, BaswanaSenParams};
use spanner_baselines::streaming::{CompactStats, DynamicSpanner};
use spanner_graph::{CsrAdjacency, NodeId};

use crate::snapshot::{SnapshotMeta, Store};
use crate::wal::{encode_record, Edit};
use crate::StoreError;

/// A spanner kept consistent with a snapshot directory: edits are
/// write-ahead logged, applied incrementally, and periodically compacted
/// into a fresh snapshot generation.
#[derive(Debug)]
pub struct DynamicStore {
    dir: PathBuf,
    spanner: DynamicSpanner,
    meta: SnapshotMeta,
    generation: u64,
    wal_len: u64,
}

impl DynamicStore {
    /// Creates the snapshot directory from a built `(graph, spanner)`
    /// pair and opens it for updates.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the save, or [`StoreError::Corrupt`] if
    /// the pair fails [`DynamicSpanner::from_state`] validation.
    pub fn create(
        dir: &Path,
        csr: &CsrAdjacency,
        spanner: &[(u32, u32)],
        meta: SnapshotMeta,
    ) -> Result<Self, StoreError> {
        Store::save(dir, csr, spanner, meta)?;
        Self::open(dir)
    }

    /// Opens a snapshot directory for updates: loads the snapshot,
    /// rebuilds the in-memory incremental state, and replays the WAL.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]. A WAL edit that does not apply (inserting an
    /// edge that already exists, deleting one that does not) is
    /// [`StoreError::Wal`] — the log and the snapshot disagree.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let state = Store::open(dir)?;
        let n = state.csr.node_count();
        let graph = state.csr.forward_edges().map(|(_, a, b)| (a.0, b.0));
        let spanner =
            DynamicSpanner::from_state(n, state.meta.k, graph, state.spanner.iter().copied())
                .map_err(|detail| StoreError::Corrupt { detail })?;
        let mut store = DynamicStore {
            dir: dir.to_path_buf(),
            spanner,
            meta: state.meta,
            generation: state.generation,
            wal_len: 0,
        };
        for (index, edit) in state.edits.iter().enumerate() {
            let (u, v) = edit.endpoints();
            if v as usize >= n {
                return Err(StoreError::Wal {
                    detail: format!("record {index}: endpoint {v} out of range for n = {n}"),
                });
            }
            let applied = match edit {
                Edit::Insert(..) => store.spanner.insert(NodeId(u), NodeId(v)),
                Edit::Delete(..) => store.spanner.delete(NodeId(u), NodeId(v)),
            };
            if !applied {
                return Err(StoreError::Wal {
                    detail: format!("record {index}: edit {u}-{v} does not apply to the graph"),
                });
            }
            store.wal_len += 1;
        }
        Ok(store)
    }

    /// Inserts the undirected edge `{u, v}`: logged to the WAL, then
    /// applied incrementally. Returns `false` (and logs nothing) when the
    /// edge is already present.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the WAL append fails; the in-memory state is
    /// untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or out-of-range endpoint, matching
    /// [`DynamicSpanner::insert`].
    pub fn insert(&mut self, u: u32, v: u32) -> Result<bool, StoreError> {
        if self.spanner.contains(NodeId(u), NodeId(v)) {
            return Ok(false);
        }
        self.log(Edit::Insert(u, v))?;
        let applied = self.spanner.insert(NodeId(u), NodeId(v));
        debug_assert!(applied);
        Ok(true)
    }

    /// Deletes the undirected edge `{u, v}`: logged to the WAL, then
    /// applied incrementally (with cover repair if a spanner edge went
    /// away). Returns `false` (and logs nothing) when the edge is absent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the WAL append fails; the in-memory state is
    /// untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or out-of-range endpoint, matching
    /// [`DynamicSpanner::delete`].
    pub fn delete(&mut self, u: u32, v: u32) -> Result<bool, StoreError> {
        if !self.spanner.contains(NodeId(u), NodeId(v)) {
            return Ok(false);
        }
        self.log(Edit::Delete(u, v))?;
        let applied = self.spanner.delete(NodeId(u), NodeId(v));
        debug_assert!(applied);
        Ok(true)
    }

    fn log(&mut self, edit: Edit) -> Result<(), StoreError> {
        let record = encode_record(edit, self.generation, self.wal_len);
        let path = Store::wal_path(&self.dir, self.generation);
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io("append", &path, e))?;
        file.write_all(&record)
            .map_err(|e| StoreError::io("append", &path, e))?;
        self.wal_len += 1;
        Ok(())
    }

    /// Compacts: re-clusters the dirty region with Baswana–Sen (at the
    /// snapshot's own `k` and `seed`), writes graph + repaired spanner as
    /// a new snapshot generation, and resets the WAL. Returns the
    /// compaction statistics.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the save. On error the in-memory spanner
    /// keeps the compacted (still valid) state but the directory keeps
    /// the old generation; the next checkpoint retries the save.
    pub fn checkpoint(&mut self) -> Result<CompactStats, StoreError> {
        self.checkpoint_with_budget(None)
    }

    /// [`DynamicStore::checkpoint`] through the crash simulator of
    /// [`Store::save_with_budget`] — the crash-recovery tests sweep
    /// `budget` over every filesystem operation index.
    ///
    /// # Errors
    ///
    /// As [`DynamicStore::checkpoint`], plus [`StoreError::Injected`].
    pub fn checkpoint_with_budget(
        &mut self,
        budget: Option<usize>,
    ) -> Result<CompactStats, StoreError> {
        let params = BaswanaSenParams::new(self.meta.k).expect("k validated at load");
        let seed = self.meta.seed;
        let stats = self
            .spanner
            .compact(|g, region| recluster_region(g, region, &params, seed));
        let n = self.spanner.node_count();
        let graph: Vec<(u32, u32)> = self
            .spanner
            .graph_edges()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        let csr = CsrAdjacency::from_edges(n, graph);
        let pairs: Vec<(u32, u32)> = self
            .spanner
            .spanner_edges()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        let generation = Store::save_with_budget(&self.dir, &csr, &pairs, self.meta, budget)?;
        self.generation = generation;
        self.wal_len = 0;
        Ok(stats)
    }

    /// The in-memory incremental spanner.
    pub fn spanner(&self) -> &DynamicSpanner {
        &self.spanner
    }

    /// The snapshot's construction metadata.
    pub fn meta(&self) -> SnapshotMeta {
        self.meta
    }

    /// The live snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of WAL records in the live generation.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use spanner_graph::distance::{verify_stretch, Pairs, StretchBound};
    use spanner_graph::generators;

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            k: 2,
            seed: 7,
            routing: false,
        }
    }

    fn check(store: &DynamicStore) {
        let g = store.spanner().to_graph();
        let s = store.spanner().spanner_edge_set(&g);
        let bound = StretchBound::multiplicative(f64::from(store.spanner().stretch()));
        verify_stretch(&g, &s, Pairs::All, 1, |d, ds| bound.allows(d, ds))
            .expect("stretch bound must hold");
    }

    #[test]
    fn edits_survive_reopen() {
        let dir = scratch_dir("dynreopen");
        let csr = generators::grid_csr(6, 6);
        let spanner: Vec<(u32, u32)> = csr.forward_edges().map(|(_, a, b)| (a.0, b.0)).collect();
        let mut store = DynamicStore::create(&dir, &csr, &spanner, meta()).unwrap();
        assert!(store.insert(0, 35).unwrap());
        assert!(store.delete(0, 1).unwrap());
        assert!(!store.insert(0, 35).unwrap(), "duplicate insert is a no-op");
        assert!(!store.delete(0, 1).unwrap(), "absent delete is a no-op");
        assert_eq!(store.wal_len(), 2);
        check(&store);

        let reopened = DynamicStore::open(&dir).unwrap();
        assert_eq!(reopened.wal_len(), 2);
        assert_eq!(reopened.generation(), 1);
        assert!(reopened.spanner().contains(NodeId(0), NodeId(35)));
        assert!(!reopened.spanner().contains(NodeId(0), NodeId(1)));
        assert_eq!(
            reopened.spanner().spanner_edges().collect::<Vec<_>>(),
            store.spanner().spanner_edges().collect::<Vec<_>>()
        );
        check(&reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_folds_wal_and_bumps_generation() {
        let dir = scratch_dir("dyncheckpoint");
        let csr = generators::connected_gnm_csr(80, 200, 5);
        let spanner: Vec<(u32, u32)> = csr.forward_edges().map(|(_, a, b)| (a.0, b.0)).collect();
        let mut store = DynamicStore::create(&dir, &csr, &spanner, meta()).unwrap();
        for i in 0..20u32 {
            let (u, v) = (i, 40 + i);
            if !store.spanner().contains(NodeId(u), NodeId(v)) {
                store.insert(u, v).unwrap();
            }
        }
        assert!(store.wal_len() > 0);
        store.checkpoint().unwrap();
        assert_eq!(store.generation(), 2);
        assert_eq!(store.wal_len(), 0);
        assert_eq!(store.spanner().dirty_len(), 0);
        check(&store);

        let reopened = DynamicStore::open(&dir).unwrap();
        assert_eq!(reopened.generation(), 2);
        assert_eq!(reopened.wal_len(), 0);
        assert_eq!(
            reopened.spanner().graph_edges().collect::<Vec<_>>(),
            store.spanner().graph_edges().collect::<Vec<_>>()
        );
        assert_eq!(
            reopened.spanner().spanner_edges().collect::<Vec<_>>(),
            store.spanner().spanner_edges().collect::<Vec<_>>()
        );
        check(&reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_wal_fails_closed() {
        let dir = scratch_dir("dynmismatch");
        let csr = generators::grid_csr(3, 3);
        let spanner: Vec<(u32, u32)> = csr.forward_edges().map(|(_, a, b)| (a.0, b.0)).collect();
        let mut store = DynamicStore::create(&dir, &csr, &spanner, meta()).unwrap();
        // Hand-append a WAL record deleting an edge the graph lacks.
        let record = encode_record(Edit::Delete(0, 8), store.generation(), store.wal_len());
        let path = Store::wal_path(&dir, store.generation());
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&record).unwrap();
        drop(file);
        store.wal_len += 1;
        let err = DynamicStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::Wal { detail } if detail.contains("does not apply")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
