//! Snapshot directories: save/open of a CSR graph + built spanner.
//!
//! A snapshot is a directory:
//!
//! ```text
//! MANIFEST          44 bytes, self-checksummed, names generation g
//! blocks-g.dat      checksummed block file (see [`crate::blocks`])
//! wal-g.log         edit log of generation g (see [`crate::wal`])
//! ```
//!
//! The payload inside the block file (little-endian):
//!
//! ```text
//! n             u64          node count
//! half          u64          half-edge count (CSR targets length)
//! offsets       (n+1) × u32  CSR offsets
//! targets       half × u32   CSR targets
//! spanner_len   u64          number of spanner edges
//! spanner       len × (u32, u32)  canonical (min, max) pairs, ascending
//! k             u32          clustering parameter of the build
//! seed          u64          seed of the build
//! flags         u32          bit 0: routing scheme requested
//! ```
//!
//! Saves follow write-then-rename for every file and only then replace
//! `MANIFEST` (also by rename), so at every intermediate crash point the
//! directory still opens to the previous snapshot; the crash-recovery
//! test drives [`Store::save_with_budget`] through every operation index
//! to prove it. Loads re-validate everything: checksums at three layers
//! (manifest, whole data file, per block), then the CSR structural
//! invariants via
//! [`CsrAdjacency::try_from_parts`](spanner_graph::CsrAdjacency::try_from_parts),
//! then that every spanner edge is a graph edge.

use std::fs;
use std::path::{Path, PathBuf};

use spanner_graph::{CsrAdjacency, NodeId};

use crate::blocks::{decode_blocks, encode_blocks};
use crate::checksum::checksum;
use crate::format::{put_u32, put_u64, Reader};
use crate::manifest::{Manifest, DATA_SALT};
use crate::wal::{decode_wal, Edit};
use crate::StoreError;

/// Construction metadata carried inside a snapshot, so a loader (e.g.
/// `spanner-serve`) rebuilds exactly the artifact that was saved without
/// the caller restating parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Clustering parameter k (stretch 2k−1).
    pub k: u32,
    /// Seed of the randomized construction.
    pub seed: u64,
    /// Whether a routing scheme should be rebuilt on load.
    pub routing: bool,
}

/// Everything a snapshot directory decodes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotState {
    /// The persisted graph, structurally re-validated.
    pub csr: CsrAdjacency,
    /// The persisted spanner edges, canonical ascending pairs, each
    /// verified to be a graph edge.
    pub spanner: Vec<(u32, u32)>,
    /// Construction metadata.
    pub meta: SnapshotMeta,
    /// The live generation.
    pub generation: u64,
    /// WAL edits of this generation not yet folded into the block file
    /// (empty right after a save or checkpoint).
    pub edits: Vec<Edit>,
}

/// Filesystem layer counting mutating operations, with an optional
/// injection budget: operation number `budget` (0-based) and everything
/// after it fail with [`StoreError::Injected`] — the crash simulator.
/// Reads are not counted (they cannot tear state).
pub(crate) struct Fs {
    budget: Option<usize>,
    ops: usize,
}

impl Fs {
    pub(crate) fn new(budget: Option<usize>) -> Self {
        Fs { budget, ops: 0 }
    }

    fn step(&mut self, op: &'static str) -> Result<(), StoreError> {
        if let Some(b) = self.budget {
            if self.ops >= b {
                return Err(StoreError::Injected {
                    op,
                    index: self.ops,
                });
            }
        }
        self.ops += 1;
        Ok(())
    }

    fn create_dir_all(&mut self, dir: &Path) -> Result<(), StoreError> {
        self.step("create_dir")?;
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir, e))
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        self.step("write")?;
        fs::write(path, bytes).map_err(|e| StoreError::io("write", path, e))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
        self.step("rename")?;
        fs::rename(from, to).map_err(|e| StoreError::io("rename", from, e))
    }

    /// Best-effort removal: injection still fires (it is an op), but an
    /// OS-level failure to unlink a stale file is not an error — the
    /// commit has already happened when cleanup runs.
    fn remove_best_effort(&mut self, path: &Path) -> Result<(), StoreError> {
        self.step("remove")?;
        let _ = fs::remove_file(path);
        Ok(())
    }
}

/// The snapshot store: free functions over a snapshot directory.
#[derive(Debug, Clone, Copy)]
pub struct Store;

impl Store {
    /// Saves `(csr, spanner, meta)` as a new generation of `dir`
    /// (creating the directory for generation 1), returns the generation
    /// written. Atomic in the write-then-rename sense: a reader — or a
    /// crash — at any point sees the previous snapshot or the new one.
    /// Stale generations are unlinked after the commit.
    ///
    /// `spanner` pairs may come in any order or orientation; they are
    /// normalized and sorted before encoding (the on-disk form is
    /// canonical, which is what the golden-byte test pins).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// if a spanner pair is not an edge of `csr`.
    pub fn save(
        dir: &Path,
        csr: &CsrAdjacency,
        spanner: &[(u32, u32)],
        meta: SnapshotMeta,
    ) -> Result<u64, StoreError> {
        Self::save_with_budget(dir, csr, spanner, meta, None)
    }

    /// [`Store::save`] through the crash simulator: filesystem operation
    /// number `budget` (0-based) and everything after it fail with
    /// [`StoreError::Injected`], leaving whatever earlier operations
    /// wrote. `budget = None` disables injection. Returns
    /// `(generation, total_ops)` so the crash sweep knows when the save
    /// ran to completion.
    ///
    /// # Errors
    ///
    /// As [`Store::save`], plus [`StoreError::Injected`].
    pub fn save_with_budget(
        dir: &Path,
        csr: &CsrAdjacency,
        spanner: &[(u32, u32)],
        meta: SnapshotMeta,
        budget: Option<usize>,
    ) -> Result<u64, StoreError> {
        let mut io = Fs::new(budget);
        let generation = Self::save_inner(&mut io, dir, csr, spanner, meta)?;
        Ok(generation)
    }

    fn save_inner(
        io: &mut Fs,
        dir: &Path,
        csr: &CsrAdjacency,
        spanner: &[(u32, u32)],
        meta: SnapshotMeta,
    ) -> Result<u64, StoreError> {
        let payload = encode_payload(csr, spanner, meta)?;
        io.create_dir_all(dir)?;
        let generation = next_generation(dir);
        let data = encode_blocks(&payload, generation);
        let data_sum = checksum(DATA_SALT ^ generation, &data);

        let blocks_path = dir.join(format!("blocks-{generation}.dat"));
        let blocks_tmp = dir.join(format!("blocks-{generation}.dat.tmp"));
        io.write(&blocks_tmp, &data)?;
        io.rename(&blocks_tmp, &blocks_path)?;

        let wal_path = dir.join(format!("wal-{generation}.log"));
        let wal_tmp = dir.join(format!("wal-{generation}.log.tmp"));
        io.write(&wal_tmp, &[])?;
        io.rename(&wal_tmp, &wal_path)?;

        let manifest = Manifest {
            generation,
            data_len: data.len() as u64,
            data_sum,
        };
        let manifest_path = dir.join("MANIFEST");
        let manifest_tmp = dir.join("MANIFEST.tmp");
        io.write(&manifest_tmp, &manifest.encode())?;
        // The commit point: everything before this rename leaves the old
        // snapshot live, everything after leaves the new one.
        io.rename(&manifest_tmp, &manifest_path)?;

        for stale in stale_files(dir, generation) {
            io.remove_best_effort(&stale)?;
        }
        Ok(generation)
    }

    /// Opens and fully verifies the live snapshot of `dir`.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]; never panics and never returns a structurally
    /// invalid graph.
    pub fn open(dir: &Path) -> Result<SnapshotState, StoreError> {
        let manifest_path = dir.join("MANIFEST");
        let mbytes =
            fs::read(&manifest_path).map_err(|e| StoreError::io("read", &manifest_path, e))?;
        let manifest = Manifest::decode(&mbytes)?;
        let generation = manifest.generation;

        let blocks_path = dir.join(format!("blocks-{generation}.dat"));
        let data = fs::read(&blocks_path).map_err(|e| StoreError::io("read", &blocks_path, e))?;
        if data.len() as u64 != manifest.data_len {
            return Err(StoreError::Truncated { what: "data file" });
        }
        if checksum(DATA_SALT ^ generation, &data) != manifest.data_sum {
            return Err(StoreError::Checksum {
                what: "data file".to_string(),
            });
        }
        let payload = decode_blocks(&data, generation)?;
        let (csr, spanner, meta) = decode_payload(&payload)?;

        let wal_path = dir.join(format!("wal-{generation}.log"));
        let wal_bytes = fs::read(&wal_path).map_err(|e| StoreError::io("read", &wal_path, e))?;
        let edits = decode_wal(&wal_bytes, generation)?;

        Ok(SnapshotState {
            csr,
            spanner,
            meta,
            generation,
            edits,
        })
    }

    /// The WAL path of a generation — where [`crate::DynamicStore`]
    /// appends.
    pub(crate) fn wal_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("wal-{generation}.log"))
    }
}

/// The next generation to write: one past the live manifest's (or, when
/// the manifest is missing/corrupt, one past the largest generation any
/// block file on disk names — a save can therefore always overwrite a
/// damaged directory without colliding with its remnants).
fn next_generation(dir: &Path) -> u64 {
    let mut max = fs::read(dir.join("MANIFEST"))
        .ok()
        .and_then(|b| Manifest::decode(&b).ok())
        .map_or(0, |m| m.generation);
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(g) = parse_generation(&entry.file_name().to_string_lossy()) {
                max = max.max(g);
            }
        }
    }
    max + 1
}

/// Parses `blocks-<g>.dat` / `wal-<g>.log` (and their `.tmp` spill)
/// names.
fn parse_generation(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("blocks-")
        .or_else(|| name.strip_prefix("wal-"))?;
    let digits = rest.split('.').next()?;
    digits.parse().ok()
}

/// Every store file in `dir` not belonging to `live` generation or the
/// manifest, sorted for a deterministic cleanup order.
fn stale_files(dir: &Path, live: u64) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            match parse_generation(&name) {
                Some(g) if g != live || name.ends_with(".tmp") => out.push(entry.path()),
                _ => {}
            }
        }
    }
    out.sort();
    out
}

fn encode_payload(
    csr: &CsrAdjacency,
    spanner: &[(u32, u32)],
    meta: SnapshotMeta,
) -> Result<Vec<u8>, StoreError> {
    let (offsets, targets) = csr.parts();
    let mut pairs: Vec<(u32, u32)> = spanner.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    pairs.sort_unstable();
    pairs.dedup();
    for &(u, v) in &pairs {
        let ok = u != v
            && (u as usize) < csr.node_count()
            && csr.neighbors(NodeId(u)).binary_search(&NodeId(v)).is_ok();
        if !ok {
            return Err(StoreError::Corrupt {
                detail: format!("spanner edge {u}-{v} is not a graph edge"),
            });
        }
    }
    let mut out = Vec::with_capacity(40 + 4 * offsets.len() + 4 * targets.len() + 8 * pairs.len());
    put_u64(&mut out, csr.node_count() as u64);
    put_u64(&mut out, targets.len() as u64);
    for &o in offsets {
        put_u32(&mut out, o);
    }
    for &t in targets {
        put_u32(&mut out, t.0);
    }
    put_u64(&mut out, pairs.len() as u64);
    for &(u, v) in &pairs {
        put_u32(&mut out, u);
        put_u32(&mut out, v);
    }
    put_u32(&mut out, meta.k);
    put_u64(&mut out, meta.seed);
    put_u32(&mut out, if meta.routing { 1 } else { 0 });
    Ok(out)
}

/// What [`decode_payload`] yields: the CSR, the spanner pairs, and the
/// metadata.
type DecodedPayload = (CsrAdjacency, Vec<(u32, u32)>, SnapshotMeta);

fn decode_payload(bytes: &[u8]) -> Result<DecodedPayload, StoreError> {
    let mut r = Reader::new(bytes, "snapshot payload");
    let n = r.u64()?;
    let half = r.u64()?;
    if n > u32::MAX as u64 || half > u32::MAX as u64 {
        return Err(StoreError::Corrupt {
            detail: format!("declared sizes n = {n}, half-edges = {half} exceed the id space"),
        });
    }
    let (n, half) = (n as usize, half as usize);
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..n + 1 {
        offsets.push(r.u32()?);
    }
    let mut targets = Vec::with_capacity(half);
    for _ in 0..half {
        targets.push(NodeId(r.u32()?));
    }
    let csr = CsrAdjacency::try_from_parts(offsets, targets).map_err(|e| StoreError::Corrupt {
        detail: e.to_string(),
    })?;
    let spanner_len = r.u64()?;
    if spanner_len > csr.edge_count() as u64 {
        return Err(StoreError::Corrupt {
            detail: format!(
                "spanner declares {spanner_len} edges, graph has {}",
                csr.edge_count()
            ),
        });
    }
    let mut spanner = Vec::with_capacity(spanner_len as usize);
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..spanner_len {
        let u = r.u32()?;
        let v = r.u32()?;
        if u >= v || prev.is_some_and(|p| p >= (u, v)) {
            return Err(StoreError::Corrupt {
                detail: format!("spanner pair {u}-{v} breaks canonical ascending order"),
            });
        }
        if (u as usize) >= csr.node_count()
            || csr.neighbors(NodeId(u)).binary_search(&NodeId(v)).is_err()
        {
            return Err(StoreError::Corrupt {
                detail: format!("spanner edge {u}-{v} is not a graph edge"),
            });
        }
        prev = Some((u, v));
        spanner.push((u, v));
    }
    let k = r.u32()?;
    let seed = r.u64()?;
    let flags = r.u32()?;
    if k == 0 {
        return Err(StoreError::Corrupt {
            detail: "k = 0 in snapshot meta".to_string(),
        });
    }
    if flags & !1 != 0 {
        return Err(StoreError::Corrupt {
            detail: format!("unknown meta flags {flags:#x}"),
        });
    }
    r.finish()?;
    Ok((
        csr,
        spanner,
        SnapshotMeta {
            k,
            seed,
            routing: flags & 1 == 1,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use spanner_graph::generators;

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            k: 2,
            seed: 42,
            routing: false,
        }
    }

    #[test]
    fn save_open_round_trip_is_lossless() {
        let dir = scratch_dir("roundtrip");
        let csr = generators::connected_gnm_csr(200, 700, 9);
        let spanner: Vec<(u32, u32)> = csr
            .forward_edges()
            .filter(|(e, _, _)| e.0 % 3 != 0)
            .map(|(_, a, b)| (a.0, b.0))
            .collect();
        let generation = Store::save(&dir, &csr, &spanner, meta()).unwrap();
        assert_eq!(generation, 1);
        let loaded = Store::open(&dir).unwrap();
        assert_eq!(loaded.csr, csr);
        assert_eq!(loaded.spanner, spanner);
        assert_eq!(loaded.meta, meta());
        assert_eq!(loaded.generation, 1);
        assert!(loaded.edits.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resave_rotates_generations_and_cleans_up() {
        let dir = scratch_dir("rotate");
        let csr1 = generators::connected_gnm_csr(50, 120, 1);
        let csr2 = generators::connected_gnm_csr(60, 150, 2);
        assert_eq!(Store::save(&dir, &csr1, &[], meta()).unwrap(), 1);
        assert_eq!(Store::save(&dir, &csr2, &[], meta()).unwrap(), 2);
        let loaded = Store::open(&dir).unwrap();
        assert_eq!(loaded.csr, csr2);
        assert_eq!(loaded.generation, 2);
        // Generation 1 files are gone.
        assert!(!dir.join("blocks-1.dat").exists());
        assert!(!dir.join("wal-1.log").exists());
        assert!(dir.join("blocks-2.dat").exists());
        assert!(dir.join("wal-2.log").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_rejects_non_graph_spanner_edge() {
        let dir = scratch_dir("badspan");
        let csr = CsrAdjacency::from_edges(4, [(0u32, 1), (1, 2)]);
        let err = Store::save(&dir, &csr, &[(0, 3)], meta()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        // Nothing was created.
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_directory_is_typed_io() {
        let dir = scratch_dir("missing");
        let err = Store::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "read", .. }), "{err}");
    }

    #[test]
    fn payload_decode_rejects_meta_garbage() {
        let csr = CsrAdjacency::from_edges(3, [(0u32, 1), (1, 2)]);
        let good = encode_payload(&csr, &[(0, 1)], meta()).unwrap();
        // k = 0.
        let mut bad = good.clone();
        let k_at = good.len() - 16;
        bad[k_at..k_at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_payload(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Unknown flag bit.
        let mut bad = good.clone();
        let flags_at = good.len() - 4;
        bad[flags_at..].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(
            decode_payload(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Trailing junk.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_payload(&bad),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
