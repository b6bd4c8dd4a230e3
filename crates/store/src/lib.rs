//! Snapshot persistence and log-structured incremental updates.
//!
//! Every experiment and every `spanner-serve` session used to rebuild its
//! spanner from scratch (70s and 85M simulated messages for the skeleton
//! construction at n = 2²⁰). This crate is the persistence layer that
//! makes built state a first-class artifact, modeled on the LSM
//! manifest/WAL/sstable split and written against std only — no serde,
//! no external crates:
//!
//! * [`snapshot`] — a versioned on-disk format for
//!   [`CsrAdjacency`](spanner_graph::CsrAdjacency) graphs plus built
//!   spanners: a `MANIFEST` (tiny, self-checksummed,
//!   names the live generation) pointing at a generation-numbered data
//!   file of fixed-size checksummed [`blocks`]. Saves follow the
//!   write-then-rename discipline, so a crashed save leaves the previous
//!   snapshot loadable — never a torn one.
//! * [`wal`] — a write-ahead log of edge insertions/deletions buffered
//!   memtable-style next to the snapshot, each record checksummed with a
//!   salt derived from the generation *and* the record index (a
//!   double-written or torn tail fails closed).
//! * [`dynamic`] — [`DynamicStore`]: the log-structured update path.
//!   Edits append to the WAL and apply incrementally to an in-memory
//!   [`DynamicSpanner`](spanner_baselines::streaming::DynamicSpanner);
//!   periodic [`DynamicStore::checkpoint`] compaction
//!   re-clusters only the dirty region (through the
//!   `baswana_sen::recluster_region` hook), folds the log into a new
//!   snapshot generation, and starts a fresh WAL.
//!
//! Every decode path re-validates what it reads — magic, version,
//! per-block and whole-file checksums, CSR structural invariants,
//! spanner-edges-are-graph-edges — and surfaces a typed [`StoreError`];
//! a corrupted file can produce an error, never a silently wrong graph.
//! The differential test suite (`tests/incremental_parity.rs`) pins every
//! incremental state against a from-scratch rebuild via
//! `verify_stretch`.
//!
//! # Example
//!
//! ```
//! use spanner_graph::CsrAdjacency;
//! use spanner_store::{scratch_dir, SnapshotMeta, Store};
//!
//! let dir = scratch_dir("doc-example");
//! let csr = CsrAdjacency::from_edges(4, [(0u32, 1), (1, 2), (2, 3)]);
//! let meta = SnapshotMeta { k: 2, seed: 1, routing: false };
//! Store::save(&dir, &csr, &[(0, 1), (1, 2), (2, 3)], meta).unwrap();
//! let loaded = Store::open(&dir).unwrap();
//! assert_eq!(loaded.csr, csr);
//! assert_eq!(loaded.generation, 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod blocks;
pub mod checksum;
pub mod dynamic;
pub mod manifest;
pub mod snapshot;
pub mod wal;

mod format;

pub use dynamic::DynamicStore;
pub use snapshot::{SnapshotMeta, SnapshotState, Store};
pub use wal::Edit;

/// On-disk format version. Any layout change must bump this; decode
/// rejects other versions with [`StoreError::Version`] (pinned by the
/// golden-format tests).
pub const FORMAT_VERSION: u32 = 1;

/// Typed failure of any store operation. Every decode path fails closed
/// through one of these variants; no store API panics on bad bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The operation (`"read"`, `"write"`, `"rename"`, ...).
        op: &'static str,
        /// The path it targeted.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
    /// A file does not start with its expected magic bytes.
    BadMagic {
        /// Which file class (`"manifest"` or `"blocks"`).
        what: &'static str,
    },
    /// A file was written by a different format version.
    Version {
        /// Which file class carried the version.
        what: &'static str,
        /// The version found on disk.
        found: u32,
        /// The only version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// A checksum did not match — flipped bytes, a swapped block, or a
    /// data file that does not belong to the manifest.
    Checksum {
        /// What failed to verify (file class, and block index if any).
        what: String,
    },
    /// A file ended before its declared content did.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
    },
    /// The write-ahead log is corrupt (torn, duplicated, or edited tail).
    Wal {
        /// What exactly failed, with the record index.
        detail: String,
    },
    /// Bytes decoded cleanly but describe an invalid structure (CSR
    /// invariant violation, spanner edge missing from the graph, ...).
    Corrupt {
        /// The violated invariant.
        detail: String,
    },
    /// A deterministic fault-injection budget ran out mid-save (crash
    /// simulation; see [`snapshot::Store::save_with_budget`]).
    Injected {
        /// The filesystem operation that was suppressed.
        op: &'static str,
        /// Its index in the save's operation sequence.
        index: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "{op} {}: {message}", path.display())
            }
            StoreError::BadMagic { what } => write!(f, "{what}: bad magic bytes"),
            StoreError::Version {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what}: format version {found} unsupported (this build reads v{supported})"
            ),
            StoreError::Checksum { what } => write!(f, "checksum mismatch in {what}"),
            StoreError::Truncated { what } => write!(f, "{what}: truncated"),
            StoreError::Wal { detail } => write!(f, "WAL corrupt: {detail}"),
            StoreError::Corrupt { detail } => write!(f, "invalid snapshot content: {detail}"),
            StoreError::Injected { op, index } => {
                write!(f, "injected crash before {op} (op #{index})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &Path, e: std::io::Error) -> Self {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    }
}

/// A fresh scratch directory under the system temp dir, unique per
/// process *and* per call — safe under any `RUST_TEST_THREADS` setting.
/// The caller owns cleanup (`std::fs::remove_dir_all`); the directory is
/// **not** created.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let serial = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "spanner-store-{tag}-{}-{serial}",
        std::process::id()
    ))
}
