//! spanner-serve — a batched distance/routing query server over the
//! Thorup–Zwick oracle.
//!
//! The paper's conclusion points at distance oracles and compact routing
//! as the application domain of spanners; `spanner-oracle` builds those
//! structures once, and this crate turns them into a *serving* story: a
//! front end that answers millions of point queries over a structure
//! built once. Concretely:
//!
//! * a **line-oriented textual protocol** (`DIST`, `ROUTE`, `STATS`,
//!   `LOAD`, `BATCH`, …) fully specified in `PROTOCOL.md` at the repo
//!   root — every transcript in that document is replayed byte-for-byte
//!   by `tests/protocol_conformance.rs`, so the spec cannot rot;
//! * **batched execution** fanned over the shared worker-pool idiom
//!   (`spanner_graph::pool`), with responses *and* counters
//!   byte-identical at every thread count ([`server`] module docs);
//! * a bounded **LRU result cache** keyed on (landmark bucket, endpoint)
//!   pairs — the part of a k = 2 oracle query that is a pure function of
//!   a small key shared by many sources ([`cache`]);
//! * deterministic **mixed workloads** (Zipf + uniform) for the
//!   `serve_loadgen` benchmark driver ([`workload`]).
//!
//! # Example
//!
//! ```
//! use spanner_serve::{ServeConfig, Server, Session};
//!
//! let mut session = Session::new(Server::new(ServeConfig::default()));
//! let out = session.handle_script("LOAD path:n=4\nDIST 0 3\nQUIT\n");
//! assert_eq!(out, "OK n=4 m=3 k=2 landmarks=-\nOK 3\nOK BYE\n");
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod protocol;
pub mod server;
pub mod workload;

pub use protocol::{Command, GraphSpec, LoadRequest, WireError, MAX_LINE};
pub use server::{serve_listener, QueryReq, ServeConfig, ServeStats, Server, Session};
