//! Graph substrate for the ultrasparse-spanners reproduction.
//!
//! This crate provides everything the spanner algorithms of
//! Pettie (PODC 2008) need from a graph library, implemented from scratch:
//!
//! * [`CsrAdjacency`]: the one adjacency layout — sorted neighbor runs in
//!   two flat arrays, shared behind an `Arc` by graphs, the netsim
//!   executors and the distance engine,
//! * [`Graph`]: a compact undirected simple graph with stable edge
//!   identifiers: the shared CSR plus an edge-id column parallel to its
//!   targets ([`Graph::csr`], [`Graph::incident`]),
//! * [`EdgeSet`]: a subgraph-as-edge-subset representation used for spanners,
//! * seeded, deterministic random [`generators`],
//! * [`traversal`]: BFS in several flavors (bounded, multi-source, trees),
//! * [`distance`]: exact and sampled distance computations, eccentricities,
//!   diameter, stretch evaluation helpers,
//! * [`girth`] computation and [`components`] (union-find / connectivity),
//! * [`engine`]: the flat-frontier, 64-way bit-parallel distance engine
//!   all verification and experiment code routes through, backed by the
//!   shared adjacency and the [`pool`] worker-team idiom,
//! * [`weighted`]: positively weighted graphs with Dijkstra (for the
//!   weighted Baswana–Sen row of Fig. 1).
//!
//! All randomized functions take explicit `u64` seeds; given equal seeds the
//! output is bit-for-bit reproducible.
//!
//! # Example
//!
//! ```
//! use spanner_graph::{generators, traversal, NodeId};
//!
//! let g = generators::erdos_renyi_gnm(500, 2000, 42);
//! let dist = traversal::bfs_distances(&g, NodeId(0));
//! assert_eq!(dist[0], Some(0));
//! ```

pub mod components;
pub mod csr;
pub mod distance;
pub mod edgeset;
pub mod engine;
pub mod generators;
pub mod girth;
pub mod graph;
pub mod metrics;
pub mod pool;
pub mod traversal;
pub mod weighted;

pub use csr::{CsrAdjacency, CsrEdgeIndex, CsrPartsError, CsrSizeError, LinkedAdjacency};
pub use distance::{verify_stretch, Pairs, StretchBound, StretchViolation};
pub use edgeset::EdgeSet;
pub use engine::{DistanceEngine, Strategy, NO_SOURCE};
pub use graph::{EdgeId, Graph, GraphBuilder, NodeId};
