//! Facade crate for the ultrasparse-spanners reproduction of
//! Pettie, *Distributed algorithms for ultrasparse spanners and linear size
//! skeletons* (PODC 2008).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`graph`] — graph substrate (generators, BFS, distances),
//! * [`netsim`] — synchronous message-passing simulator,
//! * [`core`] — the paper's algorithms (linear-size skeletons, Fibonacci
//!   spanners),
//! * [`baselines`] — comparison algorithms from the paper's Fig. 1,
//! * [`lowerbound`] — the Sect. 3 lower-bound gadget and experiments,
//! * [`oracle`] — approximate distance oracles (the conclusion's
//!   application domain),
//! * [`serve`] — the batched distance/routing query server over the
//!   oracle (PROTOCOL.md line protocol, load generator workloads),
//! * [`store`] — versioned on-disk snapshots of graphs and built
//!   spanners plus the log-structured incremental update path
//!   (WAL-buffered edits, dirty-region recluster compaction).
//!
//! # Example
//!
//! ```
//! use ultrasparse_spanners::graph::generators;
//!
//! let g = generators::connected_gnm(200, 600, 1);
//! assert_eq!(g.node_count(), 200);
//! ```

pub use spanner_baselines as baselines;
pub use spanner_graph as graph;
pub use spanner_lowerbound as lowerbound;
pub use spanner_netsim as netsim;
pub use spanner_oracle as oracle;
pub use spanner_serve as serve;
pub use spanner_store as store;
pub use ultrasparse as core;
