//! Synchronous message-passing network simulator.
//!
//! This crate implements the computational model of Pettie (PODC 2008),
//! Sect. 1.1: *"The graph for which we want a sparse spanner is identical to
//! the underlying communications network … The computation proceeds in
//! synchronized time steps in which each processor can communicate one
//! message to each neighbor in the graph. Any local computation performed is
//! free."* Algorithms are separated *"by their maximum message length,
//! measured in units of O(log n) bits"*.
//!
//! Accordingly:
//!
//! * a node is a [`Protocol`] state machine; each round it receives the
//!   messages sent to it in the previous round and may send one message per
//!   neighbor,
//! * message length is measured in **words** (one word = one O(log n)-bit
//!   quantity, e.g. a node id or a small integer) via [`MessageSize`],
//! * the [`Network`] runner enforces a [`MessageBudget`] and records
//!   [`RunMetrics`]: rounds, messages, total words, maximum message length —
//!   exactly the costs the paper's theorems bound,
//! * local computation is free (not measured), matching the model,
//! * randomness is deterministic: each node derives its own RNG from the
//!   master seed, so runs are reproducible bit-for-bit.
//!
//! The [`sync`] module provides the runner, which steps the rounds on the
//! calling thread or on a pool of workers ([`Network::with_threads`]) with
//! byte-identical results; [`async_exec`] runs the same protocols on
//! links with latency, and [`execute`] picks either through one
//! [`Executor`] value. [`patterns`] provides reusable protocol building
//! blocks used by the constructions in the paper (radius-bounded flooding,
//! convergecast, pipelined aggregation).
//!
//! # Example
//!
//! ```
//! use spanner_graph::generators;
//! use spanner_netsim::{patterns::FloodProtocol, MessageBudget, Network};
//!
//! let g = generators::cycle(16);
//! let mut net = Network::from_csr(g.csr().clone(), MessageBudget::Unbounded, 42);
//! let states = net.run(
//!     |v, _| FloodProtocol::new(v.0 == 0, 8),
//!     64,
//! ).expect("flood terminates");
//! // After flooding radius 8 on a 16-cycle, everyone is reached.
//! assert!(states.iter().all(|s| s.reached()));
//! ```

#![warn(missing_docs)]

pub mod async_exec;
pub mod budget;
mod calendar;
pub mod executor;
pub mod faults;
pub mod metrics;
pub mod patterns;
pub mod rng;
mod route;
pub mod sync;
pub mod trace;

pub use async_exec::{AsyncNetwork, Synchronizer};
pub use budget::{BudgetViolation, MessageBudget};
pub use executor::{execute, Executor};
pub use faults::{FaultCounters, FaultPlan, MsgFate};
pub use metrics::RunMetrics;
pub use sync::{Ctx, MessageSize, Network, Protocol, RunError};
pub use trace::{
    size_bucket, JsonLinesSink, NullSink, PhaseCost, PhaseMark, ScheduledSink, TraceEvent,
    TraceSink, TraceSummary, SIZE_BUCKETS,
};
