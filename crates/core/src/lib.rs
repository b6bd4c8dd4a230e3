//! The paper's algorithms: linear-size skeletons and Fibonacci spanners.
//!
//! This crate implements the two constructions of Pettie, *Distributed
//! algorithms for ultrasparse spanners and linear size skeletons* (PODC
//! 2008):
//!
//! * [`skeleton`] — Sect. 2: an O(2^{log* n} log n)-spanner with size
//!   Dn/e + O(n log D), built by the `Expand` clustering procedure with
//!   inter-round contraction; both a centralized reference implementation
//!   and the distributed protocol of Theorem 2 (O(log^ε n)-word messages),
//! * [`fibonacci`] — Sect. 4: Fibonacci spanners, near-linear-size
//!   (α, β)-spanners whose multiplicative distortion improves with distance
//!   in four discrete stages (Theorems 7–8, Corollaries 1–2); both the
//!   centralized construction and the distributed protocol of Sect. 4.4
//!   (O(n^{1/t})-word messages),
//!
//! plus the shared infrastructure:
//!
//! * [`spanner`] — the [`Spanner`] result type and stretch verification,
//! * [`seq`] — the tower sequence (s_i) of Lemma 1 and the round/iteration
//!   schedule of Theorem 2,
//! * [`cluster`] — clusterings, contraction and radius bookkeeping
//!   (Observation 1, Lemmas 2–3),
//! * [`expand`] — the `Expand` procedure of Fig. 2 and the X^t_p edge
//!   contribution recurrence of Lemma 6.
//!
//! # Example
//!
//! ```
//! use spanner_graph::generators;
//! use ultrasparse::skeleton::{SkeletonParams, build_sequential};
//!
//! let g = generators::connected_gnm(400, 3000, 7);
//! let params = SkeletonParams::new(4.0, 0.5).unwrap();
//! let spanner = build_sequential(&g, &params, 99);
//! assert!(spanner.is_spanning(&g));
//! // Linear size: around Dn/e + O(n log D) edges.
//! assert!(spanner.edges.len() < 6 * g.node_count());
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod expand;
pub mod faults;
pub mod fibonacci;
pub mod seq;
pub mod skeleton;
pub mod spanner;

pub use faults::BuildError;
pub use spanner::{Spanner, StretchReport};
