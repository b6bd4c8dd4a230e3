//! Typed outcomes of the distributed drivers, and the certification of
//! fault-injected runs.
//!
//! Each distributed construction has one driver,
//! `build_distributed(csr, params, seed, executor, faults, sink)` (e.g.
//! [`skeleton::distributed::build_distributed`](crate::skeleton::distributed::build_distributed)),
//! which runs the protocol through [`execute`](spanner_netsim::execute)
//! and gets the run's metrics back on every path. The paper proves its
//! bounds for a fault-free synchronous network, so only a run under a
//! [`FaultPlan`] has its output re-checked, by [`certify`]:
//!
//! * with no plan nothing is checked and no [`Graph`] is built: the
//!   driver returns the collected spanner, or [`BuildError::Run`] when the
//!   simulator fails;
//! * with a plan the driver promises exactly one of two outcomes, never a
//!   panic and never a silently wrong spanner:
//!   * `Ok(spanner)` — the surviving output was *certified*: it spans the
//!     host graph (rebuilt from the CSR with [`Graph::from_csr`]) and
//!     passes the construction's exact bound check, re-verified against
//!     the fault-free graph rather than trusted from the run;
//!   * `Err(BuildError)` — a typed error that retains the partial
//!     [`RunMetrics`] accumulated before the failure, including the fault
//!     counters.
//!
//! Protocol-level panics provoked by a hostile schedule are contained by
//! the executor ([`RunError::Panicked`]) and surface here as
//! [`BuildError::Uncertified`], with the metrics of the rounds that ran.

use std::sync::Arc;

use spanner_graph::{CsrAdjacency, Graph};
use spanner_netsim::{FaultPlan, RunError, RunMetrics};

use crate::Spanner;

/// Why a distributed build produced no (certified) spanner.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The simulated run itself failed (round limit or budget violation).
    Run {
        /// The simulator error.
        error: RunError,
        /// Metrics accumulated up to the failure, fault counters included.
        metrics: Box<RunMetrics>,
    },
    /// The faulted run finished (or was contained after a panic) but the
    /// output could not be certified correct.
    Uncertified {
        /// Human-readable certification failure.
        reason: String,
        /// Metrics of the uncertified run.
        metrics: Box<RunMetrics>,
    },
}

impl BuildError {
    /// The partial metrics retained from the failed run.
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            BuildError::Run { metrics, .. } | BuildError::Uncertified { metrics, .. } => metrics,
        }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Run { error, .. } => write!(f, "faulted run failed: {error}"),
            BuildError::Uncertified { reason, .. } => {
                write!(f, "output not certified: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The outcome of a distributed build over `csr` — the one step behind
/// every `build_distributed` driver (spanner constructions outside this
/// crate use it for theirs too).
///
/// `built` is the collected spanner (or the run error) together with the
/// run's metrics, as [`execute`](spanner_netsim::execute) returns them on
/// every path. Without `faults` the spanner is returned unchecked. Under a
/// plan it must span the host graph and pass `check`, which receives that
/// graph; a protocol panic contained by the executor
/// ([`RunError::Panicked`]) is reported as uncertified.
///
/// # Errors
///
/// [`BuildError::Run`] for simulator errors; [`BuildError::Uncertified`]
/// for contained panics and, under a plan, non-spanning output or a
/// failed `check`.
pub fn certify<C>(
    csr: &Arc<CsrAdjacency>,
    faults: Option<&FaultPlan>,
    built: (Result<Spanner, RunError>, RunMetrics),
    check: C,
) -> Result<Spanner, BuildError>
where
    C: FnOnce(&Graph, &Spanner) -> Result<(), String>,
{
    let (spanner, metrics) = built;
    let uncertified = |reason| BuildError::Uncertified {
        reason,
        metrics: Box::new(metrics),
    };
    let spanner = match spanner {
        Ok(spanner) => spanner,
        Err(RunError::Panicked(reason)) => {
            return Err(uncertified(format!(
                "protocol panicked under faults: {reason}"
            )))
        }
        Err(error) => {
            return Err(BuildError::Run {
                error,
                metrics: Box::new(metrics),
            })
        }
    };
    if faults.is_none() {
        return Ok(spanner);
    }
    let g = Graph::from_csr(Arc::clone(csr));
    if !spanner.is_spanning(&g) {
        return Err(uncertified("output does not span the graph".to_owned()));
    }
    check(&g, &spanner).map_err(uncertified)?;
    Ok(spanner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::{generators, EdgeSet};

    fn tiny() -> Graph {
        generators::cycle(4)
    }

    fn plan() -> FaultPlan {
        FaultPlan::new(1)
    }

    #[test]
    fn certifies_good_output() {
        let g = tiny();
        let built = (
            Ok(Spanner::from_edges(EdgeSet::full(&g))),
            RunMetrics::default(),
        );
        let s = certify(g.csr(), Some(&plan()), built, |_, _| Ok(())).unwrap();
        assert!(s.is_spanning(&g));
    }

    #[test]
    fn maps_run_errors_with_metrics() {
        let g = tiny();
        let m = RunMetrics {
            messages: 7,
            ..Default::default()
        };
        for faults in [None, Some(&plan())] {
            let built = (Err(RunError::RoundLimit { max_rounds: 3 }), m);
            let err = certify(g.csr(), faults, built, |_, _| Ok(())).unwrap_err();
            assert!(matches!(err, BuildError::Run { .. }));
            assert_eq!(err.metrics().messages, 7);
        }
    }

    #[test]
    fn rejects_non_spanning_output() {
        let g = tiny();
        let built = (
            Ok(Spanner::from_edges(EdgeSet::new(&g))),
            RunMetrics::default(),
        );
        let err = certify(g.csr(), Some(&plan()), built, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, BuildError::Uncertified { .. }));
        assert!(err.to_string().contains("span"));
    }

    #[test]
    fn unfaulted_output_is_not_checked() {
        let g = tiny();
        let built = (
            Ok(Spanner::from_edges(EdgeSet::new(&g))),
            RunMetrics::default(),
        );
        let s = certify(g.csr(), None, built, |_, _| {
            panic!("no check without faults")
        });
        assert!(s.unwrap().is_empty());
    }

    #[test]
    fn contains_panics() {
        let g = tiny();
        let m = RunMetrics {
            rounds: 2,
            ..Default::default()
        };
        let panicked = RunError::Panicked("scrambled invariant".to_owned());
        let err = certify(g.csr(), Some(&plan()), (Err(panicked), m), |_, _| Ok(())).unwrap_err();
        assert_eq!(err.metrics().rounds, 2);
        match err {
            BuildError::Uncertified { reason, .. } => {
                assert!(reason.contains("scrambled invariant"), "{reason}");
            }
            other => panic!("expected Uncertified, got {other:?}"),
        }
    }

    #[test]
    fn rejects_failed_certification() {
        let g = tiny();
        let built = (
            Ok(Spanner::from_edges(EdgeSet::full(&g))),
            RunMetrics::default(),
        );
        let err = certify(g.csr(), Some(&plan()), built, |_, _| {
            Err("stretch blown".to_owned())
        })
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "output not certified: stretch blown".to_owned()
        );
    }
}
