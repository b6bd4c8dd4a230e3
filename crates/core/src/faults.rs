//! Typed outcomes for fault-injected distributed builds.
//!
//! The `*_faulted` drivers (e.g.
//! [`skeleton::distributed::build_distributed_faulted`](crate::skeleton::distributed::build_distributed_faulted))
//! run a construction's one driver body on the sequential executor with a
//! [`FaultPlan`](spanner_netsim::FaultPlan) attached, through
//! [`execute`](spanner_netsim::execute), which returns the run's metrics
//! on every path. They take the host [`Graph`] because the output is
//! certified against it, and they promise exactly one of two outcomes,
//! never a panic and never a silently wrong spanner:
//!
//! * `Ok(spanner)` — the surviving output was *certified*: it spans the
//!   host graph and passes the construction's exact stretch check
//!   (re-verified against the fault-free graph, not trusted from the run);
//! * `Err(FaultError)` — a typed error that retains the partial
//!   [`RunMetrics`] accumulated before the failure, including the fault
//!   counters.
//!
//! Protocol-level panics provoked by a hostile schedule are contained by
//! the executor ([`RunError::Panicked`]) and surface here as
//! [`FaultError::Uncertified`], with the metrics of the rounds that ran.

use spanner_graph::Graph;
use spanner_netsim::{RunError, RunMetrics};

use crate::Spanner;

/// Why a fault-injected distributed build produced no certified spanner.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The simulated run itself failed (round limit or budget violation).
    Run {
        /// The simulator error.
        error: RunError,
        /// Metrics accumulated up to the failure, fault counters included.
        metrics: RunMetrics,
    },
    /// The run finished (or was contained after a panic) but the output
    /// could not be certified correct.
    Uncertified {
        /// Human-readable certification failure.
        reason: String,
        /// Metrics of the uncertified run.
        metrics: RunMetrics,
    },
}

impl FaultError {
    /// The partial metrics retained from the failed run.
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            FaultError::Run { metrics, .. } | FaultError::Uncertified { metrics, .. } => metrics,
        }
    }
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Run { error, .. } => write!(f, "faulted run failed: {error}"),
            FaultError::Uncertified { reason, .. } => {
                write!(f, "output not certified: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Certifies the outcome of a fault-injected build — the harness behind
/// every `build_distributed_faulted` driver (spanner constructions outside
/// this crate use it for theirs too).
///
/// `built` is the collected spanner (or the run error) together with the
/// run's metrics, as [`execute`](spanner_netsim::execute) returns them on
/// every path; a protocol panic contained by the executor
/// ([`RunError::Panicked`]) is reported as uncertified.
///
/// # Errors
///
/// [`FaultError::Run`] for simulator errors; [`FaultError::Uncertified`]
/// for contained panics, non-spanning output, or a failed `check`.
// The error intentionally carries the run's full `RunMetrics` for
// post-mortem accounting; callers match on it, so it is not boxed.
#[allow(clippy::result_large_err)]
pub fn build_certified<C>(
    g: &Graph,
    built: (Result<Spanner, RunError>, RunMetrics),
    check: C,
) -> Result<Spanner, FaultError>
where
    C: FnOnce(&Spanner) -> Result<(), String>,
{
    let (spanner, metrics) = match built {
        (Ok(spanner), metrics) => (spanner, metrics),
        (Err(RunError::Panicked(reason)), metrics) => {
            return Err(FaultError::Uncertified {
                reason: format!("protocol panicked under faults: {reason}"),
                metrics,
            })
        }
        (Err(error), metrics) => return Err(FaultError::Run { error, metrics }),
    };
    if !spanner.is_spanning(g) {
        return Err(FaultError::Uncertified {
            reason: "output does not span the graph".to_owned(),
            metrics,
        });
    }
    if let Err(reason) = check(&spanner) {
        return Err(FaultError::Uncertified { reason, metrics });
    }
    Ok(spanner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::{generators, EdgeSet};

    fn tiny() -> Graph {
        generators::cycle(4)
    }

    #[test]
    fn certifies_good_output() {
        let g = tiny();
        let s = build_certified(
            &g,
            (
                Ok(Spanner::from_edges(EdgeSet::full(&g))),
                RunMetrics::default(),
            ),
            |_| Ok(()),
        )
        .unwrap();
        assert!(s.is_spanning(&g));
    }

    #[test]
    fn maps_run_errors_with_metrics() {
        let g = tiny();
        let m = RunMetrics {
            messages: 7,
            ..Default::default()
        };
        let err = build_certified(&g, (Err(RunError::RoundLimit { max_rounds: 3 }), m), |_| {
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, FaultError::Run { .. }));
        assert_eq!(err.metrics().messages, 7);
    }

    #[test]
    fn rejects_non_spanning_output() {
        let g = tiny();
        let err = build_certified(
            &g,
            (
                Ok(Spanner::from_edges(EdgeSet::new(&g))),
                RunMetrics::default(),
            ),
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, FaultError::Uncertified { .. }));
        assert!(err.to_string().contains("span"));
    }

    #[test]
    fn contains_panics() {
        let g = tiny();
        let m = RunMetrics {
            rounds: 2,
            ..Default::default()
        };
        let panicked = RunError::Panicked("scrambled invariant".to_owned());
        let err = build_certified(&g, (Err(panicked), m), |_| Ok(())).unwrap_err();
        assert_eq!(err.metrics().rounds, 2);
        match err {
            FaultError::Uncertified { reason, .. } => {
                assert!(reason.contains("scrambled invariant"), "{reason}");
            }
            other => panic!("expected Uncertified, got {other:?}"),
        }
    }

    #[test]
    fn rejects_failed_certification() {
        let g = tiny();
        let err = build_certified(
            &g,
            (
                Ok(Spanner::from_edges(EdgeSet::full(&g))),
                RunMetrics::default(),
            ),
            |_| Err("stretch blown".to_owned()),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "output not certified: stretch blown".to_owned()
        );
    }
}
