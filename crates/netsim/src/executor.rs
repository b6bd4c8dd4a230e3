//! One entry point over the executors: an [`Executor`] value picks the
//! simulator, and [`execute`] runs a protocol on it over a shared
//! [`CsrAdjacency`], so a construction driver needs one body whatever the
//! executor. Dispatch is static: each arm calls the concrete executor's
//! `run_traced`, which monomorphizes its round loop on the tracing and
//! fault decisions itself, so an untraced, unfaulted
//! [`Executor::Sequential`] run is the instantiation [`Network::run`] uses.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::SmallRng;
use spanner_graph::NodeId;

use crate::async_exec::{AsyncNetwork, Synchronizer};
use crate::budget::MessageBudget;
use crate::faults::FaultPlan;
use crate::metrics::RunMetrics;
use crate::sync::{Network, Protocol, RunError};
use crate::trace::TraceSink;
use spanner_graph::CsrAdjacency;

/// Which simulator runs a protocol.
///
/// All of them produce the same final states, protocol-level metrics
/// ([`RunMetrics::protocol_only`]) and trace stream for the same topology,
/// seed and protocol (asserted in `tests/executor_parity.rs`).
#[derive(Debug, Clone)]
pub enum Executor {
    /// The round-synchronous executor ([`Network`]) on the calling thread.
    Sequential,
    /// The round-synchronous executor on `threads` workers
    /// ([`Network::with_threads`]); one worker is [`Executor::Sequential`].
    Parallel {
        /// Worker threads; at least one.
        threads: usize,
    },
    /// The event-driven asynchronous executor ([`AsyncNetwork`]): per-link
    /// latencies come from `delays` (see [`FaultPlan::link_latency`]; only
    /// its delay clause and scope are consulted) and `synchronizer`
    /// recovers round semantics.
    Async {
        /// Delay model for message and control traffic.
        delays: FaultPlan,
        /// How round safety is disseminated.
        synchronizer: Synchronizer,
    },
}

/// Runs `factory`-created protocols to quiescence on `executor` over `csr`,
/// streaming trace events into `sink`.
///
/// Returns the final states (or the run error) together with the run's
/// metrics, which on a failed run hold exactly the partial accounting the
/// executor retained.
///
/// `faults` injects crash, drop, duplicate, delay and stutter faults (see
/// [`Network::with_faults`]). A protocol that a fault schedule drives into
/// breaking the model (for instance by sending twice to one neighbor in a
/// round) panics; under a plan the round-synchronous executor contains
/// that panic at every worker count and reports it as
/// [`RunError::Panicked`] with the partial metrics. Without a plan, panics
/// propagate.
///
/// # Panics
///
/// Panics if `faults` is given with [`Executor::Async`]: the asynchronous
/// executor draws only delays from a plan, so the other faults would be
/// silently ignored. Pass delays as the `delays` of [`Executor::Async`]
/// instead. Also panics if `threads == 0` for [`Executor::Parallel`].
#[allow(clippy::too_many_arguments)]
pub fn execute<P, F>(
    executor: &Executor,
    faults: Option<&FaultPlan>,
    csr: &Arc<CsrAdjacency>,
    budget: MessageBudget,
    seed: u64,
    factory: F,
    max_rounds: u32,
    sink: &mut dyn TraceSink,
) -> (Result<Vec<P>, RunError>, RunMetrics)
where
    P: Protocol + Send,
    F: FnMut(NodeId, &mut SmallRng) -> P,
{
    let guarded = faults.is_some();
    let threads = match executor {
        Executor::Sequential => 1,
        Executor::Parallel { threads } => *threads,
        Executor::Async {
            delays,
            synchronizer,
        } => {
            assert!(
                !guarded,
                "the asynchronous executor injects no faults; pass delays via Executor::Async"
            );
            let mut net = AsyncNetwork::from_csr(Arc::clone(csr), budget, seed)
                .with_delays(delays.clone())
                .with_synchronizer(synchronizer.clone());
            let states = net.run_traced(factory, max_rounds, sink);
            return (states, net.metrics());
        }
    };
    let mut net = Network::from_csr(Arc::clone(csr), budget, seed).with_threads(threads);
    if let Some(plan) = faults {
        net = net.with_faults(plan.clone());
    }
    let states = contain(guarded, || net.run_traced(factory, max_rounds, sink));
    (states, net.metrics())
}

/// Runs `run`; if `guarded`, turns a panic into [`RunError::Panicked`].
fn contain<P>(
    guarded: bool,
    run: impl FnOnce() -> Result<Vec<P>, RunError>,
) -> Result<Vec<P>, RunError> {
    if !guarded {
        return run();
    }
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|payload| Err(RunError::Panicked(panic_reason(&*payload))))
}

/// The message of a panic payload.
fn panic_reason(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Ctx;
    use crate::trace::NullSink;
    use spanner_graph::generators;
    use std::panic::resume_unwind;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Broadcasts once, then breaks the model on hearing back by sending
    /// twice to one neighbor.
    struct DoubleSend;

    impl Protocol for DoubleSend {
        type Msg = u64;
        fn init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(1);
        }
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, u64)]) {
            if !inbox.is_empty() {
                let to = ctx.neighbors()[0];
                ctx.send(to, 2);
                ctx.send(to, 3);
            }
        }
    }

    /// Runs [`DoubleSend`] on a 6-cycle.
    fn run_double_send(
        executor: &Executor,
        faults: Option<&FaultPlan>,
    ) -> (Result<Vec<DoubleSend>, RunError>, RunMetrics) {
        let csr = generators::cycle(6).csr().clone();
        let factory = |_, _: &mut _| DoubleSend;
        execute(
            executor,
            faults,
            &csr,
            MessageBudget::CONGEST,
            1,
            factory,
            8,
            &mut NullSink,
        )
    }

    /// The round-synchronous executors, at one worker and on a pool.
    fn round_executors() -> [Executor; 3] {
        [
            Executor::Sequential,
            Executor::Parallel { threads: 1 },
            Executor::Parallel { threads: 2 },
        ]
    }

    /// [`run_double_send`] on a watchdog thread, so that a run that never
    /// returns fails the test instead of hanging it. `Err` carries the
    /// payload of a panic that reached the caller.
    fn watched(
        executor: &Executor,
        faults: Option<FaultPlan>,
    ) -> std::thread::Result<(Result<Vec<DoubleSend>, RunError>, RunMetrics)> {
        let (tx, rx) = mpsc::channel();
        let run = executor.clone();
        std::thread::spawn(move || {
            let outcome = catch_unwind(|| run_double_send(&run, faults.as_ref()));
            let _ = tx.send(outcome);
        });
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{executor:?} did not return within 60 s"))
    }

    #[test]
    fn faulted_panic_is_typed_with_partial_metrics() {
        for executor in round_executors() {
            let (states, metrics) = watched(&executor, Some(FaultPlan::new(1)))
                .unwrap_or_else(|_| panic!("{executor:?}: the panic escaped the plan"));
            let Err(RunError::Panicked(reason)) = states else {
                panic!("{executor:?}: expected a contained panic");
            };
            assert!(reason.contains("two messages"), "{executor:?}: {reason}");
            assert_eq!(
                metrics.messages, 12,
                "{executor:?}: the init broadcast is accounted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn unfaulted_panic_propagates() {
        let mut last = None;
        for executor in round_executors() {
            let payload = watched(&executor, None)
                .err()
                .unwrap_or_else(|| panic!("{executor:?}: expected the panic to propagate"));
            let reason = panic_reason(&*payload);
            assert!(reason.contains("two messages"), "{executor:?}: {reason}");
            last = Some(payload);
        }
        resume_unwind(last.expect("at least one executor"));
    }

    #[test]
    #[should_panic(expected = "injects no faults")]
    fn fault_plan_on_async_is_rejected() {
        let executor = Executor::Async {
            delays: FaultPlan::default(),
            synchronizer: Synchronizer::Alpha,
        };
        let _ = run_double_send(&executor, Some(&FaultPlan::new(1).with_drops(0.5)));
    }
}
