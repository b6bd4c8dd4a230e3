//! Wall-clock attribution of a simulated run from outside the simulator.
//!
//! `ClockSink` is a `spanner_netsim::TraceSink` that stamps
//! `Instant::now()` on every trace event. The logical stream says which
//! round or phase an event closes; the stamps say when. A traced driver
//! call splits into:
//!
//! * `setup`: driver entry to the end of the init round (round 0), i.e.
//!   network construction, per-node state and the init sends;
//! * `sparse` / `dense`: rounds 1.. classified by `Round.active` against
//!   n/100, each round running from the previous `Round` record to its own
//!   (the stretch between the last `Round` and `RunEnd` joins the last
//!   round);
//! * `collect`: `RunEnd` to driver return, which is edge collection.
//!
//! The four parts tile the call exactly; a stream missing its init round or
//! its `RunEnd` is reported as incomplete.

use std::time::{Duration, Instant};

use spanner_netsim::{TraceEvent, TraceSink};

/// Wall time of one phase span (e.g. `expand[03]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    pub name: String,
    pub rounds: u32,
    pub sparse_rounds: u32,
    pub messages: u64,
    pub time: Duration,
}

/// Stamps trace events; see the module docs for the accounting.
pub struct ClockSink {
    sparse_below: u64,
    start: Instant,
    init_end: Option<Instant>,
    prev: Option<Instant>,
    run_end: Option<Instant>,
    last_was_sparse: bool,
    rounds: u32,
    sparse_rounds: u32,
    init_messages: u64,
    sparse_messages: u64,
    dense_messages: u64,
    sparse: Duration,
    dense: Duration,
    phases: Vec<PhaseTime>,
    /// Phase that owns the round now executing: the last one entered,
    /// kept until that round's `Round` record even if it exits mid-round.
    round_phase: Option<usize>,
    open_phase: Option<usize>,
    last_phase: Option<usize>,
}

/// The attribution of one traced driver call.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub total: Duration,
    pub setup: Duration,
    pub sparse: Duration,
    pub dense: Duration,
    pub collect: Duration,
    pub rounds: u32,
    pub sparse_rounds: u32,
    pub init_messages: u64,
    pub sparse_messages: u64,
    pub dense_messages: u64,
    pub phases: Vec<PhaseTime>,
}

impl ClockSink {
    /// A sink for an `n`-node run; create it immediately before the driver
    /// call, whose entry it takes as the start.
    pub fn new(n: usize) -> Self {
        ClockSink {
            sparse_below: (n as u64).div_ceil(100),
            start: Instant::now(),
            init_end: None,
            prev: None,
            run_end: None,
            last_was_sparse: false,
            rounds: 0,
            sparse_rounds: 0,
            init_messages: 0,
            sparse_messages: 0,
            dense_messages: 0,
            sparse: Duration::ZERO,
            dense: Duration::ZERO,
            phases: Vec::new(),
            round_phase: None,
            open_phase: None,
            last_phase: None,
        }
    }

    /// Closes the accounting at driver return (`end`).
    pub fn finish(self, end: Instant) -> Result<Breakdown, String> {
        let init_end = self.init_end.ok_or("trace has no init round")?;
        let run_end = self.run_end.ok_or("trace has no RunEnd")?;
        Ok(Breakdown {
            total: end - self.start,
            setup: init_end - self.start,
            sparse: self.sparse,
            dense: self.dense,
            collect: end - run_end,
            rounds: self.rounds,
            sparse_rounds: self.sparse_rounds,
            init_messages: self.init_messages,
            sparse_messages: self.sparse_messages,
            dense_messages: self.dense_messages,
            phases: self.phases,
        })
    }

    fn charge(&mut self, sparse: bool, dt: Duration) {
        if sparse {
            self.sparse += dt;
        } else {
            self.dense += dt;
        }
    }
}

impl TraceSink for ClockSink {
    fn record(&mut self, event: TraceEvent) {
        let now = Instant::now();
        match event {
            TraceEvent::PhaseEnter { name, .. } => {
                let idx = match self.phases.iter().position(|p| p.name == name) {
                    Some(i) => i,
                    None => {
                        self.phases.push(PhaseTime {
                            name,
                            rounds: 0,
                            sparse_rounds: 0,
                            messages: 0,
                            time: Duration::ZERO,
                        });
                        self.phases.len() - 1
                    }
                };
                self.round_phase = Some(idx);
                self.open_phase = Some(idx);
            }
            TraceEvent::PhaseExit { .. } => self.open_phase = None,
            TraceEvent::Round {
                round,
                messages,
                active,
                ..
            } => {
                let Some(prev) = self.prev.replace(now) else {
                    self.init_end = Some(now);
                    self.init_messages = messages;
                    self.round_phase = self.open_phase;
                    return;
                };
                debug_assert!(round > 0, "only the first Round record is the init round");
                let dt = now - prev;
                let sparse = u64::from(active) < self.sparse_below;
                self.charge(sparse, dt);
                self.last_was_sparse = sparse;
                self.rounds += 1;
                if sparse {
                    self.sparse_rounds += 1;
                    self.sparse_messages += messages;
                } else {
                    self.dense_messages += messages;
                }
                if let Some(i) = self.round_phase {
                    let p = &mut self.phases[i];
                    p.rounds += 1;
                    p.sparse_rounds += u32::from(sparse);
                    p.messages += messages;
                    p.time += dt;
                }
                self.last_phase = self.round_phase;
                self.round_phase = self.open_phase;
            }
            TraceEvent::RunEnd { .. } => {
                if let Some(prev) = self.prev {
                    let dt = now - prev;
                    self.charge(self.last_was_sparse, dt);
                    if let Some(i) = self.last_phase {
                        self.phases[i].time += dt;
                    }
                }
                self.run_end = Some(now);
            }
            TraceEvent::Deliver { .. } | TraceEvent::Faults { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use spanner_graph::generators::connected_gnm_csr;
    use ultrasparse::skeleton::{distributed, SkeletonParams};

    use super::*;

    #[test]
    fn layers_tile_the_traced_call_and_rounds_split_into_sparse_and_dense() {
        let n = 1 << 10;
        let csr = Arc::new(connected_gnm_csr(n, 4 * n, 3));
        let params = SkeletonParams::default();
        let outer = Instant::now();
        let mut sink = ClockSink::new(n);
        let spanner = distributed::build_distributed_csr_traced(&csr, &params, 3, &mut sink)
            .expect("skeleton run succeeds");
        let end = Instant::now();
        let outer = end - outer;
        let b = sink.finish(end).expect("complete trace");
        let metrics = spanner.metrics.expect("driver attaches metrics");

        let layers = b.setup + b.sparse + b.dense + b.collect;
        assert_eq!(layers, b.total, "the four layers tile the call");
        let gap = outer.abs_diff(b.total).as_secs_f64();
        assert!(gap <= 0.05 * outer.as_secs_f64(), "gap {gap}s of {outer:?}");

        assert_eq!(b.rounds, metrics.rounds);
        assert!(b.sparse_rounds > 0 && b.sparse_rounds < b.rounds);
        assert_eq!(
            b.init_messages + b.sparse_messages + b.dense_messages,
            metrics.messages
        );

        assert!(!b.phases.is_empty());
        assert!(b.phases.iter().all(|p| p.name.starts_with("expand[")));
        let phase_rounds: u32 = b.phases.iter().map(|p| p.rounds).sum();
        let phase_time: Duration = b.phases.iter().map(|p| p.time).sum();
        assert!(phase_rounds <= b.rounds);
        assert!(phase_time <= b.sparse + b.dense);
    }

    #[test]
    fn incomplete_stream_is_reported() {
        let mut sink = ClockSink::new(10);
        sink.record(TraceEvent::Round {
            round: 0,
            messages: 0,
            words: 0,
            active: 0,
            sizes: Vec::new(),
        });
        assert!(sink.finish(Instant::now()).is_err());
    }
}
