//! Shared threading idiom: barrier-parked worker pools and one split.
//!
//! The netsim parallel executor established the pattern — spawn a scoped
//! worker pool **once**, park the workers on a pair of round barriers, and
//! release them with a stop flag when the run ends — so the steady-state
//! loop never spawns threads. [`RoundGate`] is that barrier pair + stop
//! flag. One-shot parallel regions all go through [`for_each_region`],
//! the single way a `&mut` output is split across workers: the distance
//! engine's batched rows and eccentricities, the stretch pair walk, and
//! serve's batch phases. [`run_workers`] is its plain fork-join form for
//! work whose only output is shared.
//!
//! Determinism note: no helper imposes an ordering by itself — callers
//! keep results thread-count-independent by writing only to the disjoint
//! region [`for_each_region`] hands each worker, a pure function of the
//! worker index.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// The round-synchronization core of a persistent barrier-parked pool:
/// a start barrier, a finish barrier, and a stop flag.
///
/// Workers loop `while gate.worker_begin() { work(); gate.worker_end(); }`;
/// the coordinator brackets each round with [`RoundGate::open`] /
/// [`RoundGate::close`] and ends the run with [`RoundGate::shutdown`].
#[derive(Debug)]
pub struct RoundGate {
    start: Barrier,
    finish: Barrier,
    stop: AtomicBool,
}

impl RoundGate {
    /// A gate synchronizing `workers` worker threads with one coordinator.
    pub fn new(workers: usize) -> Self {
        RoundGate {
            start: Barrier::new(workers + 1),
            finish: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
        }
    }

    /// Worker side: park until the coordinator opens the next round.
    /// Returns `false` when the run is over and the worker should exit.
    pub fn worker_begin(&self) -> bool {
        self.start.wait();
        !self.stop.load(Ordering::Acquire)
    }

    /// Worker side: signal that this worker finished the current round.
    pub fn worker_end(&self) {
        self.finish.wait();
    }

    /// Coordinator side: release the workers into the next round.
    pub fn open(&self) {
        self.start.wait();
    }

    /// Coordinator side: wait for every worker to finish the round.
    pub fn close(&self) {
        self.finish.wait();
    }

    /// Coordinator side: raise the stop flag and release the parked
    /// workers so they observe it and exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.start.wait();
    }
}

/// Splits `items` into units of `unit` elements (the last may be
/// shorter), deals the units out as `states.len()` contiguous regions by
/// [`chunk_range`], and runs `work(first_unit, region, state)` once per
/// region on scoped threads, each region with its own state.
///
/// Fewer units than states leaves the surplus states unused. A single
/// region runs inline on the caller's thread: no allocation, lock or
/// spawn. Region `w` always covers the same units for a given
/// `(items.len(), unit, states.len())`, so output written only through
/// `region` is independent of scheduling.
///
/// # Panics
///
/// Panics if `unit == 0` or `states` is empty while `items` is not, and
/// re-raises a panic from any region.
pub fn for_each_region<T, S, F>(items: &mut [T], unit: usize, states: &mut [S], work: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    if items.is_empty() {
        return;
    }
    assert!(unit > 0, "units must hold at least one element");
    let units = items.len().div_ceil(unit);
    let t = states.len().min(units);
    assert!(t >= 1, "need at least one worker state");
    if t == 1 {
        work(0, items, &mut states[0]);
        return;
    }
    std::thread::scope(|scope| {
        let work = &work;
        let mut rest = items;
        for (w, state) in states[..t].iter_mut().enumerate() {
            let r = chunk_range(units, t, w);
            let take = (r.len() * unit).min(rest.len());
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            if w + 1 == t {
                work(r.start, region, state);
            } else {
                scope.spawn(move || work(r.start, region, state));
            }
        }
    });
}

/// One-shot fork-join: runs `work(w)` for every worker index `w` in
/// `0..threads` on scoped threads, returning when all are done — the
/// shape for work whose only output is shared (girth's pruning bound);
/// work that writes a `&mut` output takes [`for_each_region`].
///
/// `threads <= 1` runs inline with no spawn at all, so single-threaded
/// callers pay nothing. The closure decides what worker `w` does — for
/// deterministic results it should never leave shared state whose final
/// value depends on timing.
pub fn run_workers<F>(threads: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    let t = threads.max(1);
    for_each_region(&mut vec![(); t], 1, &mut vec![(); t], |w, _, _| work(w));
}

/// Splits `0..len` into `parts` contiguous chunks as evenly as possible;
/// returns the half-open range of chunk `i`.
///
/// The first `len % parts` chunks get one extra element, so the split — and
/// therefore any per-chunk output — is a pure function of `(len, parts, i)`
/// regardless of which thread processes which chunk.
pub fn chunk_range(len: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(parts >= 1 && i < parts);
    let base = len / parts;
    let extra = len % parts;
    let lo = i * base + i.min(extra);
    let hi = lo + base + usize::from(i < extra);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_workers_covers_all_indices() {
        for threads in [1usize, 2, 5] {
            let hits = AtomicUsize::new(0);
            run_workers(threads, |w| {
                assert!(w < threads);
                hits.fetch_add(1 << (4 * w), Ordering::Relaxed);
            });
            let expect: usize = (0..threads).map(|w| 1usize << (4 * w)).sum();
            assert_eq!(hits.load(Ordering::Relaxed), expect);
        }
    }

    #[test]
    fn for_each_region_writes_each_unit_once() {
        // 10 elements in units of 3: units [0,3) [3,6) [6,9) [9,10).
        for workers in [1usize, 2, 3, 8] {
            let mut items = vec![usize::MAX; 10];
            let mut states = vec![0usize; workers];
            for_each_region(&mut items, 3, &mut states, |first, region, calls| {
                *calls += 1;
                for (i, x) in region.iter_mut().enumerate() {
                    *x = first * 3 + i;
                }
            });
            assert_eq!(items, (0..10).collect::<Vec<_>>(), "workers={workers}");
            let used = workers.min(4);
            assert!(states[..used].iter().all(|&c| c == 1));
            assert!(states[used..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn for_each_region_single_region_runs_inline() {
        let caller = std::thread::current().id();
        let mut items = [1u8; 5];
        for_each_region(&mut items, 8, &mut [(), ()], |first, region, _| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!((first, region.len()), (0, 5));
        });
        for_each_region(&mut [] as &mut [u8], 1, &mut [] as &mut [()], |_, _, _| {
            unreachable!("no units, no regions")
        });
    }

    #[test]
    fn chunk_ranges_partition() {
        for len in [0usize, 1, 7, 64, 65, 100] {
            for parts in [1usize, 2, 3, 8] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for i in 0..parts {
                    let r = chunk_range(len, parts, i);
                    assert_eq!(r.start, prev_end, "len={len} parts={parts} i={i}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn round_gate_runs_rounds_and_shuts_down() {
        let workers = 3usize;
        let gate = RoundGate::new(workers);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (gate, counter) = (&gate, &counter);
                scope.spawn(move || {
                    while gate.worker_begin() {
                        counter.fetch_add(1, Ordering::Relaxed);
                        gate.worker_end();
                    }
                });
            }
            for round in 1..=4usize {
                gate.open();
                gate.close();
                assert_eq!(counter.load(Ordering::Relaxed), round * workers);
            }
            gate.shutdown();
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * workers);
    }
}
