//! Deterministic scoped parallel runtime.
//!
//! The evaluation harness is embarrassingly parallel — per-example metric
//! rows, per-variant test-suite executions, per-example dataset synthesis —
//! but reproduction harnesses live or die on replayability, so parallelism
//! here comes with a *determinism contract*:
//!
//! 1. **Order-stable reduction.** [`par_map`] returns results in item-index
//!    order no matter which worker computed which item, so folds over the
//!    output (including float summation) associate exactly as the
//!    sequential loop would.
//! 2. **Pre-forked randomness.** Callers fork one child [`crate::Prng`] per
//!    item *sequentially* (cheap: a few u64 ops each) before fanning out,
//!    so the stream each item sees is independent of scheduling.
//! 3. **Sequential oracle.** `NLI_THREADS=1` (or [`with_threads`]`(1, ..)`)
//!    runs the plain sequential loop on the calling thread; every migrated
//!    path is tested byte-identical against it.
//!
//! The pool itself is a small scoped work-stealing scheduler: items are
//! dealt to per-worker deques in contiguous blocks (cache locality),
//! workers drain their own deque from the front and steal from the back of
//! their neighbours' when empty. `std::thread::scope` keeps everything
//! borrow-friendly — no `'static` bounds, no channels, no external deps.
//!
//! Worker count comes from the `NLI_THREADS` environment variable, falling
//! back to the machine's available parallelism (capped at 8 so test runs
//! don't oversubscribe CI boxes); [`with_threads`] overrides it lexically
//! for the current thread, which nested `par_map` calls on that thread
//! observe. A `par_map` issued from *inside* a worker runs sequentially on
//! that worker — the outermost fan-out owns the hardware — so parallelize
//! the outermost loop and let inner layers inherit.

use crate::obs;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Upper bound on workers regardless of configuration; far above any win
/// for these workloads, it only guards against `NLI_THREADS=100000`.
const MAX_THREADS: usize = 64;

/// Cached handles into the global registry so the hot path pays a few
/// relaxed atomic adds per *fan-out* (never per item), not a registry
/// lookup. See DESIGN.md §3.3 for the metric names.
struct ParObs {
    /// Deterministic: parallel fan-outs issued (sequential fallbacks are
    /// not counted — at `NLI_THREADS=1` this stays 0).
    fanouts: obs::Counter,
    /// Deterministic: items dispatched across all fan-outs.
    items: obs::Counter,
    /// Deterministic: worker count of the most recent fan-out.
    workers: obs::Gauge,
    /// Scheduling: successful steals, summed over workers.
    steals: obs::Counter,
    /// Scheduling: times a worker drained its own deque and switched to
    /// scanning its neighbours'.
    idle_transitions: obs::Counter,
}

fn par_obs() -> &'static ParObs {
    static OBS: OnceLock<ParObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = obs::global();
        ParObs {
            fanouts: r.counter("par.fanouts"),
            items: r.counter("par.items"),
            workers: r.gauge("par.workers"),
            steals: r.scheduling_counter("par.steals"),
            idle_transitions: r.scheduling_counter("par.idle_transitions"),
        }
    })
}

/// One worker's results plus its scheduling tallies, recorded into the
/// registry after the join (observation only — the reduction below never
/// reads them).
struct WorkerPart<R> {
    results: Vec<(usize, R)>,
    steals: u64,
    idle_transitions: u64,
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count [`par_map`] will use on this thread: the innermost
/// [`with_threads`] override if one is active, else `NLI_THREADS`, else
/// available parallelism capped at 8.
pub fn thread_count() -> usize {
    if let Some(n) = OVERRIDE.with(|c| c.get()) {
        return n;
    }
    match std::env::var("NLI_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Run `f` with [`thread_count`] pinned to `threads` on the current thread
/// (nests; restores the previous value on exit, including unwinds). This is
/// how tests hold the parallel harness against its sequential oracle
/// without touching process-global environment state.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(threads.clamp(1, MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

/// Map `f` over `items` on the configured number of workers, returning
/// results in item order. `f` receives `(index, &item)`; with one worker
/// (or one item) this is exactly the sequential loop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (ignores the configuration).
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1)).min(MAX_THREADS);
    // Every item starts a fresh trace tree, inline or on a worker, so
    // tree shapes do not depend on the worker count.
    let f = |i: usize, t: &T| obs::detach_trace(|| f(i, t));
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Deal contiguous index blocks to per-worker deques. Workers pop their
    // own block front-to-back (locality) and steal from the *back* of a
    // victim's deque, so a thief takes the work its owner would reach last.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w * n / threads..(w + 1) * n / threads).collect()))
        .collect();

    let queues = &queues;
    let f = &f;
    let parts: Vec<WorkerPart<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    // Nested par_map calls made from inside an item run
                    // sequentially on this worker: the outer fan-out
                    // already owns the hardware, and recursive pools would
                    // oversubscribe it without changing any result.
                    with_threads(1, || {
                        let mut part = WorkerPart {
                            results: Vec::with_capacity(n / threads + 1),
                            steals: 0,
                            idle_transitions: 0,
                        };
                        loop {
                            // The guard must drop before stealing: holding
                            // our own queue's lock while locking a victim's
                            // deadlocks the moment two idle workers steal
                            // from each other.
                            let own = queues[w].lock().pop_front();
                            if own.is_none() {
                                part.idle_transitions += 1;
                            }
                            let stolen = own.is_none();
                            match own.or_else(|| steal(queues, w)) {
                                Some(i) => {
                                    if stolen {
                                        part.steals += 1;
                                    }
                                    part.results.push((i, f(i, &items[i])));
                                }
                                // No queue had work at scan time, and work
                                // is never re-enqueued, so this worker is
                                // done.
                                None => break,
                            }
                        }
                        part
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    // Record pool telemetry once per fan-out, after the join — observation
    // only, nothing below reads it (see the obs module's determinism
    // contract).
    let o = par_obs();
    o.fanouts.inc();
    o.items.add(n as u64);
    o.workers.set(threads as u64);
    let registry = obs::global();
    for (w, part) in parts.iter().enumerate() {
        o.steals.add(part.steals);
        o.idle_transitions.add(part.idle_transitions);
        registry
            .scheduling_counter(&format!("par.worker.{w}.tasks"))
            .add(part.results.len() as u64);
        registry
            .scheduling_counter(&format!("par.worker.{w}.steals"))
            .add(part.steals);
    }

    // Order-stable reduction: place every (index, result) into its slot.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for part in parts {
        for (i, r) in part.results {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("par_map: every index is processed exactly once"))
        .collect()
}

fn steal(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    let t = queues.len();
    (1..t).find_map(|d| queues[(me + d) % t].lock().pop_back())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_item_order_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = par_map_threads(threads, &items, |_, x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        par_map_threads(8, &items, |i, _| counts[i].fetch_add(1, Ordering::SeqCst));
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(4, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map_threads(4, &[7u32], |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn uneven_splits_cover_all_items() {
        // n not divisible by threads; n < threads; n == threads
        for (n, threads) in [(10, 3), (3, 8), (8, 8), (65, 64)] {
            let items: Vec<usize> = (0..n).collect();
            let got = par_map_threads(threads, &items, |i, _| i);
            assert_eq!(got, items, "n={n} threads={threads}");
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        with_threads(3, || {
            assert_eq!(thread_count(), 3);
            with_threads(1, || assert_eq!(thread_count(), 1));
            assert_eq!(thread_count(), 3);
        });
    }

    #[test]
    fn with_threads_restores_on_panic() {
        with_threads(5, || {
            let r = std::panic::catch_unwind(|| with_threads(2, || panic!("boom")));
            assert!(r.is_err());
            assert_eq!(thread_count(), 5);
        });
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        // The classic nondeterminism trap: float sums depend on association
        // order. Order-stable reduction makes them identical.
        let items: Vec<f64> = (0..1023).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let fold = |threads| {
            par_map_threads(threads, &items, |_, x| x * 1.000000001)
                .iter()
                .sum::<f64>()
                .to_bits()
        };
        let oracle = fold(1);
        for threads in [2, 4, 8] {
            assert_eq!(fold(threads), oracle, "threads={threads}");
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            par_map_threads(4, &items, |i, _| {
                if i == 33 {
                    panic!("worker 33 failed");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn idle_workers_stealing_from_each_other_never_deadlock() {
        // Regression: a worker's own-queue guard must drop before the
        // steal scan locks a victim's queue. One item per worker makes
        // everyone go idle and steal-scan at once, every round; holding
        // the own-queue lock across the scan deadlocked here.
        for round in 0..200 {
            let items: Vec<usize> = (0..8).collect();
            let got = par_map_threads(8, &items, |i, _| i + round);
            assert_eq!(got.len(), 8, "round {round}");
        }
    }

    #[test]
    fn stealing_balances_a_skewed_workload() {
        // One pathological item must not serialize the rest: with stealing,
        // total wall-clock stays well under sum-of-items. We can't time
        // reliably in CI, so just assert completion with heavy skew.
        let items: Vec<u64> = (0..128)
            .map(|i| if i == 0 { 200_000 } else { 50 })
            .collect();
        let got = par_map_threads(8, &items, |_, &spin| {
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k).rotate_left(1);
            }
            acc
        });
        assert_eq!(got.len(), 128);
    }
}
