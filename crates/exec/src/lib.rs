//! # idse-exec — deterministic parallel experiment execution
//!
//! Every number the scorecard aggregates (`S = ΣΣ U·W`) comes from
//! independent simulated experiments: per-product evaluations, sensitivity
//! sweep points, zero-loss throughput probes. Those jobs are pure
//! functions of their inputs, so they can run on every core the machine
//! has — *provided* nothing about scheduling ever reaches the results.
//! This crate is the one place in the workspace where threads exist
//! (enforced by clippy's `disallowed-methods`, see `clippy.toml`), and it is built so
//! that output is **byte-identical at any worker count**:
//!
//! * jobs are identified by an ordered [`JobKey`] and executed from a
//!   shared queue that idle workers steal from — dynamic load balancing
//!   without any per-worker state that could leak into results;
//! * each job gets its own derived RNG seed (a pure function of the plan's
//!   master seed and the job's key via [`idse_sim::derive_seed`]) and its
//!   own buffered telemetry recorder ([`idse_telemetry::JobRecorder`]);
//! * results go back into their submission slots and telemetry buffers
//!   are replayed in **canonical job-key order**, never in completion
//!   order ([`reduce_in_order`] is the same step for callers that hold
//!   `(index, output)` pairs).
//!
//! There is one worker pool, [`Executor::try_par_map`] (panic-containing
//! and cancellable; [`Executor::par_map`] is its plain form), and one plan
//! runner on top of it, [`ExperimentPlan::run`]. The serial path
//! (`jobs = 1`, or one-element inputs) runs inline on the calling thread
//! with no pool at all, and produces the same bytes.
//!
//! ```
//! use idse_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod cancel;
pub mod plan;

pub use cancel::{CancelToken, Cancelled, SlotGuard, SlotPool};
pub use plan::{ExperimentPlan, Job, JobCtx, JobKey, JobResult};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A job that panicked inside [`Executor::try_par_map`].
///
/// Panics are contained at the job boundary so one poisoned input cannot
/// take down the whole batch (or the worker pool): every other job still
/// runs and returns its normal output. The error carries the submission
/// index and the panic payload's message, both pure functions of the
/// input batch — so a failing batch is as deterministic as a passing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a fixed placeholder).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Stringify a caught panic payload deterministically.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-size pool of workers for deterministic parallel maps.
///
/// The executor owns no threads between calls: each [`Executor::par_map`]
/// spins up a scoped pool (on the vendored `crossbeam` shim over
/// `std::thread::scope`), drains the job queue, joins every worker, and
/// merges the results in index order. `workers == 1` bypasses the pool
/// entirely — the serial reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Default for Executor {
    /// The auto-sized executor (`Executor::new(0)`).
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// An executor with `jobs` workers; `0` means "one per available
    /// core" (`std::thread::available_parallelism`).
    pub fn new(jobs: usize) -> Self {
        let workers = if jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            jobs
        };
        Executor { workers }
    }

    /// The single-worker executor: everything runs inline on the calling
    /// thread, in canonical order, with no pool.
    pub fn serial() -> Self {
        Executor { workers: 1 }
    }

    /// How many workers a `par_map` may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `items` in parallel; the output is in input order and
    /// byte-identical for any worker count.
    ///
    /// `f` receives `(index, &item)` and must be a pure function of them
    /// (plus captured shared state it only reads). This is
    /// [`Executor::try_par_map`] with a token nobody cancels; a job panic
    /// is re-raised here.
    pub fn par_map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        self.try_par_map(items, &CancelToken::new(), f)
            .into_iter()
            .map(|slot| {
                slot.expect("an uncancelled batch claims every job")
                    .expect("par_map job panicked; use try_par_map to contain job panics")
            })
            .collect()
    }

    /// The worker pool. Workers claim the next unclaimed index from a
    /// shared queue, so a slow job never stalls the rest of the batch;
    /// completion order is then erased by putting each output back in its
    /// submission slot.
    ///
    /// Each job runs under `catch_unwind`: a panicking job yields
    /// `Some(Err(`[`JobPanic`]`))` in its slot instead of poisoning the
    /// pool, and every other slot's bytes stay identical to a run without
    /// it, at any worker count.
    ///
    /// Workers stop *claiming* once `cancel` observes cancellation, and
    /// every never-claimed slot comes back as `None`. Jobs that were
    /// already claimed run to completion — cancellation is cooperative, so
    /// `f` itself should poll the token at its safe points (the streaming
    /// path checks at chunk boundaries) and encode an early stop in its
    /// output type. Which slots are `None` is deterministic on the serial
    /// path (a prefix of completed jobs, then `None`s); under a pool it
    /// depends on which claims raced the flag, which is why every
    /// deterministic cancellation test pins `--jobs 1` or uses a
    /// checkpoint fuse the jobs burn themselves.
    pub fn try_par_map<T, O, F>(
        &self,
        items: &[T],
        cancel: &CancelToken,
        f: F,
    ) -> Vec<Option<Result<O, JobPanic>>>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        // Contain the panic at the job boundary: the worker loop (and the
        // serial path) below never unwinds through `run`, so the scope
        // join stays infallible and the claim queue keeps draining.
        let run = |i: usize, item: &T| -> Result<O, JobPanic> {
            catch_unwind(AssertUnwindSafe(|| f(i, item)))
                .map_err(|payload| JobPanic { index: i, message: panic_message(payload) })
        };

        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| if cancel.is_cancelled() { None } else { Some(run(i, item)) })
                .collect();
        }

        let next = AtomicUsize::new(0);
        #[expect(
            clippy::disallowed_methods,
            reason = "idse-exec is the one sanctioned home of raw threads; callers get canonical-order results"
        )]
        let per_worker: Vec<Vec<(usize, Result<O, JobPanic>)>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|_| {
                            let mut completed = Vec::new();
                            // Steal the next unclaimed job from the shared
                            // queue; Relaxed suffices — the only contended
                            // state is the claim counter itself, and job
                            // results flow back through the join.
                            while !cancel.is_cancelled() {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                completed.push((i, run(i, &items[i])));
                            }
                            completed
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("executor worker does not panic"))
                    .collect()
            })
            .expect("executor scope does not panic");

        let mut slots: Vec<Option<Result<O, JobPanic>>> = (0..n).map(|_| None).collect();
        for (i, result) in per_worker.into_iter().flatten() {
            assert!(slots[i].is_none(), "job {i} completed twice");
            slots[i] = Some(result);
        }
        slots
    }
}

/// Run `worker` on a scoped helper thread while `foreground` runs on the
/// calling thread; returns both results after the worker joins.
///
/// This exists for the evaluation daemon: its socket accept loop and its
/// job runner are two long-lived loops, and the workspace clippy.toml
/// confines thread spawning to this crate. The scope guarantees the
/// worker cannot outlive the borrows it captures, and a worker panic
/// propagates after `foreground` returns rather than being silently lost.
#[expect(
    clippy::disallowed_methods,
    reason = "idse-exec is the one sanctioned home of raw threads; callers get canonical-order results"
)]
pub fn with_worker<R, S>(
    worker: impl FnOnce() -> R + Send,
    foreground: impl FnOnce() -> S,
) -> (R, S)
where
    R: Send,
{
    crossbeam::thread::scope(|scope| {
        let handle = scope.spawn(move |_| worker());
        let fg = foreground();
        let bg = handle.join().expect("background worker does not panic");
        (bg, fg)
    })
    .expect("worker scope does not panic")
}

/// Park the calling thread for one polling interval (a few milliseconds).
///
/// Polling loops that wait on state they cannot be woken by (the daemon's
/// non-blocking accept loop, a client waiting for the daemon's socket)
/// call this between probes instead of spinning. Centralized here so the interval is
/// one knob and no other crate needs a thread API for it.
pub fn breathe() {
    std::thread::sleep(std::time::Duration::from_millis(2));
}

/// The deterministic reduce step: erase completion order.
///
/// Takes the `(index, output)` pairs of a completed batch — in whatever
/// order workers finished them — and returns the outputs in index order.
/// Panics (via `assert!`) unless the indices are exactly `0..expected`,
/// each present once: a job that ran twice or never is a scheduling bug
/// that must never be silently papered over by a lossy merge.
pub fn reduce_in_order<O>(mut completed: Vec<(usize, O)>, expected: usize) -> Vec<O> {
    assert_eq!(completed.len(), expected, "every job must complete exactly once");
    completed.sort_by_key(|&(i, _)| i);
    for (slot, &(i, _)) in completed.iter().enumerate() {
        assert_eq!(slot, i, "job indices must be dense and unique");
    }
    completed.into_iter().map(|(_, output)| output).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let exec = Executor::new(8);
        let out = exec.par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let f = |_: usize, &x: &u64| {
            // A float reduction whose result would expose any reordering.
            (0..x).map(|k| (k as f64).sqrt()).sum::<f64>()
        };
        let serial = Executor::serial().par_map(&items, f);
        for workers in [2, 3, 8, 64] {
            let parallel = Executor::new(workers).par_map(&items, f);
            assert_eq!(serial, parallel, "{workers} workers changed the bytes");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = Executor::new(4);
        let empty: Vec<u32> = vec![];
        assert!(exec.par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.par_map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn auto_sizing_never_yields_zero_workers() {
        assert!(Executor::new(0).workers() >= 1);
        assert_eq!(Executor::new(5).workers(), 5);
        assert_eq!(Executor::serial().workers(), 1);
    }

    #[test]
    fn reduce_in_order_sorts_completion_order_away() {
        let completed = vec![(2, "c"), (0, "a"), (1, "b")];
        assert_eq!(reduce_in_order(completed, 3), vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "every job must complete exactly once")]
    fn reduce_rejects_missing_jobs() {
        reduce_in_order(vec![(0, ())], 2);
    }

    #[test]
    #[should_panic(expected = "dense and unique")]
    fn reduce_rejects_duplicate_indices() {
        reduce_in_order(vec![(0, ()), (0, ())], 2);
    }

    /// One poisoned job out of sixteen: the other fifteen still complete,
    /// with byte-identical outputs at one worker and at eight.
    #[test]
    fn one_poisoned_job_leaves_the_rest_intact() {
        let items: Vec<u64> = (0..16).collect();
        let f = |_: usize, &x: &u64| {
            assert!(x != 7, "poisoned input {x}");
            (0..x).map(|k| (k as f64).sqrt()).sum::<f64>()
        };

        let serial = Executor::serial().try_par_map(&items, &CancelToken::new(), f);
        let parallel = Executor::new(8).try_par_map(&items, &CancelToken::new(), f);
        assert_eq!(serial, parallel, "worker count changed a faulted batch");

        assert_eq!(serial.len(), 16);
        for (i, slot) in serial.iter().enumerate() {
            let slot = slot.as_ref().expect("an uncancelled batch runs every job");
            if i == 7 {
                let err = slot.as_ref().expect_err("job 7 must be the poisoned one");
                assert_eq!(err.index, 7);
                assert!(err.message.contains("poisoned input 7"), "got: {}", err.message);
            } else {
                let clean = f(i, &items[i]);
                assert_eq!(slot.as_ref().expect("healthy job completes"), &clean);
            }
        }
    }

    #[test]
    fn try_par_map_matches_par_map_on_healthy_batches() {
        let items: Vec<u64> = (0..64).collect();
        let f = |i: usize, &x: &u64| i as u64 + x * x;
        let tried: Vec<u64> = Executor::new(4)
            .try_par_map(&items, &CancelToken::new(), f)
            .into_iter()
            .map(|slot| slot.expect("no slot skipped").expect("healthy batch"))
            .collect();
        assert_eq!(tried, Executor::new(4).par_map(&items, f));
    }

    #[test]
    #[should_panic(expected = "par_map job panicked")]
    fn par_map_still_propagates_job_panics() {
        let items = [1u32, 2, 3];
        Executor::serial().par_map(&items, |_, &x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn job_panic_display_is_deterministic() {
        let err = JobPanic { index: 3, message: "boom".to_string() };
        assert_eq!(err.to_string(), "job 3 panicked: boom");
    }

    #[test]
    fn uncancelled_map_matches_try_par_map() {
        let items: Vec<u64> = (0..32).collect();
        let f = |i: usize, &x: &u64| i as u64 + x;
        for workers in [1, 4] {
            let slots = Executor::new(workers).try_par_map(&items, &CancelToken::new(), f);
            let outputs: Vec<u64> = slots
                .into_iter()
                .map(|s| s.expect("no slot skipped").expect("no job panicked"))
                .collect();
            assert_eq!(outputs, Executor::new(workers).par_map(&items, f));
        }
    }

    #[test]
    fn serial_cancellation_stops_at_a_deterministic_boundary() {
        // The fuse trips inside job 2's checkpoint; jobs 3.. are never
        // claimed. Serial path, so the split point is exact.
        let token = CancelToken::after_checkpoints(3);
        let items: Vec<u64> = (0..8).collect();
        let slots = Executor::serial().try_par_map(&items, &token, |_, &x| {
            token.checkpoint();
            x * 10
        });
        let done: Vec<Option<u64>> =
            slots.into_iter().map(|s| s.map(|r| r.expect("no panics"))).collect();
        assert_eq!(done, vec![Some(0), Some(10), Some(20), None, None, None, None, None]);
    }

    #[test]
    fn pre_cancelled_batches_run_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for workers in [1, 4] {
            let slots = Executor::new(workers).try_par_map(&[1u32, 2, 3], &token, |_, &x| x);
            assert!(slots.iter().all(Option::is_none), "{workers} workers ran a cancelled batch");
        }
    }

    #[test]
    fn parallel_cancellation_keeps_completed_slots_intact() {
        let token = CancelToken::after_checkpoints(5);
        let items: Vec<u64> = (0..64).collect();
        let slots = Executor::new(4).try_par_map(&items, &token, |i, &x| {
            token.checkpoint();
            assert_eq!(i as u64, x);
            x + 100
        });
        assert_eq!(slots.len(), 64);
        let completed = slots.iter().flatten().count();
        assert!(completed < 64, "the fuse stopped the batch early");
        for (i, slot) in slots.into_iter().enumerate() {
            if let Some(result) = slot {
                assert_eq!(result.expect("no panics"), i as u64 + 100);
            }
        }
    }

    /// The satellite fix end-to-end: a batch with a cancelled tail *and* a
    /// poisoned job releases every slot it claimed, so a follow-up plan in
    /// the same process gets the full queue capacity back.
    #[test]
    fn cancelled_and_poisoned_jobs_release_their_slots() {
        let pool = SlotPool::new(4);
        let token = CancelToken::after_checkpoints(2);
        let items: Vec<u64> = (0..4).collect();
        let slots = Executor::serial().try_par_map(&items, &token, |i, &x| {
            let _slot = pool.try_acquire().expect("admission bounded by the pool");
            token.checkpoint();
            assert!(i != 1, "poisoned input");
            x
        });
        // Job 0 completed, job 1 panicked (guard dropped during unwind),
        // job 2 tripped the fuse, job 3 was never claimed.
        assert!(slots[0].as_ref().expect("ran").is_ok());
        assert!(slots[1].as_ref().expect("ran").is_err());
        assert!(slots[3].is_none());
        assert_eq!(pool.in_use(), 0, "every claimed slot was released");

        // Follow-up plan in the same process: full capacity is available.
        let followup = Executor::serial().try_par_map(&items, &CancelToken::new(), |_, &x| {
            let _slot = pool.try_acquire().expect("freed capacity is claimable");
            x * 2
        });
        let outputs: Vec<u64> =
            followup.into_iter().map(|s| s.expect("ran").expect("clean")).collect();
        assert_eq!(outputs, vec![0, 2, 4, 6]);
    }

    #[test]
    fn with_worker_returns_both_sides() {
        let flag = AtomicUsize::new(0);
        let (bg, fg) = with_worker(
            || {
                flag.store(7, Ordering::Relaxed);
                "worker"
            },
            || "foreground",
        );
        assert_eq!((bg, fg), ("worker", "foreground"));
        assert_eq!(flag.load(Ordering::Relaxed), 7);
    }
}
