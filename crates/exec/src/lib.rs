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
//! * jobs are claimed in input order from one shared lane that idle
//!   threads take the next job from — dynamic load balancing without any
//!   per-worker state that could leak into results;
//! * the caller takes the outputs in job order, never in completion order,
//!   so any fold over them — a float sum included — sees one order at
//!   every width;
//! * a job that records telemetry records into its own forks of the
//!   caller's handle, one per scope ([`Forks::scoped`]), and the forks are
//!   joined into the caller's sink in `(scope, job index)` order.
//!
//! There is one worker pool, [`Executor::ordered_fan_out`]: helpers run a
//! bounded window ahead of a caller that consumes the outputs in job order
//! as they finish. [`Executor::par_map`] collects it over a slice, and
//! [`Executor::try_par_map_recorded`] is the recorded, cancellable fan-out
//! over a slice. A job's panic is re-raised on the calling thread when the
//! caller reaches that job's output. The serial path (`jobs = 1`, or
//! one-element inputs) runs inline on the calling thread with no pool at
//! all, and produces the same bytes.
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

pub use cancel::{CancelToken, Cancelled, SlotGuard, SlotPool};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use idse_telemetry::Telemetry;

/// A fixed-size pool of workers for deterministic parallel maps.
///
/// The executor owns no threads between calls: each fan-out spins up a
/// scoped pool (on the vendored `crossbeam` shim over
/// `std::thread::scope`), drains its jobs, and joins every helper.
/// `workers == 1` bypasses the pool entirely — the serial reference path.
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
    /// [`Executor::ordered_fan_out`] collected, with a window as long as
    /// `items`, so no job waits on the caller; a job panic is re-raised here.
    pub fn par_map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        self.fan_out(
            items.iter().enumerate(),
            |(i, item)| f(i, item),
            |outputs| outputs.collect(),
            items.len(),
        )
    }
}

/// The telemetry forks of one job of [`Executor::try_par_map_recorded`]:
/// one fork of the caller's handle per scope, made on first use.
#[derive(Debug)]
pub struct Forks<'a> {
    parent: &'a Telemetry,
    made: RefCell<Vec<Telemetry>>,
}

impl Forks<'_> {
    /// This job's fork of the caller's handle whose events carry `scope`
    /// (the same fork on every call with one scope). Disabled when the
    /// caller's handle is.
    pub fn scoped(&self, scope: &'static str) -> Telemetry {
        let mut made = self.made.borrow_mut();
        if let Some(fork) = made.iter().find(|fork| fork.scope() == scope) {
            return fork.clone();
        }
        let fork = self.parent.fork(scope);
        made.push(fork.clone());
        fork
    }
}

impl Executor {
    /// Map `f` over `items` on the pool, each job recording telemetry into
    /// its own forks of `parent` ([`Forks::scoped`]), and return the
    /// outputs in input order.
    ///
    /// After the batch, every fork is joined into `parent` in `(scope, job
    /// index)` order — also the forks of a job that returned `Cancelled`
    /// and of every job that ran before a cancel, so a cancelled batch
    /// flushes a deterministic partial event stream. The joined stream is
    /// therefore byte-identical for any worker count, including the
    /// inline serial path.
    ///
    /// Jobs poll `cancel` at their safe points. For a stop that is the same
    /// at any worker count, each job checks its own canonical rank
    /// ([`CancelToken::stop_before_rank`]); once an explicit
    /// [`CancelToken::cancel`] lands, unstarted jobs are never claimed.
    /// Returns `Err(Cancelled)` if any job was skipped or stopped early. A
    /// job panic is re-raised when the caller reaches that job's output;
    /// the forks of the batch are lost with it.
    pub fn try_par_map_recorded<T, O, F>(
        &self,
        items: &[T],
        parent: &Telemetry,
        cancel: &CancelToken,
        f: F,
    ) -> Result<Vec<O>, Cancelled>
    where
        T: Sync,
        O: Send,
        F: Fn(&T, &Forks<'_>) -> Result<O, Cancelled> + Sync,
    {
        let ran: Vec<(Result<O, Cancelled>, Vec<Telemetry>)> = self.fan_out(
            items.iter().take_while(|_| !cancel.is_cancelled()),
            |item| {
                let forks = Forks { parent, made: RefCell::default() };
                let output = f(item, &forks);
                (output, forks.made.into_inner())
            },
            |outputs| outputs.collect(),
            items.len(),
        );
        let mut stopped = ran.len() < items.len();
        let mut outputs = Vec::with_capacity(ran.len());
        let mut forks = Vec::new();
        for (output, made) in ran {
            forks.extend(made);
            match output {
                Ok(output) => outputs.push(output),
                Err(Cancelled) => stopped = true,
            }
        }
        // Stable: within one scope, forks stay in job index order.
        forks.sort_by_key(Telemetry::scope);
        for fork in forks {
            fork.join();
        }
        if stopped || cancel.is_cancelled() {
            return Err(Cancelled);
        }
        Ok(outputs)
    }
}

/// Outputs each worker of [`Executor::ordered_fan_out`] may finish ahead of
/// the caller: the fan-out holds at most `workers × FAN_OUT_LOOKAHEAD`
/// outputs the caller has not taken yet.
const FAN_OUT_LOOKAHEAD: usize = 4;

/// The state an ordered fan-out's threads share.
struct Lane<I, O> {
    jobs: I,
    /// Jobs claimed so far; the next claim gets this index.
    claimed: usize,
    /// Outputs the caller has taken so far; it waits for this index next.
    taken: usize,
    /// Finished outputs the caller has not taken, by job index.
    ready: BTreeMap<usize, std::thread::Result<O>>,
    /// `jobs` returned `None` (or panicked): nothing more will be claimed.
    drained: bool,
    /// The caller is done: nobody claims again.
    closed: bool,
}

/// What a thread of an ordered fan-out may do next.
enum Claim<J> {
    /// Run job `index`.
    Run(usize, J),
    /// The window is full: wait for the caller to take an output.
    Wait,
    /// Nothing is left to claim.
    Done,
}

struct FanOut<I, O> {
    lane: Mutex<Lane<I, O>>,
    changed: Condvar,
    window: usize,
}

impl<I: Iterator, O> FanOut<I, O> {
    fn lock_lane(&self) -> MutexGuard<'_, Lane<I, O>> {
        // Jobs run outside the lock, and the job iterator under it runs
        // under `catch_unwind`, so nothing panics while holding the lane.
        self.lane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_lane<'a>(&self, lane: MutexGuard<'a, Lane<I, O>>) -> MutexGuard<'a, Lane<I, O>> {
        self.changed.wait(lane).unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the next job if the window allows. A panicking job iterator
    /// files its panic as the output of the index it was claiming.
    fn claim(&self, lane: &mut Lane<I, O>) -> Claim<I::Item> {
        if lane.closed || lane.drained {
            return Claim::Done;
        }
        if lane.claimed >= lane.taken + self.window {
            return Claim::Wait;
        }
        let index = lane.claimed;
        match catch_unwind(AssertUnwindSafe(|| lane.jobs.next())) {
            Ok(Some(job)) => {
                lane.claimed += 1;
                Claim::Run(index, job)
            }
            Ok(None) => {
                lane.drained = true;
                self.changed.notify_all();
                Claim::Done
            }
            Err(payload) => {
                lane.claimed += 1;
                lane.ready.insert(index, Err(payload));
                lane.drained = true;
                self.changed.notify_all();
                Claim::Done
            }
        }
    }

    /// Run job `index` outside the lock and file its output.
    fn run_claimed(&self, index: usize, job: I::Item, make: &impl Fn(I::Item) -> O) {
        let output = catch_unwind(AssertUnwindSafe(|| make(job)));
        self.lock_lane().ready.insert(index, output);
        self.changed.notify_all();
    }

    /// One helper thread: claim and run jobs until none is left.
    fn help(&self, make: &impl Fn(I::Item) -> O) {
        let mut lane = self.lock_lane();
        loop {
            match self.claim(&mut lane) {
                Claim::Run(index, job) => {
                    drop(lane);
                    self.run_claimed(index, job, make);
                    lane = self.lock_lane();
                }
                Claim::Wait => lane = self.wait_lane(lane),
                Claim::Done => return,
            }
        }
    }

    /// The caller's next output, in job order; re-raises a job's panic.
    /// While the next output is not ready, the caller runs a job itself
    /// rather than sit idle.
    fn take_in_order(&self, make: &impl Fn(I::Item) -> O) -> Option<O> {
        let mut lane = self.lock_lane();
        loop {
            let index = lane.taken;
            if let Some(output) = lane.ready.remove(&index) {
                lane.taken += 1;
                drop(lane);
                self.changed.notify_all();
                return Some(output.unwrap_or_else(|payload| resume_unwind(payload)));
            }
            match self.claim(&mut lane) {
                Claim::Run(claimed, job) => {
                    drop(lane);
                    self.run_claimed(claimed, job, make);
                    lane = self.lock_lane();
                }
                // Every job has run and been taken.
                Claim::Done if lane.claimed == index => return None,
                Claim::Wait | Claim::Done => lane = self.wait_lane(lane),
            }
        }
    }

    fn close_lane(&self) {
        self.lock_lane().closed = true;
        self.changed.notify_all();
    }
}

/// Closes a fan-out's lane when the caller is done, also by unwinding, so
/// no helper waits forever on a window that will not move.
struct CloseOnDrop<'a, I: Iterator, O>(&'a FanOut<I, O>);

impl<I: Iterator, O> Drop for CloseOnDrop<'_, I, O> {
    fn drop(&mut self) {
        self.0.close_lane();
    }
}

impl Executor {
    /// Map `make` over `jobs` on the pool while the calling thread consumes
    /// the outputs, strictly in job order, through the iterator `consume`
    /// receives.
    ///
    /// `workers − 1` helper threads and the caller claim jobs in order; the
    /// caller runs one itself whenever the output it needs next is not
    /// ready. Nobody claims more than `workers × 4` jobs ahead of the
    /// output the caller takes next, so a fan-out over an unbounded job
    /// stream holds a constant number of outputs. What the caller sees is
    /// the sequence `jobs.map(make)` yields, at any worker count; at one
    /// worker, or when `jobs`' `size_hint` allows at most one job, it is
    /// exactly that, inline. A job's panic is re-raised on the calling
    /// thread when the caller reaches its output. If `consume` returns
    /// before the outputs run out, nobody claims again and the jobs already
    /// claimed finish unread.
    pub fn ordered_fan_out<J, O, R>(
        &self,
        jobs: impl Iterator<Item = J> + Send,
        make: impl Fn(J) -> O + Sync,
        consume: impl FnOnce(&mut dyn Iterator<Item = O>) -> R,
    ) -> R
    where
        O: Send,
    {
        self.fan_out(jobs, make, consume, self.workers * FAN_OUT_LOOKAHEAD)
    }

    /// [`Executor::ordered_fan_out`] holding at most `window` outputs the
    /// caller has not taken. No more threads run than `jobs`' `size_hint`
    /// upper bound has jobs.
    fn fan_out<J, O, R>(
        &self,
        jobs: impl Iterator<Item = J> + Send,
        make: impl Fn(J) -> O + Sync,
        consume: impl FnOnce(&mut dyn Iterator<Item = O>) -> R,
        window: usize,
    ) -> R
    where
        O: Send,
    {
        let threads = self.workers.min(jobs.size_hint().1.unwrap_or(usize::MAX));
        if threads <= 1 {
            return consume(&mut jobs.map(make));
        }
        let fan = FanOut {
            lane: Mutex::new(Lane {
                jobs,
                claimed: 0,
                taken: 0,
                ready: BTreeMap::new(),
                drained: false,
                closed: false,
            }),
            changed: Condvar::new(),
            window: window.max(1),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "idse-exec is the one sanctioned home of raw threads; callers get canonical-order results"
        )]
        crossbeam::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|_| fan.help(&make));
            }
            let _close = CloseOnDrop(&fan);
            consume(&mut std::iter::from_fn(|| fan.take_in_order(&make)))
        })
        .expect("fan-out helpers do not panic")
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

#[cfg(test)]
mod tests {
    use super::*;
    use idse_telemetry::MemorySink;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // One job needs no helper: it runs inline on the calling thread.
        let caller = std::thread::current().id();
        assert_eq!(exec.par_map(&[()], |_, ()| std::thread::current().id()), vec![caller]);
    }

    /// A batch of known length is never throttled by the look-ahead window:
    /// while job 0 blocks, the other worker runs every other job.
    #[test]
    fn par_map_runs_a_whole_batch_past_a_blocked_first_job() {
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..12).collect();
        let seen = Executor::new(2).par_map(&items, |i, _| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return 0;
            }
            // Bounded wait (about 10 s) so a throttled batch fails, not hangs.
            for _ in 0..5000 {
                if done.load(Ordering::SeqCst) == items.len() - 1 {
                    break;
                }
                breathe();
            }
            done.load(Ordering::SeqCst)
        });
        assert_eq!(seen[0], items.len() - 1, "jobs 1.. waited for job 0");
    }

    #[test]
    fn auto_sizing_never_yields_zero_workers() {
        assert!(Executor::new(0).workers() >= 1);
        assert_eq!(Executor::new(5).workers(), 5);
        assert_eq!(Executor::serial().workers(), 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn par_map_still_propagates_job_panics() {
        let items = [1u32, 2, 3];
        Executor::new(4).par_map(&items, |_, &x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn uncancelled_recorded_map_matches_par_map() {
        let items: Vec<u64> = (0..32).collect();
        for workers in [1, 4] {
            let exec = Executor::new(workers);
            let recorded = exec
                .try_par_map_recorded(
                    &items,
                    &Telemetry::disabled(),
                    &CancelToken::new(),
                    |&x, _| Ok(x * x + 1),
                )
                .expect("a fresh token never cancels");
            assert_eq!(recorded, exec.par_map(&items, |_, &x| x * x + 1), "{workers} workers");
        }
    }

    /// The names and instants of what a recorded batch joined into its sink.
    fn joined(sink: &MemorySink) -> Vec<String> {
        sink.events().iter().map(|e| format!("{}@{}", e.name, e.at)).collect()
    }

    #[test]
    fn serial_cancellation_stops_at_a_deterministic_boundary() {
        // Job `x` has rank `x + 1`: jobs 0 and 1 finish, and every later
        // job, claimed all the same, stops itself at its checkpoint.
        let token = CancelToken::after_checkpoints(3);
        let sink = MemorySink::new(1 << 12);
        let items: Vec<u64> = (0..8).collect();
        let claimed = AtomicUsize::new(0);
        let outcome = Executor::serial().try_par_map_recorded(
            &items,
            &Telemetry::new(sink.clone()),
            &token,
            |&x, forks| {
                claimed.fetch_add(1, Ordering::SeqCst);
                if token.stop_before_rank(x + 1) {
                    return Err(Cancelled);
                }
                forks.scoped("s").counter(x, "job.done", x * 10);
                Ok(x)
            },
        );
        assert_eq!(outcome, Err(Cancelled));
        assert_eq!(joined(&sink), ["job.done@0", "job.done@1"]);
        assert_eq!(claimed.load(Ordering::SeqCst), 8, "reaching a rank cancels no claim");
        assert!(!token.is_cancelled());
    }

    #[test]
    fn pre_cancelled_batches_run_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for workers in [1, 4] {
            let ran = AtomicUsize::new(0);
            let outcome = Executor::new(workers).try_par_map_recorded(
                &[1u32, 2, 3],
                &Telemetry::disabled(),
                &token,
                |&x, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(x)
                },
            );
            assert_eq!(outcome, Err(Cancelled));
            assert_eq!(ran.load(Ordering::SeqCst), 0, "{workers} workers ran a cancelled batch");
        }
    }

    /// Ranked checkpoints stop the same jobs at every width: exactly the
    /// jobs of rank below the armed `n` complete and record.
    #[test]
    fn parallel_cancellation_keeps_completed_slots_intact() {
        let items: Vec<u64> = (0..64).collect();
        let stream = |workers: usize| {
            let token = CancelToken::after_checkpoints(5);
            let sink = MemorySink::new(1 << 12);
            let outcome = Executor::new(workers).try_par_map_recorded(
                &items,
                &Telemetry::new(sink.clone()),
                &token,
                |&x, forks| {
                    if token.stop_before_rank(x + 1) {
                        return Err(Cancelled);
                    }
                    forks.scoped("s").counter(x, "job.done", x + 100);
                    Ok(x)
                },
            );
            assert_eq!(outcome, Err(Cancelled), "{workers} workers");
            joined(&sink)
        };
        let serial = stream(1);
        assert_eq!(serial, ["job.done@0", "job.done@1", "job.done@2", "job.done@3"]);
        for workers in [2, 4, 8] {
            assert_eq!(stream(workers), serial, "{workers} workers");
        }
    }

    /// A cancelled batch and a batch with a poisoned job each release every
    /// slot they claimed, so a follow-up plan in the same process gets the
    /// full queue capacity back.
    #[test]
    fn cancelled_and_poisoned_jobs_release_their_slots() {
        let pool = SlotPool::new(4);
        let items: Vec<u64> = (0..4).collect();
        let token = CancelToken::after_checkpoints(3);
        let batch = |poisoned: u64| {
            Executor::new(2).try_par_map_recorded(
                &items,
                &Telemetry::disabled(),
                &token,
                |&x, _| {
                    let _slot = pool.try_acquire().expect("admission bounded by the pool");
                    if token.stop_before_rank(x + 1) {
                        return Err(Cancelled);
                    }
                    assert!(x != poisoned, "poisoned input");
                    Ok(x)
                },
            )
        };
        // Jobs 2 and 3 stop at their checkpoints.
        assert_eq!(batch(u64::MAX), Err(Cancelled));
        assert_eq!(pool.in_use(), 0, "every cancelled job released its slot");
        // Job 1 panics; unwinding drops its guard, and the caller re-raises.
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| batch(1)));
        assert!(poisoned.is_err(), "the job panic reaches the caller");
        assert_eq!(pool.in_use(), 0, "every claimed slot was released");

        // Follow-up plan in the same process: full capacity is available.
        let followup = Executor::new(4).par_map(&items, |_, &x| {
            let _slot = pool.try_acquire().expect("freed capacity is claimable");
            x * 2
        });
        assert_eq!(followup, vec![0, 2, 4, 6]);
    }

    #[test]
    fn telemetry_merges_in_key_order_at_any_worker_count() {
        // Jobs listed scope-major, as callers build them; each records
        // under its own scope and, for odd points, under a shared one.
        let jobs: Vec<(&'static str, u32)> = ["alpha", "beta", "gamma"]
            .into_iter()
            .flat_map(|scope| (0..4u32).map(move |point| (scope, point)))
            .collect();
        let stream = |workers: usize| {
            let sink = MemorySink::new(1 << 12);
            let parent = Telemetry::new(sink.clone());
            let outputs = Executor::new(workers)
                .try_par_map_recorded(
                    &jobs,
                    &parent,
                    &CancelToken::new(),
                    |&(scope, point), forks| {
                        forks.scoped(scope).counter(
                            u64::from(point),
                            "job.point",
                            u64::from(point) + 1,
                        );
                        if point % 2 == 1 {
                            forks.scoped("shared").counter(u64::from(point), "job.odd", 1);
                        }
                        Ok((scope, point))
                    },
                )
                .expect("uncancelled batch completes");
            assert_eq!(outputs, jobs, "outputs come back in input order");
            sink.events()
                .iter()
                .map(|e| format!("{}/{}@{}", e.scope, e.name, e.at))
                .collect::<Vec<_>>()
        };
        let serial = stream(1);
        assert_eq!(serial.len(), 18);
        assert_eq!(serial[..2], ["alpha/job.point@0", "alpha/job.point@1"]);
        assert_eq!(
            serial[12..14],
            ["shared/job.odd@1", "shared/job.odd@3"],
            "scope, then job index"
        );
        assert_eq!(serial, stream(2));
        assert_eq!(serial, stream(16));
    }

    #[test]
    fn cancellation_flushes_partial_telemetry_in_key_order() {
        // Job 2 stops at its checkpoint after recording its first event,
        // and so do jobs 3 and 4: each job decides alone, at any width.
        let points: Vec<u32> = (0..5).collect();
        for workers in [1, 2, 8] {
            let sink = MemorySink::new(1 << 12);
            let token = CancelToken::after_checkpoints(3);
            let outcome = Executor::new(workers).try_par_map_recorded(
                &points,
                &Telemetry::new(sink.clone()),
                &token,
                |&point, forks| {
                    let telemetry = forks.scoped("s");
                    telemetry.counter(u64::from(point), "job.start", u64::from(point));
                    if token.stop_before_rank(u64::from(point) + 1) {
                        return Err(Cancelled);
                    }
                    telemetry.counter(u64::from(point), "job.end", u64::from(point));
                    Ok(point)
                },
            );
            assert_eq!(outcome, Err(Cancelled), "the armed rank cancels the batch");
            assert_eq!(
                joined(&sink),
                [
                    "job.start@0",
                    "job.end@0",
                    "job.start@1",
                    "job.end@1",
                    "job.start@2",
                    "job.start@3",
                    "job.start@4"
                ],
                "partial telemetry is flushed in job order at {workers} workers"
            );
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn recorded_jobs_reraise_their_panics() {
        let _ = Executor::new(2).try_par_map_recorded(
            &[1u32, 2, 3],
            &Telemetry::disabled(),
            &CancelToken::new(),
            |&x, _| {
                assert!(x != 2, "boom");
                Ok(x)
            },
        );
    }
    /// Jobs finish out of order (the yields vary by job and worker), the
    /// caller still sees `jobs.map(make)`, and no worker runs more than the
    /// window ahead of it.
    #[test]
    fn ordered_fan_out_yields_job_order_within_the_window() {
        for workers in [1usize, 2, 8] {
            let taken = AtomicUsize::new(0);
            let made = Executor::new(workers).ordered_fan_out(
                0..500u64,
                |job| {
                    let ahead = job as usize - taken.load(Ordering::SeqCst);
                    assert!(ahead <= workers * FAN_OUT_LOOKAHEAD, "job {job} ran {ahead} ahead");
                    for _ in 0..(job.wrapping_mul(0x9e37_79b9) >> 30) % 4 {
                        std::thread::yield_now();
                    }
                    job * 3
                },
                |outputs| {
                    outputs
                        .inspect(|_| {
                            taken.fetch_add(1, Ordering::SeqCst);
                        })
                        .collect::<Vec<u64>>()
                },
            );
            assert_eq!(made, (0..500u64).map(|j| j * 3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn ordered_fan_out_stops_when_the_caller_does() {
        let first = Executor::new(4).ordered_fan_out(
            0..,
            |job: u64| job,
            |outputs| outputs.take(10).sum::<u64>(),
        );
        assert_eq!(first, 45, "an unbounded job stream ends with its caller");
        let none = Executor::new(4).ordered_fan_out(
            std::iter::empty::<u8>(),
            |job| job,
            |outputs| outputs.count(),
        );
        assert_eq!(none, 0);
    }

    #[test]
    #[should_panic(expected = "poisoned job 7")]
    fn ordered_fan_out_reraises_a_job_panic_in_order() {
        Executor::new(2).ordered_fan_out(
            0..20u32,
            |job| {
                assert!(job != 7, "poisoned job {job}");
                job
            },
            |outputs| outputs.count(),
        );
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
