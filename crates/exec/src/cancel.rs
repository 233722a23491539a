//! Cooperative cancellation and bounded admission for long-running plans.
//!
//! Batch evaluation never needed to stop early: a `par_map` ran to the end
//! of its input and the process exited. A long-lived evaluation service
//! does — a client can cancel a queued or in-flight job, and the daemon
//! must bound how much work it admits at once. Both facilities live here,
//! in the one crate where cross-thread state is allowed, and both are
//! built from plain atomics so observing them costs nothing on the hot
//! path:
//!
//! * [`CancelToken`] — a shared flag jobs poll at their natural safe
//!   points (chunk boundaries of the streaming path, job starts of the
//!   batch path). For deterministic tests it carries an optional
//!   *checkpoint fuse*: arm it with `n` and the `n`-th checkpoint observes
//!   cancellation, without any timing involved. Batch checkpoints burn the
//!   fuse in the order they reach it, so they stop at the same place only
//!   at `--jobs 1`; stream chunks are ranked in a canonical order instead
//!   ([`CancelToken::stop_before_rank`]) and stop at the same place at any
//!   worker count.
//! * [`SlotPool`] — a counting semaphore whose permits are RAII
//!   [`SlotGuard`]s. A job that finishes, cancels, *or panics* releases
//!   its slot when the guard drops (panics unwind through
//!   `catch_unwind` inside [`Executor::try_par_map`]), so a poisoned job
//!   can never leak queue capacity for the life of the process.
//!
//! [`Executor::try_par_map`]: crate::Executor::try_par_map

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The fuse value meaning "no checkpoint budget armed".
const FUSE_UNARMED: u64 = u64::MAX;

/// A job batch (or single job) stopped at a cancellation point.
///
/// Deliberately carries no payload: cancellation is a normal outcome, and
/// everything worth reporting (which jobs completed, what telemetry they
/// flushed) travels through the partial results, not the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug, Default)]
struct CancelState {
    cancelled: AtomicBool,
    /// Remaining checkpoint budget; [`FUSE_UNARMED`] disables the fuse.
    fuse: AtomicU64,
    /// The `n` the fuse was armed with: the first ranked checkpoint that
    /// stops. [`FUSE_UNARMED`] when unarmed.
    threshold: AtomicU64,
}

/// A shared, clonable cancellation flag with a deterministic test fuse.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// state, so the daemon can hand one end to a running job and keep the
/// other to serve `cancel` requests. Jobs poll cooperatively via
/// [`CancelToken::checkpoint`] at safe points — nothing is interrupted
/// mid-chunk, which is what keeps partially-cancelled runs deterministic.
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token: not cancelled, no fuse armed.
    pub fn new() -> Self {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                fuse: AtomicU64::new(FUSE_UNARMED),
                threshold: AtomicU64::new(FUSE_UNARMED),
            }),
        }
    }

    /// A token whose `n`-th [`checkpoint`](CancelToken::checkpoint) call
    /// observes cancellation — the deterministic way to stop a serial run
    /// at an exact chunk boundary. `n == 0` is already cancelled.
    pub fn after_checkpoints(n: u64) -> Self {
        let token = CancelToken::new();
        token.arm_after_checkpoints(n);
        token
    }

    /// Arm (or re-arm) the checkpoint fuse on an existing token: the
    /// `n`-th subsequent checkpoint observes cancellation, and so does
    /// every ranked checkpoint of rank `n` or more. The daemon uses this to
    /// schedule a mid-flight cancel against a job that has not started yet.
    pub fn arm_after_checkpoints(&self, n: u64) {
        if n == 0 {
            self.cancel();
        } else {
            self.state.threshold.store(n, Ordering::Relaxed);
            self.state.fuse.store(n, Ordering::Relaxed);
        }
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (by [`cancel`] or by an
    /// exhausted fuse).
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Relaxed)
    }

    /// Cooperative cancellation point: burns one unit of the fuse (if
    /// armed) and reports whether the caller should stop.
    ///
    /// Jobs call this at chunk boundaries; a `true` return means "flush
    /// what you have and return [`Cancelled`]".
    pub fn checkpoint(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        let burned = self.state.fuse.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fuse| {
            if fuse == FUSE_UNARMED {
                None
            } else {
                Some(fuse.saturating_sub(1))
            }
        });
        if burned == Ok(1) {
            // This checkpoint took the fuse from 1 to 0: trip the flag so
            // every clone (and every later checkpoint) observes it.
            self.cancel();
            return true;
        }
        false
    }

    /// Checkpoint as a `Result`, for `?`-style early return from jobs.
    pub fn guard(&self) -> Result<(), Cancelled> {
        if self.checkpoint() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// Ranked cancellation point: whether the caller should stop before
    /// the checkpoint of 1-based canonical `rank`, because cancellation
    /// was requested or because `rank` reaches the armed fuse's `n`.
    ///
    /// Concurrent jobs that number their checkpoints in one canonical
    /// order (the streaming path ranks chunk `c` of shard `s` of `S` as
    /// `c·S + s + 1`) each stop at the same place whatever the schedule:
    /// the check reads the armed `n` and burns nothing, and reaching it
    /// stops only the caller — tripping the shared flag would stop the
    /// other jobs at whichever chunk they happened to be on.
    pub fn stop_before_rank(&self, rank: u64) -> bool {
        self.is_cancelled() || rank >= self.state.threshold.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct SlotState {
    capacity: usize,
    in_use: AtomicUsize,
}

/// A counting semaphore bounding how many jobs are admitted at once.
///
/// Admission is explicit ([`try_acquire`] never blocks — a full pool is a
/// *backpressure signal*, not a wait), and release is RAII: dropping the
/// [`SlotGuard`] frees the slot. Because [`Executor::try_par_map`] runs
/// each job under `catch_unwind`, a guard held by a panicking job is
/// dropped during unwind — the poisoned job's capacity comes back
/// deterministically, in the same process, for the next plan to claim.
///
/// [`try_acquire`]: SlotPool::try_acquire
/// [`Executor::try_par_map`]: crate::Executor::try_par_map
#[derive(Debug, Clone)]
pub struct SlotPool {
    state: Arc<SlotState>,
}

impl SlotPool {
    /// A pool with `capacity` slots. Zero capacity is allowed and rejects
    /// every acquire — the "drain and refuse new work" configuration.
    pub fn new(capacity: usize) -> Self {
        SlotPool { state: Arc::new(SlotState { capacity, in_use: AtomicUsize::new(0) }) }
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.state.capacity
    }

    /// Slots currently held by live guards.
    pub fn in_use(&self) -> usize {
        self.state.in_use.load(Ordering::Relaxed)
    }

    /// Slots available right now.
    pub fn available(&self) -> usize {
        self.state.capacity.saturating_sub(self.in_use())
    }

    /// Claim a slot without blocking; `None` means the pool is full and
    /// the caller should reject the work with a reason.
    pub fn try_acquire(&self) -> Option<SlotGuard> {
        let claimed =
            self.state.in_use.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                if used < self.state.capacity {
                    Some(used + 1)
                } else {
                    None
                }
            });
        claimed.ok().map(|_| SlotGuard { state: Arc::clone(&self.state) })
    }
}

/// An RAII permit from a [`SlotPool`]; dropping it releases the slot.
///
/// Deliberately not `Clone`: one guard, one slot.
#[derive(Debug)]
pub struct SlotGuard {
    state: Arc<SlotState>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.state.in_use.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_never_cancel() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        for _ in 0..1000 {
            assert!(!token.checkpoint());
        }
        assert!(token.guard().is_ok());
    }

    #[test]
    fn cancel_is_visible_to_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.checkpoint());
        assert_eq!(clone.guard(), Err(Cancelled));
    }

    #[test]
    fn fuse_trips_on_the_nth_checkpoint_exactly() {
        let token = CancelToken::after_checkpoints(3);
        assert!(!token.checkpoint(), "checkpoint 1 passes");
        assert!(!token.checkpoint(), "checkpoint 2 passes");
        assert!(!token.is_cancelled(), "fuse burns silently until it trips");
        assert!(token.checkpoint(), "checkpoint 3 observes cancellation");
        assert!(token.is_cancelled(), "the tripped fuse latches the shared flag");
        assert!(token.checkpoint(), "later checkpoints stay cancelled");
    }

    #[test]
    fn ranked_checkpoints_stop_at_the_armed_rank_and_burn_nothing() {
        let token = CancelToken::new();
        assert!(!token.stop_before_rank(u64::MAX - 1), "an unarmed token never stops");
        token.arm_after_checkpoints(3);
        // Any order, any number of times: the answer depends on the rank.
        for _ in 0..2 {
            assert!(token.stop_before_rank(5));
            assert!(!token.stop_before_rank(2));
            assert!(token.stop_before_rank(3));
            assert!(!token.stop_before_rank(1));
        }
        assert!(!token.is_cancelled(), "reaching the rank does not trip the shared flag");
        assert!(!token.checkpoint() && !token.checkpoint(), "the batch fuse is untouched");
        assert!(token.checkpoint(), "and trips on its own n-th checkpoint");
        assert!(token.stop_before_rank(1), "an explicit cancel stops every rank");
    }

    #[test]
    fn zero_checkpoint_fuse_is_immediately_cancelled() {
        let token = CancelToken::after_checkpoints(0);
        assert!(token.is_cancelled());
    }

    #[test]
    fn rearming_an_existing_token_schedules_a_future_trip() {
        let token = CancelToken::new();
        assert!(!token.checkpoint());
        token.arm_after_checkpoints(2);
        assert!(!token.checkpoint());
        assert!(token.clone().checkpoint(), "the fuse is shared state, clones trip it");
    }

    #[test]
    fn slots_are_claimed_up_to_capacity_and_released_on_drop() {
        let pool = SlotPool::new(2);
        assert_eq!((pool.capacity(), pool.available()), (2, 2));
        let a = pool.try_acquire().expect("slot 1 free");
        let b = pool.try_acquire().expect("slot 2 free");
        assert!(pool.try_acquire().is_none(), "full pool rejects without blocking");
        assert_eq!(pool.in_use(), 2);
        drop(a);
        assert_eq!(pool.available(), 1);
        let c = pool.try_acquire().expect("released slot is reusable");
        drop(b);
        drop(c);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn zero_capacity_pool_rejects_everything() {
        let pool = SlotPool::new(0);
        assert!(pool.try_acquire().is_none());
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn a_panicking_holder_releases_its_slot() {
        let pool = SlotPool::new(1);
        let result = std::panic::catch_unwind({
            let pool = pool.clone();
            move || {
                let _guard = pool.try_acquire().expect("slot free");
                panic!("poisoned job");
            }
        });
        assert!(result.is_err());
        assert_eq!(pool.in_use(), 0, "unwinding dropped the guard");
        assert!(pool.try_acquire().is_some(), "capacity is back for the next job");
    }
}
