//! Continuous evaluation service for the IDS evaluation harness.
//!
//! Batch bins run one evaluation and exit; a procurement lab wants a
//! *service*: submit jobs, watch their telemetry, cancel the ones that
//! turned out wrong, and survive a restart without losing the ledger.
//! This crate is that service, built from the pieces the workspace
//! already trusts:
//!
//! * Jobs are [`idse_eval::JobSpec`]s — the same validated spec the
//!   `evaluate` CLI builds from its flags, so a daemon-submitted run and
//!   a direct CLI run produce byte-identical store records by
//!   construction.
//! * Admission is a bounded [`idse_exec::SlotPool`]: a full queue rejects
//!   the submit with a reason (backpressure is explicit, never a silent
//!   wait), and a finished, cancelled, or panicked job releases its slot
//!   deterministically through the RAII guard, which unwinding drops.
//! * Cancellation is the cooperative [`idse_exec::CancelToken`], observed
//!   at the chunk boundaries of the streaming path and the job starts of
//!   the batch path; each checkpoint has a canonical rank, so an armed
//!   `after_chunks` stops a stream or batch job at the same checkpoints at
//!   any worker count.
//! * A job's telemetry is folded as it arrives into per-stage aggregates
//!   ([`idse_telemetry::SummarySink`]) with an explicit count of what the
//!   key cap dropped, so a finished job costs the daemon O(stages ×
//!   scopes) memory, not O(events).
//! * Every state transition is appended to the crash-safe
//!   [`idse_store::Journal`]; on restart, queued work resumes and jobs
//!   that were mid-flight are re-marked aborted.
//!
//! The protocol is line-delimited JSON ([`protocol`]). It runs over a
//! Unix-domain socket ([`server`], Unix only) or, for deterministic tests
//! and CI, over a replay script with no socket at all ([`replay`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod protocol;
pub mod replay;
#[cfg(unix)]
pub mod server;

pub use core::{execute_job, DaemonConfig, DaemonCore, Job, JobOutcome};
pub use protocol::Request;
pub use replay::replay;
