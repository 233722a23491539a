//! Live service over a Unix-domain socket (Unix only).
//!
//! Two long-lived loops share one [`DaemonCore`] behind a mutex: a
//! *runner* that claims queued jobs and executes them (outside the lock,
//! so status/cancel/watch stay responsive mid-job), and an *accept* loop
//! serving protocol connections. Both are spawned through
//! [`idse_exec::with_worker`] — the one sanctioned thread primitive.
//!
//! Every change to the core is followed by a wake-up on one condition
//! variable, and everything that waits on the core — the idle runner, a
//! `watch` of an unfinished job, a `drain` — sleeps on it until the state
//! it needs holds. So a job starts the moment it is submitted and its
//! `watch` answers the moment it finishes, with no polling interval in
//! between.
//!
//! The listener is non-blocking so the accept loop can notice shutdown
//! between connections, polling with [`idse_exec::breathe`]; accepted
//! streams switch back to blocking for plain line-at-a-time I/O. One
//! connection may carry many requests; `watch` waits until the job
//! reaches a terminal state, then answers exactly what the replay driver
//! would.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};

use idse_exec::{breathe, with_worker};

use crate::core::{execute_job, DaemonCore};
use crate::protocol::{error_line, line, Request};

/// Longest request line the daemon reads, newline included. The largest
/// legitimate request, a submit carrying a job spec, is well under 1 KiB;
/// a longer line is answered with a reason and its connection dropped
/// before the line can grow the daemon's memory.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Serve the protocol on `socket` until a shutdown request completes.
///
/// Graceful shutdown drains the queue (in submission order, by the
/// single runner) while still answering status/watch, then returns
/// `Ok(())`; the process exit code is the caller's to decide.
pub fn serve(core: DaemonCore, socket: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;
    let shared = Shared { core: Mutex::new(core), changed: Condvar::new() };
    let (runner, accept) = with_worker(|| runner_loop(&shared), || accept_loop(&listener, &shared));
    let _ = std::fs::remove_file(socket);
    runner.and(accept)
}

/// The core both loops share, and the wake-up that follows each change.
struct Shared {
    core: Mutex<DaemonCore>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, DaemonCore> {
        self.core.lock().expect("invariant: daemon state lock is never poisoned")
    }

    /// Apply `change` under the lock, then wake every waiter to re-check.
    fn update<T>(&self, change: impl FnOnce(&mut DaemonCore) -> T) -> T {
        let out = change(&mut self.lock());
        self.changed.notify_all();
        out
    }

    /// Hold the lock from the first moment `ready` is true.
    fn wait_until(&self, ready: impl Fn(&DaemonCore) -> bool) -> MutexGuard<'_, DaemonCore> {
        let core = self.lock();
        self.changed
            .wait_while(core, |core| !ready(core))
            .expect("invariant: daemon state lock is never poisoned")
    }
}

/// Claim → execute → finish, one job at a time, until shutdown.
fn runner_loop(shared: &Shared) -> std::io::Result<()> {
    loop {
        let claimed = {
            let mut core =
                shared.wait_until(|core| core.should_stop() || core.pending().next().is_some());
            if core.should_stop() {
                return Ok(());
            }
            let config = core.config();
            let (jobs, capacity) = (config.jobs, config.telemetry_capacity);
            core.begin_next()?.map(|job| (job, jobs, capacity))
        };
        // Claiming marked the job running, and finished any job that was
        // cancelled before its start.
        shared.changed.notify_all();
        if let Some((job, jobs, capacity)) = claimed {
            let (outcome, telemetry) = execute_job(&job.spec, jobs, capacity, &job.cancel);
            shared.update(|core| core.finish(job.id, outcome, telemetry))?;
        }
    }
}

fn accept_loop(listener: &UnixListener, shared: &Shared) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // A broken client must not take the daemon down.
                if let Err(e) = serve_client(stream, shared) {
                    eprintln!("daemon: client connection error: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.lock().should_stop() {
                    return Ok(());
                }
                breathe();
            }
            Err(e) => return Err(e),
        }
    }
}

fn serve_client(stream: UnixStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if (&mut reader).take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        if raw.len() > MAX_REQUEST_LINE {
            let reason =
                format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing this connection");
            writeln!(writer, "{}", error_line(&reason))?;
            writer.flush()?;
            return Ok(());
        }
        let text = String::from_utf8_lossy(&raw);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match Request::parse(trimmed) {
            Ok(request) => request,
            Err(e) => {
                writeln!(writer, "{}", error_line(&e))?;
                writer.flush()?;
                continue;
            }
        };
        match request {
            Request::Watch { id } => stream_watch(&mut writer, shared, id)?,
            Request::Drain => {
                // The runner drains; this connection just waits for idle.
                drop(shared.wait_until(|core| core.is_idle() || core.should_stop()));
                writeln!(writer, "{}", line(&serde_json::json!({ "ok": true, "drained": true })))?;
            }
            other => {
                for response in shared.update(|core| core.handle(other)) {
                    writeln!(writer, "{response}")?;
                }
            }
        }
        writer.flush()?;
    }
}

/// Wait until the job is terminal (or the daemon stops), then write
/// [`DaemonCore::watch`]'s lines — the same bytes a replay's `watch` of the
/// finished job produces.
fn stream_watch(writer: &mut UnixStream, shared: &Shared, id: u64) -> std::io::Result<()> {
    let lines = shared
        .wait_until(|core| {
            core.should_stop() || core.job(id).is_none_or(|job| job.state.is_terminal())
        })
        .watch(id);
    for response in &lines {
        writeln!(writer, "{response}")?;
    }
    Ok(())
}
