//! Live service over a Unix-domain socket (Unix only).
//!
//! Two long-lived loops share one [`DaemonCore`] behind a mutex: a
//! *runner* that claims queued jobs and executes them (outside the lock,
//! so status/cancel/watch stay responsive mid-job), and an *accept* loop
//! serving protocol connections. Both are spawned through
//! [`idse_exec::with_worker`] — the one sanctioned thread primitive — and
//! poll with [`idse_exec::breathe`] instead of spinning.
//!
//! The listener is non-blocking so the accept loop can notice shutdown
//! between connections; accepted streams switch back to blocking for
//! plain line-at-a-time I/O. One connection may carry many requests;
//! `watch` streams incrementally until the job reaches a terminal state.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Mutex;

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
    let shared = Mutex::new(core);
    let (runner, accept) = with_worker(|| runner_loop(&shared), || accept_loop(&listener, &shared));
    let _ = std::fs::remove_file(socket);
    runner.and(accept)
}

fn lock(shared: &Mutex<DaemonCore>) -> std::sync::MutexGuard<'_, DaemonCore> {
    shared.lock().expect("invariant: daemon state lock is never poisoned")
}

/// Claim → execute → finish, one job at a time, until shutdown.
fn runner_loop(shared: &Mutex<DaemonCore>) -> std::io::Result<()> {
    loop {
        let started = {
            let mut core = lock(shared);
            if core.should_stop() {
                return Ok(());
            }
            core.begin_next()?
        };
        match started {
            Some(job) => {
                let (jobs, capacity) = {
                    let core = lock(shared);
                    (core.config().jobs, core.config().telemetry_capacity)
                };
                let (outcome, events) = execute_job(&job.spec, jobs, capacity, &job.cancel);
                lock(shared).finish(job.id, outcome, events)?;
            }
            None => breathe(),
        }
    }
}

fn accept_loop(listener: &UnixListener, shared: &Mutex<DaemonCore>) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // A broken client must not take the daemon down.
                if let Err(e) = serve_client(stream, shared) {
                    eprintln!("daemon: client connection error: {e}");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if lock(shared).should_stop() {
                    return Ok(());
                }
                breathe();
            }
            Err(e) => return Err(e),
        }
    }
}

fn serve_client(stream: UnixStream, shared: &Mutex<DaemonCore>) -> std::io::Result<()> {
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
                loop {
                    let core = lock(shared);
                    if core.is_idle() || core.should_stop() {
                        break;
                    }
                    drop(core);
                    breathe();
                }
                writeln!(writer, "{}", line(&serde_json::json!({ "ok": true, "drained": true })))?;
            }
            other => {
                for response in lock(shared).handle(other) {
                    writeln!(writer, "{response}")?;
                }
            }
        }
        writer.flush()?;
    }
}

/// Stream a job's event lines from the start, then follow the live tail
/// until the job is terminal (or the daemon stops). Ends with a summary
/// line so clients can tell the stream from the verdict.
fn stream_watch(
    writer: &mut UnixStream,
    shared: &Mutex<DaemonCore>,
    id: u64,
) -> std::io::Result<()> {
    let mut cursor = 0usize;
    loop {
        let (fresh, state, stopping) = {
            let core = lock(shared);
            match core.watch_from(id, cursor) {
                Some((fresh, state)) => (fresh, state, core.should_stop()),
                None => {
                    drop(core);
                    writeln!(writer, "{}", error_line(&format!("no such job: {id}")))?;
                    return Ok(());
                }
            }
        };
        for event in &fresh {
            writeln!(writer, "{event}")?;
        }
        cursor += fresh.len();
        if !fresh.is_empty() {
            writer.flush()?;
        }
        if state.is_terminal() || stopping {
            writeln!(
                writer,
                "{}",
                line(&serde_json::json!({
                    "ok": true,
                    "id": id,
                    "state": state.name(),
                    "events": cursor,
                }))
            )?;
            return Ok(());
        }
        breathe();
    }
}
