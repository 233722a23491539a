//! `service`: `daemon serve --jobs 2` with a journal, driven over its Unix
//! socket by one closed-loop client. Each job is a small FlowHunter-only
//! stream job; the client submits it, follows it with `watch` to the
//! terminal line, fetches its result with `status`, then submits the next.
//!
//! Timed from outside: `setup_s` runs from spawning the daemon until it
//! answers on its first accepted connection; a job's latency runs from
//! sending `submit` until the terminal `watch` line arrives.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use idse_daemon::{execute_job, DaemonConfig, JobOutcome};
use idse_eval::JobSpec;
use idse_exec::CancelToken;
use idse_ids::products::{IdsProduct, ProductId};
use serde_json::Value;

use crate::stats::{median, reported_tail};
use crate::trace::Tracer;
use crate::{op_seed, stream, Ctx, Report, JOBS};

/// Daemon starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Distinct job specs per run; job `k` submits spec `k % SPECS`.
const SPECS: usize = 8;
/// Jobs per run: the fewest that leave ten samples beyond p90. The count
/// is fixed rather than set by `--seconds`, because the daemon keeps every
/// finished job's events, so its peak memory grows with the jobs it ran.
const JOBS_PER_RUN: usize = 100;
/// Longest a run keeps submitting.
const MAX_LOOP: Duration = Duration::from_secs(120);
/// Longest to wait for a daemon to answer or to exit.
const PATIENCE: Duration = Duration::from_secs(20);

/// Spec `index`: 200–500 transactions at 100 sessions/s over two shards,
/// seeded by [`op_seed`].
fn job_spec(seed: u64, index: usize) -> JobSpec {
    let seed = op_seed(seed, index as u64);
    JobSpec {
        seed: Some(seed),
        products: Some(vec!["flow".to_owned()]),
        rate: Some(100.0),
        transactions: Some(200 + seed % 301),
        shards: Some(2),
        ..JobSpec::stream()
    }
}

/// A live daemon and the client connection it accepted.
struct Daemon {
    child: KillOnDrop,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    journal: PathBuf,
}

impl Daemon {
    /// Spawn `daemon serve` in `dir` and wait for its first answer.
    fn start(binary: &Path, dir: &Path) -> std::io::Result<(Daemon, f64)> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("d.sock");
        let journal = dir.join("journal.jsonl");
        let started = Instant::now();
        let child = Command::new(binary)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--queue", "4", "--jobs", &JOBS.to_string(), "--journal"])
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let child = KillOnDrop(Some(child));
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(e) if started.elapsed() > PATIENCE => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        let mut daemon = Daemon {
            child,
            reader: BufReader::with_capacity(1 << 20, stream.try_clone()?),
            writer: stream,
            journal,
        };
        let first = daemon.request(&serde_json::json!({ "cmd": "list" }))?;
        let setup = started.elapsed().as_secs_f64();
        if !first.starts_with("{\"ok\":true") {
            return Err(std::io::Error::other(format!("daemon answered {first}")));
        }
        Ok((daemon, setup))
    }

    fn send(&mut self, request: &Value) -> std::io::Result<()> {
        let line = serde_json::to_string(request).map_err(std::io::Error::other)?;
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon hung up"));
        }
        Ok(line)
    }

    fn request(&mut self, request: &Value) -> std::io::Result<String> {
        self.send(request)?;
        self.read_line()
    }

    /// `VmHWM` of the daemon process, in MiB.
    fn peak_rss_mib(&self) -> f64 {
        let pid = self.child.0.as_ref().map_or(0, Child::id);
        crate::vm_hwm_mib(&format!("/proc/{pid}/status"))
    }

    /// Graceful shutdown; waits for the process to exit.
    fn stop(mut self) -> std::io::Result<()> {
        let answer = self.request(&serde_json::json!({ "cmd": "shutdown", "graceful": true }));
        drop(self.reader);
        drop(self.writer);
        let deadline = Instant::now() + PATIENCE;
        let child = self.child.0.as_mut().expect("child held until stopped");
        while child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("daemon did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.0 = None;
        answer.map(drop)
    }
}

/// Kills and reaps a child that is still held when dropped, so no exit
/// path leaves a daemon running.
struct KillOnDrop(Option<Child>);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What one job cost and returned, seen from the client.
struct JobRecord {
    spec: usize,
    submit_s: f64,
    latency_s: f64,
    watch_lines: u64,
    watch_bytes: u64,
    state: String,
    result: Option<String>,
}

/// Submit spec `index`, follow it to the terminal `watch` line, then
/// fetch its result. `None` when the daemon refused the submit.
fn run_job(
    daemon: &mut Daemon,
    specs: &[JobSpec],
    index: usize,
    tracer: Option<(&Tracer, u64)>,
) -> std::io::Result<Option<JobRecord>> {
    let spec = &specs[index];
    let submit = serde_json::json!({ "cmd": "submit", "spec": serde_json::to_value(spec).map_err(std::io::Error::other)? });
    let timed = |name: &str, f: &mut dyn FnMut() -> std::io::Result<String>| match tracer {
        Some((t, parent)) => t.span(Some(parent), name, |_| f()),
        None => f(),
    };
    let started = Instant::now();
    let ack = timed("daemon.submit", &mut || daemon.request(&submit))?;
    let submit_s = started.elapsed().as_secs_f64();
    let ack: Value = serde_json::from_str(&ack).map_err(std::io::Error::other)?;
    let Some(id) = ack.get("id").and_then(Value::as_u64) else { return Ok(None) };

    let (mut lines, mut bytes) = (0u64, 0u64);
    let terminal = timed("daemon.watch", &mut || {
        daemon.send(&serde_json::json!({ "cmd": "watch", "id": id }))?;
        loop {
            let line = daemon.read_line()?;
            lines += 1;
            bytes += line.len() as u64;
            if line.starts_with("{\"ok\":") {
                return Ok(line);
            }
        }
    })?;
    let latency_s = started.elapsed().as_secs_f64();
    let terminal: Value = serde_json::from_str(&terminal).map_err(std::io::Error::other)?;
    let state = terminal.get("state").and_then(Value::as_str).unwrap_or("unknown").to_owned();

    let status = timed("daemon.status", &mut || {
        daemon.request(&serde_json::json!({ "cmd": "status", "id": id }))
    })?;
    let status: Value = serde_json::from_str(&status).map_err(std::io::Error::other)?;
    let result = status
        .get("job")
        .and_then(|j| j.get("result"))
        .filter(|r| **r != Value::Null)
        .map(|r| serde_json::to_string(r).expect("a parsed value serializes"));
    Ok(Some(JobRecord {
        spec: index,
        submit_s,
        latency_s,
        watch_lines: lines,
        watch_bytes: bytes,
        state,
        result,
    }))
}

/// The closed loop: `count` jobs, one at a time.
fn closed_loop(
    daemon: &mut Daemon,
    specs: &[JobSpec],
    first_job: usize,
    count: usize,
    tracer: Option<(&Tracer, u64)>,
    report: &mut Report,
) -> std::io::Result<(Vec<JobRecord>, f64)> {
    let started = Instant::now();
    let mut records = Vec::with_capacity(count);
    for k in first_job..first_job + count {
        if started.elapsed() > MAX_LOOP {
            report.problem(format!("the closed loop ran out of time after {} jobs", k - first_job));
            report.fail((first_job + count - k) as u64);
            break;
        }
        report.attempt(1);
        let spec = k % specs.len();
        let record = match tracer {
            Some((t, parent)) => {
                t.span(Some(parent), "job", |job| run_job(daemon, specs, spec, Some((t, job))))?
            }
            None => run_job(daemon, specs, spec, None)?,
        };
        match record {
            Some(r) => records.push(r),
            None => {
                report.problem(format!("daemon refused job {k}"));
                report.fail(1);
            }
        }
    }
    Ok((records, started.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> std::io::Result<()> {
    let binary = ctx.daemon.clone().ok_or_else(|| {
        std::io::Error::other("--daemon PATH is required for the service workload")
    })?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (daemon, setup) = Daemon::start(&binary, &ctx.workdir.join(format!("daemon-{rep}")))?;
        setups.push(setup);
        if rep + 1 == SETUP_REPS {
            live = Some(daemon);
        } else {
            daemon.stop()?;
        }
    }
    report.set("setup_s", median(&setups), setups.len());
    let mut daemon = live.expect("the last daemon stays up");

    let specs: Vec<JobSpec> = (0..SPECS).map(|i| job_spec(ctx.seed, i)).collect();
    let result = if ctx.trace {
        traced(ctx, &mut daemon, &specs, report)
    } else {
        closed_loop(&mut daemon, &specs, 0, JOBS_PER_RUN, None, report).map(|(jobs, wall)| {
            summarize(&jobs, wall, report);
            let references: Vec<Option<String>> = specs.iter().map(|s| reference(s).0).collect();
            check(&references, &jobs, report);
        })
    };
    let peak = daemon.peak_rss_mib();
    let journal = daemon.journal.clone();
    daemon.stop()?;
    result?;
    report.set("peak_rss_mib", peak, 1);
    if ctx.trace {
        let appends = std::fs::read_to_string(journal)?.lines().count();
        report.set(
            "store.journal_appends",
            appends as f64 / report.attempted as f64,
            report.attempted as usize,
        );
    }
    Ok(())
}

fn summarize(jobs: &[JobRecord], wall: f64, report: &mut Report) {
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    report.set("wall_s", wall, 1);
    report.set("job_latency_p50_ms", median(&latencies) * 1e3, latencies.len());
    report.set("job_latency_p90_ms", reported_tail(&latencies, 0.9) * 1e3, latencies.len());
    report.set("jobs_per_s", jobs.len() as f64 / wall, jobs.len());
    let records: u64 = jobs.iter().filter_map(|j| j.result.as_deref()).map(result_records).sum();
    report.set("records_per_s", records as f64 / wall, jobs.len());
}

fn result_records(result: &str) -> u64 {
    serde_json::from_str::<Value>(result)
        .ok()
        .and_then(|v| v.get("products").cloned())
        .and_then(|p| match p {
            Value::Array(items) => {
                Some(items.iter().filter_map(|i| i.get("records")?.as_u64()).sum())
            }
            _ => None,
        })
        .unwrap_or(0)
}

/// In-process `execute_job` of one spec: the reference result, and how
/// long it took.
fn reference(spec: &JobSpec) -> (Option<String>, f64) {
    let started = Instant::now();
    let (outcome, _) =
        execute_job(spec, JOBS, DaemonConfig::default().telemetry_capacity, &CancelToken::new());
    let took = started.elapsed().as_secs_f64();
    match outcome {
        JobOutcome::Completed(v) => {
            (Some(serde_json::to_string(&v).expect("results serialize")), took)
        }
        _ => (None, took),
    }
}

/// Every job completed, with the result in-process execution of its spec
/// gives.
fn check(references: &[Option<String>], jobs: &[JobRecord], report: &mut Report) {
    for (k, job) in jobs.iter().enumerate() {
        if job.state != "completed" || job.result.is_none() || job.result != references[job.spec] {
            report.problem(format!(
                "job {k} ({}): daemon result {:?} vs in-process {:?}",
                job.state, job.result, references[job.spec]
            ));
            report.fail(1);
        }
    }
}

/// Half the jobs untraced, half traced; then the in-process reference and
/// the layer replay of every distinct spec.
fn traced(
    ctx: &Ctx,
    daemon: &mut Daemon,
    specs: &[JobSpec],
    report: &mut Report,
) -> std::io::Result<()> {
    let half = JOBS_PER_RUN / 2;
    let (plain, plain_wall) = closed_loop(daemon, specs, 0, half, None, report)?;
    let tracer = Tracer::new(ctx.run_id());
    let (traced_jobs, traced_wall, root) = tracer.span(None, "loop", |root| {
        closed_loop(daemon, specs, half, half, Some((&tracer, root)), report)
            .map(|(jobs, wall)| (jobs, wall, root))
    })?;
    let mut all = plain;
    let plain_count = all.len();
    all.extend(traced_jobs);
    summarize(&all, plain_wall + traced_wall, report);
    let (references, executes): (Vec<Option<String>>, Vec<f64>) =
        tracer.span(None, "reference", |parent| {
            specs
                .iter()
                .map(|s| tracer.span(Some(parent), "daemon.execute", |_| reference(s)))
                .unzip()
        });
    check(&references, &all, report);
    let flow = [IdsProduct::model(ProductId::FlowHunter)];
    let (replay_root, replayed) = tracer.span(None, "replay", |parent| {
        let replayed: Vec<stream::Replayed> = specs
            .iter()
            .flat_map(|s| {
                let request = s.to_request().expect("valid job spec").with_jobs(JOBS);
                stream::replay(&tracer, parent, &request, &flow, s.resolved_sensitivity())
            })
            .collect();
        (parent, replayed)
    });
    let replay_duration =
        tracer.spans().iter().find(|s| s.id == replay_root).map_or(0.0, |s| s.duration());
    stream::report_replay(&tracer, &replayed, replay_duration, report);

    let latency =
        |jobs: &[JobRecord]| median(&jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>());
    let p50 = latency(&all);
    let execute = median(&executes);
    report.set("daemon.execute_ms", execute * 1e3, executes.len());
    report.set("daemon.overhead_ms", (p50 - execute) * 1e3, all.len());
    report.set(
        "daemon.submit_ms",
        median(&all.iter().map(|j| j.submit_s).collect::<Vec<_>>()) * 1e3,
        all.len(),
    );
    let per_job =
        |f: fn(&JobRecord) -> u64| all.iter().map(f).sum::<u64>() as f64 / all.len().max(1) as f64;
    report.set("daemon.watch_lines", per_job(|j| j.watch_lines), all.len());
    report.set("daemon.watch_bytes", per_job(|j| j.watch_bytes), all.len());
    report.set("trace.coverage", tracer.leaf_coverage(root), 1);
    report.set(
        "trace.overhead_s",
        latency(&all[plain_count..]) - latency(&all[..plain_count]),
        all.len(),
    );
    report.finish_trace(&tracer);
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_run_has_ten_jobs_beyond_p90() {
        assert_eq!(super::JOBS_PER_RUN, crate::stats::samples_needed(0.9));
    }
}
