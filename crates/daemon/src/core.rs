//! Daemon state machine: job table, bounded queue, journal, execution.
//!
//! [`DaemonCore`] is transport-agnostic — the replay driver and the Unix
//! socket server both feed it parsed [`Request`]s and forward the
//! response lines it returns. All state transitions happen here, under
//! one `&mut self`, so the protocol behaves identically with and without
//! a socket; only *when* queued jobs execute differs (replay drains on
//! demand, the live server has a runner loop).
//!
//! The queue is bounded by a [`SlotPool`]: each accepted job holds a
//! [`SlotGuard`] from submit until it reaches a terminal state, so
//! capacity counts queued *and* running work and is released
//! deterministically by RAII — including when a job panics (the executor
//! unwinds through `catch_unwind`) or is cancelled.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use idse_eval::{JobKind, JobSpec};
use idse_exec::{CancelToken, SlotGuard, SlotPool};
use idse_store::{JobState, Journal, JournalEntry};
use idse_telemetry::{Aggregate, Aggregates, SummarySink, Telemetry};
use serde_json::Value;

use crate::protocol::{error_line, line, Request};

/// Tuning knobs for a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Queue capacity: queued + running jobs the daemon admits at once.
    pub queue_capacity: usize,
    /// Worker threads each evaluation runs with.
    pub jobs: usize,
    /// Most distinct `(scope, name, kind)` telemetry aggregates one job
    /// keeps; events on any further key are counted in its `dropped`,
    /// with the events a shard job's buffer evicted before the fold.
    pub telemetry_capacity: usize,
    /// Journal file for crash-safe restart; `None` disables journaling.
    pub journal: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { queue_capacity: 4, jobs: 1, telemetry_capacity: 1 << 16, journal: None }
    }
}

impl DaemonConfig {
    /// Set the queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the per-evaluation worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enable journaling at `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }
}

/// One job's full daemon-side record.
#[derive(Debug)]
pub struct Job {
    /// Daemon-assigned id (monotonic across restarts via the journal).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Context for the latest transition (error text, cancel reason, …).
    pub detail: Option<String>,
    /// The job's telemetry folded per `(scope, name, kind)`, once it has
    /// run. Partial for cancelled jobs — everything up to the observed
    /// chunk boundary.
    pub telemetry: Option<Aggregates>,
    /// Structured result summary for completed jobs.
    pub result: Option<Value>,
    /// Shared cancellation flag; clones travel into the executing job.
    pub cancel: CancelToken,
    /// Queue admission permit, dropped at the terminal transition.
    slot: Option<SlotGuard>,
}

impl Job {
    /// One-line JSON snapshot for `status` / `list` responses.
    pub fn snapshot(&self) -> Value {
        serde_json::json!({
            "id": self.id,
            "kind": self.spec.job_kind().map(JobKind::name).unwrap_or("invalid"),
            "label": self.spec.label(),
            "state": self.state.name(),
            "detail": self.detail,
            "aggregates": self.telemetry.as_ref().map_or(0, |t| t.entries.len()),
            "dropped": self.telemetry.as_ref().map_or(0, |t| t.dropped),
            "result": self.result,
        })
    }
}

/// How an executed job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Ran to completion; carries the result summary.
    Completed(Value),
    /// Stopped at a cancellation point; partial telemetry was flushed.
    Cancelled,
    /// The spec failed validation or the run could not record its store.
    Failed(String),
}

/// A job claimed for execution by [`DaemonCore::begin_next`].
///
/// Everything [`execute_job`] needs, detached from the core so the live
/// server can run the job without holding the state lock.
#[derive(Debug)]
pub struct StartedJob {
    /// Daemon-assigned id.
    pub id: u64,
    /// The spec to execute.
    pub spec: JobSpec,
    /// Clone of the job's cancellation token.
    pub cancel: CancelToken,
}

/// The daemon state machine.
pub struct DaemonCore {
    config: DaemonConfig,
    slots: SlotPool,
    jobs: BTreeMap<u64, Job>,
    pending: VecDeque<u64>,
    running: Option<u64>,
    journal: Option<Journal>,
    next_id: u64,
    draining: bool,
    stopped: bool,
}

impl DaemonCore {
    /// Build a core, opening and recovering the journal when configured.
    ///
    /// Recovery re-marks jobs the previous process left `Running` as
    /// `Aborted` (their worker died with the daemon) and re-queues jobs
    /// that were still `Queued`, preserving id order.
    pub fn new(config: DaemonConfig) -> std::io::Result<DaemonCore> {
        let slots = SlotPool::new(config.queue_capacity);
        let mut core = DaemonCore {
            slots,
            jobs: BTreeMap::new(),
            pending: VecDeque::new(),
            running: None,
            journal: None,
            next_id: 1,
            draining: false,
            stopped: false,
            config,
        };
        if let Some(path) = core.config.journal.clone() {
            let mut journal = Journal::open(&path)?;
            let recovered = journal.recover("daemon restarted while the job was running")?;
            core.next_id = journal.max_id().map_or(1, |id| id + 1);
            core.journal = Some(journal);
            for (id, job) in recovered {
                let spec = job
                    .spec
                    .clone()
                    .and_then(|v| serde_json::from_value::<JobSpec>(v).ok())
                    .unwrap_or_default();
                let mut record = Job {
                    id,
                    spec,
                    state: job.state,
                    detail: job.detail,
                    telemetry: None,
                    result: None,
                    cancel: CancelToken::new(),
                    slot: None,
                };
                if job.state == JobState::Queued {
                    match core.slots.try_acquire() {
                        Some(slot) => {
                            record.slot = Some(slot);
                            core.pending.push_back(id);
                        }
                        None => {
                            record.state = JobState::Aborted;
                            record.detail =
                                Some("queue capacity shrank across restart".to_string());
                            core.append_journal(JournalEntry {
                                id,
                                state: JobState::Aborted,
                                detail: record.detail.clone(),
                                spec: None,
                            })?;
                        }
                    }
                }
                core.jobs.insert(id, record);
            }
        }
        Ok(core)
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Ids of jobs waiting to run, in submission order.
    pub fn pending(&self) -> impl Iterator<Item = u64> + '_ {
        self.pending.iter().copied()
    }

    /// Whether nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_none()
    }

    /// Whether a shutdown has been requested (graceful or not).
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Whether the daemon should stop now: a non-graceful shutdown, or a
    /// graceful one whose queue has drained.
    pub fn should_stop(&self) -> bool {
        self.stopped || (self.draining && self.is_idle())
    }

    /// Look up a job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Handle one request, returning the response lines.
    ///
    /// Purely a state transition: `drain` and graceful `shutdown` only
    /// *mark* intent here — the caller (replay driver or server runner)
    /// decides when queued jobs actually execute.
    pub fn handle(&mut self, request: Request) -> Vec<String> {
        match request {
            Request::Submit(spec) => vec![self.submit(*spec)],
            Request::Status { id } => match self.jobs.get(&id) {
                Some(job) => {
                    vec![line(&serde_json::json!({ "ok": true, "job": job.snapshot() }))]
                }
                None => vec![error_line(&format!("no such job: {id}"))],
            },
            Request::Watch { id } => self.watch(id),
            Request::Cancel { id, after_chunks } => vec![self.cancel(id, after_chunks)],
            Request::List => {
                let jobs: Vec<Value> = self.jobs.values().map(Job::snapshot).collect();
                vec![line(&serde_json::json!({ "ok": true, "jobs": jobs }))]
            }
            Request::Drain => {
                vec![line(&serde_json::json!({ "ok": true, "pending": self.pending.len() }))]
            }
            Request::Shutdown { graceful } => {
                self.draining = true;
                if !graceful {
                    self.stopped = true;
                }
                vec![line(&serde_json::json!({
                    "ok": true,
                    "graceful": graceful,
                    "pending": self.pending.len(),
                }))]
            }
        }
    }

    /// Admit a job or reject it with a reason (the backpressure path).
    fn submit(&mut self, spec: JobSpec) -> String {
        if self.draining {
            return error_line("daemon is draining: new submissions are refused");
        }
        if let Err(e) = spec.to_request() {
            return error_line(&format!("invalid job spec: {e}"));
        }
        let Some(slot) = self.slots.try_acquire() else {
            return error_line(&format!(
                "queue full: {} of {} slots in use; retry after a job finishes",
                self.slots.in_use(),
                self.slots.capacity(),
            ));
        };
        let id = self.next_id;
        self.next_id += 1;
        let spec_value = serde_json::to_value(&spec).ok();
        let label = spec.label();
        if let Err(e) = self.append_journal(JournalEntry {
            id,
            state: JobState::Queued,
            detail: Some(label.clone()),
            spec: spec_value,
        }) {
            return error_line(&format!("journal append failed: {e}"));
        }
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                state: JobState::Queued,
                detail: None,
                telemetry: None,
                result: None,
                cancel: CancelToken::new(),
                slot: Some(slot),
            },
        );
        self.pending.push_back(id);
        line(&serde_json::json!({ "ok": true, "id": id, "state": "queued", "label": label }))
    }

    /// The `watch` response for job `id`, valid in any state: the
    /// `running` phase line once the job has started, one `summary` line
    /// per telemetry aggregate in key order, the terminal phase line, then
    /// the one line starting `{"ok":`, which counts the aggregates and the
    /// events the summary could not fold.
    pub fn watch(&self, id: u64) -> Vec<String> {
        let Some(job) = self.jobs.get(&id) else {
            return vec![error_line(&format!("no such job: {id}"))];
        };
        let empty = Aggregates::default();
        let aggregates = job.telemetry.as_ref().unwrap_or(&empty);
        let mut lines = Vec::with_capacity(aggregates.entries.len() + 3);
        if job.state == JobState::Running || job.telemetry.is_some() {
            lines.push(phase_line(id, "running"));
        }
        lines.extend(
            aggregates.entries.iter().map(|(&key, aggregate)| summary_line(id, key, aggregate)),
        );
        if job.state.is_terminal() {
            lines.push(phase_line(id, job.state.name()));
        }
        lines.push(line(&serde_json::json!({
            "ok": true,
            "id": id,
            "state": job.state.name(),
            "aggregates": aggregates.entries.len(),
            "dropped": aggregates.dropped,
        })));
        lines
    }

    fn cancel(&mut self, id: u64, after_chunks: Option<u64>) -> String {
        let Some(job) = self.jobs.get_mut(&id) else {
            return error_line(&format!("no such job: {id}"));
        };
        if job.state.is_terminal() {
            return error_line(&format!("job {id} is already {}", job.state.name()));
        }
        if let Some(n) = after_chunks {
            // Arm the fuse and leave the job queued/running: it will
            // observe cancellation at its n-th chunk boundary, which is
            // the only way to cancel "mid-flight" reproducibly.
            job.cancel.arm_after_checkpoints(n);
            return line(&serde_json::json!({
                "ok": true,
                "id": id,
                "state": job.state.name(),
                "cancel_after_chunks": n,
            }));
        }
        job.cancel.cancel();
        if job.state == JobState::Queued {
            self.pending.retain(|&p| p != id);
            // Unwrap-free finalize: transition to Cancelled and release
            // the queue slot before the job ever runs.
            if let Err(e) = self.finalize(id, JobState::Cancelled, Some("cancelled before start")) {
                return error_line(&format!("journal append failed: {e}"));
            }
            return line(&serde_json::json!({ "ok": true, "id": id, "state": "cancelled" }));
        }
        line(&serde_json::json!({ "ok": true, "id": id, "state": "cancelling" }))
    }

    /// Claim the next queued job for execution: mark it `Running`,
    /// journal the transition, and hand back what [`execute_job`] needs.
    ///
    /// A job whose token was cancelled while it sat in the queue is
    /// finalized as `Cancelled` here without executing.
    pub fn begin_next(&mut self) -> std::io::Result<Option<StartedJob>> {
        while let Some(id) = self.pending.pop_front() {
            let Some(job) = self.jobs.get_mut(&id) else { continue };
            if job.cancel.is_cancelled() {
                self.finalize(id, JobState::Cancelled, Some("cancelled before start"))?;
                continue;
            }
            job.state = JobState::Running;
            let started = StartedJob { id, spec: job.spec.clone(), cancel: job.cancel.clone() };
            self.running = Some(id);
            self.append_journal(JournalEntry::transition(id, JobState::Running))?;
            return Ok(Some(started));
        }
        Ok(None)
    }

    /// Record an executed job's outcome: keep its folded telemetry,
    /// journal the terminal transition, release the queue slot.
    pub fn finish(
        &mut self,
        id: u64,
        outcome: JobOutcome,
        telemetry: Aggregates,
    ) -> std::io::Result<()> {
        if self.running == Some(id) {
            self.running = None;
        }
        let (state, detail) = match &outcome {
            JobOutcome::Completed(_) => (JobState::Completed, None),
            JobOutcome::Cancelled => {
                (JobState::Cancelled, Some("cancelled at a chunk boundary".to_owned()))
            }
            JobOutcome::Failed(reason) => (JobState::Failed, Some(reason.clone())),
        };
        if let Some(job) = self.jobs.get_mut(&id) {
            job.telemetry = Some(telemetry);
            if let JobOutcome::Completed(result) = outcome {
                job.result = Some(result);
            }
        }
        self.finalize(id, state, detail.as_deref())
    }

    /// Run one queued job synchronously (the replay path). Returns the
    /// finished job's id.
    pub fn run_next(&mut self) -> std::io::Result<Option<u64>> {
        let Some(started) = self.begin_next()? else { return Ok(None) };
        let (outcome, telemetry) = execute_job(
            &started.spec,
            self.config.jobs,
            self.config.telemetry_capacity,
            &started.cancel,
        );
        self.finish(started.id, outcome, telemetry)?;
        Ok(Some(started.id))
    }

    /// Drain the queue in submission order (the replay path). Returns
    /// how many jobs ran.
    pub fn run_until_idle(&mut self) -> std::io::Result<usize> {
        let mut ran = 0;
        while self.run_next()?.is_some() {
            ran += 1;
        }
        Ok(ran)
    }

    /// Terminal transition: set state/detail, journal, and drop the slot
    /// guard (deterministic release).
    fn finalize(&mut self, id: u64, state: JobState, detail: Option<&str>) -> std::io::Result<()> {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = state;
            job.detail = detail.map(str::to_owned);
            job.slot = None;
        }
        self.append_journal(JournalEntry {
            id,
            state,
            detail: detail.map(str::to_owned),
            spec: None,
        })
    }

    fn append_journal(&mut self, entry: JournalEntry) -> std::io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.append(entry),
            None => Ok(()),
        }
    }
}

/// A daemon-emitted lifecycle event, framing the job's telemetry in
/// `watch`.
fn phase_line(id: u64, phase: &str) -> String {
    line(&serde_json::json!({ "event": "phase", "id": id, "phase": phase }))
}

/// One telemetry aggregate as a `watch` line.
fn summary_line(
    id: u64,
    (scope, name, _): idse_telemetry::AggregateKey,
    aggregate: &Aggregate,
) -> String {
    let mut value = serde_json::json!({
        "event": "summary",
        "id": id,
        "scope": scope,
        "name": name,
        "kind": aggregate.label(),
    });
    let fields = match *aggregate {
        Aggregate::Span { count, total_ns, max_ns } => {
            serde_json::json!({ "count": count, "total_ns": total_ns, "max_ns": max_ns })
        }
        Aggregate::Counter { sum } => serde_json::json!({ "sum": sum }),
        Aggregate::Gauge { samples, min, sum, max } => serde_json::json!({
            "samples": samples,
            "min": min,
            "mean": sum / samples as f64,
            "max": max,
        }),
    };
    if let (Value::Object(map), Value::Object(fields)) = (&mut value, fields) {
        map.extend(fields);
    }
    line(&value)
}

/// Execute a validated spec with cooperative cancellation, returning the
/// outcome and the job's telemetry folded per `(scope, name, kind)`.
///
/// Telemetry folds into a [`SummarySink`] of at most `telemetry_capacity`
/// keys, so a job's telemetry memory is O(stages × scopes), not O(events).
/// The sink keeps no events — its `snapshot()` is `None` — so attaching it
/// cannot change what the harness records in the run store. A
/// daemon-submitted job therefore produces byte-identical store records to
/// a direct `evaluate --store` run of the same spec; the byte-identity test
/// pins this.
///
/// Cancellation is observed at chunk boundaries (stream path) and job
/// starts (batch path); whatever telemetry was flushed before the
/// observed checkpoint is returned alongside [`JobOutcome::Cancelled`].
pub fn execute_job(
    spec: &JobSpec,
    jobs: usize,
    telemetry_capacity: usize,
    cancel: &CancelToken,
) -> (JobOutcome, Aggregates) {
    let request = match spec.to_request() {
        Ok(request) => request,
        Err(e) => {
            return (JobOutcome::Failed(format!("invalid job spec: {e}")), Aggregates::default())
        }
    };
    let kind = spec.job_kind().expect("invariant: to_request validated the kind");
    let products = spec.resolve_products().expect("invariant: to_request validated products");
    let sink = SummarySink::new(telemetry_capacity);
    let request = request.with_telemetry(Telemetry::new(sink.clone())).with_jobs(jobs);
    let outcome = match kind {
        JobKind::Evaluate => {
            let feed = request.build_feed();
            match request.evaluate_products_cancellable(&products, &feed, cancel) {
                Ok(evals) => {
                    let summary: Vec<Value> = evals
                        .iter()
                        .map(|e| {
                            serde_json::json!({
                                "product": e.scorecard.system,
                                "operating_sensitivity": e.operating_sensitivity,
                            })
                        })
                        .collect();
                    JobOutcome::Completed(serde_json::json!({ "products": summary }))
                }
                Err(_) => JobOutcome::Cancelled,
            }
        }
        JobKind::Stream => {
            match request.evaluate_stream_cancellable(
                &products,
                spec.resolved_sensitivity(),
                cancel,
            ) {
                Ok(evals) => {
                    let summary: Vec<Value> = evals
                        .iter()
                        .map(|e| {
                            serde_json::json!({
                                "product": e.scorecard.product,
                                "records": e.scorecard.records,
                                "detected_attacks": e.scorecard.detected_attacks,
                                "false_positive_ratio": e.scorecard.false_positive_ratio,
                            })
                        })
                        .collect();
                    JobOutcome::Completed(serde_json::json!({ "products": summary }))
                }
                Err(_) => JobOutcome::Cancelled,
            }
        }
    };
    (outcome, sink.aggregates())
}
