//! Jobs, job keys, and experiment plans.
//!
//! An [`ExperimentPlan`] is the declarative middle of an evaluation:
//! *plan construction* enumerates every independent unit of work as a
//! [`Job`] under an ordered [`JobKey`]; *parallel execution* runs the jobs
//! on an [`Executor`](crate::Executor) with a per-job RNG seed and a
//! per-job telemetry buffer; the *deterministic reduce* hands results (and
//! replays telemetry) back in canonical key order, so downstream
//! aggregation never observes scheduling. [`ExperimentPlan::run`] is the
//! one runner, cancellable or not: a caller with nothing to cancel passes
//! a fresh [`CancelToken`].

use idse_sim::derive_seed;
use idse_telemetry::{JobRecorder, Telemetry};

use crate::{CancelToken, Cancelled, Executor};

/// Per-job telemetry buffer capacity (events). Generous: a fully
/// instrumented operating-point pipeline run stays well under this.
pub const JOB_TELEMETRY_CAPACITY: usize = 1 << 20;

/// Ordered identity of one job.
///
/// The derived `Ord` (subject, then stage, then point) *is* the canonical
/// merge order: results grouped by evaluated subject (e.g. a product),
/// then by experiment stage, then by point index. It is also the job's
/// seed-derivation label, so identities double as RNG lineage.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey {
    /// What is being evaluated (e.g. the product name). Groups first.
    pub subject: String,
    /// Which experiment stage (e.g. `"sweep"`, `"operate"`, `"throughput"`).
    pub stage: String,
    /// Point index within the stage (sweep step, trial number, …).
    pub point: u32,
}

impl JobKey {
    /// A key for `(subject, stage, point)`.
    pub fn new(subject: impl Into<String>, stage: impl Into<String>, point: u32) -> Self {
        JobKey { subject: subject.into(), stage: stage.into(), point }
    }

    /// The seed-derivation label: `subject/stage/point`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.subject, self.stage, self.point)
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.subject, self.stage, self.point)
    }
}

/// One planned unit of work.
#[derive(Debug, Clone)]
pub struct Job<T> {
    /// Ordered identity.
    pub key: JobKey,
    /// Telemetry scope for events this job records (`None` inherits the
    /// parent handle's scope).
    pub scope: Option<&'static str>,
    /// Worker input.
    pub input: T,
}

/// What a running job can see about itself.
#[derive(Debug)]
pub struct JobCtx<'a> {
    /// The job's key.
    pub key: &'a JobKey,
    /// Canonical index of this job within the plan (key order).
    pub index: usize,
    /// This job's derived RNG seed: `derive_seed(master_seed, key.label())`.
    /// Feed it to `RngStream::derive` for named sub-streams.
    pub seed: u64,
    /// Buffered telemetry handle: events recorded here are merged into the
    /// shared sink in canonical job order after the batch completes.
    pub telemetry: Telemetry,
}

/// One job's output, tagged with its key.
#[derive(Debug, Clone)]
pub struct JobResult<O> {
    /// The job's key.
    pub key: JobKey,
    /// What the worker returned.
    pub output: O,
}

/// An ordered batch of independent jobs sharing one master seed.
#[derive(Debug, Clone)]
pub struct ExperimentPlan<T> {
    master_seed: u64,
    jobs: Vec<Job<T>>,
}

impl<T> ExperimentPlan<T> {
    /// An empty plan deriving job seeds from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        ExperimentPlan { master_seed, jobs: Vec::new() }
    }

    /// Add a job inheriting the parent telemetry scope.
    pub fn push(&mut self, key: JobKey, input: T) {
        self.jobs.push(Job { key, scope: None, input });
    }

    /// Add a job whose telemetry events carry `scope`.
    pub fn push_scoped(&mut self, key: JobKey, scope: &'static str, input: T) {
        self.jobs.push(Job { key, scope: Some(scope), input });
    }

    /// Number of planned jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The planned jobs, in insertion order.
    pub fn jobs(&self) -> &[Job<T>] {
        &self.jobs
    }

    /// Execute the plan on `exec` and reduce deterministically.
    ///
    /// Jobs run in (or are stolen out of) canonical key order; the
    /// returned results are in canonical key order; per-job telemetry
    /// buffers are replayed into `parent` in canonical key order. The
    /// output is therefore byte-identical for any worker count, including
    /// the inline serial path.
    ///
    /// Jobs return `Result<O, Cancelled>` and should poll `cancel` at
    /// their safe points (the streaming path checks at chunk boundaries);
    /// once the token trips, unstarted jobs are never claimed. Telemetry
    /// from every job that *did* run — including the one that observed the
    /// cancellation mid-flight — is still merged into `parent` in
    /// canonical key order, so a cancelled run flushes a deterministic
    /// partial event stream rather than dropping it. Returns
    /// `Err(Cancelled)` if any job was skipped or stopped early.
    ///
    /// A panicking job propagates its panic. Panics (via `assert!`) if two
    /// jobs share a key — duplicate identities would make the canonical
    /// order, and the derived seeds, ambiguous.
    pub fn run<O, F>(
        &self,
        exec: &Executor,
        parent: &Telemetry,
        cancel: &CancelToken,
        f: F,
    ) -> Result<Vec<JobResult<O>>, Cancelled>
    where
        T: Sync,
        O: Send,
        F: Fn(&JobCtx<'_>, &T) -> Result<O, Cancelled> + Sync,
    {
        let ordered = self.ordered_jobs();

        let completed = exec.try_par_map(&ordered, cancel, |index, job| {
            let scope = job.scope.unwrap_or_else(|| parent.scope());
            let recorder = JobRecorder::fork(parent, scope, JOB_TELEMETRY_CAPACITY);
            let ctx = JobCtx {
                key: &job.key,
                index,
                seed: derive_seed(self.master_seed, &job.key.label()),
                telemetry: recorder.handle(),
            };
            (f(&ctx, &job.input), recorder)
        });

        let mut results = Vec::with_capacity(ordered.len());
        let mut stopped = false;
        for (slot, job) in completed.into_iter().zip(ordered) {
            match slot {
                None => stopped = true,
                #[expect(
                    clippy::panic,
                    reason = "re-raises a job panic the executor contained for slot accounting; swallowing it would report a poisoned run as a clean cancellation"
                )]
                Some(Err(job_panic)) => {
                    panic!("plan job panicked; contain it inside the job: {job_panic}")
                }
                Some(Ok((output, recorder))) => {
                    // Flush partial telemetry even for the job that hit
                    // the cancellation point — canonical order is intact
                    // because slots are walked in key order.
                    recorder.merge_into(parent);
                    match output {
                        Ok(output) => results.push(JobResult { key: job.key.clone(), output }),
                        Err(Cancelled) => stopped = true,
                    }
                }
            }
        }
        if stopped || cancel.is_cancelled() {
            return Err(Cancelled);
        }
        Ok(results)
    }

    /// Sort jobs into canonical key order and reject ambiguous identities.
    fn ordered_jobs(&self) -> Vec<&Job<T>> {
        let mut ordered: Vec<&Job<T>> = self.jobs.iter().collect();
        ordered.sort_by(|a, b| a.key.cmp(&b.key));
        for pair in ordered.windows(2) {
            assert!(pair[0].key != pair[1].key, "duplicate job key {}", pair[0].key);
        }
        // Distinct keys can still join to one label when a subject or
        // stage contains '/' — ("a/b","c",0) and ("a","b/c",0) both label
        // "a/b/c/0" — and identical labels mean identical derived seeds.
        let mut labels: Vec<String> = ordered.iter().map(|j| j.key.label()).collect();
        labels.sort_unstable();
        for pair in labels.windows(2) {
            assert!(
                pair[0] != pair[1],
                "job keys collide after label join: {} — a '/' inside a subject or stage \
                 makes distinct keys derive identical seeds",
                pair[0]
            );
        }
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_telemetry::MemorySink;

    fn plan_of(keys: &[(&str, &str, u32)]) -> ExperimentPlan<u32> {
        let mut plan = ExperimentPlan::new(7);
        for (i, (subject, stage, point)) in keys.iter().enumerate() {
            plan.push(JobKey::new(*subject, *stage, *point), i as u32);
        }
        plan
    }

    #[test]
    fn results_come_back_in_key_order_regardless_of_insertion() {
        let plan = plan_of(&[("b", "sweep", 1), ("a", "sweep", 0), ("a", "operate", 0)]);
        let results = plan
            .run(&Executor::new(4), &Telemetry::disabled(), &CancelToken::new(), |ctx, &input| {
                Ok((ctx.index, input))
            })
            .expect("uncancelled plan completes");
        let keys: Vec<String> = results.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys, vec!["a/operate/0", "a/sweep/0", "b/sweep/1"]);
        // Outputs travel with their keys, not with insertion order.
        assert_eq!(results[1].output, (1, 1));
        assert_eq!(results[2].output, (2, 0));
    }

    #[test]
    fn job_seeds_are_scheduling_independent() {
        let plan = plan_of(&[("p", "sweep", 0), ("p", "sweep", 1), ("q", "sweep", 0)]);
        let seeds = |workers| {
            plan.run(
                &Executor::new(workers),
                &Telemetry::disabled(),
                &CancelToken::new(),
                |ctx, _| Ok(ctx.seed),
            )
            .expect("uncancelled plan completes")
            .into_iter()
            .map(|r| r.output)
            .collect::<Vec<u64>>()
        };
        let serial = seeds(1);
        assert_eq!(serial, seeds(8));
        assert_eq!(serial[0], idse_sim::derive_seed(7, "p/sweep/0"));
        assert_eq!(serial.iter().collect::<std::collections::BTreeSet<_>>().len(), 3);
    }

    #[test]
    fn telemetry_merges_in_key_order_at_any_worker_count() {
        let stream = |workers: usize| {
            let sink = MemorySink::new(1 << 12);
            let parent = Telemetry::new(sink.clone());
            let mut plan = ExperimentPlan::new(0);
            for subject in ["beta", "alpha", "gamma"] {
                for point in 0..4u32 {
                    plan.push_scoped(JobKey::new(subject, "stage", point), "s", point);
                }
            }
            plan.run(&Executor::new(workers), &parent, &CancelToken::new(), |ctx, &point| {
                ctx.telemetry.counter(u64::from(point), "job.point", u64::from(point) + 1);
                Ok(())
            })
            .expect("uncancelled plan completes");
            sink.events().iter().map(|e| e.to_jsonl()).collect::<Vec<_>>()
        };
        let serial = stream(1);
        assert_eq!(serial.len(), 12);
        assert_eq!(serial, stream(2));
        assert_eq!(serial, stream(16));
    }

    #[test]
    #[should_panic(expected = "duplicate job key")]
    fn duplicate_keys_are_rejected() {
        let plan = plan_of(&[("a", "sweep", 0), ("a", "sweep", 0)]);
        let _ =
            plan.run(&Executor::serial(), &Telemetry::disabled(), &CancelToken::new(), |_, _| {
                Ok(())
            });
    }

    #[test]
    fn run_cancellable_matches_run_when_never_cancelled() {
        let plan = plan_of(&[("b", "sweep", 1), ("a", "sweep", 0), ("a", "operate", 0)]);
        let run = |workers| {
            plan.run(
                &Executor::new(workers),
                &Telemetry::disabled(),
                &CancelToken::new(),
                |ctx, &input| Ok((ctx.seed, input)),
            )
            .expect("uncancelled plan completes")
        };
        let baseline = run(1);
        let base: Vec<_> = baseline.iter().map(|r| (&r.key, r.output)).collect();
        for workers in [1, 4] {
            let results = run(workers);
            let pairs: Vec<_> = results.iter().map(|r| (&r.key, r.output)).collect();
            assert_eq!(pairs, base, "{workers} workers changed the bytes");
        }
    }

    #[test]
    fn cancellation_flushes_partial_telemetry_in_key_order() {
        let sink = MemorySink::new(1 << 12);
        let parent = Telemetry::new(sink.clone());
        let mut plan = ExperimentPlan::new(0);
        for point in 0..5u32 {
            plan.push_scoped(JobKey::new("p", "stage", point), "s", point);
        }
        // The fuse trips inside job 2: jobs 0 and 1 complete, job 2 stops
        // after recording its first event, jobs 3 and 4 never run.
        let token = CancelToken::after_checkpoints(3);
        let outcome = plan.run(&Executor::serial(), &parent, &token, |ctx, &point| {
            ctx.telemetry.counter(u64::from(point), "job.start", u64::from(point));
            token.guard()?;
            ctx.telemetry.counter(u64::from(point), "job.end", u64::from(point));
            Ok(point)
        });
        assert!(outcome.is_err(), "the tripped fuse cancels the plan");
        let names: Vec<String> =
            sink.events().iter().map(|e| format!("{}@{}", e.name, e.at)).collect();
        assert_eq!(
            names,
            vec!["job.start@0", "job.end@0", "job.start@1", "job.end@1", "job.start@2"],
            "partial telemetry is flushed deterministically up to the cancellation point"
        );
    }

    #[test]
    #[should_panic(expected = "collide after label join")]
    fn label_join_collisions_are_rejected() {
        // Distinct keys, identical "subject/stage/point" label — the
        // derived seeds would silently coincide.
        let plan = plan_of(&[("a/b", "c", 0), ("a", "b/c", 0)]);
        let _ =
            plan.run(&Executor::serial(), &Telemetry::disabled(), &CancelToken::new(), |_, _| {
                Ok(())
            });
    }
}
