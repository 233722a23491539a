//! Append-only job journal — the daemon's crash-safe memory.
//!
//! The evaluation daemon survives restarts by writing one JSONL line per
//! job state transition to a journal file *before* acting on the
//! transition. On startup it folds the journal: jobs whose last state was
//! terminal are history, jobs still `Queued` are re-queued, and jobs
//! caught `Running` mid-crash are re-marked [`JobState::Aborted`] with an
//! explanatory detail (the work they did is unrecoverable — reruns are
//! cheap and deterministic, silent half-results are not).
//!
//! Crash tolerance is structural, not transactional: appends flush and
//! sync line-at-a-time, and opening the journal truncates a torn trailing
//! line (the one write a crash can interrupt) so later appends start on a
//! fresh line. Everything else is ordinary JSONL —
//! inspectable with the same tools as the run store's records.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Lifecycle state of a journaled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted and waiting for a queue slot.
    Queued,
    /// Claimed by the executor.
    Running,
    /// Finished successfully.
    Completed,
    /// Cancelled on request; partial telemetry may have been flushed.
    Cancelled,
    /// The job itself failed (invalid spec, store error, …).
    Failed,
    /// The daemon died while the job was running.
    Aborted,
}

impl JobState {
    /// Stable lowercase name for listings.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::Aborted => "aborted",
        }
    }

    /// Whether the job can change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed | JobState::Aborted
        )
    }
}

/// One journal line: job `id` entered `state`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Daemon-assigned job id (monotonic per daemon lifetime).
    pub id: u64,
    /// The state the job entered.
    pub state: JobState,
    /// Human-readable context: a cancel reason, an error, a run id.
    pub detail: Option<String>,
    /// The submitted job spec, carried on the `Queued` line only so a
    /// restart can resume queued work.
    pub spec: Option<Value>,
}

impl JournalEntry {
    /// A bare transition with no detail or spec payload.
    pub fn transition(id: u64, state: JobState) -> Self {
        JournalEntry { id, state, detail: None, spec: None }
    }
}

/// A job's folded journal history: its latest state plus the submit-time
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledJob {
    /// Daemon-assigned job id.
    pub id: u64,
    /// Latest state observed in the journal.
    pub state: JobState,
    /// Detail from the latest transition that carried one.
    pub detail: Option<String>,
    /// The spec recorded on the `Queued` line, if any.
    pub spec: Option<Value>,
}

/// The append-only journal file.
pub struct Journal {
    path: PathBuf,
    file: File,
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// Open (or create) the journal at `path`, loading every intact line.
    ///
    /// A torn trailing line — the footprint of a crash mid-append — is
    /// truncated from the file; any other malformed line is an error,
    /// because it means something other than this daemon wrote the file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Cut the torn tail off the file itself, not just the parse: the
        // next append would otherwise land on the fragment and turn it into
        // a corrupt line that hides the appended transition.
        let intact = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if intact < bytes.len() {
            file.set_len(intact as u64)?;
            file.sync_data()?;
        }
        let text = std::str::from_utf8(&bytes[..intact]).map_err(std::io::Error::other)?;
        let entries = parse_journal(text).map_err(std::io::Error::other)?;
        Ok(Journal { path, file, entries })
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All intact entries, in append order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Append one transition, flushing and syncing before returning so a
    /// crash after `append` cannot lose the line.
    pub fn append(&mut self, entry: JournalEntry) -> std::io::Result<()> {
        let mut line = serde_json::to_string(&entry).map_err(std::io::Error::other)?;
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.entries.push(entry);
        Ok(())
    }

    /// Fold the journal into per-job final states, keyed by job id.
    pub fn fold(&self) -> BTreeMap<u64, JournaledJob> {
        let mut jobs: BTreeMap<u64, JournaledJob> = BTreeMap::new();
        for entry in &self.entries {
            let job = jobs.entry(entry.id).or_insert_with(|| JournaledJob {
                id: entry.id,
                state: entry.state,
                detail: None,
                spec: None,
            });
            job.state = entry.state;
            if entry.detail.is_some() {
                job.detail = entry.detail.clone();
            }
            if entry.spec.is_some() {
                job.spec = entry.spec.clone();
            }
        }
        jobs
    }

    /// Crash recovery: append an `Aborted` line for every job the journal
    /// left `Running`, then return the folded state. Queued jobs come back
    /// in the returned map still `Queued` — the caller re-queues them in
    /// id order.
    pub fn recover(&mut self, reason: &str) -> std::io::Result<BTreeMap<u64, JournaledJob>> {
        let folded = self.fold();
        for job in folded.values() {
            if job.state == JobState::Running {
                let mut entry = JournalEntry::transition(job.id, JobState::Aborted);
                entry.detail = Some(reason.to_owned());
                self.append(entry)?;
            }
        }
        Ok(self.fold())
    }

    /// The highest job id the journal has seen, for id-allocation resume.
    pub fn max_id(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.id).max()
    }
}

/// Parse the intact (newline-terminated) part of a journal. Every line
/// must be an entry: the torn tail is already gone, so a malformed line
/// means something other than this daemon wrote the file.
fn parse_journal(text: &str) -> Result<Vec<JournalEntry>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            serde_json::from_str(line).map_err(|e| format!("journal line {}: {e}", idx + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("idse-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn appends_survive_reopen() {
        let path = temp_journal("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path).expect("opens");
            let mut submitted = JournalEntry::transition(1, JobState::Queued);
            submitted.spec = Some(json!({ "kind": "evaluate" }));
            journal.append(submitted).expect("appends");
            journal.append(JournalEntry::transition(1, JobState::Running)).expect("appends");
        }
        let journal = Journal::open(&path).expect("reopens");
        assert_eq!(journal.entries().len(), 2);
        let folded = journal.fold();
        assert_eq!(folded[&1].state, JobState::Running);
        assert!(folded[&1].spec.is_some(), "submit payload survives the fold");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_torn_trailing_line_is_ignored() {
        let path = temp_journal("torn");
        let entry = JournalEntry::transition(3, JobState::Queued);
        let mut text = serde_json::to_string(&entry).expect("entry serializes");
        text.push('\n');
        text.push_str("{\"id\": 4, \"state\": \"Ru"); // crash mid-append
        std::fs::write(&path, text).expect("writes");
        let journal = Journal::open(&path).expect("opens despite the torn line");
        assert_eq!(journal.entries().len(), 1);
        assert_eq!(journal.entries()[0].id, 3);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_malformed_interior_line_fails_loudly() {
        let path = temp_journal("corrupt");
        std::fs::write(
            &path,
            "not json\n{\"id\":1,\"state\":\"Queued\",\"detail\":null,\"spec\":null}\n",
        )
        .expect("writes");
        assert!(Journal::open(&path).is_err(), "interior corruption is not a torn line");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn recover_aborts_running_jobs_and_requeues_nothing_terminal() {
        let path = temp_journal("recover");
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path).expect("opens");
            for id in 1..=4 {
                journal.append(JournalEntry::transition(id, JobState::Queued)).expect("appends");
            }
            journal.append(JournalEntry::transition(1, JobState::Running)).expect("appends");
            journal.append(JournalEntry::transition(1, JobState::Completed)).expect("appends");
            journal.append(JournalEntry::transition(2, JobState::Running)).expect("appends");
            // ... daemon dies here: 2 running, 3 and 4 still queued.
        }
        let mut journal = Journal::open(&path).expect("reopens");
        let folded = journal.recover("daemon restarted mid-run").expect("recovers");
        assert_eq!(folded[&1].state, JobState::Completed);
        assert_eq!(folded[&2].state, JobState::Aborted);
        assert_eq!(folded[&2].detail.as_deref(), Some("daemon restarted mid-run"));
        assert_eq!(folded[&3].state, JobState::Queued);
        assert_eq!(folded[&4].state, JobState::Queued);
        assert_eq!(journal.max_id(), Some(4));

        // Recovery is itself journaled: a second restart sees the abort.
        let journal = Journal::open(&path).expect("reopens again");
        assert_eq!(journal.fold()[&2].state, JobState::Aborted);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_crash_at_any_byte_survives_three_restarts() {
        // Record a multi-job journal, then tear it at every byte offset —
        // every point a crash mid-append can leave behind — and restart
        // three times from each prefix.
        let source = temp_journal("tear-source");
        let _ = std::fs::remove_file(&source);
        {
            let mut journal = Journal::open(&source).expect("opens");
            for id in 1..=3 {
                let mut queued = JournalEntry::transition(id, JobState::Queued);
                queued.spec = Some(json!({ "kind": "stream", "transactions": 1000 * id }));
                journal.append(queued).expect("appends");
            }
            journal.append(JournalEntry::transition(1, JobState::Running)).expect("appends");
            let mut done = JournalEntry::transition(1, JobState::Completed);
            done.detail = Some("run 5f3a — stored".to_owned());
            journal.append(done).expect("appends");
            journal.append(JournalEntry::transition(2, JobState::Running)).expect("appends");
            journal.append(JournalEntry::transition(3, JobState::Running)).expect("appends");
        }
        let bytes = std::fs::read(&source).expect("reads");
        std::fs::remove_file(&source).expect("cleanup");

        let path = temp_journal("tear");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("writes the torn prefix");
            let mut after_recovery = None;
            for life in 1..=3 {
                let mut journal = Journal::open(&path)
                    .unwrap_or_else(|e| panic!("cut {cut}, life {life}: open failed: {e}"));
                if let Some(previous) = &after_recovery {
                    // Nothing an earlier life journaled may be lost.
                    assert_eq!(&journal.fold(), previous, "cut {cut}, life {life}");
                }
                let folded = journal.recover("restarted").expect("recovers");
                assert!(
                    folded.values().all(|job| job.state != JobState::Running),
                    "cut {cut}, life {life}: a running job survived recovery"
                );
                after_recovery = Some(folded);
            }
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn terminal_states_are_exactly_the_non_resumable_ones() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for state in [JobState::Completed, JobState::Cancelled, JobState::Failed, JobState::Aborted]
        {
            assert!(state.is_terminal(), "{} is terminal", state.name());
        }
    }
}
