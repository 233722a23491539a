//! The `runs/` directory: an append-only, content-addressed run log.
//!
//! Each committed run lives in one file, `<run_id>.jsonl`. Because the
//! id is a hash of the run's canonical content, commits are idempotent:
//! re-recording an unchanged evaluation maps onto the file that already
//! exists, and two stores agree on identity without coordination. Files
//! are verified against their id on load, so silent edits surface as
//! [`StoreError::Corrupt`] instead of skewed history.

use crate::record::{parse_line, render_run, run_id, MetricRecord, RunDraft, RunHeader, RunRecord};
use crate::StoreError;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// A run as persisted: header, canonically-ordered records, and the file
/// they live in.
#[derive(Debug, Clone)]
pub struct StoredRun {
    /// The header line.
    pub header: RunHeader,
    /// The metric lines, in canonical (product, metric) order.
    pub metrics: Vec<MetricRecord>,
    /// The backing file.
    pub path: PathBuf,
    /// Whether this commit created the file (`false`: it already
    /// existed, or the run was loaded rather than committed).
    pub created: bool,
}

impl StoredRun {
    /// Find one record by (product, metric).
    pub fn get(&self, product: &str, metric: &str) -> Option<&MetricRecord> {
        self.metrics.iter().find(|m| m.product == product && m.metric == metric)
    }
}

/// One point in a metric's history across stored runs.
#[derive(Debug, Clone)]
pub struct HistoryPoint {
    /// The run the value was recorded in.
    pub run_id: String,
    /// That run's context (`evaluate`, `fault-matrix`, `bench`, …).
    pub context: String,
    /// That run's stamp, if one was supplied.
    pub stamp: Option<String>,
    /// The product the value was recorded for.
    pub product: String,
    /// The recorded value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// A directory of run files.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

/// The longest run-file line [`RunStore::load_file`] reads, newline
/// included. A committed line is about a kilobyte; a longer line is
/// refused as soon as this many bytes are read, never read whole.
pub const MAX_RUN_LINE: usize = 1 << 20;

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), source }
}

impl RunStore {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(RunStore { dir })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonicalize `draft`, compute its id, and persist it. Idempotent:
    /// if a file for the id already exists and verifies, the existing run
    /// is returned with [`StoredRun::created`] `false`. A file that fails
    /// to load (torn by a crash mid-write) is rewritten.
    ///
    /// The file is written to a temporary name in the same directory,
    /// synced, then renamed into place, so a crash leaves either no run
    /// file or a complete one.
    pub fn commit(&self, draft: RunDraft) -> Result<StoredRun, StoreError> {
        let (header, metrics) = draft.canonicalize()?;
        let path = self.dir.join(format!("{}.jsonl", header.run_id));
        if let Ok(existing) = self.load_file(&path) {
            return Ok(existing);
        }
        let text = render_run(&header, &metrics);
        let tmp = self.dir.join(format!(".{}.jsonl.tmp", header.run_id));
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        Ok(StoredRun { header, metrics, path, created: true })
    }

    /// Load and verify one run file, read line by line: a line longer
    /// than [`MAX_RUN_LINE`] is refused without being read whole.
    pub fn load_file(&self, path: impl AsRef<Path>) -> Result<StoredRun, StoreError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
        let mut reader = BufReader::new(file);
        let mut raw = Vec::new();
        let mut header: Option<RunHeader> = None;
        let mut metrics = Vec::new();
        for number in 1.. {
            raw.clear();
            let read = (&mut reader)
                .take(MAX_RUN_LINE as u64 + 1)
                .read_until(b'\n', &mut raw)
                .map_err(|e| io_err(path, e))?;
            if read == 0 {
                break;
            }
            let at = format!("{}:{number}", path.display());
            let parse_err = |message: String| StoreError::Parse { at: at.clone(), message };
            if raw.len() > MAX_RUN_LINE {
                return Err(parse_err(format!("line exceeds {MAX_RUN_LINE} bytes")));
            }
            // Every committed line ends in a newline; a file that does not
            // was cut short, even when its last line still parses.
            let Some(line) = raw.strip_suffix(b"\n") else {
                return Err(StoreError::Parse {
                    at: path.display().to_string(),
                    message: "torn final line (no trailing newline)".to_owned(),
                });
            };
            let line = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line))
                .map_err(|e| parse_err(format!("not UTF-8: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_line(line, &at)? {
                RunRecord::Header(h) => {
                    if header.is_some() {
                        return Err(parse_err("second header record in one run file".to_owned()));
                    }
                    header = Some(h);
                }
                RunRecord::Metric(m) => {
                    if header.is_none() {
                        return Err(parse_err("metric record before the header".to_owned()));
                    }
                    metrics.push(m);
                }
            }
        }
        let header = header.ok_or_else(|| StoreError::Parse {
            at: path.display().to_string(),
            message: "no header record".to_owned(),
        })?;
        if header.records != metrics.len() as u64 {
            return Err(StoreError::Parse {
                at: path.display().to_string(),
                message: format!(
                    "header declares {} records but {} are present",
                    header.records,
                    metrics.len()
                ),
            });
        }
        // The id is a pure function of the content; recompute and compare
        // so a hand-edited file cannot masquerade as the recorded run.
        let recomputed =
            run_id(&header.context, &header.catalog_version, &header.provenance, &metrics);
        if recomputed != header.run_id {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                expected: recomputed,
            });
        }
        Ok(StoredRun { header, metrics, path: path.to_path_buf(), created: false })
    }

    /// Every run id present in the store, sorted.
    pub fn run_ids(&self) -> Result<Vec<String>, StoreError> {
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".jsonl") {
                if stem.starts_with('r') && stem.len() == 17 {
                    ids.push(stem.to_owned());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Load every run, sorted by id.
    pub fn list(&self) -> Result<Vec<StoredRun>, StoreError> {
        self.run_ids()?
            .into_iter()
            .map(|id| self.load_file(self.dir.join(format!("{id}.jsonl"))))
            .collect()
    }

    /// Resolve a run reference: a path (anything containing a separator
    /// or ending in `.jsonl`) is loaded directly; otherwise the ref must
    /// be a unique prefix of exactly one stored run id.
    pub fn resolve(&self, run_ref: &str) -> Result<StoredRun, StoreError> {
        if run_ref.contains('/') || run_ref.contains('\\') || run_ref.ends_with(".jsonl") {
            return self.load_file(run_ref);
        }
        let matches: Vec<String> =
            self.run_ids()?.into_iter().filter(|id| id.starts_with(run_ref)).collect();
        match matches.len() {
            0 => Err(StoreError::NotFound(run_ref.to_owned())),
            1 => self.load_file(self.dir.join(format!("{}.jsonl", matches[0]))),
            _ => Err(StoreError::Ambiguous { run_ref: run_ref.to_owned(), matches }),
        }
    }

    /// The history of one metric across every stored run, optionally
    /// narrowed to one product. Points appear in run-id order; the
    /// stamps, when supplied at record time, carry the chronology.
    pub fn history(
        &self,
        metric: &str,
        product: Option<&str>,
    ) -> Result<Vec<HistoryPoint>, StoreError> {
        let mut points = Vec::new();
        for run in self.list()? {
            for m in &run.metrics {
                if m.metric != metric {
                    continue;
                }
                if let Some(p) = product {
                    if m.product != p {
                        continue;
                    }
                }
                points.push(HistoryPoint {
                    run_id: run.header.run_id.clone(),
                    context: run.header.context.clone(),
                    stamp: run.header.stamp.clone(),
                    product: m.product.clone(),
                    value: m.value,
                    unit: m.unit.clone(),
                });
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idse-store-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn draft(seed: u64, timeliness: f64) -> RunDraft {
        let mut d = RunDraft::new("evaluate", json!({ "seed": seed }));
        d.record("ExampleIDS", "Timeliness", timeliness).unwrap();
        d.record("ExampleIDS", "measure.fp_ratio", 0.05).unwrap();
        d
    }

    #[test]
    fn commit_is_idempotent_and_content_addressed() {
        let store = RunStore::open(tmp("idempotent")).unwrap();
        let first = store.commit(draft(7, 4.0)).unwrap();
        assert!(first.created);
        let again = store.commit(draft(7, 4.0)).unwrap();
        assert!(!again.created, "second commit reuses the existing file");
        assert_eq!(first.header.run_id, again.header.run_id);
        assert_eq!(store.run_ids().unwrap().len(), 1);
        let other = store.commit(draft(7, 3.0)).unwrap();
        assert_ne!(other.header.run_id, first.header.run_id);
        assert_eq!(store.run_ids().unwrap().len(), 2);
    }

    #[test]
    fn stored_bytes_round_trip_through_load() {
        let store = RunStore::open(tmp("roundtrip")).unwrap();
        let run = store.commit(draft(7, 4.0).with_stamp(Some("2026-08-08".into()))).unwrap();
        let bytes = std::fs::read(&run.path).unwrap();
        let loaded = store.load_file(&run.path).unwrap();
        assert_eq!(loaded.header.run_id, run.header.run_id);
        assert_eq!(loaded.header.stamp.as_deref(), Some("2026-08-08"));
        assert_eq!(loaded.metrics, run.metrics);
        let rerendered = render_run(&loaded.header, &loaded.metrics);
        assert_eq!(bytes, rerendered.as_bytes(), "load → render is byte-identical");
    }

    #[test]
    fn edited_files_are_rejected_as_corrupt() {
        let store = RunStore::open(tmp("corrupt")).unwrap();
        let run = store.commit(draft(7, 4.0)).unwrap();
        let text = std::fs::read_to_string(&run.path).unwrap();
        let doctored = text.replace("4.0", "2.0");
        assert_ne!(text, doctored);
        std::fs::write(&run.path, doctored).unwrap();
        assert!(matches!(store.load_file(&run.path), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn an_over_long_line_is_refused_naming_it() {
        // A blank line one byte past the cap: short enough lines that are
        // blank are skipped, so only the cap can refuse this file.
        let store = RunStore::open(tmp("long-line")).unwrap();
        let run = store.commit(draft(7, 4.0)).unwrap();
        let mut bytes = std::fs::read(&run.path).unwrap();
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut long = vec![b' '; MAX_RUN_LINE];
        long.push(b'\n');
        bytes.splice(second_line..second_line, long);
        std::fs::write(&run.path, bytes).unwrap();
        match store.load_file(&run.path) {
            Err(StoreError::Parse { at, message }) => {
                assert!(at.ends_with(".jsonl:2"), "{at}");
                assert!(message.contains(&format!("exceeds {MAX_RUN_LINE} bytes")), "{message}");
            }
            other => panic!("expected a parse error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn a_torn_run_file_is_rewritten_by_the_next_commit() {
        // A crash mid-write can leave any prefix of a run file behind.
        // Tear a committed run at every byte offset and re-commit the same
        // draft: the file must come back byte for byte, and the store must
        // list again.
        let store = RunStore::open(tmp("torn")).unwrap();
        let run = store.commit(draft(7, 4.0)).unwrap();
        let bytes = std::fs::read(&run.path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&run.path, &bytes[..cut]).unwrap();
            let again =
                store.commit(draft(7, 4.0)).unwrap_or_else(|e| panic!("cut {cut}: commit: {e}"));
            assert!(again.created, "cut {cut}: the torn file is rewritten");
            assert_eq!(std::fs::read(&run.path).unwrap(), bytes, "cut {cut}");
            let listed = store.list().unwrap_or_else(|e| panic!("cut {cut}: list: {e}"));
            assert_eq!(listed.len(), 1, "cut {cut}");
        }
        assert_eq!(
            std::fs::read_dir(store.dir()).unwrap().count(),
            1,
            "no temporary file is left behind"
        );
    }

    #[test]
    fn resolve_accepts_unique_prefixes_and_paths() {
        let store = RunStore::open(tmp("resolve")).unwrap();
        let run = store.commit(draft(7, 4.0)).unwrap();
        store.commit(draft(8, 4.0)).unwrap();
        let full = &run.header.run_id;
        assert_eq!(store.resolve(full).unwrap().header.run_id, *full);
        // A long prefix is unique with overwhelming probability.
        let prefix = &full[..12];
        assert_eq!(store.resolve(prefix).unwrap().header.run_id, *full);
        // "r" matches both runs.
        assert!(matches!(store.resolve("r"), Err(StoreError::Ambiguous { .. })));
        assert!(matches!(store.resolve("zzz"), Err(StoreError::NotFound(_))));
        let by_path = store.resolve(&run.path.display().to_string()).unwrap();
        assert_eq!(by_path.header.run_id, *full);
    }

    #[test]
    fn history_filters_by_metric_and_product() {
        let store = RunStore::open(tmp("history")).unwrap();
        store.commit(draft(7, 4.0).with_stamp(Some("t1".into()))).unwrap();
        store.commit(draft(8, 2.0).with_stamp(Some("t2".into()))).unwrap();
        let points = store.history("Timeliness", None).unwrap();
        assert_eq!(points.len(), 2);
        let mut values: Vec<f64> = points.iter().map(|p| p.value).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        assert_eq!(values, vec![2.0, 4.0]);
        assert!(store.history("Timeliness", Some("NoSuch")).unwrap().is_empty());
        assert_eq!(store.history("measure.fp_ratio", Some("ExampleIDS")).unwrap().len(), 2);
    }
}
