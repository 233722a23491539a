//! Daemon protocol and determinism tests, all over the socketless
//! replay driver: queue backpressure, cancellation at chunk boundaries,
//! graceful-shutdown drain ordering, journal restart, and the
//! byte-identity guarantee against a direct `evaluate --store` run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use idse_daemon::{replay, DaemonConfig, DaemonCore};
use idse_eval::JobSpec;
use idse_exec::CancelToken;
use idse_store::JobState;
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idse-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn core(capacity: usize) -> DaemonCore {
    DaemonCore::new(DaemonConfig::default().with_queue_capacity(capacity)).expect("core")
}

/// A small stream job: two shards, 64-record chunks, one product —
/// finishes in well under a second yet crosses many chunk boundaries.
fn stream_submit() -> String {
    r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"seed":11,"rate":500.0,"transactions":2000,"chunk_records":64,"shards":2}}"#
        .to_owned()
}

fn parsed(line: &str) -> Value {
    serde_json::from_str(line).expect("response line is JSON")
}

fn ok(line: &str) -> bool {
    parsed(line).get("ok").and_then(Value::as_bool) == Some(true)
}

#[test]
fn malformed_submits_are_rejected_with_reasons() {
    let mut core = core(2);
    let script = [
        "this is not json",
        r#"{"cmd":"submit"}"#,
        r#"{"cmd":"submit","spec":{"kind":"teleport"}}"#,
        r#"{"cmd":"submit","spec":{"kind":"evaluate","sweep":1}}"#,
        r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"store":{"dir":"/tmp/x"}}}"#,
        r#"{"cmd":"nonsense"}"#,
        r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"rate":0.0}}"#,
        r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"rate":-5.0}}"#,
        // `1e999` parses to +inf; JSON has no literal for NaN.
        r#"{"cmd":"submit","spec":{"kind":"evaluate","rate":1e999}}"#,
        // Finite, but far above the stream's session-rate bound.
        r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"rate":1e308}}"#,
        // Sizes that would exhaust memory or plan billions of jobs.
        r#"{"cmd":"submit","spec":{"kind":"stream","chunk_records":1099511627776}}"#,
        r#"{"cmd":"submit","spec":{"kind":"stream","shards":4294967295}}"#,
        r#"{"cmd":"submit","spec":{"kind":"evaluate","sweep":1099511627776}}"#,
        r#"{"cmd":"submit","spec":{"kind":"evaluate","intensity":4294967295}}"#,
        // Misspelled or retired fields are refused, not ignored.
        r#"{"cmd":"submit","spec":{"kind":"stream","prodcts":["nid"]}}"#,
        r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid"],"chunk":256}}"#,
        r#"{"cmd":"submit","spec":{"kind":"evaluate","store":{"dir":"runs","stmap":"x"}}}"#,
    ]
    .join("\n");
    let out = replay(&mut core, &script).expect("replay");
    assert_eq!(out.len(), 17);
    for line in &out {
        assert!(!ok(line), "every malformed line is rejected: {line}");
        let msg = parsed(line);
        let msg = msg.get("error").and_then(Value::as_str).expect("reason");
        assert!(!msg.is_empty());
    }
    assert!(out[0].contains("not valid JSON"), "{}", out[0]);
    assert!(out[1].contains("spec"), "{}", out[1]);
    assert!(out[3].contains("sweep"), "{}", out[3]);
    assert!(out[4].contains("store"), "{}", out[4]);
    for line in &out[6..10] {
        assert!(line.contains("invalid job spec: rate"), "{line}");
    }
    for (line, field) in out[10..14].iter().zip(["chunk_records", "shards", "sweep", "intensity"]) {
        assert!(line.contains(&format!("invalid job spec: {field}")), "{line}");
    }
    let reasons: Vec<String> = out[14..]
        .iter()
        .map(|line| parsed(line).get("error").and_then(Value::as_str).expect("reason").to_owned())
        .collect();
    assert_eq!(
        reasons,
        [
            r#"malformed job spec: unknown field "prodcts""#,
            r#"malformed job spec: unknown field "chunk""#,
            r#"malformed job spec: JobSpec.store: unknown field "stmap""#,
        ]
    );
    assert!(core.is_idle(), "nothing was queued");
}

#[test]
fn queue_full_submit_is_rejected_with_reason_and_slot_comes_back() {
    let mut core = core(2);
    let script = format!("{0}\n{0}\n{0}", stream_submit());
    let out = replay(&mut core, &script).expect("replay");
    assert!(ok(&out[0]) && ok(&out[1]), "capacity admits two jobs");
    assert!(!ok(&out[2]), "third submit hits backpressure");
    assert!(out[2].contains("queue full: 2 of 2 slots in use"), "{}", out[2]);

    // Cancelling a queued job releases its slot deterministically: the
    // very next submit is admitted again.
    let script = format!("{{\"cmd\":\"cancel\",\"id\":1}}\n{}", stream_submit());
    let out = replay(&mut core, &script).expect("replay");
    assert!(ok(&out[0]), "{}", out[0]);
    assert!(ok(&out[1]), "slot freed by cancel admits a new job: {}", out[1]);
}

#[test]
fn double_cancel_is_a_clean_error() {
    let mut core = core(2);
    let script = format!("{}\n{1}\n{1}", stream_submit(), r#"{"cmd":"cancel","id":1}"#);
    let out = replay(&mut core, &script).expect("replay");
    assert!(ok(&out[1]), "first cancel succeeds: {}", out[1]);
    assert!(!ok(&out[2]), "second cancel is rejected: {}", out[2]);
    assert!(out[2].contains("already cancelled"), "{}", out[2]);
    let missing = replay(&mut core, r#"{"cmd":"cancel","id":99}"#).expect("replay");
    assert!(missing[0].contains("no such job"), "{}", missing[0]);
}

/// The `summary` lines of a `watch` response.
fn summaries(watch: &[String]) -> Vec<Value> {
    watch
        .iter()
        .map(|l| parsed(l))
        .filter(|v| v.get("event").and_then(Value::as_str) == Some("summary"))
        .collect()
}

/// The `sum` of counter `name` per scope, from a `watch` response.
fn counter_sums(watch: &[String], name: &str) -> BTreeMap<String, u64> {
    summaries(watch)
        .iter()
        .filter(|v| v.get("name").and_then(Value::as_str) == Some(name))
        .map(|v| {
            assert_eq!(v.get("kind").and_then(Value::as_str), Some("counter"), "{v:?}");
            let scope = v.get("scope").and_then(Value::as_str).expect("scope").to_owned();
            let sum = v.get("sum").and_then(Value::as_f64).expect("counter sum");
            (scope, sum as u64)
        })
        .collect()
}

/// Records the job's one product scored, from its `status` result.
fn result_records(status: &str) -> u64 {
    let status = parsed(status);
    let products = status.get("job").and_then(|j| j.get("result")).and_then(|r| r.get("products"));
    let products = products.and_then(Value::as_array).expect("a completed job's products");
    assert_eq!(products.len(), 1);
    products[0].get("records").and_then(Value::as_u64).expect("records")
}

#[test]
fn watch_after_completion_replays_the_full_event_log() {
    let mut core = core(2);
    let script = format!(
        "{}\n{{\"cmd\":\"drain\"}}\n{{\"cmd\":\"watch\",\"id\":1}}\n{{\"cmd\":\"status\",\"id\":1}}",
        stream_submit()
    );
    let out = replay(&mut core, &script).expect("replay");
    assert!(out[1].contains("\"drained\":1"), "{}", out[1]);
    let (watch, status) = out[2..].split_at(out.len() - 3);
    assert!(watch[0].contains("\"phase\":\"running\""), "{}", watch[0]);
    assert!(
        watch[watch.len() - 2].contains("\"phase\":\"completed\""),
        "{}",
        watch[watch.len() - 2]
    );
    let last = parsed(watch.last().expect("terminal line"));
    assert!(ok(watch.last().expect("terminal line")));
    assert_eq!(last.get("state").and_then(Value::as_str), Some("completed"));
    assert_eq!(last.get("dropped").and_then(Value::as_u64), Some(0), "nothing was dropped");
    let aggregates = summaries(watch);
    assert_eq!(aggregates.len(), watch.len() - 3, "phase, summaries, phase, terminal");
    assert_eq!(last.get("aggregates").and_then(Value::as_u64), Some(aggregates.len() as u64));
    assert!(
        watch[..watch.len() - 1].iter().all(|l| !l.starts_with("{\"ok\":")),
        "only the terminal line starts with {{\"ok\":"
    );
    // The chunk progress counter covers every record the job scored.
    let chunks = counter_sums(watch, "stream.chunk.records");
    assert_eq!(chunks.len(), 1, "one product scope: {chunks:?}");
    let records = result_records(&status[0]);
    assert!(records > 0);
    assert_eq!(chunks.values().sum::<u64>(), records, "{chunks:?}");
    // Per-stage spans of the Figure-1 pipeline are summarized.
    assert!(
        aggregates.iter().any(|v| v.get("kind").and_then(Value::as_str) == Some("span")
            && v.get("count").and_then(Value::as_u64).is_some_and(|c| c > 0)),
        "{aggregates:?}"
    );
    let snapshot = parsed(&status[0]);
    let job = snapshot.get("job").expect("job snapshot");
    assert_eq!(job.get("aggregates").and_then(Value::as_u64), Some(aggregates.len() as u64));
    assert_eq!(job.get("dropped").and_then(Value::as_u64), Some(0));
    assert!(job.get("events").is_none(), "{snapshot:?}");
}

#[test]
fn cancel_mid_flight_stops_at_a_chunk_boundary_with_partial_telemetry() {
    // Arm rank 3 before the job runs. Chunk `c` of shard `s`
    // of 2 has rank `2c + s + 1`, so each shard pushes its first 64-record
    // chunk (ranks 1 and 2) and stops there, at any worker count.
    let mut core = core(2);
    let script = format!(
        "{}\n{}\n{{\"cmd\":\"drain\"}}\n{{\"cmd\":\"watch\",\"id\":1}}\n{{\"cmd\":\"status\",\"id\":1}}",
        stream_submit(),
        r#"{"cmd":"cancel","id":1,"after_chunks":3}"#
    );
    let out = replay(&mut core, &script).expect("replay");
    assert!(ok(&out[1]) && out[1].contains("\"cancel_after_chunks\":3"), "{}", out[1]);
    let status = out.last().expect("status line");
    assert!(status.contains("\"state\":\"cancelled\""), "{status}");
    assert!(status.contains("cancelled at a chunk boundary"), "{status}");
    let watch = &out[3..out.len() - 1];
    assert!(watch[watch.len() - 2].contains("\"phase\":\"cancelled\""), "{watch:?}");

    // Partial telemetry: exactly the two chunks' records were counted,
    // fewer than a full run of the same spec produces.
    let cancelled: u64 = counter_sums(watch, "stream.chunk.records").values().sum();
    assert_eq!(cancelled, 2 * 64, "partial telemetry was flushed");
    let mut full = core_with_full_run();
    let full_records = full_run_chunk_records(&mut full);
    assert!(
        cancelled < full_records,
        "cancelled run counted {cancelled} chunk records, full run {full_records}"
    );
}

fn core_with_full_run() -> DaemonCore {
    let mut core = core(2);
    let script = format!("{}\n{{\"cmd\":\"drain\"}}", stream_submit());
    replay(&mut core, &script).expect("replay");
    core
}

fn full_run_chunk_records(core: &mut DaemonCore) -> u64 {
    let out = replay(core, r#"{"cmd":"watch","id":1}"#).expect("replay");
    counter_sums(&out, "stream.chunk.records").values().sum()
}

/// A cancelled 2-product, 4-shard stream job, replayed at 1, 2 and 8
/// workers: its whole output, telemetry aggregates included, is the same
/// bytes at every width and on every repeat.
#[test]
fn cancelled_multi_shard_stream_is_byte_identical_at_any_width() {
    let script = [
        r#"{"cmd":"submit","spec":{"kind":"stream","products":["nid","flow"],"seed":5,"rate":500.0,"transactions":20000,"chunk_records":1024,"shards":4}}"#,
        r#"{"cmd":"cancel","id":1,"after_chunks":9}"#,
        r#"{"cmd":"drain"}"#,
        r#"{"cmd":"watch","id":1}"#,
    ]
    .join("\n");
    let run = |jobs: usize| {
        let mut core =
            DaemonCore::new(DaemonConfig::default().with_queue_capacity(2).with_jobs(jobs))
                .expect("core");
        replay(&mut core, &script).expect("replay")
    };
    let want = run(1);
    let watch = &want[3..];
    assert!(watch[watch.len() - 2].contains("\"phase\":\"cancelled\""), "{want:?}");
    // Ranks 1..=8 are two chunks of each of the four shards.
    let chunks = counter_sums(watch, "stream.chunk.records");
    assert_eq!(chunks.len(), 2, "{chunks:?}");
    for sum in chunks.values() {
        assert_eq!(*sum, 8 * 1024, "{chunks:?}");
    }
    for jobs in [2, 8, 2, 2] {
        assert_eq!(run(jobs), want, "--jobs {jobs} differs from --jobs 1");
    }
}

#[test]
fn graceful_shutdown_drains_in_submission_order_and_refuses_new_work() {
    let mut core = core(3);
    // Two different seeds so the jobs are distinguishable, then a
    // graceful shutdown, then a late submit that must be refused.
    let second = stream_submit().replace("\"seed\":11", "\"seed\":12");
    let script = format!(
        "{}\n{}\n{{\"cmd\":\"shutdown\",\"graceful\":true}}\n{}\n{{\"cmd\":\"list\"}}",
        stream_submit(),
        second,
        stream_submit()
    );
    let out = replay(&mut core, &script).expect("replay");
    assert!(ok(&out[0]) && ok(&out[1]));
    assert!(out[2].contains("\"graceful\":true") && out[2].contains("\"pending\":2"), "{}", out[2]);
    assert!(!ok(&out[3]), "submit after shutdown is refused");
    assert!(out[3].contains("draining"), "{}", out[3]);
    // Both drained to completion, and in submission order: job 1's
    // terminal phase event precedes job 2's first event.
    let job1 = core.job(1).expect("job 1");
    let job2 = core.job(2).expect("job 2");
    assert_eq!(job1.state, JobState::Completed);
    assert_eq!(job2.state, JobState::Completed);
    assert!(core.should_stop(), "drained daemon reports ready-to-stop");
    let list = parsed(&out[4]);
    let jobs = list.get("jobs").and_then(Value::as_array).expect("jobs array");
    assert_eq!(jobs.len(), 2, "the refused submit was never admitted");
}

#[test]
fn journal_restart_resumes_queued_jobs_and_aborts_running_ones() {
    let dir = scratch("journal");
    let journal = dir.join("daemon.journal");
    let config = DaemonConfig::default().with_queue_capacity(4).with_journal(&journal);

    // First daemon life: one job completed, one still queued at "crash".
    {
        let mut core = DaemonCore::new(config.clone()).expect("first life");
        let script = format!("{0}\n{{\"cmd\":\"drain\"}}\n{0}", stream_submit());
        let out = replay(&mut core, &script).expect("replay");
        assert!(out.iter().all(|l| ok(l)), "{out:?}");
        // The core is dropped here without draining job 2 — the crash.
    }

    // Second life: the queued job is re-admitted and runs; ids continue.
    {
        let mut core = DaemonCore::new(config.clone()).expect("second life");
        assert_eq!(core.pending().collect::<Vec<_>>(), vec![2], "job 2 resumed");
        assert_eq!(core.job(1).expect("job 1 remembered").state, JobState::Completed);
        let out = replay(&mut core, "{\"cmd\":\"drain\"}").expect("replay");
        assert!(out[0].contains("\"drained\":1"), "{}", out[0]);
        assert_eq!(core.job(2).expect("job 2").state, JobState::Completed);
        let out = replay(&mut core, &stream_submit()).expect("replay");
        assert!(out[0].contains("\"id\":3"), "ids are monotonic across restarts: {}", out[0]);
    }

    // Third life: job 3 was left Running by a simulated mid-run crash;
    // recovery re-marks it aborted.
    {
        let mut journal = idse_store::Journal::open(&journal).expect("journal");
        journal.append(idse_store::JournalEntry::transition(3, JobState::Running)).expect("append");
    }
    let core = DaemonCore::new(config).expect("third life");
    let job = core.job(3).expect("job 3 remembered");
    assert_eq!(job.state, JobState::Aborted);
    assert!(
        job.detail.as_deref().is_some_and(|d| d.contains("restarted")),
        "abort reason names the restart: {:?}",
        job.detail
    );
    assert!(core.is_idle(), "aborted work is not silently re-run");
}

/// Recursively collect relative-path → bytes for a directory tree.
fn tree_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("read_dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel =
                    path.strip_prefix(root).expect("under root").to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

/// The tentpole guarantee: a daemon-submitted evaluation writes the very
/// same store bytes as a direct `evaluate --store`-style run of the same
/// spec — at one worker and at every core on the machine.
#[test]
fn daemon_store_bytes_match_direct_evaluation_at_any_worker_count() {
    let base = scratch("byte-identity");
    let spec_json = |dir: &Path| {
        format!(
            r#"{{"kind":"evaluate","products":["nid"],"seed":77,"rate":4.0,"sweep":2,"intensity":1,"store":{{"dir":{dir:?}}}}}"#,
        )
    };

    // Direct run, the way the `evaluate` bin does it: spec → request →
    // cancellable entry point (store recording happens inside).
    let direct_dir = base.join("direct");
    let spec: JobSpec = serde_json::from_str(&spec_json(&direct_dir)).expect("spec parses");
    let request = spec.to_request().expect("valid spec").with_jobs(1);
    let products = spec.resolve_products().expect("products");
    let feed = request.build_feed();
    request
        .evaluate_products_cancellable(&products, &feed, &CancelToken::new())
        .expect("direct run completes");

    // Daemon runs of the same spec at 1 worker and at every core.
    for (tag, jobs) in [("one", 1), ("all", idse_exec::Executor::new(0).workers())] {
        let daemon_dir = base.join(format!("daemon-{tag}"));
        let mut core =
            DaemonCore::new(DaemonConfig::default().with_queue_capacity(2).with_jobs(jobs))
                .expect("core");
        let script = format!(
            "{{\"cmd\":\"submit\",\"spec\":{}}}\n{{\"cmd\":\"shutdown\",\"graceful\":true}}",
            spec_json(&daemon_dir)
        );
        let out = replay(&mut core, &script).expect("replay");
        assert!(ok(&out[0]), "{}", out[0]);
        assert_eq!(core.job(1).expect("job").state, JobState::Completed);

        let direct = tree_bytes(&direct_dir);
        let daemon = tree_bytes(&daemon_dir);
        assert!(!direct.is_empty(), "direct run recorded files");
        assert_eq!(
            direct.keys().collect::<Vec<_>>(),
            daemon.keys().collect::<Vec<_>>(),
            "same file set at jobs={jobs}"
        );
        for (rel, bytes) in &direct {
            assert_eq!(Some(bytes), daemon.get(rel), "store file {rel} differs at jobs={jobs}");
        }
    }
}

/// A cancelled 2-product evaluation, replayed at 1, 2 and 8 workers: its
/// whole output is the same bytes at every width. Two sweep steps make
/// four sweep jobs (ranks 1–4) and the check between the phases rank 5;
/// probe job `j` has rank `6 + j`, so `after_chunks` 7 lets exactly the
/// first probe job (FlowHunter's operating run) finish. A batch job has
/// no chunks, so its status says it stopped at a job boundary.
#[test]
fn cancelled_evaluation_is_byte_identical_at_any_width() {
    let script = [
        r#"{"cmd":"submit","spec":{"kind":"evaluate","products":["nid","flow"],"seed":9,"rate":4.0,"sweep":2,"intensity":1}}"#,
        r#"{"cmd":"cancel","id":1,"after_chunks":7}"#,
        r#"{"cmd":"drain"}"#,
        r#"{"cmd":"watch","id":1}"#,
        r#"{"cmd":"status","id":1}"#,
    ]
    .join("\n");
    let run = |jobs: usize| {
        let mut core =
            DaemonCore::new(DaemonConfig::default().with_queue_capacity(2).with_jobs(jobs))
                .expect("core");
        replay(&mut core, &script).expect("replay")
    };
    let want = run(1);
    let (watch, status) = want[3..].split_at(want.len() - 4);
    assert!(watch[watch.len() - 2].contains("\"phase\":\"cancelled\""), "{want:?}");
    let job = parsed(&status[0]);
    let job = job.get("job").expect("job snapshot");
    assert_eq!(job.get("state").and_then(Value::as_str), Some("cancelled"), "{job:?}");
    assert_eq!(
        job.get("detail").and_then(Value::as_str),
        Some("cancelled at a job boundary"),
        "{job:?}"
    );
    let operating: Vec<&String> =
        watch.iter().filter(|l| l.contains("\"name\":\"phase.operating_run\"")).collect();
    assert_eq!(operating.len(), 1, "{want:?}");
    assert!(operating[0].contains("FlowHunter"), "{}", operating[0]);
    for jobs in [2, 8, 2] {
        assert_eq!(run(jobs), want, "--jobs {jobs} differs from --jobs 1");
    }
}
