//! Differential test of the daemon's per-job telemetry summary: for
//! several specs, what `execute_job` folds equals [`summarize`] over the
//! whole in-process event stream of the same spec (an unbounded
//! `MemorySink`), split by scope. Nothing is truncated; a key cap drops
//! exactly the events on the keys beyond it, and counts them.
#![allow(clippy::float_cmp, reason = "folded sums must match the reference bit for bit")]

use std::collections::BTreeSet;

use idse_daemon::{execute_job, JobOutcome};
use idse_eval::{JobKind, JobSpec};
use idse_exec::CancelToken;
use idse_telemetry::summary::summarize;
use idse_telemetry::{Aggregate, Aggregates, Event, EventKind, MemorySink, Telemetry};

const JOBS: usize = 2;

fn spec(json: &str) -> JobSpec {
    serde_json::from_str(json).expect("spec parses")
}

/// Every event `spec` records in process, in arrival order, through the
/// same entry points `execute_job` calls.
fn reference_events(spec: &JobSpec, cancel: &CancelToken) -> Vec<Event> {
    let sink = MemorySink::new(usize::MAX);
    let request = spec
        .to_request()
        .expect("valid spec")
        .with_telemetry(Telemetry::new(sink.clone()))
        .with_jobs(JOBS);
    let products = spec.resolve_products().expect("products");
    match spec.job_kind().expect("kind") {
        JobKind::Evaluate => {
            let feed = request.build_feed();
            let _ = request.evaluate_products_cancellable(&products, &feed, cancel);
        }
        JobKind::Stream => {
            let _ =
                request.evaluate_stream_cancellable(&products, spec.resolved_sensitivity(), cancel);
        }
    }
    assert_eq!(sink.dropped(), 0, "the reference sink is unbounded");
    sink.events()
}

/// The daemon's summary of `spec` against `summarize` of the reference.
fn assert_summary_matches(spec: &JobSpec, cancel: impl Fn() -> CancelToken, cancelled: bool) {
    let (outcome, folded) = execute_job(spec, JOBS, 1 << 16, &cancel());
    assert_eq!(matches!(outcome, JobOutcome::Cancelled), cancelled, "{outcome:?}");
    assert_eq!(folded.dropped, 0);
    let events = reference_events(spec, &cancel());
    assert!(!events.is_empty());

    let scopes: BTreeSet<&str> = events.iter().map(|e| e.scope).collect();
    let mut expected_keys = BTreeSet::new();
    for scope in scopes {
        let scoped: Vec<Event> = events.iter().filter(|e| e.scope == scope).copied().collect();
        let reference = summarize(&scoped);
        for s in &reference.spans {
            expected_keys.insert((scope, s.name, EventKind::SpanExit));
            assert_eq!(
                folded.entries.get(&(scope, s.name, EventKind::SpanExit)),
                Some(&Aggregate::Span { count: s.count, total_ns: s.total_ns, max_ns: s.max_ns }),
                "span {scope}/{}",
                s.name
            );
        }
        for c in &reference.counters {
            expected_keys.insert((scope, c.name, EventKind::Counter));
            assert_eq!(
                folded.entries.get(&(scope, c.name, EventKind::Counter)),
                Some(&Aggregate::Counter { sum: c.total }),
                "counter {scope}/{}",
                c.name
            );
        }
        for g in &reference.gauges {
            expected_keys.insert((scope, g.name, EventKind::Gauge));
            let key = (scope, g.name, EventKind::Gauge);
            let sum = match folded.entries.get(&key) {
                Some(&Aggregate::Gauge { sum, .. }) => sum,
                _ => f64::NAN,
            };
            // `summarize` sums the sorted samples, the sink in arrival order.
            let mean = sum / g.samples as f64;
            assert!(
                (mean - g.mean).abs() <= 1e-12 * g.mean.abs(),
                "gauge {scope}/{} mean {mean} vs {}",
                g.name,
                g.mean
            );
            assert_eq!(
                folded.entries.get(&key),
                Some(&Aggregate::Gauge { samples: g.samples, min: g.min, sum, max: g.max }),
                "gauge {scope}/{}",
                g.name
            );
        }
    }
    let folded_keys: BTreeSet<_> = folded.entries.keys().copied().collect();
    assert_eq!(folded_keys, expected_keys, "the summary has exactly the reference's keys");
}

#[test]
fn one_product_stream_summary_matches_the_full_event_stream() {
    let spec = spec(
        r#"{"kind":"stream","products":["flow"],"seed":3,"rate":100.0,"transactions":300,"shards":2}"#,
    );
    assert_summary_matches(&spec, CancelToken::new, false);
}

#[test]
fn four_product_three_shard_stream_summary_matches_the_full_event_stream() {
    let spec = spec(
        r#"{"kind":"stream","seed":4,"rate":200.0,"transactions":400,"chunk_records":256,"shards":3}"#,
    );
    assert_eq!(spec.resolve_products().expect("products").len(), 4);
    assert_summary_matches(&spec, CancelToken::new, false);
}

#[test]
fn cancelled_stream_summary_matches_the_full_event_stream() {
    let spec = spec(
        r#"{"kind":"stream","products":["nid","flow"],"seed":5,"rate":500.0,"transactions":2000,"chunk_records":128,"shards":2}"#,
    );
    assert_summary_matches(&spec, || CancelToken::after_checkpoints(5), true);
}

#[test]
fn evaluate_summary_matches_the_full_event_stream() {
    let spec = spec(
        r#"{"kind":"evaluate","products":["nid"],"seed":77,"rate":4.0,"sweep":2,"intensity":1}"#,
    );
    assert_summary_matches(&spec, CancelToken::new, false);
}

#[test]
fn a_key_cap_drops_exactly_the_events_on_later_keys() {
    let spec = spec(
        r#"{"kind":"stream","products":["flow"],"seed":3,"rate":100.0,"transactions":300,"shards":2}"#,
    );
    let (_, capped): (_, Aggregates) = execute_job(&spec, JOBS, 3, &CancelToken::new());
    let mut kept = BTreeSet::new();
    let mut later = 0u64;
    for e in reference_events(&spec, &CancelToken::new()) {
        if e.kind == EventKind::SpanEnter {
            continue;
        }
        let key = (e.scope, e.name, e.kind);
        if kept.len() < 3 || kept.contains(&key) {
            kept.insert(key);
        } else {
            later += 1;
        }
    }
    assert!(later > 0, "the spec records more than three keys");
    assert_eq!(capped.entries.len(), 3);
    assert_eq!(capped.dropped, later);
    let (_, full) = execute_job(&spec, JOBS, 1 << 16, &CancelToken::new());
    for (key, aggregate) in &capped.entries {
        assert_eq!(
            full.entries.get(key),
            Some(aggregate),
            "a kept key folds every one of its events"
        );
    }
}
