//! Telemetry must be a pure observer: the same seeded evaluation with
//! recording enabled produces a byte-identical scorecard to one with it
//! disabled, and the recorded stream itself is deterministic — at any
//! executor width.

#![allow(clippy::float_cmp, reason = "tests assert bit-exact determinism")]

use std::collections::BTreeSet;

use idse_eval::feeds::FeedConfig;
use idse_eval::EvaluationRequest;
use idse_ids::products::{IdsProduct, ProductId};
use idse_sim::SimDuration;
use idse_telemetry::{summary::summarize, MemorySink, Telemetry};

fn request(telemetry: Telemetry) -> EvaluationRequest {
    EvaluationRequest::new()
        .with_feed(
            FeedConfig::builder()
                .session_rate(12.0)
                .training_span(SimDuration::from_secs(8))
                .test_span(SimDuration::from_secs(18))
                .campaign_intensity(1)
                .seed(20_020_415)
                .build(),
        )
        .with_sweep_steps(3)
        .with_max_throughput_factor(16.0)
        .with_telemetry(telemetry)
}

#[test]
fn telemetry_enabled_run_matches_disabled_run_byte_for_byte() {
    let off_req = request(Telemetry::disabled());
    let feed = off_req.build_feed();
    let product = IdsProduct::model(ProductId::GuardSecure);

    let off = off_req.evaluate(&product, &feed);
    let sink = MemorySink::new(1 << 20);
    let on = request(Telemetry::new(sink.clone())).evaluate(&product, &feed);

    let off_json = serde_json::to_string(&off.scorecard).expect("scorecard serializes");
    let on_json = serde_json::to_string(&on.scorecard).expect("scorecard serializes");
    assert_eq!(off_json, on_json, "recording changed the scorecard");
    assert_eq!(off.operating_sensitivity, on.operating_sensitivity);
    assert_eq!(sink.dropped(), 0, "test-sized run must fit the buffer");
    assert!(!sink.is_empty(), "enabled run must record events");
}

#[test]
fn recorded_stream_is_deterministic_and_scoped() {
    let product = IdsProduct::model(ProductId::NidSentry);
    let run = |jobs: usize| {
        let sink = MemorySink::new(1 << 20);
        let req = request(Telemetry::new(sink.clone())).with_jobs(jobs);
        let feed = req.build_feed();
        req.evaluate(&product, &feed);
        sink.events()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y), "event streams differ");
    assert!(a.iter().all(|e| e.scope == product.id.name()));

    // The recorded stream — not just the scorecard — is identical when the
    // same evaluation fans out across workers: per-job forks join in
    // (scope, job index) order, never completion order.
    let wide = run(8);
    assert_eq!(a.len(), wide.len(), "worker count changed the event count");
    assert!(a.iter().zip(wide.iter()).all(|(x, y)| x == y), "worker count reordered events");

    let summary = summarize(&a);
    assert!(summary.span("stage.sense").is_some());
    assert!(summary.span("phase.operating_run").is_some());
    assert!(summary.counter("phase.sweep.points").is_some());
    assert!(summary.gauge("phase.throughput.zero_loss_pps").is_some());
    assert!(summary.gauge("sim.queue_depth").is_some(), "kernel queue-depth samples missing");
}

/// A batch evaluation armed to stop at rank `n` stops the same jobs at
/// every width: in the sweep phase, at the check between the phases, and
/// in the probe phase. With two products and three sweep steps, sweep job
/// `k` has rank `k + 1`, the check between the phases 7, and probe job `j`
/// `8 + j`.
#[test]
fn batch_cancellation_is_identical_at_any_width() {
    use idse_exec::{CancelToken, Cancelled};
    let products =
        [IdsProduct::model(ProductId::NidSentry), IdsProduct::model(ProductId::GuardSecure)];
    let feed = request(Telemetry::disabled()).build_feed();
    let run = |n: u64, jobs: usize| {
        let sink = MemorySink::new(1 << 20);
        let outcome = request(Telemetry::new(sink.clone()))
            .with_jobs(jobs)
            .evaluate_products_cancellable(&products, &feed, &CancelToken::after_checkpoints(n));
        assert!(matches!(outcome, Err(Cancelled)), "rank {n} at {jobs} workers completed");
        assert_eq!(sink.dropped(), 0);
        sink.events()
    };
    for n in [4, 7, 9] {
        let want = run(n, 1);
        let summary = summarize(&want);
        // The sweep phase finished only if the stop came after it; the
        // first probe job (GuardSecure's operating run) ran only at rank 9.
        assert_eq!(summary.counter("phase.sweep.points").is_some(), n > 6, "rank {n}");
        let operating = summary.span("phase.operating_run").map(|span| span.count);
        assert_eq!(operating, (n == 9).then_some(1), "rank {n}");
        let scopes: BTreeSet<&str> =
            want.iter().filter(|e| e.name == "phase.operating_run").map(|e| e.scope).collect();
        let expected: &[&str] = if n == 9 { &["GuardSecure GS-5"] } else { &[] };
        assert!(scopes.iter().eq(expected), "rank {n}: {scopes:?}");
        for jobs in [2, 8] {
            assert!(run(n, jobs) == want, "rank {n}: {jobs} workers differ from 1");
        }
    }
}
