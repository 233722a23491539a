//! Scientific repeatability, end to end: the paper's methodology demands
//! that evaluating the same product against the same standard twice gives
//! the same answer — and that the answer is byte-identical at any
//! executor width, for both the materialized and the streaming paths.

use idse_core::RequirementSet;
use idse_eval::feeds::FeedConfig;
use idse_eval::harness::EvaluationRequest;
use idse_eval::measure::EnvironmentNeeds;
use idse_eval::sweep::{sweep, SweepPlan};
use idse_exec::Executor;
use idse_ids::products::{IdsProduct, ProductId};
use idse_sim::SimDuration;
use idse_telemetry::{summary::summarize, MemorySink, Telemetry};

fn request() -> EvaluationRequest {
    EvaluationRequest::new()
        .with_feed(
            FeedConfig::builder()
                .session_rate(12.0)
                .training_span(SimDuration::from_secs(8))
                .test_span(SimDuration::from_secs(18))
                .campaign_intensity(1)
                .seed(4242)
                .build(),
        )
        .with_needs(EnvironmentNeeds::realtime_cluster(1_000.0))
        .with_sweep(SweepPlan::with_steps(3).with_fp_budget(0.2))
        .with_max_throughput_factor(16.0)
}

/// Everything observable about a full evaluation, as bytes.
fn render(evals: &[idse_eval::harness::ProductEvaluation]) -> String {
    let mut s = String::new();
    for e in evals {
        s.push_str(&serde_json::to_string(&e.scorecard).expect("scorecard serializes"));
        s.push_str(&serde_json::to_string(&e.curve).expect("curve serializes"));
        s.push_str(&format!(
            "|{}|{:?}|{:?}|{:?}|{}|{}\n",
            e.operating_sensitivity,
            e.confusion,
            e.throughput,
            e.timing,
            e.host_impact,
            e.state_bytes
        ));
    }
    s
}

#[test]
fn worker_count_never_changes_a_byte() {
    let run = |jobs: usize| {
        let req = request().with_jobs(jobs);
        let feed = req.build_feed();
        render(&req.evaluate_all(&feed))
    };
    let serial = run(1);
    assert_eq!(serial, run(8), "--jobs 8 changed the output");
    assert_eq!(serial, run(0), "--jobs auto changed the output");
}

#[test]
fn streaming_scorecards_are_identical_at_any_width_and_chunk_size() {
    // The RecordStream evaluation path: one job per shard drives every
    // product's session (one per shard and product group when workers
    // outnumber shards), merged in shard order. Worker count and chunk
    // size must never change a byte of the merged scorecard.
    let product = IdsProduct::model(ProductId::FlowHunter);
    let run = |jobs: usize, chunk: usize| {
        request()
            .with_jobs(jobs)
            .with_stream(chunk, 2)
            .evaluate_stream(std::slice::from_ref(&product), 0.6)
            .pop()
            .expect("one product evaluated")
            .scorecard
            .to_json()
    };
    let baseline = run(1, 1024);
    assert_eq!(baseline, run(8, 1024), "--jobs 8 changed the streaming scorecard");
    assert_eq!(baseline, run(4, 64), "chunk size 64 changed the streaming scorecard");
    assert_eq!(baseline, run(0, 4096), "--jobs auto changed the streaming scorecard");
}

#[test]
fn sweep_json_is_identical_at_any_width() {
    let req = request();
    let feed = req.build_feed();
    let plan = SweepPlan::with_steps(4);
    let product = IdsProduct::model(ProductId::FlowHunter);
    let curve_json = |jobs: usize| {
        serde_json::to_string(&sweep(&product, &feed, &plan, &Executor::new(jobs)))
            .expect("curve serializes")
    };
    let serial = curve_json(1);
    assert_eq!(serial, curve_json(4));
    assert_eq!(serial, curve_json(16));
}

#[test]
fn telemetry_summaries_are_identical_at_any_width() {
    let run = |jobs: usize| {
        let sink = MemorySink::new(1 << 20);
        let req = request().with_telemetry(Telemetry::new(sink.clone())).with_jobs(jobs);
        let feed = req.build_feed();
        req.evaluate_all(&feed);
        (sink.events(), sink.dropped())
    };
    let (serial, dropped) = run(1);
    assert_eq!(dropped, 0, "test-sized run must fit the buffer");
    let (wide, _) = run(8);
    assert_eq!(serial.len(), wide.len(), "worker count changed the event count");
    assert!(serial.iter().zip(wide.iter()).all(|(a, b)| a == b), "worker count reordered events");
    let a = format!("{:?}", summarize(&serial));
    let b = format!("{:?}", summarize(&wide));
    assert_eq!(a, b, "summaries diverged across worker counts");
}

#[test]
fn weighted_totals_are_bit_stable_across_runs() {
    let weights = RequirementSet::realtime_distributed().derive();
    let totals = |jobs: usize| -> Vec<f64> {
        let req = request().with_jobs(jobs);
        let feed = req.build_feed();
        req.evaluate_all(&feed).iter().map(|e| weights.weighted_total(&e.scorecard)).collect()
    };
    let a = totals(2);
    let b = totals(2);
    assert_eq!(a, b, "identical inputs must give bit-identical verdicts");
}
