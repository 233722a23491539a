//! Telemetry overhead: the same pipeline run with telemetry disabled,
//! enabled into a discarding sink (pure recording-path cost), and
//! enabled into the bounded in-memory ring buffer. The disabled case is
//! the regression guard — a disabled handle must stay within noise of
//! the pre-telemetry pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idse_eval::feeds::{FeedConfig, TestFeed};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_sim::SimDuration;
use idse_telemetry::{MemorySink, NoopSink, Telemetry};

fn run_once(feed: &TestFeed, telemetry: Telemetry) -> usize {
    let runner = PipelineRunner::new(
        IdsProduct::model(ProductId::GuardSecure),
        RunConfig {
            sensitivity: Sensitivity::new(0.7),
            monitored_hosts: feed.servers.clone(),
            telemetry,
            ..RunConfig::default()
        },
    )
    .with_training(&feed.training);
    runner.run(&feed.test).alerts.len()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let feed = TestFeed::ecommerce(
        &FeedConfig::builder()
            .session_rate(20.0)
            .training_span(SimDuration::from_secs(8))
            .test_span(SimDuration::from_secs(15))
            .campaign_intensity(1)
            .seed(77)
            .build(),
    );
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(feed.test.len() as u64));
    group.bench_function(BenchmarkId::new("pipeline", "disabled"), |b| {
        b.iter(|| run_once(&feed, Telemetry::disabled()))
    });
    group.bench_function(BenchmarkId::new("pipeline", "noop_sink"), |b| {
        b.iter(|| run_once(&feed, Telemetry::new(NoopSink)))
    });
    group.bench_function(BenchmarkId::new("pipeline", "memory_sink"), |b| {
        // A fresh ring buffer per run, like the CLI uses.
        b.iter(|| run_once(&feed, Telemetry::new(MemorySink::new(1 << 18))))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
