//! End-to-end pipeline benchmarks: how many simulated packets per second
//! the testbed itself sustains per product — the number that bounds how
//! large an evaluation the harness can run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idse_eval::feeds::{FeedConfig, TestFeed};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_sim::SimDuration;

fn bench_pipeline(c: &mut Criterion) {
    let feed = TestFeed::ecommerce(
        &FeedConfig::builder()
            .session_rate(20.0)
            .training_span(SimDuration::from_secs(8))
            .test_span(SimDuration::from_secs(15))
            .campaign_intensity(1)
            .seed(77)
            .build(),
    );
    let mut group = c.benchmark_group("pipeline_run");
    group.sample_size(10);
    group.throughput(Throughput::Elements(feed.test.len() as u64));
    for id in ProductId::ALL {
        group.bench_function(BenchmarkId::new("product", id.name()), |b| {
            b.iter(|| {
                let runner = PipelineRunner::new(
                    IdsProduct::model(id),
                    RunConfig {
                        sensitivity: Sensitivity::new(0.7),
                        monitored_hosts: feed.servers.clone(),
                        ..RunConfig::default()
                    },
                )
                .with_training(&feed.training);
                runner.run(&feed.test).alerts.len()
            })
        });
    }
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(10);
    group.bench_function("background_15s_ecommerce", |b| {
        b.iter(|| {
            TestFeed::ecommerce(
                &FeedConfig::builder()
                    .session_rate(20.0)
                    .training_span(SimDuration::from_secs(5))
                    .test_span(SimDuration::from_secs(15))
                    .campaign_intensity(1)
                    .seed(5)
                    .build(),
            )
            .test
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_generation);
criterion_main!(benches);
