//! Canned-dataset integration: serialization round trips at realistic
//! scale and replay equivalence — the portability of the paper's "canned
//! data with known attack content".

use idse_eval::feeds::{FeedConfig, TestFeed};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_net::trace::Trace;
use idse_sim::SimDuration;

#[test]
fn full_feed_round_trips_through_json() {
    let feed = TestFeed::ecommerce(
        &FeedConfig::builder()
            .session_rate(15.0)
            .training_span(SimDuration::from_secs(5))
            .test_span(SimDuration::from_secs(15))
            .campaign_intensity(1)
            .seed(8)
            .build(),
    );
    let json = feed.test.to_json();
    let reloaded = Trace::from_json(&json).expect("valid JSON");
    assert_eq!(reloaded.len(), feed.test.len());
    assert_eq!(reloaded.attack_packets(), feed.test.attack_packets());
    for (a, b) in feed.test.records().iter().zip(reloaded.records().iter()) {
        assert_eq!(a.at, b.at);
        assert_eq!(a.packet, b.packet);
        assert_eq!(a.truth, b.truth);
    }
}

#[test]
fn reloaded_dataset_replays_identically() {
    let feed = TestFeed::ecommerce(
        &FeedConfig::builder()
            .session_rate(15.0)
            .training_span(SimDuration::from_secs(5))
            .test_span(SimDuration::from_secs(15))
            .campaign_intensity(1)
            .seed(9)
            .build(),
    );
    let reloaded = Trace::from_json(&feed.test.to_json()).expect("valid");
    let run = |trace: &Trace| {
        PipelineRunner::new(
            IdsProduct::model(ProductId::NidSentry),
            RunConfig { sensitivity: Sensitivity::new(0.8), ..RunConfig::default() },
        )
        .with_training(&feed.training)
        .run(trace)
    };
    let a = run(&feed.test);
    let b = run(&reloaded);
    assert_eq!(a.alerts.len(), b.alerts.len());
    for (x, y) in a.alerts.iter().zip(b.alerts.iter()) {
        assert_eq!(x.trigger, y.trigger);
        assert_eq!(x.detector, y.detector);
        assert_eq!(x.raised_at, y.raised_at);
    }
}
