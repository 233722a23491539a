//! Product independence, a metamorphic relation on the evaluator: the
//! products evaluated alongside one another never change each other's
//! results. Evaluating `{A, B}` gives A (and B) the same scorecard as
//! evaluating it alone, on the batch path (the 56-metric card) and on the
//! streaming path, at one worker and at two.

use idse_eval::feeds::FeedConfig;
use idse_eval::EvaluationRequest;
use idse_ids::products::{IdsProduct, ProductId};
use idse_sim::SimDuration;

fn feed(seed: u64, shards: u32) -> FeedConfig {
    FeedConfig::builder()
        .session_rate(12.0)
        .training_span(SimDuration::from_secs(8))
        .test_span(SimDuration::from_secs(18))
        .campaign_intensity(1)
        .seed(seed)
        .shards(shards)
        .build()
}

/// A signature product and an anomaly product with an in-line load
/// balancer: the pair shares the least machinery.
fn pair() -> [IdsProduct; 2] {
    [IdsProduct::model(ProductId::NidSentry), IdsProduct::model(ProductId::FlowHunter)]
}

#[test]
fn a_product_scores_the_same_with_or_without_company_in_a_batch_evaluation() {
    for (seed, jobs) in [(20_020_415, 1), (20_020_415, 2), (9, 1), (9, 2)] {
        let request = EvaluationRequest::new()
            .with_feed(feed(seed, 1))
            .with_sweep_steps(3)
            .with_max_throughput_factor(16.0)
            .with_jobs(jobs);
        let test_feed = request.build_feed();
        let card = |products: &[IdsProduct]| -> Vec<String> {
            request
                .evaluate_products(products, &test_feed)
                .iter()
                .map(|eval| {
                    assert_eq!(eval.scorecard.len(), 56, "{}", eval.scorecard.system);
                    serde_json::to_string(&eval.scorecard).expect("scorecard serializes")
                })
                .collect()
        };
        let [a, b] = pair();
        let together = card(&[a.clone(), b.clone()]);
        assert_eq!(together[0], card(&[a])[0], "B changed A's card: seed {seed}, {jobs} jobs");
        assert_eq!(together[1], card(&[b])[0], "A changed B's card: seed {seed}, {jobs} jobs");
    }
}

#[test]
fn a_product_scores_the_same_with_or_without_company_in_a_stream_evaluation() {
    for seed in [7, 0x57e4] {
        for jobs in [1, 2] {
            let request = EvaluationRequest::new().with_feed(feed(seed, 2)).with_jobs(jobs);
            let card = |products: &[IdsProduct]| -> Vec<String> {
                request
                    .evaluate_stream(products, 0.7)
                    .iter()
                    .map(|eval| eval.scorecard.to_json())
                    .collect()
            };
            let [a, b] = pair();
            let together = card(&[a.clone(), b.clone()]);
            assert_eq!(together[0], card(&[a])[0], "B changed A's card: seed {seed}, {jobs} jobs");
            assert_eq!(together[1], card(&[b])[0], "A changed B's card: seed {seed}, {jobs} jobs");
        }
    }
}
