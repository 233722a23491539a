//! Timing metrics: induced traffic latency and timeliness (Table 3).
//!
//! *Induced Traffic Latency* comes straight from the pipeline's in-line
//! tap accounting. *Timeliness* — "average/maximal time between an
//! intrusion's occurrence and its being reported" — joins each alert's
//! visibility time back to its trigger record's injection time.

use idse_ids::pipeline::PipelineOutcome;
use idse_net::trace::Trace;
use idse_sim::stats::DurationSummary;
use idse_sim::SimDuration;
use serde::Serialize;

/// Timing measurements for one run.
#[derive(Debug, Clone, Serialize)]
pub struct TimingReport {
    /// Mean in-line delay per forwarded packet (zero for mirrored taps).
    pub induced_latency_mean: SimDuration,
    /// Maximum in-line delay.
    pub induced_latency_max: SimDuration,
    /// Mean intrusion-occurrence → report time over attributable alerts.
    pub timeliness_mean: SimDuration,
    /// Maximum intrusion-occurrence → report time.
    pub timeliness_max: SimDuration,
    /// Alerts that attributed to attack packets (the timeliness sample).
    pub attributable_alerts: u64,
}

/// Compute timing measurements from a run.
pub fn timing_report(trace: &Trace, outcome: &PipelineOutcome) -> TimingReport {
    let mut timeliness = DurationSummary::new();
    for (alert, truth) in outcome.alerts.iter().zip(&outcome.alert_truths) {
        if let (Some(_), Some(rec)) = (truth, trace.records().get(alert.trigger)) {
            timeliness.record(alert.raised_at.saturating_since(rec.at));
        }
    }
    TimingReport {
        induced_latency_mean: outcome.induced_latency.mean(),
        induced_latency_max: outcome.induced_latency.max(),
        timeliness_mean: timeliness.mean(),
        timeliness_max: timeliness.max(),
        attributable_alerts: timeliness.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feeds::{FeedConfig, TestFeed};
    use idse_ids::pipeline::{PipelineRunner, RunConfig};
    use idse_ids::products::{IdsProduct, ProductId};
    use idse_ids::Sensitivity;

    fn feed() -> TestFeed {
        TestFeed::ecommerce(
            &FeedConfig::builder()
                .session_rate(15.0)
                .training_span(SimDuration::from_secs(10))
                .test_span(SimDuration::from_secs(30))
                .campaign_intensity(1)
                .seed(21)
                .build(),
        )
    }

    #[test]
    fn timeliness_is_positive_and_bounded() {
        let f = feed();
        let runner = PipelineRunner::new(
            IdsProduct::model(ProductId::NidSentry),
            RunConfig {
                sensitivity: Sensitivity::new(0.7),
                monitored_hosts: f.servers.clone(),
                ..RunConfig::default()
            },
        )
        .with_training(&f.training);
        let out = runner.run(&f.test);
        let t = timing_report(&f.test, &out);
        assert!(t.attributable_alerts > 0);
        assert!(t.timeliness_mean > SimDuration::ZERO);
        assert!(t.timeliness_max >= t.timeliness_mean);
        // NidSentry's notification delay is 200 ms; timeliness must be at
        // least that.
        assert!(t.timeliness_mean >= SimDuration::from_millis(200));
    }

    #[test]
    fn inline_vs_mirrored_latency() {
        let f = feed();
        let run = |id: ProductId| {
            let runner = PipelineRunner::new(
                IdsProduct::model(id),
                RunConfig { monitored_hosts: f.servers.clone(), ..RunConfig::default() },
            )
            .with_training(&f.training);
            let out = runner.run(&f.test);
            timing_report(&f.test, &out)
        };
        let inline = run(ProductId::FlowHunter);
        let mirrored = run(ProductId::NidSentry);
        assert!(inline.induced_latency_mean > SimDuration::ZERO);
        assert_eq!(mirrored.induced_latency_mean, SimDuration::ZERO);
    }
}
