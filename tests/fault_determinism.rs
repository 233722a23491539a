//! Fault injection must not cost a byte of determinism: a fault-laden
//! evaluation is still a pure function of (seed, plan), so the scorecard
//! JSON and the telemetry event stream are identical at any `--jobs`
//! width, and a [`FaultPlan`] is a *set* of events — the order the plan
//! author inserted them in is erased by the canonical sort and can never
//! reach an output.

use idse_attacks::{Campaign, CampaignConfig};
use idse_eval::feeds::FeedConfig;
use idse_eval::harness::EvaluationRequest;
use idse_eval::measure::EnvironmentNeeds;
use idse_eval::sweep::SweepPlan;
use idse_faults::{FaultComponent, FaultKind, FaultPlan};
use idse_ids::pipeline::{PipelineOutcome, PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_net::trace::Trace;
use idse_sim::{SimDuration, SimTime};
use idse_telemetry::{MemorySink, Telemetry};
use idse_traffic::{GeneratorConfig, RecordStream, SiteProfile, StreamConfig};
use proptest::prelude::*;

/// A plan that exercises every fault family at once.
fn stress_plan() -> FaultPlan {
    FaultPlan::new("determinism-stress")
        .with(
            SimTime::from_secs(3),
            FaultKind::Crash {
                component: FaultComponent::Sensor(0),
                restart_after: Some(SimDuration::from_secs(6)),
            },
        )
        .with(
            SimTime::from_secs(5),
            FaultKind::Crash {
                component: FaultComponent::Monitor,
                restart_after: Some(SimDuration::from_secs(4)),
            },
        )
        .with(
            SimTime::from_secs(8),
            FaultKind::LinkDegrade {
                loss_per_mille: 120,
                extra_latency: SimDuration::from_millis(1),
                duration: SimDuration::from_secs(5),
            },
        )
        .with(
            SimTime::from_secs(11),
            FaultKind::CpuExhaustion { steal_percent: 40, duration: SimDuration::from_secs(4) },
        )
        .with(
            SimTime::from_secs(12),
            FaultKind::ClockSkew {
                component: FaultComponent::Monitor,
                offset: SimDuration::from_millis(10),
            },
        )
        .with(
            SimTime::from_secs(14),
            FaultKind::AlertChannelDrop { duration: SimDuration::from_secs(2) },
        )
}

fn request(plan: FaultPlan) -> EvaluationRequest {
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
        .with_fault_plan(plan)
}

/// The fault-injected scorecard (with its survivability measures) and
/// the complete telemetry JSONL stream, as bytes, at one worker count.
fn faulted_bytes(jobs: usize) -> (String, String) {
    let sink = MemorySink::new(1 << 20);
    let req = request(stress_plan()).with_telemetry(Telemetry::new(sink.clone())).with_jobs(jobs);
    let feed = req.build_feed();
    let evals = req.evaluate_all(&feed);

    let mut cards = String::new();
    for e in &evals {
        cards.push_str(&serde_json::to_string(&e.scorecard).expect("scorecard serializes"));
        cards.push_str(&serde_json::to_string(&e.survivability).expect("survivability serializes"));
        cards.push('\n');
    }
    assert_eq!(sink.dropped(), 0, "test-sized run must fit the buffer");
    let jsonl: String = sink.events().iter().map(|ev| ev.to_jsonl() + "\n").collect();
    (cards, jsonl)
}

#[test]
fn faulted_scorecard_and_telemetry_are_byte_identical_at_any_width() {
    let serial = faulted_bytes(1);
    assert!(serial.0.contains("determinism-stress"), "survivability notes carry the plan label");
    assert_eq!(serial, faulted_bytes(8), "--jobs 8 changed a fault-injected byte");
    assert_eq!(serial, faulted_bytes(0), "--jobs auto changed a fault-injected byte");
}

fn benign(seed: u64, secs: u64, rate: f64) -> Trace {
    RecordStream::new(StreamConfig::new(GeneratorConfig::new(
        SiteProfile::ecommerce_web(),
        rate,
        SimDuration::from_secs(secs),
        seed,
    )))
    .expect("rate in range")
    .collect_trace()
}

fn mixed(seed: u64, secs: u64) -> Trace {
    let mut t = benign(seed, secs, 25.0);
    let cfg = CampaignConfig::new(SimDuration::from_secs(secs), seed ^ 0xa77ac);
    let c = Campaign::standard_mix(&SiteProfile::ecommerce_web(), &cfg);
    t.merge(c.generate(&cfg));
    t
}

fn run_small(plan: FaultPlan) -> PipelineOutcome {
    let product = IdsProduct::model(ProductId::GuardSecure);
    let cfg = RunConfig {
        sensitivity: Sensitivity::new(0.7),
        faults: Some(plan),
        ..RunConfig::default()
    };
    PipelineRunner::new(product, cfg).with_training(benign(1, 8, 20.0)).run(&mixed(3, 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Insertion order is authoring noise: pushing the same fault events
    /// in any permutation compiles to the same canonical plan and drives
    /// the pipeline to the same outcome, byte for byte.
    #[test]
    fn event_insertion_order_never_reaches_the_output(shuffle_seed in any::<u64>()) {
        let canonical = stress_plan();
        let mut events: Vec<_> = canonical.events().to_vec();

        // Fisher-Yates on the generated seed (splitmix64 steps).
        let mut s = shuffle_seed;
        let mut next = || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..events.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            events.swap(i, j);
        }

        let mut permuted = FaultPlan::new("determinism-stress");
        for ev in &events {
            permuted.push(ev.at, ev.kind);
        }
        prop_assert_eq!(permuted.events(), canonical.events());

        let a = run_small(canonical);
        let b = run_small(permuted);
        prop_assert_eq!(&a.alerts, &b.alerts);
        prop_assert_eq!(a.fault_stats, b.fault_stats);
        prop_assert_eq!((a.offered, a.monitored, a.missed), (b.offered, b.monitored, b.missed));
    }
}
