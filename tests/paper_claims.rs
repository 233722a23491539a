//! Paper-shape claims, verified end to end: the qualitative results the
//! paper reports (or predicts) must hold in the reproduction — who detects
//! what, and how the error curves move.

#![allow(clippy::float_cmp, reason = "tests assert bit-exact determinism")]

use idse_eval::feeds::{FeedConfig, TestFeed};
use idse_eval::sweep::{sweep, SweepPlan};
use idse_eval::{join_alerts, StreamLedger};
use idse_exec::Executor;
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_net::trace::AttackClass;
use idse_sim::SimDuration;

fn feed() -> TestFeed {
    TestFeed::realtime_cluster(
        &FeedConfig::builder()
            .session_rate(20.0)
            .training_span(SimDuration::from_secs(15))
            .test_span(SimDuration::from_secs(35))
            .campaign_intensity(2)
            .seed(0xbeef)
            .build(),
    )
}

fn confusion_at(feed: &TestFeed, id: ProductId, s: f64) -> idse_eval::confusion::ConfusionCounts {
    confusion_via(feed, &IdsProduct::model(id), s)
}

fn confusion_via(
    feed: &TestFeed,
    product: &IdsProduct,
    s: f64,
) -> idse_eval::confusion::ConfusionCounts {
    let ledger = StreamLedger::of(&feed.test);
    let out = PipelineRunner::new(
        product.clone(),
        RunConfig {
            sensitivity: Sensitivity::new(s),
            monitored_hosts: feed.servers.clone(),
            ..RunConfig::default()
        },
    )
    .with_training(&feed.training)
    .run(&feed.test);
    ledger.score_alerts(&out.alerts, &out.alert_truths)
}

#[test]
fn signature_products_catch_known_exploits_and_scans() {
    let f = feed();
    let c = confusion_at(&f, ProductId::NidSentry, 0.7);
    assert_eq!(c.class_detection_rate(AttackClass::PortScan), Some(1.0));
    assert_eq!(c.class_detection_rate(AttackClass::SynFlood), Some(1.0));
    assert!(c.class_detection_rate(AttackClass::PayloadExploit).unwrap() > 0.4);
}

#[test]
fn network_signature_products_miss_the_structural_blind_spots() {
    let f = feed();
    let c = confusion_at(&f, ProductId::NidSentry, 0.9);
    // No reassembly → fragmentation evasion is invisible.
    assert_eq!(
        c.class_detection_rate(AttackClass::FragmentationEvasion),
        Some(0.0),
        "NidSentry must be blind to overlap evasion"
    );
    // No behavioral model → covert tunnels are invisible.
    assert_eq!(c.class_detection_rate(AttackClass::Tunneling), Some(0.0));
}

#[test]
fn host_agents_see_through_fragmentation() {
    let f = feed();
    let c = confusion_at(&f, ProductId::GuardSecure, 0.7);
    // The hybrid's host agents read post-reassembly host data: evasion
    // that blinds the network sensor is caught at the host.
    assert!(
        c.class_detection_rate(AttackClass::FragmentationEvasion).unwrap() > 0.0,
        "host vantage must defeat network-level evasion"
    );
}

#[test]
fn anomaly_product_catches_behavioral_attacks_signature_products_cannot() {
    let f = feed();
    let fh = confusion_at(&f, ProductId::FlowHunter, 0.9);
    assert!(
        fh.class_detection_rate(AttackClass::Tunneling).unwrap() > 0.0,
        "DNS tunnel is a size/rate anomaly"
    );
    assert!(
        fh.class_detection_rate(AttackClass::Masquerade).unwrap() > 0.0,
        "login-origin model must flag the masquerade"
    );
}

#[test]
fn trust_exploit_is_the_hardest_class() {
    // §3.3: trust exploitation "may look like normal interactions between
    // hosts … difficult to detect". At moderate sensitivity, no network
    // product catches it.
    let f = feed();
    for id in [ProductId::NidSentry, ProductId::FlowHunter] {
        let c = confusion_at(&f, id, 0.4);
        assert_eq!(
            c.class_detection_rate(AttackClass::TrustExploit),
            Some(0.0),
            "{id:?} at moderate sensitivity"
        );
    }
    // Only high sensitivity (anomaly) or host-level file integrity
    // (agents) reach it.
    let fh_hot = confusion_at(&f, ProductId::FlowHunter, 0.95);
    let gs = confusion_at(&f, ProductId::GuardSecure, 0.7);
    assert!(
        fh_hot.class_detection_rate(AttackClass::TrustExploit).unwrap() > 0.0
            || gs.class_detection_rate(AttackClass::TrustExploit).unwrap() > 0.0,
        "some path to the hardest class must exist"
    );
}

#[test]
fn error_curves_move_as_figure4_draws_them() {
    let f = feed();
    let plan = SweepPlan::with_steps(5);
    let exec = Executor::new(2);
    for id in [ProductId::NidSentry, ProductId::GuardSecure, ProductId::FlowHunter] {
        let curve = sweep(&IdsProduct::model(id), &f, &plan, &exec);
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        assert!(
            last.false_negative_ratio <= first.false_negative_ratio,
            "{id:?}: FN must not rise with sensitivity"
        );
        assert!(
            last.false_positive_ratio >= first.false_positive_ratio,
            "{id:?}: FP must not fall with sensitivity"
        );
    }
}

#[test]
fn hybrid_detection_unions_coverage_and_pays_in_throughput_cost() {
    // §2.1: "A hybrid IDS uses both technologies either in series or in
    // parallel." On one architecture, the parallel hybrid must detect at
    // least as much as either mechanism alone at the same sensitivity,
    // and cost at least as much per packet.
    use idse_ids::engine::anomaly::AnomalyConfig;
    use idse_ids::engine::signature::SignatureConfig;
    use idse_ids::products::EngineSuite;

    let f = feed();
    let run = |engines: EngineSuite| {
        let mut product = IdsProduct::model(ProductId::FlowHunter);
        product.engines = engines;
        confusion_via(&f, &product, 0.8)
    };
    let sig = run(EngineSuite {
        signature: Some(SignatureConfig::default()),
        anomaly: None,
        host_agents: false,
    });
    let ano = run(EngineSuite {
        signature: None,
        anomaly: Some(AnomalyConfig::default()),
        host_agents: false,
    });
    let hybrid = run(EngineSuite {
        signature: Some(SignatureConfig::default()),
        anomaly: Some(AnomalyConfig::default()),
        host_agents: false,
    });
    assert!(hybrid.detection_rate() >= sig.detection_rate());
    assert!(hybrid.detection_rate() >= ano.detection_rate());
    assert!(
        hybrid.detection_rate() > sig.detection_rate().min(ano.detection_rate()),
        "the union must beat the weaker single mechanism"
    );
    // Both false-positive sources are inherited.
    assert!(hybrid.false_positives >= sig.false_positives.max(ano.false_positives));
}

#[test]
fn stealth_and_distributed_scans_evade_windowed_detectors() {
    // The reconnaissance detectors are windowed per-source counters, so
    // pacing under the window (stealth) or splitting across sources
    // (distributed) evades them at ANY sensitivity — a structural false
    // negative the scorecard's Observed FN Ratio is designed to expose.
    use idse_attacks::scan::{DistributedScan, PortScan, StealthScan};
    use idse_attacks::Scenario;
    use idse_sim::{RngStream, SimTime};

    let f = feed();
    let mut rng = RngStream::derive(31, "stealthy");
    let mut trace = f.background.clone();
    let stealth = StealthScan::new(std::net::Ipv4Addr::new(66, 8, 8, 8), f.servers[0]);
    trace.merge(stealth.generate(SimTime::from_secs(2), 1, &mut rng));
    let distributed = DistributedScan::new(f.servers[1]);
    trace.merge(distributed.generate(SimTime::from_secs(4), 2, &mut rng));
    // A control: the loud scan, same target class.
    let loud = PortScan::new(std::net::Ipv4Addr::new(66, 9, 9, 9), f.servers[2]);
    trace.merge(loud.generate(SimTime::from_secs(6), 3, &mut rng));

    let detected_by = |id: ProductId| -> std::collections::BTreeSet<u32> {
        let out = PipelineRunner::new(
            IdsProduct::model(id),
            RunConfig {
                sensitivity: Sensitivity::new(1.0),
                monitored_hosts: f.servers.clone(),
                ..RunConfig::default()
            },
        )
        .with_training(&f.training)
        .run(&trace);
        join_alerts(&out.alerts, &out.alert_truths).0
    };

    // Both engine families catch the loud control scan and miss the
    // under-window stealth scan.
    let nid = detected_by(ProductId::NidSentry);
    let fh = detected_by(ProductId::FlowHunter);
    for (name, d) in [("NidSentry", &nid), ("FlowHunter", &fh)] {
        assert!(d.contains(&3), "{name} must catch the loud control scan");
        assert!(!d.contains(&1), "{name} must miss the stealth scan (windowed counters)");
    }
    // The distributed scan separates the mechanisms: fixed per-source
    // thresholds (signature preprocessors) never accumulate, while the
    // anomaly product's *learned per-destination* rate baseline can see
    // the aggregate — a concrete advantage of behavior-based detection.
    assert!(!nid.contains(&2), "fixed per-source thresholds must miss the distributed scan");
    assert!(fh.contains(&2), "the learned destination baseline must catch the aggregate");
}

#[test]
fn novel_exploits_separate_the_detection_mechanisms() {
    // Deliver one novel (not-in-database) exploit payload — delivery only,
    // without the victim's compromise-indicator response (which is itself
    // signature-detectable and would mask the point being tested).
    use idse_attacks::exploit::exploit_by_name;
    use idse_net::tcp::{synthesize_session, Exchange, SessionSpec};
    use idse_net::trace::GroundTruth;
    use idse_sim::{SimDuration as SD, SimTime};

    let f = feed();
    let exploit = exploit_by_name("novel-telnetd-overflow").expect("in corpus");
    let spec =
        SessionSpec::new(std::net::Ipv4Addr::new(66, 7, 7, 7), 31111, f.servers[0], exploit.port);
    let mut trace = f.background.clone();
    let mut t = SimTime::from_secs(5);
    let truth = GroundTruth { attack_id: 1, class: AttackClass::PayloadExploit };
    let mut attack = idse_net::trace::Trace::new();
    for (_, p) in synthesize_session(&spec, &[Exchange::to_server(exploit.payload.to_vec())]) {
        attack.push_attack(t, p, truth);
        t += SD::from_millis(2);
    }
    trace.merge(attack);
    let ledger = StreamLedger::of(&trace);

    let run = |id: ProductId| {
        let out = PipelineRunner::new(
            IdsProduct::model(id),
            RunConfig {
                sensitivity: Sensitivity::new(0.95),
                monitored_hosts: f.servers.clone(),
                ..RunConfig::default()
            },
        )
        .with_training(&f.training)
        .run(&trace);
        ledger.score_alerts(&out.alerts, &out.alert_truths).detection_rate()
    };

    assert_eq!(run(ProductId::NidSentry), 0.0, "signature DB has no rule for it");
    assert!(
        run(ProductId::FlowHunter) > 0.0,
        "binary shellcode on a text port is a payload-character anomaly"
    );
}
