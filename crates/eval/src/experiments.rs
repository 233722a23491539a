//! Experiments X2–X4 and X7: the paper's lessons learned, reproduced,
//! plus the fault-injection survivability matrix over the Figure 2
//! cardinalities.

use crate::confusion::StreamLedger;
use crate::feeds::{FeedConfig, TestFeed};
use crate::sweep::{sweep, ErrorCurve, SweepPlan, SweepPoint};
use idse_exec::Executor;
use idse_faults::{FaultComponent, FaultKind, FaultPlan, Survivability};
use idse_ids::pipeline::{PipelineOutcome, PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;
use idse_net::trace::AttackClass;
use idse_sim::{SimDuration, SimTime};
use idse_traffic::{GeneratorConfig, PayloadMode, RecordStream, SiteProfile, StreamConfig};
use serde::Serialize;

/// X2 — payload realism. "A simple flooding of the network … with
/// meaningless data is not sufficient … the data portion of an IP packet
/// should have realistic content", because content-inspecting IDSes
/// behave differently under the two loads.
#[derive(Debug, Clone, Serialize)]
pub struct RealismRow {
    /// Product name.
    pub product: String,
    /// Alerts per 1000 packets under realistic payloads.
    pub alerts_per_kpkt_realistic: f64,
    /// Alerts per 1000 packets under random-byte payloads at identical
    /// timing and sizes.
    pub alerts_per_kpkt_random: f64,
    /// Mean per-packet inspection cost (ops) under realistic payloads.
    pub cost_realistic: f64,
    /// Mean per-packet inspection cost (ops) under random payloads.
    pub cost_random: f64,
}

/// Run X2 for the given products at one sensitivity. Products are probed
/// in parallel on `exec`; rows come back in input order.
pub fn payload_realism_experiment(
    products: &[IdsProduct],
    sensitivity: f64,
    seed: u64,
    exec: &Executor,
) -> Vec<RealismRow> {
    let span = SimDuration::from_secs(25);
    let rate = 25.0;
    let mk = |mode: PayloadMode, seed_off: u64| {
        let mut cfg =
            GeneratorConfig::new(SiteProfile::ecommerce_web(), rate, span, seed ^ seed_off);
        cfg.payload_mode = mode;
        RecordStream::new(StreamConfig::new(cfg)).expect("rate in range").collect_trace()
    };
    let training = mk(PayloadMode::Realistic, 0x7261);
    let realistic = mk(PayloadMode::Realistic, 0);
    let random = mk(PayloadMode::RandomBytes, 0);

    exec.par_map(products, |_, p| {
        let config =
            RunConfig { sensitivity: Sensitivity::new(sensitivity), ..RunConfig::default() };
        let runner = PipelineRunner::new(p.clone(), config).with_training(&training);
        let out_real = runner.run(&realistic);
        let out_rand = runner.run(&random);
        let mean_cost = |trace: &idse_net::trace::Trace| -> f64 {
            // Engine cost model, averaged over the trace.
            let mut sig = p
                .engines
                .signature
                .clone()
                .map(idse_ids::engine::signature::SignatureEngine::standard);
            let ano = p.engines.anomaly.clone().map(idse_ids::engine::anomaly::AnomalyEngine::new);
            let mut total = 0.0;
            for r in trace.records() {
                if let Some(e) = sig.as_mut() {
                    total += idse_ids::engine::DetectionEngine::cost_ops(e, &r.packet);
                }
                if let Some(e) = ano.as_ref() {
                    total += idse_ids::engine::DetectionEngine::cost_ops(e, &r.packet);
                }
            }
            total / trace.len().max(1) as f64
        };
        RealismRow {
            product: p.id.name().to_owned(),
            alerts_per_kpkt_realistic: 1000.0 * out_real.alerts.len() as f64
                / realistic.len() as f64,
            alerts_per_kpkt_random: 1000.0 * out_rand.alerts.len() as f64 / random.len() as f64,
            cost_realistic: mean_cost(&realistic),
            cost_random: mean_cost(&random),
        }
    })
}

/// X3 — site profile mismatch. "Commercial IDSs will often be geared
/// toward [e-commerce traffic] and not perform well in [the high-trust
/// cluster] situation. The best way to evaluate any IDS is to use real
/// traffic … from the site where the IDS is expected to be deployed."
#[derive(Debug, Clone, Serialize)]
pub struct SiteProfileRow {
    /// Product name.
    pub product: String,
    /// False-positive ratio on cluster traffic when trained/tuned on
    /// cluster traffic (the matched case).
    pub fp_matched: f64,
    /// False-positive ratio on cluster traffic when trained/tuned on
    /// e-commerce traffic (the mismatched, "commercial default" case).
    pub fp_mismatched: f64,
    /// Attack-instance detection rate in the matched case.
    pub detection_matched: f64,
    /// Attack-instance detection rate in the mismatched case.
    pub detection_mismatched: f64,
}

/// Run X3 for the given products at one sensitivity. Products are probed
/// in parallel on `exec`; rows come back in input order.
pub fn site_profile_experiment(
    products: &[IdsProduct],
    sensitivity: f64,
    seed: u64,
    exec: &Executor,
) -> Vec<SiteProfileRow> {
    let fc = site_profile_feed_config(seed);
    let cluster = TestFeed::realtime_cluster(&fc);
    let web = TestFeed::ecommerce(&fc);
    let ledger = StreamLedger::of(&cluster.test);

    exec.par_map(products, |_, p| {
        let run = |training: &idse_net::trace::Trace| {
            let config = RunConfig {
                sensitivity: Sensitivity::new(sensitivity),
                monitored_hosts: cluster.servers.clone(),
                ..RunConfig::default()
            };
            let runner = PipelineRunner::new(p.clone(), config).with_training(training);
            let out = runner.run(&cluster.test);
            ledger.score_alerts(&out.alerts, &out.alert_truths)
        };
        let matched = run(&cluster.training);
        let mismatched = run(&web.training);
        SiteProfileRow {
            product: p.id.name().to_owned(),
            fp_matched: matched.false_positive_ratio(),
            fp_mismatched: mismatched.false_positive_ratio(),
            detection_matched: matched.detection_rate(),
            detection_mismatched: mismatched.detection_rate(),
        }
    })
}

/// X4 — operating-point selection (§3.3). "Distributed systems … should
/// put emphasis on reducing the false negative ratio to the lowest
/// possible level accepting an increased false positive alert ratio."
/// The experiment compares the EER operating point against the
/// min-FN-within-FP-budget point, reporting what each buys on the
/// hardest class (trust exploitation).
#[derive(Debug, Clone, Serialize)]
pub struct OperatingPointReport {
    /// Product name.
    pub product: String,
    /// The full sweep the points come from.
    pub curve: ErrorCurve,
    /// The equal-error-rate point, if the curves cross.
    pub eer_point: Option<(f64, f64)>,
    /// The §3.3 distributed operating point.
    pub low_fn_point: Option<SweepPoint>,
    /// Trust-exploit detection rate at (approximately) the EER sensitivity.
    pub trust_detection_at_eer: Option<f64>,
    /// Trust-exploit detection rate at the low-FN point.
    pub trust_detection_at_low_fn: Option<f64>,
}

/// Run X4 for one product on the cluster feed. The nine-step sweep fans
/// out on `exec`; the two follow-up runs at the chosen points are serial.
pub fn operating_point_experiment(
    product: &IdsProduct,
    fp_budget: f64,
    seed: u64,
    exec: &Executor,
) -> OperatingPointReport {
    let fc = operating_point_feed_config(seed);
    let feed = TestFeed::realtime_cluster(&fc);
    let plan = SweepPlan::with_steps(9).with_fp_budget(fp_budget);
    let curve = sweep(product, &feed, &plan, exec);
    let eer_point = curve.equal_error_rate();
    let low_fn_point = curve.operating_point(&plan);

    let ledger = StreamLedger::of(&feed.test);
    let trained = feed.trained_runner(product);
    let trust_rate_at = |s: f64| -> Option<f64> {
        let config = RunConfig { sensitivity: Sensitivity::new(s), ..trained.config().clone() };
        let out = trained.reconfigured(config).run(&feed.test);
        ledger
            .score_alerts(&out.alerts, &out.alert_truths)
            .class_detection_rate(AttackClass::TrustExploit)
    };

    let trust_detection_at_eer = eer_point.and_then(|(s, _)| trust_rate_at(s));
    let trust_detection_at_low_fn = low_fn_point.and_then(|p| trust_rate_at(p.sensitivity));

    OperatingPointReport {
        product: product.id.name().to_owned(),
        curve,
        eer_point,
        low_fn_point,
        trust_detection_at_eer,
        trust_detection_at_low_fn,
    }
}

/// X7 — one fault scenario of the survivability matrix: a named fault
/// plan plus the Figure 2 relation it stresses.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Scenario name (stable; keys the matrix row).
    pub name: &'static str,
    /// The Figure 2 cardinality the scenario breaks — e.g. the
    /// LB 1c:M fan-out, or the Monitor 1:1c Manager link.
    pub relation: &'static str,
    /// The fault plan injected into the run.
    pub plan: FaultPlan,
}

/// The standard X7 scenario set: every Figure 2 relation gets at least
/// one kill-or-partition scenario, plus the degradation faults (CPU
/// steal, clock skew, lossy tap). Timings assume the standard 50 s test
/// span — each outage opens after the trace warms up and heals before it
/// ends, so recovery behavior (replay, reroute-back) is exercised too.
pub fn fault_scenarios() -> Vec<FaultScenario> {
    let at = SimTime::from_secs(5);
    let heal = Some(SimDuration::from_secs(20));
    let crash =
        |name: &'static str, relation: &'static str, component: FaultComponent| FaultScenario {
            name,
            relation,
            plan: FaultPlan::new(name)
                .with(at, FaultKind::Crash { component, restart_after: heal }),
        };
    vec![
        // The four Figure 2 cardinalities, each killed in turn.
        crash("lb-kill", "LB 1c:M Sensor", FaultComponent::LoadBalancer),
        crash("sensor-kill", "Sensor M:M Analyzer", FaultComponent::Sensor(0)),
        crash("analyzer-kill", "Sensor M:M Analyzer", FaultComponent::Analyzer(0)),
        crash("monitor-kill", "Analyzer M:1 Monitor", FaultComponent::Monitor),
        crash("manager-kill", "Monitor 1:1c Manager", FaultComponent::Manager),
        // Substrate degradations.
        FaultScenario {
            name: "tap-partition",
            relation: "Net 1:M Tap",
            plan: FaultPlan::new("tap-partition").with(
                SimTime::from_secs(10),
                FaultKind::LinkPartition { duration: SimDuration::from_secs(5) },
            ),
        },
        FaultScenario {
            name: "tap-degrade",
            relation: "Net 1:M Tap",
            plan: FaultPlan::new("tap-degrade").with(
                SimTime::from_secs(5),
                FaultKind::LinkDegrade {
                    loss_per_mille: 150,
                    extra_latency: SimDuration::from_millis(2),
                    duration: SimDuration::from_secs(30),
                },
            ),
        },
        FaultScenario {
            name: "cpu-squeeze",
            relation: "Host N:1 CPU",
            plan: FaultPlan::new("cpu-squeeze").with(
                at,
                FaultKind::CpuExhaustion {
                    steal_percent: 60,
                    duration: SimDuration::from_secs(30),
                },
            ),
        },
        FaultScenario {
            name: "clock-skew",
            relation: "Analyzer M:1 Monitor",
            plan: FaultPlan::new("clock-skew").with(
                at,
                FaultKind::ClockSkew {
                    component: FaultComponent::Monitor,
                    offset: SimDuration::from_millis(50),
                },
            ),
        },
        FaultScenario {
            name: "alert-drop",
            relation: "Monitor 1:1c Manager",
            plan: FaultPlan::new("alert-drop").with(
                SimTime::from_secs(10),
                FaultKind::AlertChannelDrop { duration: SimDuration::from_secs(10) },
            ),
        },
    ]
}

/// One cell of the X7 matrix: a product put through one fault scenario,
/// condensed against its own fault-free baseline.
#[derive(Debug, Clone, Serialize)]
pub struct FaultMatrixRow {
    /// Product name.
    pub product: String,
    /// Scenario name (see [`fault_scenarios`]).
    pub scenario: String,
    /// Figure 2 relation the scenario stresses.
    pub relation: String,
    /// The four survivability measures for this cell.
    pub survivability: Survivability,
    /// 0–4 rubric scores in catalog order: retention, alert loss,
    /// reroute time, recovery completeness.
    pub scores: [u8; 4],
    /// Work items re-routed around a dead component.
    pub rerouted: u64,
    /// Alerts lost outright (dropped channel, dead unbuffered stage,
    /// stranded replay buffers).
    pub lost_alerts: u64,
    /// Buffered items replayed after a restart.
    pub replayed: u64,
}

/// The X3 site-profile feed parameters. Exported so run provenance can
/// state the exact feed the mismatch experiment ran on.
pub fn site_profile_feed_config(seed: u64) -> FeedConfig {
    FeedConfig::builder()
        .session_rate(25.0)
        .training_span(SimDuration::from_secs(25))
        .test_span(SimDuration::from_secs(50))
        .campaign_intensity(1)
        .seed(seed)
        .build()
}

/// The X4 operating-point feed parameters. Exported so run provenance can
/// state the exact feed the sweep ran on.
pub fn operating_point_feed_config(seed: u64) -> FeedConfig {
    FeedConfig::builder()
        .session_rate(25.0)
        .training_span(SimDuration::from_secs(25))
        .test_span(SimDuration::from_secs(50))
        .campaign_intensity(2)
        .seed(seed)
        .build()
}

/// The standard X7 feed: the scenario timings in [`fault_scenarios`]
/// assume this 50 s test span. Exported so run provenance can state the
/// exact feed the matrix ran on.
pub fn fault_matrix_feed_config(seed: u64) -> FeedConfig {
    FeedConfig::builder()
        .session_rate(25.0)
        .training_span(SimDuration::from_secs(25))
        .test_span(SimDuration::from_secs(50))
        .campaign_intensity(1)
        .seed(seed)
        .build()
}

/// Run the X7 component × fault-type grid: every product crossed with
/// every scenario, in parallel on `exec`, each cell scored against that
/// product's fault-free baseline run on the identical feed.
///
/// Rows come back in (product-major, scenario-minor) input order, so the
/// matrix is byte-identical at any worker count.
pub fn fault_matrix_experiment(
    products: &[IdsProduct],
    scenarios: &[FaultScenario],
    sensitivity: f64,
    seed: u64,
    exec: &Executor,
) -> Vec<FaultMatrixRow> {
    let fc = fault_matrix_feed_config(seed);
    let feed = TestFeed::realtime_cluster(&fc);
    let true_alerts = |o: &PipelineOutcome| o.alert_truths.iter().flatten().count() as u64;
    let run = |runner: &PipelineRunner, faults: Option<FaultPlan>| {
        let config = RunConfig {
            sensitivity: Sensitivity::new(sensitivity),
            faults,
            ..runner.config().clone()
        };
        runner.reconfigured(config).run(&feed.test)
    };

    // Fault-free twins first: one trained runner and one baseline per
    // product, reused by every scenario in that product's row.
    let trained = exec.par_map(products, |_, p| feed.trained_runner(p));
    let baselines = exec.par_map(&trained, |_, runner| true_alerts(&run(runner, None)));

    let grid: Vec<(usize, usize)> =
        (0..products.len()).flat_map(|p| (0..scenarios.len()).map(move |s| (p, s))).collect();
    exec.par_map(&grid, |_, &(pi, si)| {
        let product = &products[pi];
        let scenario = &scenarios[si];
        let faulted = run(&trained[pi], Some(scenario.plan.clone()));
        let s = Survivability::measure(
            baselines[pi],
            true_alerts(&faulted),
            faulted.alerts.len() as u64,
            &faulted.fault_stats,
        );
        let stats = faulted.fault_stats;
        FaultMatrixRow {
            product: product.id.name().to_owned(),
            scenario: scenario.name.to_owned(),
            relation: scenario.relation.to_owned(),
            survivability: s,
            scores: [
                crate::measure::score_detection_retention(s.detection_retention).value(),
                crate::measure::score_alert_loss(s.alert_loss_ratio).value(),
                crate::measure::score_reroute_time(s.mean_reroute, stats.rerouted > 0).value(),
                crate::measure::score_recovery_completeness(s.recovery_completeness).value(),
            ],
            rerouted: stats.rerouted,
            lost_alerts: stats.lost_alerts,
            replayed: stats.replayed,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_ids::products::ProductId;

    #[test]
    fn x2_realism_changes_behaviour() {
        let products =
            [IdsProduct::model(ProductId::NidSentry), IdsProduct::model(ProductId::FlowHunter)];
        let rows = payload_realism_experiment(&products, 0.8, 11, &Executor::new(2));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                (r.alerts_per_kpkt_realistic - r.alerts_per_kpkt_random).abs() > 1e-9,
                "{}: payload realism must change alert behaviour: {r:?}",
                r.product
            );
        }
        // The anomaly product must alarm far MORE under a random-byte
        // flood (binary content on text ports everywhere).
        let fh = rows.iter().find(|r| r.product.contains("FlowHunter")).unwrap();
        assert!(
            fh.alerts_per_kpkt_random > fh.alerts_per_kpkt_realistic * 3.0,
            "random flood should drown the anomaly engine in alarms: {fh:?}"
        );
    }

    #[test]
    fn x3_mismatched_training_hurts() {
        let products = [IdsProduct::model(ProductId::FlowHunter)];
        let rows = site_profile_experiment(&products, 0.7, 13, &Executor::serial());
        let r = &rows[0];
        assert!(
            r.fp_mismatched > r.fp_matched,
            "training on the wrong site must raise false positives: {r:?}"
        );
    }

    #[test]
    fn x7_matrix_covers_every_relation_deterministically() {
        let products = [IdsProduct::model(ProductId::GuardSecure)];
        let scenarios = fault_scenarios();
        let rows = fault_matrix_experiment(&products, &scenarios, 0.7, 21, &Executor::new(4));
        assert_eq!(rows.len(), scenarios.len());
        for relation in [
            "LB 1c:M Sensor",
            "Sensor M:M Analyzer",
            "Analyzer M:1 Monitor",
            "Monitor 1:1c Manager",
        ] {
            assert!(
                rows.iter().any(|r| r.relation == relation),
                "Figure 2 relation {relation} has no scenario"
            );
        }
        for r in &rows {
            assert!(
                (0.0..=1.0).contains(&r.survivability.detection_retention)
                    && (0.0..=1.0).contains(&r.survivability.alert_loss_ratio),
                "measures out of range: {r:?}"
            );
            assert!(r.scores.iter().all(|&s| s <= 4), "rubric scores are 0-4: {r:?}");
        }
        let serial = fault_matrix_experiment(&products, &scenarios, 0.7, 21, &Executor::serial());
        assert_eq!(format!("{rows:?}"), format!("{serial:?}"), "worker count changed the matrix");
    }

    #[test]
    fn x4_low_fn_point_catches_more_trust_exploits() {
        let report = operating_point_experiment(
            &IdsProduct::model(ProductId::FlowHunter),
            0.2,
            17,
            &Executor::new(3),
        );
        let low_fn = report.low_fn_point.expect("a low-FN point exists");
        // The chosen point trades FP for FN per §3.3.
        if let Some((_, eer_rate)) = report.eer_point {
            assert!(low_fn.false_negative_ratio <= eer_rate + 1e-9);
        }
        if let (Some(at_eer), Some(at_low)) =
            (report.trust_detection_at_eer, report.trust_detection_at_low_fn)
        {
            assert!(
                at_low >= at_eer,
                "the distributed operating point must not catch fewer trust exploits"
            );
        }
    }
}
