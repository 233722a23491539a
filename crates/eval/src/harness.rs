//! The full evaluation: every product, every metric, one scorecard each.
//!
//! This is the methodology end-to-end, split into the three phases the
//! executor makes explicit:
//!
//! 1. **Job lists** — enumerate every independent experiment as a job: one
//!    per (product, sweep point), then one operating-point run and one
//!    throughput search per product, in (product name, stage, point)
//!    order.
//! 2. **Parallel execution** — run the jobs on an [`idse_exec::Executor`]
//!    sized by [`EvaluationRequest::jobs`]. Each job is a pure function of
//!    the feed and its inputs, recording into its own telemetry fork.
//! 3. **Deterministic reduce** — assemble curves, pick operating points,
//!    convert measurements through the `measure` rubrics, and fill one
//!    [`Scorecard`] per product, reading results by job position.
//!
//! Because no phase ever observes scheduling, the scorecards, curves and
//! telemetry streams are byte-identical at any worker count — the serial
//! path is just `jobs = 1`.

use std::collections::BTreeMap;

use crate::confusion::{join_alerts, ConfusionCounts, StreamLedger};
use crate::evidence::{EvidencePolicy, EvidenceStore};
use crate::feeds::{FeedConfig, TestFeed};
use crate::measure::{self, EnvironmentNeeds};
use crate::sweep::{measure_sweep_point, ErrorCurve, SweepPlan};
use crate::throughput::{self, ThroughputReport};
use crate::timing::{timing_report, TimingReport};
use crate::vendor::score_vendor_metrics;
use idse_core::{MetricId, Scorecard};
use idse_exec::{CancelToken, Cancelled, Executor};
use idse_faults::{FaultPlan, Survivability};
use idse_ids::pipeline::{PipelineOutcome, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;

/// A full evaluation request: what to measure, against which needs, and
/// how wide to run.
///
/// This is the front door of the harness. Build one with the `with_*`
/// methods (or struct update syntax off [`EvaluationRequest::default`]),
/// then call [`EvaluationRequest::evaluate`],
/// [`EvaluationRequest::evaluate_products`] or
/// [`EvaluationRequest::evaluate_all`].
///
/// ```no_run
/// use idse_eval::EvaluationRequest;
///
/// let request = EvaluationRequest::new().with_sweep_steps(5).with_jobs(4);
/// let feed = request.build_feed();
/// let evals = request.evaluate_all(&feed);
/// assert_eq!(evals.len(), 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EvaluationRequest {
    /// Feed parameters.
    pub feed: FeedConfig,
    /// Environment the rubrics compare against.
    pub needs: EnvironmentNeeds,
    /// Figure 4 sweep shape and the §3.3 operating-point budget.
    pub sweep: SweepPlan,
    /// Ceiling for the throughput searches (time-compression factor).
    pub max_throughput_factor: f64,
    /// Telemetry handle. Disabled by default. When enabled, each
    /// product's evaluation records into the shared sink under a scope
    /// named after the product, and the operating-point pipeline run is
    /// fully instrumented (per-stage spans, shed/alert counters).
    pub telemetry: idse_telemetry::Telemetry,
    /// Worker count for the parallel executor: `1` runs everything inline
    /// on the calling thread, `0` auto-sizes to the machine, any `N`
    /// produces byte-identical results.
    pub jobs: usize,
    /// Fault plan for the survivability probe. When set, every product
    /// additionally runs the operating point *under this plan* and the
    /// four survivability metrics are measured against the fault-free
    /// twin; when `None` they fall back to static architecture analysis.
    pub fault_plan: Option<FaultPlan>,
    /// Run store to record into. When set, every
    /// [`EvaluationRequest::evaluate_products`] call commits its results
    /// (all 56 discrete scores plus the continuous measurements, under a
    /// provenance-keyed header) to the store after the reduce. Recording
    /// failure degrades to a warning — observability never aborts a run.
    pub store: Option<crate::provenance::StoreSpec>,
}

impl Default for EvaluationRequest {
    fn default() -> Self {
        Self {
            feed: FeedConfig::default(),
            needs: EnvironmentNeeds::realtime_cluster(2_000.0),
            sweep: SweepPlan::default(),
            max_throughput_factor: 256.0,
            telemetry: idse_telemetry::Telemetry::disabled(),
            jobs: 1,
            fault_plan: None,
            store: None,
        }
    }
}

impl EvaluationRequest {
    /// The default request (serial, paper-default sweep and budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// This request with different feed parameters.
    pub fn with_feed(mut self, feed: FeedConfig) -> Self {
        self.feed = feed;
        self
    }

    /// This request with different environment needs.
    pub fn with_needs(mut self, needs: EnvironmentNeeds) -> Self {
        self.needs = needs;
        self
    }

    /// This request with a different sweep plan.
    pub fn with_sweep(mut self, sweep: SweepPlan) -> Self {
        self.sweep = sweep;
        self
    }

    /// This request with a different sweep step count (range and budget
    /// unchanged).
    pub fn with_sweep_steps(mut self, steps: usize) -> Self {
        self.sweep.steps = steps;
        self
    }

    /// This request with a different false-positive budget for
    /// operating-point selection.
    pub fn with_fp_budget(mut self, fp_budget: f64) -> Self {
        self.sweep.fp_budget = fp_budget;
        self
    }

    /// This request with a different throughput-search ceiling.
    pub fn with_max_throughput_factor(mut self, factor: f64) -> Self {
        self.max_throughput_factor = factor;
        self
    }

    /// This request recording into `telemetry`.
    pub fn with_telemetry(mut self, telemetry: idse_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// This request running on `jobs` workers (`0` = one per core).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// This request consuming its feed as a chunked stream: records are
    /// generated `chunk_records` at a time and the run is sharded
    /// `shards` ways by flow key (see [`crate::streaming`]). Pure
    /// configuration sugar over the feed fields — chunk size never
    /// changes the bytes produced, and any [`EvaluationRequest::jobs`]
    /// setting yields byte-identical scorecards for a fixed shard count.
    pub fn with_stream(mut self, chunk_records: usize, shards: u32) -> Self {
        self.feed.chunk_records = chunk_records.max(1);
        self.feed.shards = shards.max(1);
        self
    }

    /// This request measuring survivability under `plan`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// This request recording every evaluation into the run store at
    /// `dir` (see [`crate::provenance`]).
    pub fn with_store(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_store_spec(crate::provenance::StoreSpec::new(dir))
    }

    /// This request recording with a fully-annotated store spec (stamp,
    /// git rev, profile/weighting labels).
    pub fn with_store_spec(mut self, spec: crate::provenance::StoreSpec) -> Self {
        self.store = Some(spec);
        self
    }

    /// The executor this request's experiments run on.
    pub fn executor(&self) -> Executor {
        Executor::new(self.jobs)
    }

    /// Generate the real-time-cluster feed this request describes.
    pub fn build_feed(&self) -> TestFeed {
        TestFeed::realtime_cluster(&self.feed)
    }

    /// Evaluate one product against a feed.
    pub fn evaluate(&self, product: &IdsProduct, feed: &TestFeed) -> ProductEvaluation {
        self.evaluate_products(std::slice::from_ref(product), feed)
            .pop()
            .expect("one product in, one evaluation out")
    }

    /// Evaluate all four modeled products against one feed.
    pub fn evaluate_all(&self, feed: &TestFeed) -> Vec<ProductEvaluation> {
        self.evaluate_products(&IdsProduct::all_models(), feed)
    }

    /// Evaluate the given products against one feed.
    ///
    /// The returned evaluations are in input product order; every number
    /// in them — and every telemetry event recorded along the way — is
    /// byte-identical for any [`EvaluationRequest::jobs`] setting.
    pub fn evaluate_products(
        &self,
        products: &[IdsProduct],
        feed: &TestFeed,
    ) -> Vec<ProductEvaluation> {
        self.evaluate_products_cancellable(products, feed, &CancelToken::new())
            .expect("a fresh token never cancels")
    }

    /// [`EvaluationRequest::evaluate_products`] with cooperative
    /// cancellation.
    ///
    /// The batch path's safe points are job boundaries: the token is
    /// polled before each sweep point and each measured probe, and
    /// between the two phases. Each checkpoint's rank is its place in the
    /// canonical job order: with `S` sweep jobs, sweep job `k` has rank
    /// `k + 1`, the check between the phases `S + 1` and probe job `j`
    /// `S + 2 + j` ([`CancelToken::stop_before_rank`]), so an armed token
    /// stops the same jobs at any worker count. Telemetry recorded by jobs
    /// that ran before the cancel is flushed in canonical order; nothing is
    /// recorded to the run store unless the evaluation completes.
    pub fn evaluate_products_cancellable(
        &self,
        products: &[IdsProduct],
        feed: &TestFeed,
        cancel: &CancelToken,
    ) -> Result<Vec<ProductEvaluation>, Cancelled> {
        self.sweep.validate();
        evaluated_once(products);
        let exec = self.executor();
        let ledger = StreamLedger::of(&feed.test);
        // Each product trains once; every sweep point and probe below
        // deploys clones of its trained engines.
        let trained = exec.par_map(products, |_, product| feed.trained_runner(product));
        // Jobs run in (product name, stage, point) order: the order of
        // their checkpoint ranks and, as every job records under its
        // product's scope, the order their telemetry joins the sink in.
        let mut by_name: Vec<usize> = (0..products.len()).collect();
        by_name.sort_by_key(|&p| products[p].id.name());

        // Phase 1+2a: the sweep fan-out — one job per (product, step).
        let sweep_jobs: Vec<((usize, usize), u64)> = by_name
            .iter()
            .flat_map(|&p| (0..self.sweep.steps).map(move |k| (p, k)))
            .zip(1..)
            .collect();
        let points = exec.try_par_map_recorded(
            &sweep_jobs,
            &self.telemetry,
            cancel,
            |&((p, k), rank), _| {
                if cancel.stop_before_rank(rank) {
                    return Err(Cancelled);
                }
                Ok(measure_sweep_point(&trained[p], feed, &ledger, self.sweep.sensitivity_at(k)))
            },
        )?;

        // Reduce 2a: assemble each product's curve (its points arrive in
        // step order) and pick the §3.3 operating point.
        let mut curves: Vec<ErrorCurve> = products
            .iter()
            .map(|product| ErrorCurve {
                product: product.id.name().to_owned(),
                points: Vec::with_capacity(self.sweep.steps),
            })
            .collect();
        for (&((p, _), _), point) in sweep_jobs.iter().zip(points) {
            curves[p].points.push(point);
        }
        let operating: Vec<f64> = products
            .iter()
            .zip(&curves)
            .map(|(product, curve)| {
                self.telemetry.with_scope(product.id.name()).counter(
                    0,
                    "phase.sweep.points",
                    curve.points.len() as u64,
                );
                curve.operating_point(&self.sweep).map(|p| p.sensitivity).unwrap_or(0.5)
            })
            .collect();

        // Phase 1+2b: the measured probes — per product, one instrumented
        // operating-point run and one throughput search. The throughput
        // search is a sequential bisection per product (each probe depends
        // on the previous bracket), so the product is the unit of work.
        let probes_per_product: &[Probe] = if self.fault_plan.is_some() {
            &[Probe::Operate, Probe::Survive, Probe::Throughput]
        } else {
            &[Probe::Operate, Probe::Throughput]
        };
        let boundary = sweep_jobs.len() as u64 + 1;
        if cancel.stop_before_rank(boundary) {
            return Err(Cancelled);
        }
        let probe_jobs: Vec<((usize, Probe), u64)> = by_name
            .iter()
            .flat_map(|&p| probes_per_product.iter().map(move |&probe| (p, probe)))
            .zip(boundary + 1..)
            .collect();
        let outputs = exec.try_par_map_recorded(
            &probe_jobs,
            &self.telemetry,
            cancel,
            |&((p, probe), rank), forks| {
                if cancel.stop_before_rank(rank) {
                    return Err(Cancelled);
                }
                if probe == Probe::Throughput {
                    let report = throughput::search(&trained[p], feed, self.max_throughput_factor);
                    return Ok(ProbeOutput::Throughput(report));
                }
                // The accuracy/response run at the operating point, with
                // automated response armed so filter effectiveness is
                // observable, and again under the fault plan for the
                // survive probe, whose survivability falls out of comparing
                // it to the fault-free twin in the reduce. Per-stage spans
                // land in this job's fork under the product's scope.
                let telemetry = forks.scoped(products[p].id.name());
                let mut run_config = RunConfig {
                    sensitivity: Sensitivity::new(operating[p]),
                    auto_response: true,
                    telemetry: telemetry.clone(),
                    ..trained[p].config().clone()
                };
                let span = if probe == Probe::Survive {
                    run_config.faults = self.fault_plan.clone();
                    "phase.survive_run"
                } else {
                    "phase.operating_run"
                };
                let outcome = trained[p].reconfigured(run_config).run(&feed.test);
                telemetry.span(0, outcome.finished_at.as_nanos(), span);
                Ok(ProbeOutput::Run(Box::new(outcome)))
            },
        )?;
        let mut probes: BTreeMap<(usize, Probe), ProbeOutput> =
            probe_jobs.into_iter().map(|(job, _)| job).zip(outputs).collect();

        // Reduce 2b: fill the scorecards in input product order.
        let evaluations: Vec<ProductEvaluation> = products
            .iter()
            .zip(curves)
            .enumerate()
            .map(|(p, (product, curve))| {
                let outcome = probes
                    .remove(&(p, Probe::Operate))
                    .and_then(ProbeOutput::into_run)
                    .expect("operate probe completed");
                let throughput = probes
                    .remove(&(p, Probe::Throughput))
                    .and_then(ProbeOutput::into_throughput)
                    .expect("throughput probe completed");
                let faulted = probes.remove(&(p, Probe::Survive)).and_then(ProbeOutput::into_run);
                self.telemetry.with_scope(product.id.name()).gauge(
                    outcome.finished_at.as_nanos(),
                    "phase.throughput.zero_loss_pps",
                    throughput.zero_loss_pps,
                );
                self.fill_scorecard(
                    product,
                    feed,
                    &ledger,
                    curve,
                    operating[p],
                    *outcome,
                    throughput,
                    faulted.map(|b| *b),
                )
            })
            .collect();

        // Recording happens here, in the single-threaded reduce, so the
        // store bytes are independent of the worker count by construction.
        if let Some(spec) = &self.store {
            match crate::provenance::record_evaluation(spec, self, &evaluations) {
                Ok(run) => eprintln!(
                    "recorded run {} ({} records) in {}",
                    run.header.run_id,
                    run.header.records,
                    spec.dir.display()
                ),
                Err(e) => eprintln!("warning: run store recording failed: {e}"),
            }
        }
        Ok(evaluations)
    }

    /// The scorecard fill: convert one product's measurements through the
    /// `measure` rubrics. Pure aggregation — no simulation happens here.
    #[allow(clippy::too_many_arguments)]
    fn fill_scorecard(
        &self,
        product: &IdsProduct,
        feed: &TestFeed,
        ledger: &StreamLedger,
        curve: ErrorCurve,
        operating_sensitivity: f64,
        outcome: PipelineOutcome,
        throughput: ThroughputReport,
        faulted: Option<PipelineOutcome>,
    ) -> ProductEvaluation {
        let (detected, flagged) = join_alerts(&outcome.alerts, &outcome.alert_truths);
        let confusion = ledger.score(&detected, flagged.len(), outcome.alerts.len());
        let timing = timing_report(&feed.test, &outcome);

        // Fill the scorecard: open-source rubrics, then measured rubrics.
        let mut card = Scorecard::new(product.id.name());
        score_vendor_metrics(product, &mut card);

        let needs = &self.needs;
        card.set_with_note(
            MetricId::ObservedFalsePositiveRatio,
            measure::score_false_positive_ratio(confusion.false_positive_ratio()),
            format!(
                "|D-A|/|T| = {:.4} at s={operating_sensitivity:.2}",
                confusion.false_positive_ratio()
            ),
        );
        card.set_with_note(
            MetricId::ObservedFalseNegativeRatio,
            measure::score_detection_rate(confusion.detection_rate()),
            format!(
                "|A-D|/|T| = {:.4}; detection rate {:.2}",
                confusion.false_negative_ratio(),
                confusion.detection_rate()
            ),
        );
        card.set_with_note(
            MetricId::SystemThroughput,
            measure::score_throughput(throughput.zero_loss_pps, needs),
            format!(
                "zero-loss {:.0} pps vs nominal {:.0}",
                throughput.zero_loss_pps, needs.nominal_pps
            ),
        );
        card.set_with_note(
            MetricId::MaximalThroughputZeroLoss,
            measure::score_throughput(throughput.zero_loss_pps, needs),
            format!("measured {:.0} pps", throughput.zero_loss_pps),
        );
        card.set_with_note(
            MetricId::NetworkLethalDose,
            measure::score_lethal_dose(throughput.lethal_dose_pps, needs),
            match throughput.lethal_dose_pps {
                Some(pps) => format!("failure at {pps:.0} pps"),
                None => "no failure provoked within search ceiling".to_owned(),
            },
        );
        card.set_with_note(
            MetricId::InducedTrafficLatency,
            measure::score_induced_latency(timing.induced_latency_mean, needs),
            format!("mean {}", timing.induced_latency_mean),
        );
        card.set_with_note(
            MetricId::Timeliness,
            measure::score_timeliness(timing.timeliness_mean, needs),
            format!("mean {} / max {}", timing.timeliness_mean, timing.timeliness_max),
        );
        card.set_with_note(
            MetricId::OperationalPerformanceImpact,
            measure::score_host_impact(outcome.host_impact),
            format!("{:.2}% of monitored-host CPU", 100.0 * outcome.host_impact),
        );
        card.set_with_note(
            MetricId::ErrorReportingAndRecovery,
            measure::score_error_recovery(product.architecture.failure),
            format!("{:?}", product.architecture.failure),
        );
        card.set_with_note(
            MetricId::DataStorage,
            measure::score_data_storage(outcome.state_bytes, feed.test.wire_bytes()),
            format!(
                "{} state bytes over {} source bytes",
                outcome.state_bytes,
                feed.test.wire_bytes()
            ),
        );
        card.set_with_note(
            MetricId::FirewallInteraction,
            measure::score_response_interaction(
                product.architecture.response.firewall,
                outcome.blocked.0,
                outcome.collateral_blocked_sources,
            ),
            format!(
                "blocked {} attack pkts, {} collateral sources",
                outcome.blocked.0, outcome.collateral_blocked_sources
            ),
        );
        card.set_with_note(
            MetricId::RouterInteraction,
            measure::score_response_interaction(
                product.architecture.response.router,
                outcome.blocked.0,
                outcome.collateral_blocked_sources,
            ),
            "router path shares the response plumbing",
        );
        // SNMP: count traps from a capability-probe interpretation of the run.
        let traps =
            if product.architecture.response.snmp { confusion.alert_count as u32 } else { 0 };
        card.set_with_note(
            MetricId::SnmpInteraction,
            measure::score_snmp(product.architecture.response.snmp, traps),
            format!("{traps} trap-eligible alerts"),
        );
        // Evidence collection, measured: the retention budget scales with the
        // product's storage posture (KB retained per MB of source data).
        let budget = (feed.test.wire_bytes() / 1_000_000).max(1)
            * u64::from(product.vendor.storage_kb_per_mb)
            * 1024;
        let policy = EvidencePolicy { byte_budget: budget, ..EvidencePolicy::alert_adjacent() };
        let store = EvidenceStore::collect(&feed.test, &outcome.alerts, policy);
        let detected_ids: Vec<u32> = detected.into_iter().collect();
        let coverage = store.mean_coverage(&feed.test, &detected_ids);
        card.set_with_note(
            MetricId::EvidenceCollection,
            measure::score_evidence_coverage(coverage),
            format!(
                "forensic coverage {:.2} over {} detected instances ({} KiB retained, {} truncated)",
                coverage,
                detected_ids.len(),
                store.bytes_used / 1024,
                store.truncated_alerts
            ),
        );

        // The survivability family: measured from the faulted twin when a
        // fault plan ran, otherwise scored by static architecture analysis
        // (redundancy and failure behavior) so the card stays complete.
        let survivability = faulted.as_ref().map(|f| {
            let true_alerts = |o: &PipelineOutcome| o.alert_truths.iter().flatten().count() as u64;
            Survivability::measure(
                true_alerts(&outcome),
                true_alerts(f),
                f.alerts.len() as u64,
                &f.fault_stats,
            )
        });
        match (&survivability, &faulted) {
            (Some(s), Some(f)) => {
                let plan_label = self
                    .fault_plan
                    .as_ref()
                    .map(FaultPlan::label)
                    .unwrap_or("fault plan")
                    .to_owned();
                card.set_with_note(
                    MetricId::DetectionRetentionUnderFailure,
                    measure::score_detection_retention(s.detection_retention),
                    format!(
                        "retained {:.2} of true alerts under '{plan_label}'",
                        s.detection_retention
                    ),
                );
                card.set_with_note(
                    MetricId::AlertLossRatio,
                    measure::score_alert_loss(s.alert_loss_ratio),
                    format!(
                        "lost {} of {} alerts ({:.3}) under '{plan_label}'",
                        f.fault_stats.lost_alerts,
                        f.alerts.len() as u64 + f.fault_stats.lost_alerts,
                        s.alert_loss_ratio
                    ),
                );
                card.set_with_note(
                    MetricId::MeanTimeToReroute,
                    measure::score_reroute_time(s.mean_reroute, f.fault_stats.rerouted > 0),
                    format!("mean {} over {} reroutes", s.mean_reroute, f.fault_stats.rerouted),
                );
                card.set_with_note(
                    MetricId::RecoveryCompleteness,
                    measure::score_recovery_completeness(s.recovery_completeness),
                    format!(
                        "{} of {} crashes recovered, {} items replayed",
                        f.fault_stats.recoveries_seen,
                        f.fault_stats.crashes_seen,
                        f.fault_stats.replayed
                    ),
                );
            }
            _ => {
                let arch = &product.architecture;
                let redundant = arch.sensors > 1 || arch.analyzers > 1;
                let recovery = measure::score_error_recovery(arch.failure).value();
                let static_note = "static architecture analysis; run with a fault plan to measure";
                card.set_with_note(
                    MetricId::DetectionRetentionUnderFailure,
                    idse_core::DiscreteScore::new(match (redundant, recovery) {
                        (true, 4) => 3,
                        (true, _) => 2,
                        (false, 4) => 2,
                        (false, 2) => 1,
                        _ => 0,
                    }),
                    static_note,
                );
                card.set_with_note(
                    MetricId::AlertLossRatio,
                    idse_core::DiscreteScore::new(match recovery {
                        4 => 3,
                        2 => 2,
                        _ => 1,
                    }),
                    static_note,
                );
                card.set_with_note(
                    MetricId::MeanTimeToReroute,
                    idse_core::DiscreteScore::new(if redundant { 3 } else { 0 }),
                    static_note,
                );
                card.set_with_note(
                    MetricId::RecoveryCompleteness,
                    idse_core::DiscreteScore::new(recovery),
                    static_note,
                );
            }
        }

        card.set_with_note(
            MetricId::EffectivenessOfGeneratedFilters,
            measure::score_response_interaction(
                product.architecture.response.firewall || product.architecture.response.router,
                outcome.blocked.0,
                outcome.collateral_blocked_sources,
            ),
            "generated-filter surgical accuracy",
        );

        ProductEvaluation {
            product: product.clone(),
            scorecard: card,
            curve,
            operating_sensitivity,
            confusion,
            throughput,
            timing,
            host_impact: outcome.host_impact,
            state_bytes: outcome.state_bytes,
            survivability,
        }
    }
}

/// Panics unless every product in `products` is a different one: a
/// product listed twice would be evaluated, and its telemetry recorded
/// under its scope, twice in one run.
pub(crate) fn evaluated_once(products: &[IdsProduct]) {
    let names: std::collections::BTreeSet<&str> = products.iter().map(|p| p.id.name()).collect();
    assert_eq!(names.len(), products.len(), "each product is evaluated once per run");
}

/// One measured probe: the unit of work in phase 2b, in the order one
/// product's probes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Probe {
    /// The instrumented accuracy/response run at the operating point.
    Operate,
    /// The operating-point run under the request's fault plan.
    Survive,
    /// The zero-loss / lethal-dose throughput searches.
    Throughput,
}

/// What a probe produced.
#[derive(Debug)]
enum ProbeOutput {
    Run(Box<PipelineOutcome>),
    Throughput(ThroughputReport),
}

impl ProbeOutput {
    fn into_run(self) -> Option<Box<PipelineOutcome>> {
        match self {
            ProbeOutput::Run(outcome) => Some(outcome),
            ProbeOutput::Throughput(_) => None,
        }
    }

    fn into_throughput(self) -> Option<ThroughputReport> {
        match self {
            ProbeOutput::Throughput(report) => Some(report),
            ProbeOutput::Run(_) => None,
        }
    }
}

/// Everything one product's evaluation produced.
#[derive(Debug)]
pub struct ProductEvaluation {
    /// The product.
    pub product: IdsProduct,
    /// The filled scorecard (all 56 metrics).
    pub scorecard: Scorecard,
    /// Figure 4 curve.
    pub curve: ErrorCurve,
    /// Chosen operating sensitivity (min-FN within the FP budget, falling
    /// back to the default midpoint).
    pub operating_sensitivity: f64,
    /// Confusion counts at the operating point.
    pub confusion: ConfusionCounts,
    /// Throughput searches.
    pub throughput: ThroughputReport,
    /// Timing measurements at the operating point.
    pub timing: TimingReport,
    /// Host CPU impact at the operating point.
    pub host_impact: f64,
    /// Engine state bytes at the end of the run.
    pub state_bytes: usize,
    /// Measured survivability, when the request carried a fault plan.
    pub survivability: Option<Survivability>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_ids::products::ProductId;
    use idse_sim::SimDuration;

    fn quick_request() -> EvaluationRequest {
        EvaluationRequest::new()
            .with_feed(
                FeedConfig::builder()
                    .session_rate(15.0)
                    .training_span(SimDuration::from_secs(12))
                    .test_span(SimDuration::from_secs(25))
                    .campaign_intensity(1)
                    .seed(42)
                    .build(),
            )
            .with_needs(EnvironmentNeeds::realtime_cluster(1_500.0))
            .with_sweep_steps(4)
            .with_max_throughput_factor(32.0)
            .with_fp_budget(0.2)
    }

    #[test]
    fn full_evaluation_fills_every_metric() {
        let request = quick_request();
        let feed = request.build_feed();
        let eval = request.evaluate(&IdsProduct::model(ProductId::GuardSecure), &feed);
        let unscored = eval.scorecard.unscored();
        assert!(unscored.is_empty(), "unscored metrics: {unscored:?}");
        assert_eq!(eval.scorecard.len(), 56);
    }

    #[test]
    fn evaluations_are_deterministic() {
        let request = quick_request();
        let feed = request.build_feed();
        let a = request.evaluate(&IdsProduct::model(ProductId::NidSentry), &feed);
        let b = request.evaluate(&IdsProduct::model(ProductId::NidSentry), &feed);
        for (id, s) in a.scorecard.iter() {
            assert_eq!(Some(s), b.scorecard.get(id), "{id:?} differs between runs");
        }
        assert_eq!(a.operating_sensitivity, b.operating_sensitivity);
    }

    #[test]
    #[should_panic(expected = "each product is evaluated once")]
    fn a_product_listed_twice_is_rejected() {
        let request = quick_request();
        let feed = request.build_feed();
        let nid = IdsProduct::model(ProductId::NidSentry);
        request.evaluate_products(&[nid.clone(), nid], &feed);
    }

    #[test]
    fn parallel_evaluation_covers_all_products() {
        let request = quick_request().with_jobs(8);
        let feed = request.build_feed();
        let evals = request.evaluate_all(&feed);
        assert_eq!(evals.len(), 4);
        let names: std::collections::BTreeSet<String> =
            evals.iter().map(|e| e.scorecard.system.clone()).collect();
        assert_eq!(names.len(), 4);
        for e in &evals {
            assert_eq!(e.scorecard.len(), 56, "{}", e.scorecard.system);
        }
    }

    #[test]
    fn worker_count_never_changes_the_scores() {
        let feed = quick_request().build_feed();
        let render = |jobs: usize| {
            quick_request()
                .with_jobs(jobs)
                .evaluate_all(&feed)
                .iter()
                .map(|e| {
                    format!(
                        "{} s={} tp={} ld={:?} {:?}",
                        e.scorecard.system,
                        e.operating_sensitivity,
                        e.throughput.zero_loss_pps,
                        e.throughput.lethal_dose_pps,
                        e.scorecard.iter().collect::<Vec<_>>()
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial = render(1);
        assert_eq!(serial, render(3));
        assert_eq!(serial, render(8));
    }

    #[test]
    fn fault_plan_measures_survivability() {
        use idse_faults::{FaultComponent, FaultKind, FaultPlan};
        let plan = FaultPlan::new("eval-monitor-blink").with(
            idse_sim::SimTime::from_secs(8),
            FaultKind::Crash {
                component: FaultComponent::Monitor,
                restart_after: Some(SimDuration::from_secs(6)),
            },
        );
        let request = quick_request().with_fault_plan(plan);
        let feed = request.build_feed();
        let eval = request.evaluate(&IdsProduct::model(ProductId::GuardSecure), &feed);
        let s = eval.survivability.expect("fault plan yields a measured survivability");
        assert!(s.detection_retention > 0.0, "recovered monitor keeps detections");
        assert!((0.0..=1.0).contains(&s.alert_loss_ratio));
        assert!((s.recovery_completeness - 1.0).abs() < 1e-12, "single crash recovers");
        assert!(eval.scorecard.unscored().is_empty());
        // The measured note replaces the static one.
        let note = eval.scorecard.note(MetricId::RecoveryCompleteness).unwrap_or_default();
        assert!(note.contains("crashes recovered"), "note: {note}");
        // Still deterministic with the plan in play.
        let again = request.evaluate(&IdsProduct::model(ProductId::GuardSecure), &feed);
        for (id, score) in eval.scorecard.iter() {
            assert_eq!(Some(score), again.scorecard.get(id), "{id:?} differs");
        }
    }
}
