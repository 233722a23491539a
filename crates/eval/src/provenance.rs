//! Shared run provenance and the bridge into `idse-store`.
//!
//! Two consumers need the same provenance document: the `evaluate --json`
//! report manifest and the persisted run header in the store. This module
//! holds the one [`Provenance`] struct both serialize, so the two can
//! never drift, plus the recording glue ([`record_evaluation`],
//! [`record_fault_matrix`], [`record_hybrid_taxonomy`], …) that turns
//! harness results into store runs. Every recorder builds its manifest
//! with [`Provenance::new`] (or [`Provenance::for_request`]) and commits
//! through one private path, so only the rows differ between them.
//!
//! Everything here follows the harness's determinism contract: the worker
//! count is deliberately *absent* (results are byte-identical at any
//! `--jobs N`, attested by [`JOBS_INDEPENDENCE`]), wall time never
//! appears, and timestamps only ride along as an opaque caller-supplied
//! stamp that is excluded from run identity.

use crate::experiments::{FaultMatrixRow, FaultScenario};
use crate::feeds::FeedConfig;
use crate::harness::{EvaluationRequest, ProductEvaluation};
use crate::sweep::SweepPlan;
use idse_faults::FaultPlan;
use idse_store::{fnv64, RunDraft, RunStore, StoreError, StoredRun};
use idse_telemetry::summary::summarize;
use idse_telemetry::Telemetry;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

/// The jobs-independence attestation stamped into every run header: why
/// the worker count is not part of provenance.
pub const JOBS_INDEPENDENCE: &str = "scorecards, curves and telemetry are byte-identical at any \
                                     --jobs N; the worker count changes only wall time and is \
                                     deliberately excluded from provenance";

/// The timebase attestation: no measurement ever reads the wall clock.
pub const TIMEBASE: &str =
    "sim-time (deterministic virtual clock; wall time never enters a measurement)";

/// Feed parameters, flattened for the manifest.
#[derive(Debug, Clone, Serialize)]
pub struct FeedProvenance {
    /// Sessions per second of background traffic.
    pub session_rate: f64,
    /// Training span, seconds.
    pub training_span_s: f64,
    /// Test span, seconds.
    pub test_span_s: f64,
    /// Attack-campaign intensity.
    pub campaign_intensity: u32,
    /// Feed seed (the master seed of the run).
    pub seed: u64,
    /// Host-count override for scaled profiles (`None` = preset).
    pub hosts: Option<u32>,
    /// Stream chunk size. Pure batching — recorded for reproduction
    /// commands, but guaranteed not to affect any produced byte.
    pub chunk_records: usize,
    /// Flow-key shard count. Part of the experiment identity: a sharded
    /// pipeline sees only its shard's cross-flow context.
    pub shards: u32,
}

impl FeedProvenance {
    /// Capture a [`FeedConfig`].
    pub fn of(feed: &FeedConfig) -> Self {
        FeedProvenance {
            session_rate: feed.session_rate,
            training_span_s: feed.training_span.as_secs_f64(),
            test_span_s: feed.test_span.as_secs_f64(),
            campaign_intensity: feed.campaign_intensity,
            seed: feed.seed,
            hosts: feed.hosts,
            chunk_records: feed.chunk_records,
            shards: feed.shards,
        }
    }
}

/// How the operating sensitivity was chosen.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityPolicy {
    /// The selection rule, in words.
    pub rule: String,
    /// False-positive budget (budgeted sweeps only).
    pub fp_budget: Option<f64>,
    /// Sweep step count (budgeted sweeps only).
    pub sweep_steps: Option<usize>,
    /// Low end of the swept sensitivity range.
    pub sweep_low: Option<f64>,
    /// High end of the swept sensitivity range.
    pub sweep_high: Option<f64>,
    /// The pinned sensitivity (fixed-sensitivity experiments only).
    pub fixed_sensitivity: Option<f64>,
}

impl SensitivityPolicy {
    /// The harness's §3.3 policy: min false-negative ratio within the
    /// false-positive budget, over `plan`'s sweep ladder.
    pub fn budgeted(plan: &SweepPlan) -> Self {
        SensitivityPolicy {
            rule: "min false-negative ratio within the false-positive budget".to_owned(),
            fp_budget: Some(plan.fp_budget),
            sweep_steps: Some(plan.steps),
            sweep_low: Some(plan.sensitivity_range.0),
            sweep_high: Some(plan.sensitivity_range.1),
            fixed_sensitivity: None,
        }
    }

    /// A fixed operating sensitivity (the X7 fault matrix).
    pub fn fixed(sensitivity: f64) -> Self {
        SensitivityPolicy {
            rule: "fixed operating sensitivity".to_owned(),
            fp_budget: None,
            sweep_steps: None,
            sweep_low: None,
            sweep_high: None,
            fixed_sensitivity: Some(sensitivity),
        }
    }
}

/// Identity of one fault plan: label, event count, and a content hash so
/// two runs claiming the same plan can be checked without replaying it.
#[derive(Debug, Clone, Serialize)]
pub struct FaultPlanProvenance {
    /// The plan's label.
    pub label: String,
    /// Number of injected fault events.
    pub events: usize,
    /// FNV-1a over the plan's canonical JSON, 16 hex digits.
    pub hash: String,
}

impl FaultPlanProvenance {
    /// Capture one plan.
    pub fn of(plan: &FaultPlan) -> Self {
        let json = serde_json::to_string(plan).expect("a fault plan always serializes");
        FaultPlanProvenance {
            label: plan.label().to_owned(),
            events: plan.len(),
            hash: format!("{:016x}", fnv64(json.as_bytes())),
        }
    }
}

/// The provenance manifest: everything needed to reproduce a run, shared
/// verbatim between `evaluate --json` and the store's run headers.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// Workspace crate version.
    pub crate_version: &'static str,
    /// Master seed (equals the feed seed).
    pub seed: u64,
    /// Site profile name, when the caller selected one.
    pub profile: Option<String>,
    /// Weighting scheme name, when the caller selected one.
    pub weighting: Option<String>,
    /// Git revision of the working tree, when the caller passed one
    /// (never read from the environment — determinism).
    pub git_rev: Option<String>,
    /// Feed parameters.
    pub feed: FeedProvenance,
    /// Operating-sensitivity selection policy.
    pub sensitivity_policy: SensitivityPolicy,
    /// Every fault plan in play (empty for fault-free runs).
    pub fault_plans: Vec<FaultPlanProvenance>,
    /// Why the worker count is absent ([`JOBS_INDEPENDENCE`]).
    pub jobs_independence: &'static str,
    /// The timebase attestation ([`TIMEBASE`]).
    pub timebase: &'static str,
}

impl Provenance {
    /// The manifest of a run at `seed` over `feed`, choosing its operating
    /// sensitivity by `sensitivity_policy`: no annotations, no fault plans.
    pub fn new(seed: u64, feed: &FeedConfig, sensitivity_policy: SensitivityPolicy) -> Self {
        Provenance {
            crate_version: env!("CARGO_PKG_VERSION"),
            seed,
            profile: None,
            weighting: None,
            git_rev: None,
            feed: FeedProvenance::of(feed),
            sensitivity_policy,
            fault_plans: Vec::new(),
            jobs_independence: JOBS_INDEPENDENCE,
            timebase: TIMEBASE,
        }
    }

    /// Capture an [`EvaluationRequest`]'s reproducibility surface.
    pub fn for_request(request: &EvaluationRequest) -> Self {
        Provenance {
            fault_plans: request.fault_plan.iter().map(FaultPlanProvenance::of).collect(),
            ..Self::new(
                request.feed.seed,
                &request.feed,
                SensitivityPolicy::budgeted(&request.sweep),
            )
        }
    }

    /// This manifest with a site-profile name attached.
    pub fn with_profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    /// This manifest with a weighting-scheme name attached.
    pub fn with_weighting(mut self, weighting: impl Into<String>) -> Self {
        self.weighting = Some(weighting.into());
        self
    }

    /// This manifest with a git revision attached (pass what your build
    /// system knows; nothing is read from the environment).
    pub fn with_git_rev(mut self, git_rev: Option<String>) -> Self {
        self.git_rev = git_rev;
        self
    }

    /// The manifest as a JSON value, field order fixed.
    pub fn to_value(&self) -> Value {
        serde_json::to_value(self).expect("provenance always serializes")
    }
}

/// Where (and how) a run should be recorded.
#[derive(Debug, Clone, Default)]
pub struct StoreSpec {
    /// The store directory (`runs/` by convention).
    pub dir: PathBuf,
    /// Opaque timestamp to annotate the run header with (excluded from
    /// run identity).
    pub stamp: Option<String>,
    /// Git revision to fold into provenance.
    pub git_rev: Option<String>,
    /// Site-profile name to fold into provenance.
    pub profile: Option<String>,
    /// Weighting-scheme name to fold into provenance.
    pub weighting: Option<String>,
}

impl StoreSpec {
    /// Record into `dir` with no annotations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreSpec { dir: dir.into(), ..StoreSpec::default() }
    }

    /// This spec with a stamp.
    pub fn with_stamp(mut self, stamp: Option<String>) -> Self {
        self.stamp = stamp;
        self
    }

    /// This spec with a git revision.
    pub fn with_git_rev(mut self, git_rev: Option<String>) -> Self {
        self.git_rev = git_rev;
        self
    }

    /// This spec with a site-profile name.
    pub fn with_profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    /// This spec with a weighting-scheme name.
    pub fn with_weighting(mut self, weighting: impl Into<String>) -> Self {
        self.weighting = Some(weighting.into());
        self
    }

    /// Apply this spec's annotations to a manifest.
    fn annotate(&self, mut provenance: Provenance) -> Provenance {
        if let Some(profile) = &self.profile {
            provenance = provenance.with_profile(profile.clone());
        }
        if let Some(weighting) = &self.weighting {
            provenance = provenance.with_weighting(weighting.clone());
        }
        provenance.with_git_rev(self.git_rev.clone())
    }
}

/// Fold a run's telemetry into the header annotation: sink-wide counts
/// plus one [`summarize`] report per product scope, keyed by product
/// name in sorted order. `None` when telemetry was disabled or streaming.
fn telemetry_annotation(telemetry: &Telemetry, products: &[&str]) -> Option<Value> {
    let mut events = telemetry.snapshot_events()?;
    events.sort_by_key(|e| e.scope);
    let dropped = telemetry.dropped_events();
    let mut sorted: Vec<&str> = products.to_vec();
    sorted.sort_unstable();
    let per_product: Vec<(String, Value)> = sorted
        .iter()
        .map(|name| {
            let scoped: Vec<idse_telemetry::Event> =
                events.iter().filter(|e| e.scope == *name).copied().collect();
            let mut summary = summarize(&scoped);
            // The ring buffer is shared across scopes: any eviction
            // anywhere truncates every per-product view.
            summary.dropped_events = dropped;
            let value =
                serde_json::to_value(&summary).expect("a telemetry summary always serializes");
            ((*name).to_owned(), value)
        })
        .collect();
    Some(Value::Object(vec![
        ("events_recorded".to_owned(), Value::U64(events.len() as u64)),
        ("events_dropped".to_owned(), Value::U64(dropped)),
        ("per_product".to_owned(), Value::Object(per_product)),
    ]))
}

/// The one recording path every `record_*` takes: annotate `provenance`
/// with `spec`, open a draft for `context`, stamp it, attach the
/// telemetry summary if any, let `fill` add the rows, and commit.
fn record(
    spec: &StoreSpec,
    context: &str,
    provenance: Provenance,
    telemetry: Option<Value>,
    fill: impl FnOnce(&mut RunDraft) -> Result<(), StoreError>,
) -> Result<StoredRun, StoreError> {
    let mut draft =
        RunDraft::new(context, spec.annotate(provenance).to_value()).with_stamp(spec.stamp.clone());
    if let Some(annotation) = telemetry {
        draft = draft.with_telemetry(annotation);
    }
    fill(&mut draft)?;
    RunStore::open(&spec.dir)?.commit(draft)
}

/// Record one full evaluation (one record per product per metric: all 56
/// discrete scores with their notes, plus the continuous measurements)
/// into the store named by `spec`. Returns the committed run — identical
/// inputs commit to the identical run id, so re-recording is a no-op.
pub fn record_evaluation(
    spec: &StoreSpec,
    request: &EvaluationRequest,
    evals: &[ProductEvaluation],
) -> Result<StoredRun, StoreError> {
    let names: Vec<&str> = evals.iter().map(|e| e.scorecard.system.as_str()).collect();
    let telemetry = telemetry_annotation(&request.telemetry, &names);
    record(spec, "evaluate", Provenance::for_request(request), telemetry, |draft| {
        for eval in evals {
            let product = eval.scorecard.system.as_str();
            for (id, score) in eval.scorecard.iter() {
                let key = format!("{id:?}");
                match eval.scorecard.note(id) {
                    Some(note) => {
                        draft.record_noted(product, &key, f64::from(score.value()), note)?
                    }
                    None => draft.record(product, &key, f64::from(score.value()))?,
                }
            }
            draft.record(product, "measure.operating_sensitivity", eval.operating_sensitivity)?;
            draft.record(product, "measure.fp_ratio", eval.confusion.false_positive_ratio())?;
            draft.record(product, "measure.fn_ratio", eval.confusion.false_negative_ratio())?;
            draft.record(product, "measure.detection_rate", eval.confusion.detection_rate())?;
            draft.record(product, "measure.zero_loss_pps", eval.throughput.zero_loss_pps)?;
            if let Some(pps) = eval.throughput.lethal_dose_pps {
                draft.record(product, "measure.lethal_dose_pps", pps)?;
            }
            draft.record(
                product,
                "measure.induced_latency_ms",
                eval.timing.induced_latency_mean.as_millis_f64(),
            )?;
            draft.record(
                product,
                "measure.timeliness_ms",
                eval.timing.timeliness_mean.as_millis_f64(),
            )?;
            draft.record(product, "measure.host_impact", eval.host_impact)?;
            draft.record(product, "measure.state_bytes", eval.state_bytes as f64)?;
            if let Some(s) = &eval.survivability {
                draft.record(product, "measure.detection_retention", s.detection_retention)?;
                draft.record(product, "measure.alert_loss_ratio", s.alert_loss_ratio)?;
                draft.record(product, "measure.mean_reroute_us", s.mean_reroute.as_micros_f64())?;
                draft.record(product, "measure.recovery_completeness", s.recovery_completeness)?;
            }
        }
        Ok(())
    })
}

/// Record an X7 fault-matrix run: one product per matrix cell, keyed
/// `product@scenario`, carrying the four survivability rubric scores and
/// the raw fault measurements. The provenance lists every scenario's
/// fault-plan hash.
pub fn record_fault_matrix(
    spec: &StoreSpec,
    scenarios: &[FaultScenario],
    rows: &[FaultMatrixRow],
    sensitivity: f64,
    seed: u64,
) -> Result<StoredRun, StoreError> {
    let feed = crate::experiments::fault_matrix_feed_config(seed);
    let provenance = Provenance {
        fault_plans: scenarios.iter().map(|s| FaultPlanProvenance::of(&s.plan)).collect(),
        ..Provenance::new(seed, &feed, SensitivityPolicy::fixed(sensitivity))
    };
    record(spec, "fault-matrix", provenance, None, |draft| {
        for row in rows {
            let cell = format!("{}@{}", row.product, row.scenario);
            let note = format!("relation {}", row.relation);
            let discrete = [
                "DetectionRetentionUnderFailure",
                "AlertLossRatio",
                "MeanTimeToReroute",
                "RecoveryCompleteness",
            ];
            for (key, score) in discrete.iter().zip(row.scores) {
                draft.record_noted(&cell, key, f64::from(score), note.clone())?;
            }
            let s = &row.survivability;
            draft.record(&cell, "measure.detection_retention", s.detection_retention)?;
            draft.record(&cell, "measure.alert_loss_ratio", s.alert_loss_ratio)?;
            draft.record(&cell, "measure.mean_reroute_us", s.mean_reroute.as_micros_f64())?;
            draft.record(&cell, "measure.recovery_completeness", s.recovery_completeness)?;
            draft.record(&cell, "measure.rerouted", row.rerouted as f64)?;
            draft.record(&cell, "measure.lost_alerts", row.lost_alerts as f64)?;
            draft.record(&cell, "measure.replayed", row.replayed as f64)?;
        }
        Ok(())
    })
}

/// One mechanism row of the §2.1 taxonomy ablation: the confusion and
/// throughput measures for one engine suite run over the standard feed.
#[derive(Debug, Clone, Serialize)]
pub struct HybridTaxonomyRow {
    /// The mechanism label (`signature-only`, `anomaly-only`, …) — the
    /// product key the row's records are stored under.
    pub mechanism: String,
    /// Detection rate |D∩A|/|A|.
    pub detection_rate: f64,
    /// False-positive ratio |D−A|/|T|.
    pub fp_ratio: f64,
    /// Zero-loss throughput, packets per second.
    pub zero_loss_pps: f64,
    /// Raw alert count, noted on the detection-rate record.
    pub alerts: usize,
}

/// Record a §2.1 taxonomy-ablation run: one product key per detection
/// mechanism, carrying its confusion and throughput measures at the fixed
/// operating sensitivity. Same feed, same seed, three engine suites — so
/// `store history measure.zero_loss_pps --product "hybrid (parallel)"`
/// tracks the hybrid's inspection cost across commits.
pub fn record_hybrid_taxonomy(
    spec: &StoreSpec,
    request: &EvaluationRequest,
    sensitivity: f64,
    rows: &[HybridTaxonomyRow],
) -> Result<StoredRun, StoreError> {
    let provenance =
        Provenance::new(request.feed.seed, &request.feed, SensitivityPolicy::fixed(sensitivity));
    record(spec, "hybrid-taxonomy", provenance, None, |draft| {
        for row in rows {
            let product = row.mechanism.as_str();
            draft.record_noted(
                product,
                "measure.detection_rate",
                row.detection_rate,
                format!("{} alerts", row.alerts),
            )?;
            draft.record(product, "measure.fp_ratio", row.fp_ratio)?;
            draft.record(product, "measure.zero_loss_pps", row.zero_loss_pps)?;
            draft.record(product, "measure.operating_sensitivity", sensitivity)?;
        }
        Ok(())
    })
}

/// Record an X1 host-overhead run: one product key per audit level per
/// production load (`{level}@load{load}`), carrying the measured CPU
/// shares and the surviving production rate. The experiment drives a
/// synthetic host event stream, not a traffic feed, so only the seed in
/// the feed provenance is meaningful.
pub fn record_host_overhead(
    spec: &StoreSpec,
    seed: u64,
    sections: &[(f64, Vec<crate::host_overhead::OverheadRow>)],
) -> Result<StoredRun, StoreError> {
    let policy = SensitivityPolicy {
        rule: "not applicable (synthetic host load, no detection sweep)".to_owned(),
        fp_budget: None,
        sweep_steps: None,
        sweep_low: None,
        sweep_high: None,
        fixed_sensitivity: None,
    };
    let provenance = Provenance::new(seed, &FeedConfig::builder().seed(seed).build(), policy);
    record(spec, "host-overhead", provenance, None, |draft| {
        for (load, rows) in sections {
            for row in rows {
                let cell = format!("{}@load{load:.2}", row.level);
                draft.record(&cell, "measure.audit_share", row.audit_share)?;
                draft.record(&cell, "measure.agent_share", row.with_agent_share)?;
                draft.record(
                    &cell,
                    "measure.production_events_per_sec",
                    row.production_events_per_sec,
                )?;
            }
        }
        Ok(())
    })
}

/// Record an X4 operating-point run: per product, an `@eer` cell (the
/// equal-error-rate crossing, when it exists) and an `@low-fn` cell (the
/// §3.3 distributed operating point within the FP budget), each with the
/// trust-exploit detection rate measured at that setting.
pub fn record_operating_point(
    spec: &StoreSpec,
    seed: u64,
    fp_budget: f64,
    reports: &[crate::experiments::OperatingPointReport],
) -> Result<StoredRun, StoreError> {
    let plan = SweepPlan::with_steps(9).with_fp_budget(fp_budget);
    let feed = crate::experiments::operating_point_feed_config(seed);
    let provenance = Provenance::new(seed, &feed, SensitivityPolicy::budgeted(&plan));
    record(spec, "operating-point", provenance, None, |draft| {
        for report in reports {
            if let Some((sensitivity, rate)) = report.eer_point {
                let cell = format!("{}@eer", report.product);
                draft.record(&cell, "measure.eer_sensitivity", sensitivity)?;
                draft.record(&cell, "measure.eer_rate", rate)?;
                if let Some(trust) = report.trust_detection_at_eer {
                    draft.record(&cell, "measure.trust_detection", trust)?;
                }
            }
            if let Some(point) = &report.low_fn_point {
                let cell = format!("{}@low-fn", report.product);
                draft.record(&cell, "measure.operating_sensitivity", point.sensitivity)?;
                draft.record(&cell, "measure.fp_ratio", point.false_positive_ratio)?;
                draft.record(&cell, "measure.fn_ratio", point.false_negative_ratio)?;
                if let Some(trust) = report.trust_detection_at_low_fn {
                    draft.record(&cell, "measure.trust_detection", trust)?;
                }
            }
        }
        Ok(())
    })
}

/// Record an operator-fatigue run: one cell per operator model per swept
/// sensitivity (`{operator}@s{sensitivity}`), carrying alert volume,
/// triage throughput, and the machine vs human-constrained detection
/// rates whose divergence is the experiment's point.
pub fn record_operator_fatigue(
    spec: &StoreSpec,
    request: &EvaluationRequest,
    sections: &[(String, Vec<crate::operator::FatigueRow>)],
) -> Result<StoredRun, StoreError> {
    record(spec, "operator-fatigue", Provenance::for_request(request), None, |draft| {
        for (operator, rows) in sections {
            for row in rows {
                let cell = format!("{operator}@s{:.2}", row.sensitivity);
                draft.record(&cell, "measure.alerts", row.alerts as f64)?;
                draft.record(&cell, "measure.triaged", row.triaged as f64)?;
                draft.record(&cell, "measure.detection_rate", row.machine_detection)?;
                draft.record(&cell, "measure.effective_detection", row.effective_detection)?;
            }
        }
        Ok(())
    })
}

/// Content statistics for one payload load in the X2 realism experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PayloadStatsRow {
    /// Load label (`realistic`, `random bytes`) — stored under the
    /// product key `payload:{label}`.
    pub load: String,
    /// Shannon entropy over payload bytes, bits per byte.
    pub byte_entropy: f64,
    /// Fraction of printable ASCII bytes.
    pub printable_fraction: f64,
    /// The realism score the generator targets.
    pub realism_score: f64,
}

/// Record an X2 payload-realism run: content statistics per load
/// (`payload:{label}` cells) plus per-product `@realistic` / `@random`
/// cells carrying alert volume and inspection cost under each load.
pub fn record_payload_realism(
    spec: &StoreSpec,
    seed: u64,
    sensitivity: f64,
    stats: &[PayloadStatsRow],
    rows: &[crate::experiments::RealismRow],
) -> Result<StoredRun, StoreError> {
    // X2 generates its two loads directly (identical timing and sizes,
    // different payload content); the session rate and span here mirror
    // that generator setup.
    let feed = FeedConfig::builder()
        .session_rate(25.0)
        .training_span(idse_sim::SimDuration::from_secs(25))
        .test_span(idse_sim::SimDuration::from_secs(25))
        .seed(seed)
        .build();
    let provenance = Provenance::new(seed, &feed, SensitivityPolicy::fixed(sensitivity));
    record(spec, "payload-realism", provenance, None, |draft| {
        for stat in stats {
            let cell = format!("payload:{}", stat.load);
            draft.record(&cell, "measure.byte_entropy", stat.byte_entropy)?;
            draft.record(&cell, "measure.printable_fraction", stat.printable_fraction)?;
            draft.record(&cell, "measure.realism_score", stat.realism_score)?;
        }
        for row in rows {
            let realistic = format!("{}@realistic", row.product);
            draft.record(&realistic, "measure.alerts_per_kpkt", row.alerts_per_kpkt_realistic)?;
            draft.record(&realistic, "measure.ops_per_pkt", row.cost_realistic)?;
            let random = format!("{}@random", row.product);
            draft.record(&random, "measure.alerts_per_kpkt", row.alerts_per_kpkt_random)?;
            draft.record(&random, "measure.ops_per_pkt", row.cost_random)?;
        }
        Ok(())
    })
}

/// Record an X3 site-profile-mismatch run: per product, `@matched`
/// (trained on cluster traffic) and `@mismatched` (trained on e-commerce
/// traffic) cells, each carrying the false-positive ratio and detection
/// rate on the identical cluster test feed.
pub fn record_site_profile(
    spec: &StoreSpec,
    seed: u64,
    sensitivity: f64,
    rows: &[crate::experiments::SiteProfileRow],
) -> Result<StoredRun, StoreError> {
    let feed = crate::experiments::site_profile_feed_config(seed);
    let provenance = Provenance::new(seed, &feed, SensitivityPolicy::fixed(sensitivity));
    record(spec, "site-profile", provenance, None, |draft| {
        for row in rows {
            let matched = format!("{}@matched", row.product);
            draft.record(&matched, "measure.fp_ratio", row.fp_matched)?;
            draft.record(&matched, "measure.detection_rate", row.detection_matched)?;
            let mismatched = format!("{}@mismatched", row.product);
            draft.record(&mismatched, "measure.fp_ratio", row.fp_mismatched)?;
            draft.record(&mismatched, "measure.detection_rate", row.detection_mismatched)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_sim::SimDuration;

    fn spec(name: &str) -> StoreSpec {
        let dir =
            std::env::temp_dir().join(format!("idse-eval-prov-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreSpec::new(dir)
    }

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
            .with_sweep_steps(4)
            .with_max_throughput_factor(32.0)
            .with_fp_budget(0.2)
    }

    #[test]
    fn provenance_round_trips_with_annotations() {
        let p = Provenance::for_request(&quick_request())
            .with_profile("cluster")
            .with_weighting("realtime")
            .with_git_rev(Some("abc123".into()));
        let v = p.to_value();
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("profile").and_then(Value::as_str), Some("cluster"));
        assert_eq!(v.get("git_rev").and_then(Value::as_str), Some("abc123"));
        assert_eq!(
            v.get("jobs_independence").and_then(Value::as_str),
            Some(JOBS_INDEPENDENCE),
            "the attestation is part of the manifest"
        );
        let policy = v.get("sensitivity_policy").expect("policy present");
        assert_eq!(policy.get("sweep_steps").and_then(Value::as_u64), Some(4));
        // Serialization is deterministic.
        assert_eq!(
            serde_json::to_string(&v).expect("serializes"),
            serde_json::to_string(&p.to_value()).expect("serializes")
        );
    }

    #[test]
    fn recorded_evaluation_covers_all_metrics_and_is_idempotent() {
        use idse_ids::products::{IdsProduct, ProductId};
        let spec = spec("eval");
        let request = quick_request();
        let feed = request.build_feed();
        let evals = vec![request.evaluate(&IdsProduct::model(ProductId::GuardSecure), &feed)];
        let run = record_evaluation(&spec, &request, &evals).expect("run records");
        assert!(run.created);
        // 56 discrete + 9 measures (no fault plan, lethal dose may add one).
        assert!(run.header.records >= 56 + 9, "records: {}", run.header.records);
        assert_eq!(run.header.context, "evaluate");
        let again = record_evaluation(&spec, &request, &evals).expect("re-record");
        assert!(!again.created, "identical results dedupe to the same run");
        assert_eq!(again.header.run_id, run.header.run_id);
    }

    #[test]
    fn hybrid_taxonomy_records_one_product_per_mechanism() {
        let spec = spec("taxonomy");
        let request = quick_request();
        let rows = vec![
            HybridTaxonomyRow {
                mechanism: "signature-only".to_owned(),
                detection_rate: 0.62,
                fp_ratio: 0.01,
                zero_loss_pps: 9000.0,
                alerts: 41,
            },
            HybridTaxonomyRow {
                mechanism: "hybrid (parallel)".to_owned(),
                detection_rate: 0.91,
                fp_ratio: 0.03,
                zero_loss_pps: 5200.0,
                alerts: 77,
            },
        ];
        let run = record_hybrid_taxonomy(&spec, &request, 0.8, &rows).expect("taxonomy records");
        assert_eq!(run.header.context, "hybrid-taxonomy");
        assert_eq!(run.header.products, vec!["hybrid (parallel)", "signature-only"]);
        assert_eq!(run.header.records, 8, "four measures per mechanism");
        let rate = run.get("signature-only", "measure.detection_rate").expect("recorded");
        assert_eq!(rate.note.as_deref(), Some("41 alerts"));
        assert_eq!(
            run.header.provenance.get("seed").and_then(Value::as_u64),
            Some(42),
            "feed provenance rides along"
        );
        let again = record_hybrid_taxonomy(&spec, &request, 0.8, &rows).expect("re-record");
        assert!(!again.created, "identical results dedupe to the same run");
    }

    #[test]
    fn experiment_recorders_commit_cell_keyed_runs() {
        use crate::experiments::{OperatingPointReport, RealismRow, SiteProfileRow};
        use crate::host_overhead::OverheadRow;
        use crate::operator::FatigueRow;
        use crate::sweep::{ErrorCurve, SweepPoint};

        let overhead = record_host_overhead(
            &spec("overhead"),
            42,
            &[(
                0.3,
                vec![OverheadRow {
                    level: "nominal",
                    audit_share: 0.04,
                    with_agent_share: 0.06,
                    production_events_per_sec: 28_000.0,
                }],
            )],
        )
        .expect("overhead records");
        assert_eq!(overhead.header.context, "host-overhead");
        assert_eq!(overhead.header.products, vec!["nominal@load0.30"]);
        assert_eq!(overhead.header.records, 3);

        let report = OperatingPointReport {
            product: "GuardSecure GS-5".to_owned(),
            curve: ErrorCurve { product: "GuardSecure GS-5".to_owned(), points: Vec::new() },
            eer_point: Some((0.55, 0.08)),
            low_fn_point: Some(SweepPoint {
                sensitivity: 0.85,
                false_positive_ratio: 0.15,
                false_negative_ratio: 0.02,
                alerts: 120,
            }),
            trust_detection_at_eer: Some(0.5),
            trust_detection_at_low_fn: Some(0.9),
        };
        let op = record_operating_point(&spec("op-point"), 42, 0.2, &[report])
            .expect("operating point records");
        assert_eq!(op.header.context, "operating-point");
        assert_eq!(op.header.products, vec!["GuardSecure GS-5@eer", "GuardSecure GS-5@low-fn"]);
        assert_eq!(op.header.records, 7);

        let fatigue = record_operator_fatigue(
            &spec("fatigue"),
            &quick_request(),
            &[(
                "single watchstander".to_owned(),
                vec![FatigueRow {
                    sensitivity: 0.5,
                    alerts: 80,
                    triaged: 40,
                    machine_detection: 0.8,
                    effective_detection: 0.4,
                }],
            )],
        )
        .expect("fatigue records");
        assert_eq!(fatigue.header.products, vec!["single watchstander@s0.50"]);
        assert_eq!(fatigue.header.records, 4);

        let realism = record_payload_realism(
            &spec("realism"),
            42,
            0.8,
            &[PayloadStatsRow {
                load: "realistic".to_owned(),
                byte_entropy: 5.1,
                printable_fraction: 0.93,
                realism_score: 0.9,
            }],
            &[RealismRow {
                product: "NidSentry NS-5".to_owned(),
                alerts_per_kpkt_realistic: 2.0,
                alerts_per_kpkt_random: 0.1,
                cost_realistic: 900.0,
                cost_random: 400.0,
            }],
        )
        .expect("realism records");
        assert_eq!(realism.header.context, "payload-realism");
        assert_eq!(realism.header.records, 3 + 4);
        assert!(realism.header.products.contains(&"payload:realistic".to_owned()));

        let site = record_site_profile(
            &spec("site"),
            42,
            0.7,
            &[SiteProfileRow {
                product: "FlowHunter FH-9".to_owned(),
                fp_matched: 0.01,
                fp_mismatched: 0.2,
                detection_matched: 0.8,
                detection_mismatched: 0.6,
            }],
        )
        .expect("site profile records");
        assert_eq!(site.header.products.len(), 2, "matched and mismatched cells");
        assert_eq!(site.header.records, 4);
    }

    #[test]
    fn fault_matrix_records_one_cell_per_row() {
        use idse_exec::Executor;
        use idse_ids::products::{IdsProduct, ProductId};
        let spec = spec("matrix");
        let products = [IdsProduct::model(ProductId::GuardSecure)];
        let scenarios: Vec<FaultScenario> =
            crate::experiments::fault_scenarios().into_iter().take(2).collect();
        let rows = crate::experiments::fault_matrix_experiment(
            &products,
            &scenarios,
            0.7,
            42,
            &Executor::new(2),
        );
        let run = record_fault_matrix(&spec, &scenarios, &rows, 0.7, 42).expect("matrix records");
        assert_eq!(run.header.context, "fault-matrix");
        assert_eq!(run.header.products.len(), rows.len(), "one product key per cell");
        assert!(run.header.products[0].contains('@'));
        let plans = run
            .header
            .provenance
            .get("fault_plans")
            .and_then(Value::as_array)
            .expect("plans listed");
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].get("hash").and_then(Value::as_str).map(str::len), Some(16));
    }
}
