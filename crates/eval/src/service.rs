//! Job specs — the serde bridge between the evaluation service and
//! [`EvaluationRequest`].
//!
//! The daemon's `submit` payload and the `evaluate` CLI's flags must
//! construct *the same request*, or "a daemon-submitted job produces the
//! same store bytes as a direct `evaluate --store` run" would be a
//! coincidence instead of a property. This module is that single source:
//! a [`JobSpec`] carries the caller-supplied knobs (everything optional,
//! with the CLI's documented defaults), and [`JobSpec::to_request`] is
//! the one place those knobs become a request. The `evaluate` binary
//! builds its request through the same path, so the two entry points
//! cannot drift.
//!
//! Specs are plain serde values: they ride the daemon's line-delimited
//! JSON protocol, land verbatim in the journal for crash-safe restart,
//! and round-trip losslessly.

use crate::feeds::FeedConfig;
use crate::harness::EvaluationRequest;
use crate::measure::EnvironmentNeeds;
use crate::provenance::StoreSpec;
use idse_core::{RequirementSet, WeightSet};
use idse_faults::FaultPlan;
use idse_ids::products::{IdsProduct, ProductId};
use idse_sim::SimDuration;
use idse_traffic::SiteProfile;
use serde::{Deserialize, Serialize};

/// The canned methodology seed every CLI defaults to (`evaluate`,
/// `stream`, the `table*` and `exp_*` experiments, and daemon job specs
/// with no explicit seed).
pub const STANDARD_SEED: u64 = 0x2002_0415;

/// The most sensitivity settings a sweep may sample.
///
/// Each step is one job per product that replays the whole test trace, so
/// the plan and the run time grow linearly with it. 101 steps already
/// sample every 0.01 of the `[0, 1]` sensitivity range.
pub const MAX_SWEEP_STEPS: usize = 101;

/// The largest stream chunk, in records.
///
/// Each shard job allocates its chunk buffer up front, at 72 bytes a
/// record: 72 MiB at this bound, and every product the job drives takes a
/// clone of each chunk. Chunking is pure batching, so no chunk size can
/// change a scorecard. The bound is 128 times
/// [`idse_traffic::DEFAULT_CHUNK_RECORDS`].
pub const MAX_CHUNK_RECORDS: usize = 1 << 20;

/// The most flow-key shards a stream job may split into.
///
/// Each shard job generates its shard's feed and deploys every product's
/// trained engines on it, so deployment work and the number of live
/// sessions grow linearly with the shard count. The bound is 8 times the
/// `stream` CLI's default of 8.
pub const MAX_SHARDS: u32 = 64;

/// The highest attack-campaign intensity.
///
/// Each step adds one instance of every attack family, about 4,400
/// records, and every run materializes the whole campaign once, streaming
/// runs included (split by shard). At this bound a campaign is about
/// 285,000 records. The bound is 32 times the default of 2.
pub const MAX_CAMPAIGN_INTENSITY: u32 = 64;

/// A spec failed validation (unknown profile, malformed knob, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError { message: message.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// Which evaluation path a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The classic materialized harness: full sweep, operating point,
    /// throughput searches, all 56 metrics, optional store recording.
    Evaluate,
    /// The constant-memory streaming path at a fixed sensitivity.
    Stream,
}

impl JobKind {
    /// Stable lowercase name (the `kind` field's wire value).
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Evaluate => "evaluate",
            JobKind::Stream => "stream",
        }
    }
}

/// Store recording knobs carried by a job spec (the `--store`,
/// `--stamp`, `--git-rev` flags in wire form).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(deny_unknown_fields)]
pub struct StoreRequest {
    /// Run-store directory.
    pub dir: String,
    /// Opaque caller-supplied stamp for the run header.
    pub stamp: Option<String>,
    /// Revision folded into provenance.
    pub git_rev: Option<String>,
}

/// One evaluation job, as submitted over the service protocol.
///
/// Every field is optional on the wire (the vendored serde shim defaults
/// missing fields), and the defaults are exactly the `evaluate` /
/// `stream` CLI defaults, resolved in one place by the accessors below.
/// A key that names no field is refused, so a misspelled knob cannot
/// silently run the default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(deny_unknown_fields)]
pub struct JobSpec {
    /// `"evaluate"` (default) or `"stream"`.
    pub kind: Option<String>,
    /// Site profile: `cluster` (default), `web` or `office`.
    pub profile: Option<String>,
    /// Scorecard weighting: `realtime` (default), `ecommerce` or
    /// `uniform`.
    pub weighting: Option<String>,
    /// Product selectors (`nid`, `guard`, `flow`, `agent`); absent or
    /// empty means all four modeled products.
    pub products: Option<Vec<String>>,
    /// Master feed seed; defaults to [`STANDARD_SEED`].
    pub seed: Option<u64>,
    /// Session arrival rate (sessions/s), finite and above 0. Defaults: 25
    /// for `evaluate`, 25 000 for `stream`.
    pub rate: Option<f64>,
    /// Sensitivity sweep steps (`evaluate` only, default 7, min 2, max
    /// [`MAX_SWEEP_STEPS`]).
    pub sweep: Option<usize>,
    /// Attack-campaign intensity (default 2, max
    /// [`MAX_CAMPAIGN_INTENSITY`]).
    pub intensity: Option<u32>,
    /// Fixed sensitivity for the streaming path (default 0.6).
    pub sensitivity: Option<f64>,
    /// Stream length in transactions (`stream` only, default 1 000 000).
    pub transactions: Option<u64>,
    /// Host-population override (`stream` only).
    pub hosts: Option<u32>,
    /// Stream chunk size in records (default
    /// [`idse_traffic::DEFAULT_CHUNK_RECORDS`], max [`MAX_CHUNK_RECORDS`]).
    pub chunk_records: Option<usize>,
    /// Flow-key shard count (`stream` only, default 8, max [`MAX_SHARDS`]).
    pub shards: Option<u32>,
    /// Fault plan for the survivability probe.
    pub fault_plan: Option<FaultPlan>,
    /// Run-store recording (`evaluate` jobs only).
    pub store: Option<StoreRequest>,
}

impl JobSpec {
    /// An empty `evaluate` spec (every knob at its CLI default).
    pub fn evaluate() -> Self {
        JobSpec { kind: Some("evaluate".to_owned()), ..JobSpec::default() }
    }

    /// An empty `stream` spec.
    pub fn stream() -> Self {
        JobSpec { kind: Some("stream".to_owned()), ..JobSpec::default() }
    }

    /// The resolved job kind.
    pub fn job_kind(&self) -> Result<JobKind, SpecError> {
        match self.kind.as_deref().unwrap_or("") {
            "" | "evaluate" => Ok(JobKind::Evaluate),
            "stream" => Ok(JobKind::Stream),
            other => Err(SpecError::new(format!("unknown job kind {other:?} (evaluate|stream)"))),
        }
    }

    /// The resolved master seed.
    pub fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or(STANDARD_SEED)
    }

    /// The resolved streaming sensitivity.
    pub fn resolved_sensitivity(&self) -> f64 {
        self.sensitivity.unwrap_or(0.6)
    }

    /// The resolved stream length in transactions.
    pub fn resolved_transactions(&self) -> u64 {
        self.transactions.unwrap_or(1_000_000)
    }

    /// The site profile and the environment needs it is scored against —
    /// the `--profile` match of the `evaluate` CLI.
    pub fn site(&self) -> Result<(SiteProfile, EnvironmentNeeds), SpecError> {
        match self.profile.as_deref().unwrap_or("") {
            "" | "cluster" => {
                Ok((SiteProfile::realtime_cluster(), EnvironmentNeeds::realtime_cluster(3_000.0)))
            }
            "web" => Ok((SiteProfile::ecommerce_web(), EnvironmentNeeds::ecommerce(3_000.0))),
            "office" => Ok((SiteProfile::office_lan(), EnvironmentNeeds::ecommerce(1_500.0))),
            other => Err(SpecError::new(format!("unknown profile {other:?} (cluster|web|office)"))),
        }
    }

    /// The scorecard weighting — the `--weighting` match of the
    /// `evaluate` CLI.
    pub fn weights(&self) -> Result<WeightSet, SpecError> {
        match self.weighting.as_deref().unwrap_or("") {
            "" | "realtime" => Ok(RequirementSet::realtime_distributed().derive()),
            "ecommerce" => Ok(RequirementSet::ecommerce_site().derive()),
            "uniform" => Ok(WeightSet::uniform()),
            other => Err(SpecError::new(format!(
                "unknown weighting {other:?} (realtime|ecommerce|uniform)"
            ))),
        }
    }

    /// The products this job evaluates, in selector order (all four
    /// models when no selector is given). A product listed twice is
    /// refused: its jobs would share one key.
    pub fn resolve_products(&self) -> Result<Vec<IdsProduct>, SpecError> {
        let selectors = self.products.as_deref().unwrap_or(&[]);
        if selectors.is_empty() {
            return Ok(IdsProduct::all_models());
        }
        selectors
            .iter()
            .enumerate()
            .map(|(i, name)| {
                if selectors[..i].contains(name) {
                    return Err(SpecError::new(format!("product {name:?} listed twice")));
                }
                let id = match name.as_str() {
                    "nid" => ProductId::NidSentry,
                    "guard" => ProductId::GuardSecure,
                    "flow" => ProductId::FlowHunter,
                    "agent" => ProductId::AgentWatch,
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown product {other:?} (nid|guard|flow|agent)"
                        )))
                    }
                };
                Ok(IdsProduct::model(id))
            })
            .collect()
    }

    /// A short human label for job listings and journal lines.
    pub fn label(&self) -> String {
        let kind = self.job_kind().map(JobKind::name).unwrap_or("invalid");
        format!("{kind} seed={:#x}", self.resolved_seed())
    }

    /// Build the [`EvaluationRequest`] this spec describes.
    ///
    /// This is the byte-identity chokepoint: the `evaluate` CLI routes
    /// its flags through here too, so a daemon-submitted spec and a
    /// direct CLI run construct provably identical requests (telemetry
    /// handles and worker counts are attached afterwards by each caller —
    /// neither may change an output byte).
    pub fn to_request(&self) -> Result<EvaluationRequest, SpecError> {
        let kind = self.job_kind()?;
        let (profile, needs) = self.site()?;
        let weights = self.weights()?;
        self.resolve_products()?;
        let seed = self.resolved_seed();
        let rate = self.rate.unwrap_or(match kind {
            JobKind::Evaluate => 25.0,
            JobKind::Stream => 25_000.0,
        });
        // A zero rate stretches the feed to n / 1e-9 seconds of empty
        // slices, which no cancel checkpoint ever interrupts; the stream
        // refuses a rate above its bound.
        if !(rate > 0.0 && rate <= idse_traffic::MAX_SESSION_RATE) {
            return Err(SpecError::new(format!(
                "rate must be a number of sessions/s above 0 and at most {}, got {rate:?}",
                idse_traffic::MAX_SESSION_RATE
            )));
        }
        at_most("sweep", self.sweep, MAX_SWEEP_STEPS)?;
        at_most("chunk_records", self.chunk_records, MAX_CHUNK_RECORDS)?;
        at_most("shards", self.shards, MAX_SHARDS)?;
        at_most("intensity", self.intensity, MAX_CAMPAIGN_INTENSITY)?;
        let request = match kind {
            JobKind::Evaluate => {
                let sweep = self.sweep.unwrap_or(7);
                if sweep < 2 {
                    return Err(SpecError::new("sweep must be at least 2"));
                }
                let request = EvaluationRequest::new()
                    .with_feed(
                        FeedConfig::builder()
                            .session_rate(rate)
                            .training_span(SimDuration::from_secs(20))
                            .test_span(SimDuration::from_secs(45))
                            .campaign_intensity(self.intensity.unwrap_or(2))
                            .seed(seed)
                            .build(),
                    )
                    .with_needs(needs)
                    .with_sweep_steps(sweep)
                    .with_max_throughput_factor(4096.0)
                    .with_fp_budget(0.15);
                match &self.store {
                    Some(store) if store.dir.is_empty() => {
                        return Err(SpecError::new("store.dir must not be empty"));
                    }
                    Some(store) => request.with_store_spec(
                        StoreSpec::new(&store.dir)
                            .with_stamp(store.stamp.clone())
                            .with_git_rev(store.git_rev.clone())
                            .with_profile(profile.name.clone())
                            .with_weighting(weights.name.clone()),
                    ),
                    None => request,
                }
            }
            JobKind::Stream => {
                if self.store.is_some() {
                    return Err(SpecError::new("store recording is not supported for stream jobs"));
                }
                if self.sweep.is_some() {
                    return Err(SpecError::new(
                        "stream jobs run at a fixed sensitivity, not a sweep",
                    ));
                }
                let mut builder = FeedConfig::builder()
                    .session_rate(rate)
                    .transactions(self.resolved_transactions())
                    .campaign_intensity(self.intensity.unwrap_or(2))
                    .seed(seed)
                    .chunk_records(
                        self.chunk_records.unwrap_or(idse_traffic::DEFAULT_CHUNK_RECORDS),
                    )
                    .shards(self.shards.unwrap_or(8));
                if let Some(hosts) = self.hosts {
                    builder = builder.hosts(hosts);
                }
                EvaluationRequest::new().with_feed(builder.build())
            }
        };
        Ok(match &self.fault_plan {
            Some(plan) => request.with_fault_plan(plan.clone()),
            None => request,
        })
    }
}

/// Refuse a size-like knob above its bound, naming the field.
fn at_most<T: PartialOrd + std::fmt::Display>(
    field: &str,
    value: Option<T>,
    max: T,
) -> Result<(), SpecError> {
    match value {
        Some(v) if v > max => {
            Err(SpecError::new(format!("{field} must be at most {max}, got {v}")))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_the_cli_default_evaluate_run() {
        let spec: JobSpec = serde_json::from_str("{}").expect("empty spec parses");
        assert_eq!(spec.job_kind().expect("valid"), JobKind::Evaluate);
        assert_eq!(spec.resolved_seed(), STANDARD_SEED);
        let request = spec.to_request().expect("default spec is valid");
        assert_eq!(request.feed.seed, STANDARD_SEED);
        assert_eq!(request.feed.session_rate, 25.0);
        assert_eq!(request.sweep.steps, 7);
        assert_eq!(request.max_throughput_factor, 4096.0);
        assert!(request.store.is_none());
        assert_eq!(spec.resolve_products().expect("valid").len(), 4);
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = JobSpec {
            kind: Some("stream".to_owned()),
            products: Some(vec!["flow".to_owned()]),
            seed: Some(7),
            rate: Some(5_000.0),
            transactions: Some(100_000),
            hosts: Some(1_000),
            shards: Some(4),
            store: Some(StoreRequest { dir: "runs".to_owned(), ..StoreRequest::default() }),
            ..JobSpec::default()
        };
        // Every key a spec serializes under is one it accepts.
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: JobSpec = serde_json::from_str(&json).expect("spec parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn stream_spec_mirrors_the_stream_cli_defaults() {
        let spec = JobSpec::stream();
        let request = spec.to_request().expect("valid");
        assert_eq!(request.feed.session_rate, 25_000.0);
        assert_eq!(request.feed.chunk_records, idse_traffic::DEFAULT_CHUNK_RECORDS);
        assert_eq!(request.feed.shards, 8);
        assert_eq!(spec.resolved_sensitivity(), 0.6);
    }

    #[test]
    fn invalid_knobs_are_rejected_with_reasons() {
        let bad_kind = JobSpec { kind: Some("batch".to_owned()), ..JobSpec::default() };
        assert!(bad_kind.to_request().expect_err("rejected").to_string().contains("job kind"));

        let bad_profile = JobSpec { profile: Some("lab".to_owned()), ..JobSpec::default() };
        assert!(bad_profile.to_request().expect_err("rejected").to_string().contains("profile"));

        let bad_sweep = JobSpec { sweep: Some(1), ..JobSpec::default() };
        assert!(bad_sweep.to_request().expect_err("rejected").to_string().contains("sweep"));

        let stream_store = JobSpec {
            kind: Some("stream".to_owned()),
            store: Some(StoreRequest { dir: "runs".to_owned(), ..StoreRequest::default() }),
            ..JobSpec::default()
        };
        assert!(stream_store.to_request().expect_err("rejected").to_string().contains("store"));

        for rate in [0.0, -5.0, f64::NAN, f64::INFINITY, 1e308] {
            for kind in [JobSpec::evaluate(), JobSpec::stream()] {
                let bad_rate = JobSpec { rate: Some(rate), ..kind };
                let err = bad_rate.to_request().expect_err("rejected").to_string();
                assert!(err.contains("rate"), "{rate}: {err}");
            }
        }

        // Hostile sizes are refused by name before anything is allocated
        // or planned.
        let oversized = [
            ("sweep", JobSpec { sweep: Some(1 << 40), ..JobSpec::evaluate() }),
            ("intensity", JobSpec { intensity: Some(u32::MAX), ..JobSpec::evaluate() }),
            ("intensity", JobSpec { intensity: Some(u32::MAX), ..JobSpec::stream() }),
            ("chunk_records", JobSpec { chunk_records: Some(1 << 40), ..JobSpec::stream() }),
            ("shards", JobSpec { shards: Some(u32::MAX), ..JobSpec::stream() }),
        ];
        for (field, spec) in oversized {
            let err = spec.to_request().expect_err("rejected").to_string();
            assert!(err.starts_with(field), "{field}: {err}");
        }

        let bad_product = JobSpec { products: Some(vec!["nope".to_owned()]), ..JobSpec::default() };
        assert!(bad_product
            .resolve_products()
            .expect_err("rejected")
            .to_string()
            .contains("product"));

        // A product listed twice would be evaluated twice in one run.
        for kind in [JobSpec::evaluate(), JobSpec::stream()] {
            let twice = JobSpec {
                products: Some(vec!["guard".to_owned(), "flow".to_owned(), "guard".to_owned()]),
                ..kind
            };
            let err = twice.to_request().expect_err("rejected").to_string();
            assert!(err.contains("\"guard\" listed twice"), "{err}");
        }
    }

    #[test]
    fn size_bounds_are_inclusive() {
        let at = |spec: JobSpec| spec.to_request().map(|_| ());
        let eval = JobSpec::evaluate();
        let stream = JobSpec::stream();
        assert!(at(JobSpec { sweep: Some(MAX_SWEEP_STEPS), ..eval.clone() }).is_ok());
        assert!(at(JobSpec { sweep: Some(MAX_SWEEP_STEPS + 1), ..eval.clone() }).is_err());
        let intensity = MAX_CAMPAIGN_INTENSITY;
        assert!(at(JobSpec { intensity: Some(intensity), ..eval.clone() }).is_ok());
        assert!(at(JobSpec { intensity: Some(intensity + 1), ..eval }).is_err());
        let chunk = MAX_CHUNK_RECORDS;
        assert!(at(JobSpec { chunk_records: Some(chunk), ..stream.clone() }).is_ok());
        assert!(at(JobSpec { chunk_records: Some(chunk + 1), ..stream.clone() }).is_err());
        assert!(at(JobSpec { shards: Some(MAX_SHARDS), ..stream.clone() }).is_ok());
        assert!(at(JobSpec { shards: Some(MAX_SHARDS + 1), ..stream }).is_err());
    }

    #[test]
    fn store_annotations_match_the_evaluate_cli() {
        let spec = JobSpec {
            store: Some(StoreRequest {
                dir: "runs-dir".to_owned(),
                stamp: Some("s1".to_owned()),
                git_rev: Some("abc".to_owned()),
            }),
            ..JobSpec::evaluate()
        };
        let request = spec.to_request().expect("valid");
        let store = request.store.expect("store spec attached");
        assert_eq!(store.dir, std::path::PathBuf::from("runs-dir"));
    }

    #[test]
    fn fault_plans_ride_the_spec() {
        use idse_faults::{FaultComponent, FaultKind};
        let plan = FaultPlan::new("spec-blink").with(
            idse_sim::SimTime::from_secs(8),
            FaultKind::Crash { component: FaultComponent::Monitor, restart_after: None },
        );
        let spec = JobSpec { fault_plan: Some(plan.clone()), ..JobSpec::evaluate() };
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: JobSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.fault_plan.as_ref().map(FaultPlan::label), Some("spec-blink"));
        let request = back.to_request().expect("valid");
        assert_eq!(request.fault_plan.map(|p| p.label().to_owned()), Some("spec-blink".to_owned()));
    }
}
