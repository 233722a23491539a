//! # idse-eval — the evaluation harness
//!
//! Ties the testbed together: generates canned test feeds (background +
//! campaign), drives them through each simulated product's pipeline,
//! measures the paper's performance metrics, converts measurements and
//! vendor facts to discrete 0–4 scores through explicit rubrics, and fills
//! the `idse-core` scorecards.
//!
//! Experiment implementations map one-to-one onto DESIGN.md's experiment
//! index:
//!
//! * [`confusion`] — Figure 3's confusion quantities and the paper's ratio
//!   formulas `|D − A|/|T|`, `|A − D|/|T|`;
//! * [`sweep`] — Figure 4's error-rate curves and Equal Error Rate;
//! * [`throughput`] — zero-loss throughput and lethal-dose searches
//!   (Table 3);
//! * [`timing`] — induced latency and timeliness (Table 3);
//! * [`host_overhead`] — experiment X1 (§2.1's 3–5 % / 20 % audit costs);
//! * [`experiments`] — X2 payload realism, X3 site-profile swap, X4
//!   operating-point selection;
//! * [`vendor`] — logistical/architectural rubrics over vendor profiles;
//! * [`measure`] — performance rubrics over measured values;
//! * [`harness`] — the full per-product evaluation that fills a
//!   [`idse_core::Scorecard`];
//! * [`operator`] — the paper's future-work "human dimension": an
//!   operator-attention model showing where alert volume defeats
//!   sensitivity;
//! * [`evidence`] — alert-adjacent packet capture under a byte budget,
//!   with the forensic-coverage measure behind §3.3's "logging of
//!   historical traffic is also key";
//! * [`streaming`] — constant-memory chunked evaluation over
//!   `RecordStream` feeds, sharded by flow key across workers;
//! * [`service`] — serde job specs shared by the `evaluate` CLI and the
//!   evaluation daemon, so both entry points build identical requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod confusion;
pub mod evidence;
pub mod experiments;
pub mod feeds;
pub mod harness;
pub mod host_overhead;
pub mod measure;
pub mod operator;
pub mod provenance;
pub mod service;
pub mod streaming;
pub mod sweep;
pub mod throughput;
pub mod timing;
pub mod vendor;

pub use confusion::{join_alerts, ConfusionCounts, StreamLedger};
pub use feeds::{FeedConfig, FeedConfigBuilder, TestFeed};
pub use harness::{EvaluationRequest, ProductEvaluation};
pub use provenance::{record_evaluation, record_fault_matrix, Provenance, StoreSpec};
pub use service::{JobKind, JobSpec, SpecError, StoreRequest, STANDARD_SEED};
pub use streaming::{ShardOutcome, StreamEvaluation, StreamScorecard};
pub use sweep::SweepPlan;
