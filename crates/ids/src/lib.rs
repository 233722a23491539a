//! # idse-ids — the generalized network IDS framework
//!
//! An implementation of the paper's Figure 1 architecture: "ID is a
//! sequential process consisting of five subprocesses: load balancing,
//! sensing, analyzing, monitoring, managing." Subprocesses 1 and 5 are
//! optional; 2–4 are essential. Figure 2's relational cardinalities
//! (LB 1c:M Sensor, Sensor M:M Analyzer, Analyzer M:1 Monitor,
//! Monitor 1:1c Console, Console 1c:M components) are encoded and validated
//! in [`cardinality`].
//!
//! Detection mechanisms follow §2.1's taxonomy:
//!
//! * [`engine::signature`] — a knowledge-based engine: header-predicate +
//!   payload-pattern rules over a from-scratch Aho–Corasick multi-pattern
//!   matcher ([`aho`]), plus Snort-style scan/flood preprocessors;
//! * [`engine::anomaly`] — a behavior-based engine: trained baselines for
//!   rates, fan-out, origins, payload character and login behavior;
//! * [`engine::host_agent`] — host-based sensing from the monitored hosts'
//!   own vantage (log-level events), consuming host CPU per §2.1.
//!
//! [`datapool`] implements Table 2's *Data Pool Selectability* as a
//! functional sensor-input filter (not just a scored claim), and
//! [`products`] instantiates four concrete IDS models patterned on the
//! systems the paper evaluated (NFR NID 5.0, ISS RealSecure 5.0, Recourse
//! ManHunt 1.2, and the AAFID research prototype), and [`pipeline`] drives
//! a labeled trace through a deployed product on the `idse-sim` kernel,
//! producing the alerts, drops, latencies and failure events that
//! `idse-eval` turns into scorecard measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod aho;
pub mod alert;
pub mod cardinality;
pub mod components;
pub mod datapool;
pub mod engine;
pub mod keyed;
pub mod pipeline;
pub mod products;

pub use alert::{Alert, Severity};
pub use engine::Sensitivity;
pub use pipeline::{PipelineOutcome, PipelineRunner};
pub use products::{IdsProduct, ProductId};
