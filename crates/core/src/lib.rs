//! # idse-core — the metric scorecard methodology
//!
//! The paper's primary contribution: "a testing methodology we developed to
//! evaluate ID products against a user-definable, dynamically-changing
//! standard … The key distinctive of our approach is that we do not compare
//! IDSs against each other, but against a standard derived from mapping
//! formalized user requirements to a standard set of metrics."
//!
//! The three key features (§3.1), each implemented here:
//!
//! 1. **Well-defined metrics** — [`catalog`] defines all 52 metrics the
//!    paper lists (the tables' selected metrics *and* the ones named but
//!    not shown) plus a four-metric survivability extension of the
//!    architectural class (56 total), each observable, reproducible,
//!    quantifiable and characteristic, grouped into the paper's three
//!    classes and annotated with its observation methods and
//!    low/average/high anchor examples.
//! 2. **Discrete scoring** — [`score::DiscreteScore`] carries the 0–4
//!    scale; a [`score::Scorecard`] is one product's complete rating.
//! 3. **Flexible weighting** — [`score::WeightSet`] accepts any consistent
//!    real weights (negative allowed) and computes the Figure 5 sum
//!    `S = Σ_j Σ_i (U_ij · W_ij)`.
//!
//! [`requirements`] implements the §3.3 / Figure 6 algorithm mapping a
//! partial ordering of user requirements onto metric weights, with the
//! paper's real-time distributed weighting guidance as a preset.
//! [`report`] renders scorecards as the text tables the benches print.
//!
//! # Example
//!
//! ```
//! use idse_core::{DiscreteScore, MetricId, RequirementSet, Scorecard};
//!
//! // Score a system on two metrics (normally idse-eval fills all 56).
//! let mut card = Scorecard::new("ExampleIDS 1.0");
//! card.set_with_note(MetricId::Timeliness, DiscreteScore::new(4), "mean 80 ms");
//! card.set(MetricId::ObservedFalseNegativeRatio, DiscreteScore::new(2));
//!
//! // Derive weights from the procurer's requirements (Figure 6) and
//! // compute the weighted score (Figure 5).
//! let weights = RequirementSet::realtime_distributed().derive();
//! let total = weights.weighted_total(&card);
//! assert!(total > 0.0 && total <= weights.ideal_total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert bit-exact determinism"))]

pub mod catalog;
pub mod metric;
pub mod report;
pub mod requirements;
pub mod score;

pub use metric::{MetricClass, MetricDef, MetricId, ObservationMethod};
pub use requirements::{Requirement, RequirementSet};
pub use score::{DiscreteScore, Scorecard, WeightSet};
