//! Discrete scoring and flexible weighting (paper §3.1, Figure 5).
//!
//! "We chose to use scores with the discrete values zero through four,
//! with higher scores interpreted as more favorable ratings." Weights are
//! "any consistent numeric system … discrete or continuous … Negative
//! weights may also be used to help distinguish where a feature is
//! actually counterproductive." The weighted overall score is
//! `S = Σ_j Σ_i (U_ij · W_ij)` over classes `j` and metrics `i`.

use crate::catalog;
use crate::metric::{MetricClass, MetricId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A discrete metric score in `0..=4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DiscreteScore(u8);

impl DiscreteScore {
    /// The minimum (least favorable) score.
    pub const MIN: DiscreteScore = DiscreteScore(0);
    /// The maximum (most favorable) score.
    pub const MAX: DiscreteScore = DiscreteScore(4);

    /// Construct; panics outside `0..=4` (a scoring bug, not user input).
    pub fn new(v: u8) -> Self {
        assert!(v <= 4, "discrete scores are 0..=4, got {v}");
        DiscreteScore(v)
    }

    /// Clamp a continuous rubric output onto the discrete scale.
    pub fn from_f64(v: f64) -> Self {
        DiscreteScore(v.clamp(0.0, 4.0).round() as u8)
    }

    /// Raw value.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for DiscreteScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A complete scorecard: one evaluated system's score for every metric.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Scorecard {
    /// System under evaluation.
    pub system: String,
    scores: BTreeMap<MetricId, DiscreteScore>,
    /// Free-form observation notes per metric (how the score was obtained
    /// — the reproducibility requirement).
    notes: BTreeMap<MetricId, String>,
}

impl Scorecard {
    /// An empty scorecard for `system`.
    pub fn new(system: impl Into<String>) -> Self {
        Self { system: system.into(), scores: BTreeMap::new(), notes: BTreeMap::new() }
    }

    /// Record a score.
    pub fn set(&mut self, id: MetricId, score: DiscreteScore) {
        self.scores.insert(id, score);
    }

    /// Record a score with an observation note.
    pub fn set_with_note(&mut self, id: MetricId, score: DiscreteScore, note: impl Into<String>) {
        self.scores.insert(id, score);
        self.notes.insert(id, note.into());
    }

    /// Look up a score.
    pub fn get(&self, id: MetricId) -> Option<DiscreteScore> {
        self.scores.get(&id).copied()
    }

    /// The observation note for a metric.
    pub fn note(&self, id: MetricId) -> Option<&str> {
        self.notes.get(&id).map(String::as_str)
    }

    /// Number of scored metrics.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether nothing is scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Metrics from the catalog that have not been scored yet.
    pub fn unscored(&self) -> Vec<MetricId> {
        catalog::catalog()
            .into_iter()
            .map(|m| m.id)
            .filter(|id| !self.scores.contains_key(id))
            .collect()
    }

    /// Iterate `(metric, score)` in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, DiscreteScore)> + '_ {
        self.scores.iter().map(|(&k, &v)| (k, v))
    }

    /// Unweighted mean score per class (quick-look summary).
    pub fn class_mean(&self, class: MetricClass) -> f64 {
        let ms = catalog::metrics_of_class(class);
        let scored: Vec<f64> =
            ms.iter().filter_map(|m| self.get(m.id)).map(|s| f64::from(s.value())).collect();
        if scored.is_empty() {
            0.0
        } else {
            scored.iter().sum::<f64>() / scored.len() as f64
        }
    }
}

/// A weight assignment over metrics: the procurer's standard.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WeightSet {
    /// Name of the weighting (e.g. the requirement set it derives from).
    pub name: String,
    weights: BTreeMap<MetricId, f64>,
}

impl WeightSet {
    /// An empty weight set (unlisted metrics weigh 0).
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), weights: BTreeMap::new() }
    }

    /// Uniform weight 1 over the whole catalog — the "no preference"
    /// standard.
    pub fn uniform() -> Self {
        let mut w = Self::new("uniform");
        for m in catalog::catalog() {
            w.set(m.id, 1.0);
        }
        w
    }

    /// Set one metric's weight (replacing any previous value).
    pub fn set(&mut self, id: MetricId, weight: f64) {
        self.weights.insert(id, weight);
    }

    /// Add to one metric's weight.
    pub fn add(&mut self, id: MetricId, weight: f64) {
        *self.weights.entry(id).or_insert(0.0) += weight;
    }

    /// A metric's weight (0 when unlisted).
    pub fn get(&self, id: MetricId) -> f64 {
        self.weights.get(&id).copied().unwrap_or(0.0)
    }

    /// Iterate `(metric, weight)` for nonzero weights.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, f64)> + '_ {
        // Exact-zero sentinel: unset weights are stored as literal 0.0, never
        // computed, so exact comparison is the correct membership test.
        self.weights.iter().filter(|(_, &w)| w != 0.0).map(|(&k, &v)| (k, v))
    }

    /// The Figure 5 class score: `S_j = Σ_i (U_ij · W_ij)` for one class.
    /// Unscored metrics contribute nothing.
    pub fn class_score(&self, card: &Scorecard, class: MetricClass) -> f64 {
        catalog::metrics_of_class(class)
            .iter()
            .filter_map(|m| card.get(m.id).map(|s| f64::from(s.value()) * self.get(m.id)))
            .sum()
    }

    /// The Figure 5 overall score: `S = Σ_j S_j`.
    pub fn weighted_total(&self, card: &Scorecard) -> f64 {
        MetricClass::ALL.iter().map(|&c| self.class_score(card, c)).sum()
    }

    /// The maximum achievable total under this weighting (every
    /// positive-weight metric at 4, every negative-weight metric at 0) —
    /// the "standard" a candidate is compared against.
    pub fn ideal_total(&self) -> f64 {
        self.iter().map(|(_, w)| if w > 0.0 { 4.0 * w } else { 0.0 }).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_score_bounds() {
        assert_eq!(DiscreteScore::new(4).value(), 4);
        assert_eq!(DiscreteScore::from_f64(2.4).value(), 2);
        assert_eq!(DiscreteScore::from_f64(2.6).value(), 3);
        assert_eq!(DiscreteScore::from_f64(-3.0), DiscreteScore::MIN);
        assert_eq!(DiscreteScore::from_f64(99.0), DiscreteScore::MAX);
    }

    #[test]
    #[should_panic(expected = "0..=4")]
    fn out_of_range_panics() {
        let _ = DiscreteScore::new(5);
    }

    #[test]
    fn figure5_formula() {
        // A tiny hand-computable case.
        let mut card = Scorecard::new("X");
        card.set(MetricId::DistributedManagement, DiscreteScore::new(3)); // class 1
        card.set(MetricId::SystemThroughput, DiscreteScore::new(2)); // class 2
        card.set(MetricId::Timeliness, DiscreteScore::new(4)); // class 3
        let mut w = WeightSet::new("t");
        w.set(MetricId::DistributedManagement, 2.0);
        w.set(MetricId::SystemThroughput, 1.5);
        w.set(MetricId::Timeliness, 3.0);
        assert_eq!(w.class_score(&card, MetricClass::Logistical), 6.0);
        assert_eq!(w.class_score(&card, MetricClass::Architectural), 3.0);
        assert_eq!(w.class_score(&card, MetricClass::Performance), 12.0);
        assert_eq!(w.weighted_total(&card), 21.0);
        assert_eq!(w.ideal_total(), 4.0 * (2.0 + 1.5 + 3.0));
    }

    #[test]
    fn negative_weights_penalize() {
        let mut card_a = Scorecard::new("A");
        card_a.set(MetricId::OutsourcedSolution, DiscreteScore::new(0));
        let mut card_b = Scorecard::new("B");
        card_b.set(MetricId::OutsourcedSolution, DiscreteScore::new(4));
        let mut w = WeightSet::new("anti-outsourcing");
        // Here high "degree outsourced" is counterproductive for the
        // real-time procurer: weight it negatively.
        w.set(MetricId::OutsourcedSolution, -2.0);
        assert!(w.weighted_total(&card_a) > w.weighted_total(&card_b));
        assert_eq!(w.ideal_total(), 0.0);
    }

    #[test]
    fn unscored_metrics_are_reported() {
        let mut card = Scorecard::new("X");
        assert_eq!(card.unscored().len(), 56);
        card.set(MetricId::Timeliness, DiscreteScore::new(1));
        assert_eq!(card.unscored().len(), 55);
        assert!(!card.unscored().contains(&MetricId::Timeliness));
    }

    #[test]
    fn class_mean_summarizes() {
        let mut card = Scorecard::new("X");
        card.set(MetricId::Timeliness, DiscreteScore::new(4));
        card.set(MetricId::NetworkLethalDose, DiscreteScore::new(2));
        assert_eq!(card.class_mean(MetricClass::Performance), 3.0);
        assert_eq!(card.class_mean(MetricClass::Logistical), 0.0);
    }

    #[test]
    fn notes_travel_with_scores() {
        let mut card = Scorecard::new("X");
        card.set_with_note(MetricId::SystemThroughput, DiscreteScore::new(3), "measured 41k pps");
        assert_eq!(card.note(MetricId::SystemThroughput), Some("measured 41k pps"));
        let json = serde_json::to_string(&card).unwrap();
        let back: Scorecard = serde_json::from_str(&json).unwrap();
        assert_eq!(back.note(MetricId::SystemThroughput), Some("measured 41k pps"));
    }

    #[test]
    fn uniform_weighting_covers_catalog() {
        let w = WeightSet::uniform();
        assert_eq!(w.iter().count(), 56);
        assert_eq!(w.ideal_total(), 4.0 * 56.0);
    }
}
