//! Figure 4: error-rate curves vs sensitivity, and the Equal Error Rate.
//!
//! "Users should look for systems where the IDS's monitoring sensitivity
//! can be adjusted so equality between false positive and false negative
//! error rates can be achieved." The sweep runs the same feed through a
//! product at a ladder of sensitivity settings, records both ratios, and
//! locates the crossover by linear interpolation.

use crate::confusion::StreamLedger;
use crate::feeds::TestFeed;
use idse_exec::Executor;
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::Sensitivity;
use serde::Serialize;

/// Sweep configuration shared by the Figure 4 curve and operating-point
/// selection: how many settings to sample, over what sensitivity range,
/// and which false-positive budget the §3.3 rule applies.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPlan {
    /// Number of sensitivity settings to sample (≥ 2).
    pub steps: usize,
    /// Inclusive sensitivity range swept, low to high.
    pub sensitivity_range: (f64, f64),
    /// False-positive budget for [`ErrorCurve::min_fn_within_fp_budget`].
    pub fp_budget: f64,
}

impl Default for SweepPlan {
    /// Seven steps over the full `[0, 1]` range with the paper-default
    /// 15 % false-positive budget.
    fn default() -> Self {
        SweepPlan { steps: 7, sensitivity_range: (0.0, 1.0), fp_budget: 0.15 }
    }
}

impl SweepPlan {
    /// A plan sampling `steps` settings over the default full range.
    pub fn with_steps(steps: usize) -> Self {
        SweepPlan { steps, ..SweepPlan::default() }
    }

    /// This plan with a different false-positive budget.
    pub fn with_fp_budget(mut self, fp_budget: f64) -> Self {
        self.fp_budget = fp_budget;
        self
    }

    /// The sensitivity of sample `k` (evenly spaced endpoints-inclusive).
    ///
    /// For the default `(0.0, 1.0)` range this reduces to exactly
    /// `k / (steps - 1)` — bit-identical to the historical sweep ladder.
    pub fn sensitivity_at(&self, k: usize) -> f64 {
        let (lo, hi) = self.sensitivity_range;
        lo + (k as f64 / (self.steps - 1) as f64) * (hi - lo)
    }

    /// Panics (via `assert!`) unless the plan is well-formed.
    pub fn validate(&self) {
        assert!(self.steps >= 2, "a sweep needs at least two settings");
        let (lo, hi) = self.sensitivity_range;
        assert!(lo <= hi, "sweep range must be ordered: {lo} > {hi}");
        assert!(self.fp_budget >= 0.0, "fp budget must be non-negative");
    }
}

/// One sweep sample.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// Sensitivity setting.
    pub sensitivity: f64,
    /// `|D − A| / |T|`.
    pub false_positive_ratio: f64,
    /// `|A − D| / |T|`.
    pub false_negative_ratio: f64,
    /// Raw alert volume at this setting.
    pub alerts: usize,
}

/// A full error-rate curve for one product.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorCurve {
    /// Product name.
    pub product: String,
    /// Samples in increasing sensitivity order.
    pub points: Vec<SweepPoint>,
}

impl ErrorCurve {
    /// The Equal Error Rate operating point `(sensitivity, rate)`, found
    /// by interpolating the sign change of `fp − fn`. `None` when the
    /// curves never cross in the swept range.
    pub fn equal_error_rate(&self) -> Option<(f64, f64)> {
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            let da = a.false_positive_ratio - a.false_negative_ratio;
            let db = b.false_positive_ratio - b.false_negative_ratio;
            // Exact-zero crossing: the EER point is returned verbatim only
            // when the curves touch exactly; near-misses interpolate below.
            if da == 0.0 {
                return Some((a.sensitivity, a.false_positive_ratio));
            }
            if da * db < 0.0 {
                // Interpolate the crossing.
                let t = da / (da - db);
                let s = a.sensitivity + t * (b.sensitivity - a.sensitivity);
                let rate =
                    a.false_positive_ratio + t * (b.false_positive_ratio - a.false_positive_ratio);
                return Some((s, rate));
            }
        }
        self.points.last().and_then(|p| {
            #[expect(
                clippy::float_cmp,
                reason = "exact touch at the last point, like the exact-zero crossing above: \
                          near-misses have no later segment to interpolate into"
            )]
            let touch = p.false_positive_ratio == p.false_negative_ratio;
            touch.then_some((p.sensitivity, p.false_positive_ratio))
        })
    }

    /// The operating point this curve's [`SweepPlan`] selects: the §3.3
    /// min-FN-within-budget rule under `plan.fp_budget`.
    pub fn operating_point(&self, plan: &SweepPlan) -> Option<SweepPoint> {
        self.min_fn_within_fp_budget(plan.fp_budget)
    }

    /// The sensitivity minimizing the false-negative ratio subject to the
    /// false-positive ratio staying at or below `fp_budget` — the §3.3
    /// operating-point rule for distributed systems ("reduce the false
    /// negative ratio … accepting an increased false positive ratio").
    pub fn min_fn_within_fp_budget(&self, fp_budget: f64) -> Option<SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.false_positive_ratio <= fp_budget)
            .min_by(|a, b| {
                a.false_negative_ratio
                    .partial_cmp(&b.false_negative_ratio)
                    .expect("ratios are finite")
                    .then(
                        a.false_positive_ratio
                            .partial_cmp(&b.false_positive_ratio)
                            .expect("ratios are finite"),
                    )
            })
            .copied()
    }
}

/// Measure one sweep sample: run the pipeline, with the engines `trained`
/// holds (see [`TestFeed::trained_runner`]), at `sensitivity` and score the
/// alerts against the ledger. Pure function of its arguments — the unit of
/// work one sweep job executes.
pub(crate) fn measure_sweep_point(
    trained: &PipelineRunner,
    feed: &TestFeed,
    ledger: &StreamLedger,
    sensitivity: f64,
) -> SweepPoint {
    let config =
        RunConfig { sensitivity: Sensitivity::new(sensitivity), ..trained.config().clone() };
    let outcome = trained.reconfigured(config).run(&feed.test);
    let counts = ledger.score_alerts(&outcome.alerts, &outcome.alert_truths);
    SweepPoint {
        sensitivity,
        false_positive_ratio: counts.false_positive_ratio(),
        false_negative_ratio: counts.false_negative_ratio(),
        alerts: counts.alert_count,
    }
}

/// Sweep one product over the plan's sensitivity ladder, sampling points
/// in parallel on `exec`. Points come back in ladder order regardless of
/// worker count, so the curve is byte-identical at any `--jobs N`.
pub fn sweep(
    product: &IdsProduct,
    feed: &TestFeed,
    plan: &SweepPlan,
    exec: &Executor,
) -> ErrorCurve {
    plan.validate();
    let ledger = StreamLedger::of(&feed.test);
    let trained = feed.trained_runner(product);
    let ladder: Vec<f64> = (0..plan.steps).map(|k| plan.sensitivity_at(k)).collect();
    let points = exec.par_map(&ladder, |_, &s| measure_sweep_point(&trained, feed, &ledger, s));
    ErrorCurve { product: product.id.name().to_owned(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feeds::FeedConfig;
    use idse_ids::products::ProductId;
    use idse_sim::SimDuration;

    fn small_feed() -> TestFeed {
        TestFeed::ecommerce(
            &FeedConfig::builder()
                .session_rate(15.0)
                .training_span(SimDuration::from_secs(15))
                .test_span(SimDuration::from_secs(30))
                .campaign_intensity(1)
                .seed(7)
                .build(),
        )
    }

    #[test]
    fn plan_ladder_matches_historical_spacing() {
        let plan = SweepPlan::with_steps(5);
        for k in 0..5 {
            assert_eq!(plan.sensitivity_at(k), k as f64 / 4.0);
        }
        let narrow = SweepPlan { steps: 3, sensitivity_range: (0.2, 0.6), fp_budget: 0.1 };
        assert_eq!(narrow.sensitivity_at(0), 0.2);
        assert_eq!(narrow.sensitivity_at(2), 0.6);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let feed = small_feed();
        let product = IdsProduct::model(ProductId::NidSentry);
        let serial = sweep(&product, &feed, &SweepPlan::with_steps(4), &Executor::serial());
        let planned = sweep(&product, &feed, &SweepPlan::with_steps(4), &Executor::new(4));
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&planned).unwrap(),
            "parallel sweep must be byte-identical to the serial sweep"
        );
    }

    #[test]
    fn fn_ratio_decreases_with_sensitivity() {
        let feed = small_feed();
        let curve = sweep(
            &IdsProduct::model(ProductId::NidSentry),
            &feed,
            &SweepPlan::with_steps(5),
            &Executor::new(2),
        );
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        assert!(
            last.false_negative_ratio <= first.false_negative_ratio,
            "higher sensitivity must not miss more: {first:?} -> {last:?}"
        );
        assert!(last.alerts >= first.alerts);
    }

    #[test]
    fn fp_ratio_increases_with_sensitivity() {
        let feed = small_feed();
        let curve = sweep(
            &IdsProduct::model(ProductId::GuardSecure),
            &feed,
            &SweepPlan::with_steps(5),
            &Executor::serial(),
        );
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        assert!(last.false_positive_ratio >= first.false_positive_ratio);
    }

    #[test]
    fn eer_interpolation_on_synthetic_curve() {
        let curve = ErrorCurve {
            product: "synthetic".into(),
            points: vec![
                SweepPoint {
                    sensitivity: 0.0,
                    false_positive_ratio: 0.0,
                    false_negative_ratio: 0.4,
                    alerts: 0,
                },
                SweepPoint {
                    sensitivity: 0.5,
                    false_positive_ratio: 0.1,
                    false_negative_ratio: 0.3,
                    alerts: 10,
                },
                SweepPoint {
                    sensitivity: 1.0,
                    false_positive_ratio: 0.5,
                    false_negative_ratio: 0.1,
                    alerts: 50,
                },
            ],
        };
        let (s, r) = curve.equal_error_rate().expect("curves cross");
        assert!(s > 0.5 && s < 1.0, "crossing between the last two samples, got {s}");
        assert!(r > 0.1 && r < 0.5);
    }

    #[test]
    fn no_crossing_yields_none() {
        let curve = ErrorCurve {
            product: "synthetic".into(),
            points: vec![
                SweepPoint {
                    sensitivity: 0.0,
                    false_positive_ratio: 0.0,
                    false_negative_ratio: 0.5,
                    alerts: 0,
                },
                SweepPoint {
                    sensitivity: 1.0,
                    false_positive_ratio: 0.1,
                    false_negative_ratio: 0.2,
                    alerts: 5,
                },
            ],
        };
        assert!(curve.equal_error_rate().is_none());
    }

    fn touching(points: &[(f64, f64, f64)]) -> ErrorCurve {
        ErrorCurve {
            product: "synthetic".into(),
            points: points
                .iter()
                .map(|&(sensitivity, fp, fn_)| SweepPoint {
                    sensitivity,
                    false_positive_ratio: fp,
                    false_negative_ratio: fn_,
                    alerts: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn eer_when_curves_touch_at_the_first_point() {
        let curve = touching(&[(0.0, 0.2, 0.2), (1.0, 0.5, 0.1)]);
        assert_eq!(curve.equal_error_rate(), Some((0.0, 0.2)));
    }

    #[test]
    fn eer_when_curves_touch_at_the_last_point() {
        // No sign change anywhere: fp - fn goes -0.4, -0.2, 0. Only the
        // exact touch at the end yields the EER.
        let curve = touching(&[(0.0, 0.0, 0.4), (0.5, 0.1, 0.3), (1.0, 0.25, 0.25)]);
        assert_eq!(curve.equal_error_rate(), Some((1.0, 0.25)));
        // A near-miss at the end has no crossing and no later segment.
        let near = touching(&[(0.0, 0.0, 0.4), (1.0, 0.25, 0.25 + 1e-12)]);
        assert_eq!(near.equal_error_rate(), None);
    }

    #[test]
    fn fp_budget_operating_point() {
        let curve = ErrorCurve {
            product: "synthetic".into(),
            points: vec![
                SweepPoint {
                    sensitivity: 0.0,
                    false_positive_ratio: 0.0,
                    false_negative_ratio: 0.5,
                    alerts: 0,
                },
                SweepPoint {
                    sensitivity: 0.5,
                    false_positive_ratio: 0.05,
                    false_negative_ratio: 0.2,
                    alerts: 9,
                },
                SweepPoint {
                    sensitivity: 1.0,
                    false_positive_ratio: 0.4,
                    false_negative_ratio: 0.05,
                    alerts: 80,
                },
            ],
        };
        let p = curve.min_fn_within_fp_budget(0.1).unwrap();
        assert_eq!(p.sensitivity, 0.5);
        let via_plan =
            curve.operating_point(&SweepPlan { fp_budget: 0.1, ..SweepPlan::default() }).unwrap();
        assert_eq!(via_plan.sensitivity, p.sensitivity);
        // With a generous budget, the minimum-FN point wins.
        let p = curve.min_fn_within_fp_budget(1.0).unwrap();
        assert_eq!(p.sensitivity, 1.0);
        // With a zero budget only the first point qualifies.
        let p = curve.min_fn_within_fp_budget(0.0).unwrap();
        assert_eq!(p.sensitivity, 0.0);
    }
}
