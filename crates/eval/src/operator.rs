//! The human dimension: an operator-attention model (paper §4 future
//! work: "we would like to expand the scorecard metrics to capture the
//! human dimension of IDS as well").
//!
//! The paper's monitoring section already states the mechanism: "Frequent
//! alerts on trivial or normal events result in a high false-positive rate
//! (Type I error) and lead to the IDS being ignored by the operators."
//! This module makes that concrete: an operator has a finite triage budget
//! (alerts per hour). When the alert stream exceeds it, triage is rationed
//! by severity — highest first — and untriaged alerts are *ignored*. An
//! attack whose every alert was ignored is effectively undetected, however
//! good the sensor was.
//!
//! The resulting **effective detection rate** is not monotone in
//! sensitivity: past the operator's saturation point, extra sensitivity
//! adds mostly low-severity noise that crowds out real alerts. That
//! maximum is the *human-constrained* operating point, which can sit well
//! below the machine-optimal one found by the Figure 4 sweep.

use crate::confusion::{ConfusionCounts, StreamLedger};
use idse_ids::alert::Alert;
use idse_ids::pipeline::PipelineOutcome;
use idse_ids::Severity;
use serde::Serialize;

/// An operator's triage capacity.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OperatorModel {
    /// Alerts the operator can seriously investigate per hour.
    pub triage_per_hour: f64,
    /// Alerts below this severity are dropped first under pressure
    /// (tier-skipping: a flooded operator filters the console view).
    pub floor_under_pressure: Severity,
}

impl OperatorModel {
    /// A single watch-floor operator, 2002 tooling: roughly one serious
    /// investigation every 90 seconds, sustained.
    pub fn single_watchstander() -> Self {
        Self { triage_per_hour: 40.0, floor_under_pressure: Severity::Warning }
    }

    /// A staffed security operations floor.
    pub fn staffed_floor() -> Self {
        Self { triage_per_hour: 200.0, floor_under_pressure: Severity::Info }
    }

    /// Which alerts actually get triaged over a window of `hours`.
    ///
    /// Severity tiers are triaged top-down; within a tier, earliest first
    /// (the console sorts by severity, then time). Returns indices into
    /// `alerts`.
    pub fn triaged_indices(&self, alerts: &[Alert], hours: f64) -> Vec<usize> {
        let budget = (self.triage_per_hour * hours).floor() as usize;
        if alerts.len() <= budget {
            return (0..alerts.len()).collect();
        }
        let mut order: Vec<usize> = (0..alerts.len()).collect();
        // Highest severity first, then earliest.
        order.sort_by(|&a, &b| {
            alerts[b]
                .severity
                .cmp(&alerts[a].severity)
                .then(alerts[a].raised_at.cmp(&alerts[b].raised_at))
        });
        let mut chosen: Vec<usize> = order
            .into_iter()
            .filter(|&i| alerts[i].severity >= self.floor_under_pressure)
            .take(budget)
            .collect();
        chosen.sort_unstable();
        chosen
    }

    /// Confusion counts as the *operator* experiences them: only triaged
    /// alerts count as detections.
    pub fn effective_confusion(
        &self,
        ledger: &StreamLedger,
        outcome: &PipelineOutcome,
        hours: f64,
    ) -> ConfusionCounts {
        let (alerts, truths): (Vec<Alert>, Vec<_>) = self
            .triaged_indices(&outcome.alerts, hours)
            .into_iter()
            .map(|i| (outcome.alerts[i].clone(), outcome.alert_truths[i]))
            .unzip();
        ledger.score_alerts(&alerts, &truths)
    }
}

/// One row of the fatigue experiment: machine vs operator-effective
/// detection at a sensitivity setting.
#[derive(Debug, Clone, Serialize)]
pub struct FatigueRow {
    /// Sensitivity setting.
    pub sensitivity: f64,
    /// Alerts raised by the IDS.
    pub alerts: usize,
    /// Alerts the operator triaged.
    pub triaged: usize,
    /// Machine detection rate (every alert counted).
    pub machine_detection: f64,
    /// Operator-effective detection rate (triaged alerts only).
    pub effective_detection: f64,
}

/// Sweep a product and compare machine vs operator-effective detection.
///
/// `window_hours` is the wall-clock duration the test trace *represents* —
/// canned feeds are time-compressed samples, so the caller states how much
/// watch time the sample stands for (typically 1.0: one watch hour).
pub fn fatigue_sweep(
    product: &idse_ids::products::IdsProduct,
    feed: &crate::feeds::TestFeed,
    operator: OperatorModel,
    window_hours: f64,
    steps: usize,
) -> Vec<FatigueRow> {
    use idse_ids::pipeline::RunConfig;
    let ledger = StreamLedger::of(&feed.test);
    let hours = window_hours;
    let trained = feed.trained_runner(product);
    let mut rows = Vec::with_capacity(steps);
    for k in 0..steps {
        let s = k as f64 / (steps - 1).max(1) as f64;
        let config =
            RunConfig { sensitivity: idse_ids::Sensitivity::new(s), ..trained.config().clone() };
        let out = trained.reconfigured(config).run(&feed.test);
        let machine = ledger.score_alerts(&out.alerts, &out.alert_truths);
        let effective = operator.effective_confusion(&ledger, &out, hours);
        rows.push(FatigueRow {
            sensitivity: s,
            alerts: out.alerts.len(),
            triaged: operator.triaged_indices(&out.alerts, hours).len(),
            machine_detection: machine.detection_rate(),
            effective_detection: effective.detection_rate(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_ids::alert::DetectionSource;
    use idse_net::packet::IpProtocol;
    use idse_net::trace::AttackClass;
    use idse_net::FlowKey;
    use idse_sim::SimTime;
    use std::net::Ipv4Addr;

    fn alert(trigger: usize, severity: Severity, ms: u64) -> Alert {
        Alert {
            raised_at: SimTime::from_millis(ms),
            observed_at: SimTime::from_millis(ms),
            trigger,
            flow: FlowKey {
                protocol: IpProtocol::Tcp,
                src: Ipv4Addr::new(1, 1, 1, 1),
                src_port: 1,
                dst: Ipv4Addr::new(2, 2, 2, 2),
                dst_port: 2,
            },
            class_guess: AttackClass::PortScan,
            severity,
            source: DetectionSource::Signature,
            sensor: 0,
            detector: "t".into(),
        }
    }

    #[test]
    fn under_budget_everything_is_triaged() {
        let op = OperatorModel { triage_per_hour: 100.0, floor_under_pressure: Severity::Info };
        let alerts: Vec<Alert> = (0..10).map(|i| alert(i, Severity::Info, i as u64)).collect();
        assert_eq!(op.triaged_indices(&alerts, 1.0).len(), 10);
    }

    #[test]
    fn over_budget_triage_prefers_severity() {
        let op = OperatorModel { triage_per_hour: 2.0, floor_under_pressure: Severity::Info };
        let alerts = vec![
            alert(0, Severity::Info, 0),
            alert(1, Severity::Critical, 10),
            alert(2, Severity::Info, 20),
            alert(3, Severity::High, 30),
        ];
        let kept = op.triaged_indices(&alerts, 1.0);
        assert_eq!(kept, vec![1, 3], "critical and high outrank the infos");
    }

    #[test]
    fn pressure_floor_drops_low_tiers_entirely() {
        let op = OperatorModel { triage_per_hour: 3.0, floor_under_pressure: Severity::Warning };
        let alerts = vec![
            alert(0, Severity::Info, 0),
            alert(1, Severity::Info, 5),
            alert(2, Severity::Warning, 10),
            alert(3, Severity::Info, 20),
            alert(4, Severity::Info, 30),
        ];
        let kept = op.triaged_indices(&alerts, 1.0);
        assert_eq!(kept, vec![2], "under pressure, infos never reach the operator");
    }

    #[test]
    fn ties_break_by_time_within_a_tier() {
        let op = OperatorModel { triage_per_hour: 2.0, floor_under_pressure: Severity::Info };
        let alerts = vec![
            alert(0, Severity::High, 30),
            alert(1, Severity::High, 10),
            alert(2, Severity::High, 20),
        ];
        let kept = op.triaged_indices(&alerts, 1.0);
        assert_eq!(kept, vec![1, 2], "earliest alerts within the tier win");
    }
}
