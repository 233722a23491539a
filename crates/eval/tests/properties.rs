//! Property-based tests for the evaluation algebra: the confusion ledger
//! partitions transactions, ratios stay in range, and scoring rubrics are
//! monotone.

#![allow(clippy::float_cmp, reason = "tests assert bit-exact determinism")]

use idse_eval::confusion::TransactionLedger;
use idse_eval::measure;
use idse_ids::alert::{Alert, DetectionSource};
use idse_ids::Severity;
use idse_net::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use idse_net::trace::{AttackClass, GroundTruth, Trace};
use idse_net::FlowKey;
use idse_sim::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_trace() -> impl Strategy<Value = Trace> {
    // A trace of n records; each either benign (flow by src port mod k) or
    // an attack packet of instance id 1..=4.
    prop::collection::vec((any::<bool>(), 0u16..8, 1u32..5), 1..120).prop_map(|specs| {
        let mut t = Trace::new();
        for (i, (is_attack, flow, id)) in specs.into_iter().enumerate() {
            let p = Packet::tcp(
                Ipv4Header::simple(
                    Ipv4Addr::new(1, 1, 0, flow as u8 + 1),
                    Ipv4Addr::new(2, 2, 2, 2),
                ),
                TcpHeader {
                    src_port: 1000 + flow,
                    dst_port: 80,
                    seq: 0,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: 0,
                },
                Vec::new(),
            );
            let at = SimTime::from_millis(i as u64);
            if is_attack {
                t.push_attack(at, p, GroundTruth { attack_id: id, class: AttackClass::PortScan });
            } else {
                t.push_benign(at, p);
            }
        }
        t
    })
}

fn alert_on(trace: &Trace, trigger: usize) -> Alert {
    Alert {
        raised_at: SimTime::from_secs(1),
        observed_at: SimTime::from_secs(1),
        trigger,
        flow: FlowKey::of(&trace.records()[trigger].packet),
        class_guess: AttackClass::PortScan,
        severity: Severity::Warning,
        source: DetectionSource::Signature,
        sensor: 0,
        detector: "prop".into(),
    }
}

proptest! {
    /// Ratios are bounded and consistent for any trace and alert subset.
    #[test]
    fn confusion_ratios_are_bounded(trace in arb_trace(), picks in prop::collection::vec(any::<prop::sample::Index>(), 0..40)) {
        let ledger = TransactionLedger::of(&trace);
        let alerts: Vec<Alert> = picks
            .iter()
            .map(|ix| alert_on(&trace, ix.index(trace.len())))
            .collect();
        let c = ledger.score(&alerts);
        prop_assert!(c.false_positive_ratio() >= 0.0 && c.false_positive_ratio() <= 1.0);
        prop_assert!(c.false_negative_ratio() >= 0.0 && c.false_negative_ratio() <= 1.0);
        prop_assert!(c.detected_attacks + c.missed_attacks.len() == c.actual_attacks);
        prop_assert!(c.detected_attacks <= c.actual_attacks);
        prop_assert!(c.false_positives <= ledger.benign_count());
        prop_assert!(ledger.total() == ledger.benign_count() + ledger.attack_count());
    }

    /// Alerting on every packet detects every attack and flags every
    /// benign flow; alerting on nothing detects nothing.
    #[test]
    fn confusion_extremes(trace in arb_trace()) {
        let ledger = TransactionLedger::of(&trace);
        let none = ledger.score(&[]);
        prop_assert_eq!(none.detected_attacks, 0);
        prop_assert_eq!(none.false_positives, 0);
        let all: Vec<Alert> = (0..trace.len()).map(|i| alert_on(&trace, i)).collect();
        let full = ledger.score(&all);
        prop_assert_eq!(full.detected_attacks, full.actual_attacks);
        prop_assert_eq!(full.false_positives, ledger.benign_count());
        prop_assert_eq!(full.false_negative_ratio(), 0.0);
    }

    /// More alerts never decrease detections (monotonicity of D).
    #[test]
    fn detections_are_monotone_in_alerts(trace in arb_trace(), picks in prop::collection::vec(any::<prop::sample::Index>(), 1..40)) {
        let ledger = TransactionLedger::of(&trace);
        let alerts: Vec<Alert> = picks
            .iter()
            .map(|ix| alert_on(&trace, ix.index(trace.len())))
            .collect();
        let some = ledger.score(&alerts[..alerts.len() / 2]);
        let more = ledger.score(&alerts);
        prop_assert!(more.detected_attacks >= some.detected_attacks);
        prop_assert!(more.false_positives >= some.false_positives);
    }

    /// Measurement rubrics are monotone in their argument.
    #[test]
    fn rubrics_are_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            measure::score_false_positive_ratio(lo) >= measure::score_false_positive_ratio(hi),
            "more FP must not score higher"
        );
        prop_assert!(
            measure::score_detection_rate(lo) <= measure::score_detection_rate(hi),
            "more detection must not score lower"
        );
        prop_assert!(
            measure::score_host_impact(lo) >= measure::score_host_impact(hi),
            "more host impact must not score higher"
        );
    }
}
