//! Property-based tests for the evaluation algebra: the confusion ledger
//! partitions transactions and agrees exactly with an index-free
//! reference, ratios stay in range, and scoring rubrics are monotone.

#![allow(clippy::float_cmp, reason = "tests assert bit-exact determinism")]

use idse_eval::measure;
use idse_eval::{ConfusionCounts, StreamLedger};
use idse_ids::alert::{Alert, DetectionSource};
use idse_ids::Severity;
use idse_net::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use idse_net::trace::{AttackClass, GroundTruth, Trace};
use idse_net::FlowKey;
use idse_sim::SimTime;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

fn arb_trace() -> impl Strategy<Value = Trace> {
    // A trace of n records; each either benign (flow by src port mod k,
    // sent in either direction) or an attack packet of instance id 1..=4,
    // whose class follows from the id.
    prop::collection::vec((any::<bool>(), 0u16..8, 1u32..5, any::<bool>()), 1..120).prop_map(
        |specs| {
            let mut t = Trace::new();
            for (i, (is_attack, flow, id, reply)) in specs.into_iter().enumerate() {
                let mut src = (Ipv4Addr::new(1, 1, 0, flow as u8 + 1), 1000 + flow);
                let mut dst = (Ipv4Addr::new(2, 2, 2, 2), 80);
                if reply {
                    std::mem::swap(&mut src, &mut dst);
                }
                let p = Packet::tcp(
                    Ipv4Header::simple(src.0, dst.0),
                    TcpHeader {
                        src_port: src.1,
                        dst_port: dst.1,
                        seq: 0,
                        ack: 0,
                        flags: TcpFlags::SYN,
                        window: 0,
                    },
                    Vec::new(),
                );
                let at = SimTime::from_millis(i as u64);
                if is_attack {
                    let class = AttackClass::ALL[id as usize % AttackClass::ALL.len()];
                    t.push_attack(at, p, GroundTruth { attack_id: id, class });
                } else {
                    t.push_benign(at, p);
                }
            }
            t
        },
    )
}

/// Alerts on the given records, with the `alert_truths` the pipeline
/// hands back alongside them.
fn alerts_on(trace: &Trace, triggers: &[usize]) -> (Vec<Alert>, Vec<Option<GroundTruth>>) {
    triggers
        .iter()
        .map(|&trigger| {
            let rec = &trace.records()[trigger];
            let alert = Alert {
                raised_at: SimTime::from_secs(1),
                observed_at: SimTime::from_secs(1),
                trigger,
                flow: FlowKey::of(&rec.packet),
                class_guess: AttackClass::PortScan,
                severity: Severity::Warning,
                source: DetectionSource::Signature,
                sensor: 0,
                detector: "prop".into(),
            };
            (alert, rec.truth)
        })
        .unzip()
}

fn score(ledger: &StreamLedger, trace: &Trace, triggers: &[usize]) -> ConfusionCounts {
    let (alerts, truths) = alerts_on(trace, triggers);
    ledger.score_alerts(&alerts, &truths)
}

fn triggers(trace: &Trace, picks: &[prop::sample::Index]) -> Vec<usize> {
    picks.iter().map(|ix| ix.index(trace.len())).collect()
}

/// The Figure 3 quantities computed exactly and without any index: the
/// benign universe is a set of canonical flow keys (no hashing), the
/// attack universe a map of instance ids, and each alert is attributed
/// from its trigger record's own packet and label.
fn oracle(trace: &Trace, triggers: &[usize]) -> ConfusionCounts {
    let mut benign: BTreeSet<FlowKey> = BTreeSet::new();
    let mut attacks: BTreeMap<u32, AttackClass> = BTreeMap::new();
    for rec in trace.records() {
        match rec.truth {
            Some(t) => {
                attacks.insert(t.attack_id, t.class);
            }
            None => {
                benign.insert(FlowKey::of(&rec.packet).canonical());
            }
        }
    }
    let mut detected: BTreeSet<u32> = BTreeSet::new();
    let mut flagged: BTreeSet<FlowKey> = BTreeSet::new();
    for &i in triggers {
        let rec = &trace.records()[i];
        match rec.truth {
            Some(t) => {
                detected.insert(t.attack_id);
            }
            None => {
                flagged.insert(FlowKey::of(&rec.packet).canonical());
            }
        }
    }
    let mut per_class: BTreeMap<AttackClass, (u32, u32)> = BTreeMap::new();
    for (id, class) in &attacks {
        let e = per_class.entry(*class).or_insert((0, 0));
        e.1 += 1;
        e.0 += u32::from(detected.contains(id));
    }
    ConfusionCounts {
        transactions: benign.len() + attacks.len(),
        actual_attacks: attacks.len(),
        detected_attacks: detected.len(),
        false_positives: flagged.len(),
        missed_attacks: attacks
            .iter()
            .filter(|(id, _)| !detected.contains(id))
            .map(|(&id, &class)| (id, class))
            .collect(),
        per_class,
        alert_count: triggers.len(),
    }
}

proptest! {
    /// The ledger agrees exactly with the index-free oracle on every
    /// Figure 3 quantity, however the trace was chunked into it.
    #[test]
    fn ledger_matches_the_exact_oracle(
        trace in arb_trace(),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        chunk in 1usize..50,
    ) {
        let triggers = triggers(&trace, &picks);
        let reference = oracle(&trace, &triggers);
        let mut streamed = StreamLedger::new();
        for c in trace.records().chunks(chunk) {
            streamed.observe_chunk(c);
        }
        prop_assert_eq!(score(&StreamLedger::of(&trace), &trace, &triggers), reference);
        prop_assert_eq!(score(&streamed, &trace, &triggers), reference);
    }

    /// Shard ledgers merged with one compaction score exactly as when
    /// folded one `merge` at a time, however the records were split.
    #[test]
    fn ledgers_merged_once_score_like_pairwise_merges(
        trace in arb_trace(),
        shards in 1usize..6,
        shard_of in prop::collection::vec(0usize..6, 120),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
    ) {
        let mut parts: Vec<StreamLedger> = (0..shards).map(|_| StreamLedger::new()).collect();
        for (rec, &s) in trace.records().iter().zip(&shard_of) {
            parts[s % shards].observe(rec);
        }
        let mut pairwise = StreamLedger::new();
        for part in parts.clone() {
            pairwise.merge(part);
        }
        let once = StreamLedger::merged(parts);
        let triggers = triggers(&trace, &picks);
        prop_assert_eq!(score(&once, &trace, &triggers), score(&pairwise, &trace, &triggers));
        prop_assert_eq!(once.records(), pairwise.records());
        prop_assert_eq!(once.benign_count(), pairwise.benign_count());
    }

    /// Ratios are bounded and consistent for any trace and alert subset.
    #[test]
    fn confusion_ratios_are_bounded(trace in arb_trace(), picks in prop::collection::vec(any::<prop::sample::Index>(), 0..40)) {
        let ledger = StreamLedger::of(&trace);
        let c = score(&ledger, &trace, &triggers(&trace, &picks));
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
        let ledger = StreamLedger::of(&trace);
        let none = score(&ledger, &trace, &[]);
        prop_assert_eq!(none.detected_attacks, 0);
        prop_assert_eq!(none.false_positives, 0);
        let all: Vec<usize> = (0..trace.len()).collect();
        let full = score(&ledger, &trace, &all);
        prop_assert_eq!(full.detected_attacks, full.actual_attacks);
        prop_assert_eq!(full.false_positives, ledger.benign_count());
        prop_assert_eq!(full.false_negative_ratio(), 0.0);
    }

    /// More alerts never decrease detections (monotonicity of D).
    #[test]
    fn detections_are_monotone_in_alerts(trace in arb_trace(), picks in prop::collection::vec(any::<prop::sample::Index>(), 1..40)) {
        let ledger = StreamLedger::of(&trace);
        let triggers = triggers(&trace, &picks);
        let some = score(&ledger, &trace, &triggers[..triggers.len() / 2]);
        let more = score(&ledger, &trace, &triggers);
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
