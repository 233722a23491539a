//! Timestamped, ground-truth-labeled traffic traces.
//!
//! The paper's §4 describes the core measurement trick: "we replayed canned
//! data with known attack content on the test network" — observed
//! false-negative ratios are unmeasurable without ground truth. A [`Trace`]
//! is exactly that artifact: a time-ordered packet sequence where every
//! record may carry an attack label. Traces serialize (serde) so canned
//! datasets are portable and replayable, and they merge so background
//! traffic and attack scenarios compose into one test feed.

use crate::packet::Packet;
use idse_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Attack classes the testbed generates. One "attack" may span many
/// packets; the paper itself notes that "even the definition of an attack
/// is not always clear" — we adopt the scenario-instance view: every packet
/// emitted by one scenario instance carries that instance's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackClass {
    /// TCP SYN scan across ports on one host.
    PortScan,
    /// Scan of one port across many hosts.
    HostSweep,
    /// SYN flood denial of service.
    SynFlood,
    /// Repeated failed authentication attempts.
    BruteForceLogin,
    /// Known-exploit payload (signature-matchable content).
    PayloadExploit,
    /// Signature split/hidden via IP fragmentation overlap.
    FragmentationEvasion,
    /// Insider masquerade: stolen credentials used from the wrong host.
    Masquerade,
    /// Data exfiltration tunneled over a benign-looking protocol.
    Tunneling,
    /// Lateral movement exploiting inter-host trust (looks like normal
    /// cluster traffic — the paper's hardest case for distributed systems).
    TrustExploit,
}

impl AttackClass {
    /// All classes, for exhaustive iteration in evaluations.
    pub const ALL: [AttackClass; 9] = [
        AttackClass::PortScan,
        AttackClass::HostSweep,
        AttackClass::SynFlood,
        AttackClass::BruteForceLogin,
        AttackClass::PayloadExploit,
        AttackClass::FragmentationEvasion,
        AttackClass::Masquerade,
        AttackClass::Tunneling,
        AttackClass::TrustExploit,
    ];

    /// Short stable name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::PortScan => "port-scan",
            AttackClass::HostSweep => "host-sweep",
            AttackClass::SynFlood => "syn-flood",
            AttackClass::BruteForceLogin => "brute-force-login",
            AttackClass::PayloadExploit => "payload-exploit",
            AttackClass::FragmentationEvasion => "frag-evasion",
            AttackClass::Masquerade => "masquerade",
            AttackClass::Tunneling => "tunneling",
            AttackClass::TrustExploit => "trust-exploit",
        }
    }
}

/// Ground-truth label on a packet: which attack instance produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Unique id of the attack instance within the trace.
    pub attack_id: u32,
    /// The attack class.
    pub class: AttackClass,
}

/// One trace record: a packet, when it was injected, and its label.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Injection time.
    pub at: SimTime,
    /// The packet.
    pub packet: Packet,
    /// `Some` if this packet belongs to an attack; `None` for benign
    /// background traffic.
    pub truth: Option<GroundTruth>,
}

/// A time-ordered packet trace with ground truth.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
    /// Whether `records` is currently sorted by time.
    #[serde(skip)]
    sorted: bool,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self { records: Vec::new(), sorted: true }
    }

    /// Append a benign packet.
    pub fn push_benign(&mut self, at: SimTime, packet: Packet) {
        self.push(TraceRecord { at, packet, truth: None });
    }

    /// Append an attack packet.
    pub fn push_attack(&mut self, at: SimTime, packet: Packet, truth: GroundTruth) {
        self.push(TraceRecord { at, packet, truth: Some(truth) });
    }

    /// Append a record.
    pub fn push(&mut self, record: TraceRecord) {
        if let Some(last) = self.records.last() {
            if record.at < last.at {
                self.sorted = false;
            }
        }
        self.records.push(record);
    }

    /// Merge another trace into this one, preserving time order.
    pub fn merge(&mut self, other: Trace) {
        self.append(other);
        self.finish();
    }

    /// Append another trace's records without sorting; call
    /// [`Trace::finish`] after the last append. The stable sort then puts
    /// the records in exactly the order a [`Trace::merge`] of each appended
    /// trace in turn gives, with one sort instead of one per trace.
    pub fn append(&mut self, other: Trace) {
        self.records.extend(other.records);
        self.sorted = false;
    }

    /// Sort records by (time, then original position — stable).
    pub fn finish(&mut self) {
        if !self.sorted {
            self.records.sort_by_key(|r| r.at);
            self.sorted = true;
        }
    }

    /// The records, sorted by time. Panics in debug builds if `finish` was
    /// skipped after out-of-order pushes.
    pub fn records(&self) -> &[TraceRecord] {
        debug_assert!(self.sorted, "call Trace::finish() after out-of-order pushes");
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of attack packets.
    pub fn attack_packets(&self) -> usize {
        self.records.iter().filter(|r| r.truth.is_some()).count()
    }

    /// Distinct attack instances present.
    pub fn attack_instances(&self) -> Vec<GroundTruth> {
        let mut seen = std::collections::BTreeMap::new();
        for r in &self.records {
            if let Some(t) = r.truth {
                seen.entry(t.attack_id).or_insert(t);
            }
        }
        seen.into_values().collect()
    }

    /// Duration from first to last record.
    pub fn span(&self) -> idse_sim::SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.at.saturating_since(f.at),
            _ => idse_sim::SimDuration::ZERO,
        }
    }

    /// Total wire bytes in the trace.
    pub fn wire_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.packet.wire_len() as u64).sum()
    }

    /// Mean offered load in packets per second over the trace span.
    pub fn mean_pps(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.len() as f64 / span
        }
    }

    /// Serialize to JSON (the portable canned-data format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.records).expect("trace serialization cannot fail")
    }

    /// Deserialize from JSON produced by [`Trace::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let records: Vec<TraceRecord> = serde_json::from_str(s)?;
        let mut t = Trace { records, sorted: false };
        t.finish();
        Ok(t)
    }

    /// Concatenate `times` time-shifted copies of the trace back to back,
    /// producing a sustained load of the same character (used by the
    /// zero-loss and lethal-dose searches: a single compressed copy is a
    /// transient a stage's buffer can absorb; a *sustained average* cannot
    /// be). The collected [`Trace::tiles`].
    pub fn repeated(&self, times: u32) -> Trace {
        Trace { records: self.tiles(times).collect(), sorted: true }
    }

    /// The records of [`Trace::repeated`]`(times)`, in the same order,
    /// yielded one at a time without materializing the tiled trace.
    ///
    /// Copy `k` is the trace shifted by `k` periods of span plus one mean
    /// inter-arrival gap. The order is a stable sort of the copies
    /// appended back to back: by time, then copy, then position.
    pub fn tiles(&self, times: u32) -> Tiles<'_> {
        assert!(times >= 1, "need at least one copy");
        // Span plus one mean inter-arrival gap so copies do not pile up.
        let span = self.span().as_secs_f64();
        let gap = if self.len() > 1 { span / (self.len() - 1) as f64 } else { 0.0 };
        let period = idse_sim::SimDuration::from_secs_f64(span + gap);
        Tiles::new(self.records(), period.as_secs_f64(), times)
    }

    /// Iterate over records whose timestamps are scaled by `factor`
    /// (time-compression replay: the paper's throughput experiments replay
    /// the same canned data at increasing rates).
    pub fn time_scaled(&self, factor: f64) -> Trace {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut out = Trace::new();
        for r in &self.records {
            out.push(TraceRecord {
                at: SimTime::from_secs_f64(r.at.as_secs_f64() / factor),
                packet: r.packet.clone(),
                truth: r.truth,
            });
        }
        out.finish();
        out
    }
}

/// Iterator over a tiled trace; see [`Trace::tiles`].
///
/// Copies start in copy order and each is sorted, so a copy can only
/// overlap its predecessors when rounding of the shift puts its first
/// record before their last. The iterator merges the copies that have
/// started, usually one or two, and starts the next copy once its first
/// record is strictly earlier than every started copy's next record (on a
/// tie, the lower copy comes first).
#[derive(Debug)]
pub struct Tiles<'a> {
    records: &'a [TraceRecord],
    period_s: f64,
    copies: u32,
    /// The lowest copy not yet started, and its first record's time.
    next_copy: u32,
    next_start: Option<SimTime>,
    /// Started copies, in copy order: their shift and next record index.
    active: Vec<(idse_sim::SimDuration, usize)>,
    remaining: usize,
}

impl<'a> Tiles<'a> {
    /// Copies `0..copies` of the time-sorted `records`, copy `k` shifted
    /// by `period_s * k` seconds.
    fn new(records: &'a [TraceRecord], period_s: f64, copies: u32) -> Self {
        Tiles {
            records,
            period_s,
            copies,
            next_copy: 0,
            next_start: records.first().map(|r| r.at),
            active: Vec::new(),
            remaining: records.len() * copies as usize,
        }
    }

    fn shift(&self, copy: u32) -> idse_sim::SimDuration {
        idse_sim::SimDuration::from_secs_f64(self.period_s * copy as f64)
    }

    /// Start the next copy: its records join the merge.
    fn start_next_copy(&mut self) {
        self.active.push((self.shift(self.next_copy), 0));
        self.next_copy += 1;
        self.next_start =
            (self.next_copy < self.copies).then(|| self.records[0].at + self.shift(self.next_copy));
    }
}

impl Iterator for Tiles<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        // The first started copy whose next record is earliest.
        let mut head: Option<(usize, SimTime)> = None;
        for (i, &(shift, next)) in self.active.iter().enumerate() {
            let t = self.records[next].at + shift;
            if head.is_none_or(|(_, best)| t < best) {
                head = Some((i, t));
            }
        }
        if let Some(start) = self.next_start {
            if head.is_none_or(|(_, best)| start < best) {
                self.start_next_copy();
                head = Some((self.active.len() - 1, start));
            }
        }
        let (i, at) = head.expect("records remain, so some copy has one");
        let (_, index) = &mut self.active[i];
        let record = &self.records[*index];
        *index += 1;
        if *index == self.records.len() {
            self.active.remove(i);
        }
        self.remaining -= 1;
        Some(TraceRecord { at, packet: record.packet.clone(), truth: record.truth })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Tiles<'_> {}

// serde needs `sorted` restored on deserialize; from_json handles it, but a
// direct serde deserialize would default `sorted` to false and re-sort on
// first finish(), which is safe.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ipv4Header, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn pkt(n: u8) -> Packet {
        Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(10, 0, 0, n), Ipv4Addr::new(10, 0, 1, 1)),
            TcpHeader {
                src_port: 1000 + n as u16,
                dst_port: 80,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 0,
            },
            Vec::new(),
        )
    }

    #[test]
    fn ordered_pushes_stay_sorted() {
        let mut t = Trace::new();
        t.push_benign(SimTime::from_secs(1), pkt(1));
        t.push_benign(SimTime::from_secs(2), pkt(2));
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let mut bg = Trace::new();
        bg.push_benign(SimTime::from_secs(1), pkt(1));
        bg.push_benign(SimTime::from_secs(3), pkt(2));
        let mut atk = Trace::new();
        atk.push_attack(
            SimTime::from_secs(2),
            pkt(66),
            GroundTruth { attack_id: 1, class: AttackClass::PortScan },
        );
        bg.merge(atk);
        let times: Vec<u64> = bg.records().iter().map(|r| r.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(bg.attack_packets(), 1);
    }

    #[test]
    fn attack_instances_dedupe() {
        let mut t = Trace::new();
        let g = GroundTruth { attack_id: 7, class: AttackClass::SynFlood };
        for i in 0..5 {
            t.push_attack(SimTime::from_millis(i), pkt(i as u8), g);
        }
        assert_eq!(t.attack_packets(), 5);
        assert_eq!(t.attack_instances(), vec![g]);
    }

    #[test]
    fn json_round_trip() {
        let mut t = Trace::new();
        t.push_benign(SimTime::from_secs(1), pkt(1));
        t.push_attack(
            SimTime::from_secs(2),
            pkt(9),
            GroundTruth { attack_id: 3, class: AttackClass::Tunneling },
        );
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.attack_packets(), 1);
        assert_eq!(back.records()[1].truth.unwrap().class, AttackClass::Tunneling);
    }

    #[test]
    fn repeated_extends_span_preserving_rate() {
        let mut t = Trace::new();
        t.push_benign(SimTime::from_secs(0), pkt(1));
        t.push_benign(SimTime::from_secs(1), pkt(2));
        let r = t.repeated(3);
        assert_eq!(r.len(), 6);
        // Period = span (1s) + gap (1s) = 2s between copy starts.
        assert_eq!(r.records()[2].at, SimTime::from_secs(2));
        assert_eq!(r.records()[4].at, SimTime::from_secs(4));
        // len/span has a fencepost: 6 packets over 5 s. The steady-state
        // rate (1 packet/s of period) is preserved.
        assert!((r.mean_pps() - 1.2).abs() < 1e-9, "{}", r.mean_pps());
    }

    /// A trace of `offsets` (ns, sorted here); record `i` is identified by
    /// its source port, and every third record is an attack.
    fn trace_at(mut offsets: Vec<u64>) -> Trace {
        offsets.sort_unstable();
        let mut t = Trace::new();
        for (i, &ns) in offsets.iter().enumerate() {
            let mut p = pkt(0);
            if let crate::packet::Transport::Tcp(tcp) = &mut p.transport {
                tcp.src_port = i as u16;
            }
            let truth = (i % 3 == 0)
                .then_some(GroundTruth { attack_id: i as u32, class: AttackClass::PortScan });
            t.push(TraceRecord { at: SimTime::from_nanos(ns), packet: p, truth });
        }
        t
    }

    fn key(r: &TraceRecord) -> (u64, u16, Option<u32>) {
        let port = match r.packet.transport {
            crate::packet::Transport::Tcp(tcp) => tcp.src_port,
            _ => unreachable!("test traces are TCP"),
        };
        (r.at.as_nanos(), port, r.truth.map(|t| t.attack_id))
    }

    /// The oracle: append `copies` shifted copies, then stable-sort by time.
    fn appended_and_sorted(t: &Trace, period_s: f64, copies: u32) -> Vec<(u64, u16, Option<u32>)> {
        let mut out = Vec::new();
        for k in 0..copies {
            let shift = idse_sim::SimDuration::from_secs_f64(period_s * k as f64);
            out.extend(t.records().iter().map(|r| {
                let (_, port, truth) = key(r);
                ((r.at + shift).as_nanos(), port, truth)
            }));
        }
        out.sort_by_key(|&(at, ..)| at);
        out
    }

    /// Offsets whose spread is 0 (all equal), a few ns (sub-ns mean gap,
    /// so copies touch), µs, or seconds.
    fn arb_offsets() -> impl proptest::Strategy<Value = Vec<u64>> {
        use proptest::prelude::*;
        (0usize..4, prop::collection::vec(any::<u64>(), 1..40)).prop_map(|(spread, raw)| {
            let spread = [1, 20, 1_000_000, 10_000_000_000][spread];
            raw.into_iter().map(|x| x % spread).collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `tiles` over a time-scaled trace yields exactly the appended,
        /// stably sorted copies, and `repeated` collects the same records.
        #[test]
        fn tiles_match_appended_copies_stably_sorted(
            offsets in arb_offsets(),
            factor in 0.25f64..2048.0,
            copies in 1u32..12,
        ) {
            let scaled = trace_at(offsets).time_scaled(factor);
            let span = scaled.span().as_secs_f64();
            let gap = if scaled.len() > 1 { span / (scaled.len() - 1) as f64 } else { 0.0 };
            let period_s = idse_sim::SimDuration::from_secs_f64(span + gap).as_secs_f64();
            let expected = appended_and_sorted(&scaled, period_s, copies);
            let tiles = scaled.tiles(copies);
            proptest::prop_assert_eq!(tiles.len(), expected.len());
            let tiled: Vec<_> = tiles.map(|r| key(&r)).collect();
            proptest::prop_assert_eq!(&tiled, &expected);
            let repeated: Vec<_> = scaled.repeated(copies).records().iter().map(key).collect();
            proptest::prop_assert_eq!(&repeated, &expected);
        }

        /// Copies that overlap, as a shift rounded below the span would
        /// make them, interleave exactly as the stable sort puts them.
        #[test]
        fn tiles_merge_overlapping_copies(
            offsets in arb_offsets(),
            period_frac in 0.0f64..1.5,
            copies in 1u32..12,
        ) {
            let t = trace_at(offsets);
            let period_s = t.span().as_secs_f64() * period_frac;
            let expected = appended_and_sorted(&t, period_s, copies);
            let tiled: Vec<_> = Tiles::new(t.records(), period_s, copies).map(|r| key(&r)).collect();
            proptest::prop_assert_eq!(tiled, expected);
        }
    }

    #[test]
    fn time_scaling_compresses_span() {
        let mut t = Trace::new();
        t.push_benign(SimTime::from_secs(0), pkt(1));
        t.push_benign(SimTime::from_secs(10), pkt(2));
        let fast = t.time_scaled(2.0);
        assert_eq!(fast.span(), idse_sim::SimDuration::from_secs(5));
        assert!((fast.mean_pps() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn span_and_rates_on_empty() {
        let t = Trace::new();
        assert_eq!(t.span(), idse_sim::SimDuration::ZERO);
        assert_eq!(t.mean_pps(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn class_names_are_stable() {
        for c in AttackClass::ALL {
            assert!(!c.name().is_empty());
        }
        assert_eq!(AttackClass::TrustExploit.name(), "trust-exploit");
    }
}
