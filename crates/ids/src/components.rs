//! The five IDS subprocess components (paper Figure 1).
//!
//! Each component is a finite-capacity service station: work serializes at
//! a configured ops/second rate, a bounded virtual backlog sheds load when
//! exceeded, and sustained overload trips the component's *failure
//! behavior* — the thing the **Error Reporting and Recovery** metric
//! grades and the **Network Lethal Dose** search hunts for.

use crate::alert::Alert;
use crate::keyed::HostSet;
use idse_sim::stats::StageCounters;
use idse_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// How the IDS taps the network (paper §2.2: "Load balancers may be
/// in-line … or all traffic may be mirrored to it").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TapMode {
    /// The IDS sits in the traffic path: its processing delays delivery
    /// (induced latency), and its failure can block traffic.
    Inline,
    /// Traffic is port-mirrored: zero induced latency, but mirror-drop
    /// under overload means missed packets.
    Mirrored,
}

/// What a component does when overload kills it (paper's Error Reporting
/// and Recovery anchors: hang / cold reboot / service restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureBehavior {
    /// Low score: hangs indefinitely, no notification.
    Hang,
    /// Average score: the whole machine cold-reboots; down for the given
    /// period, failure logged but reported late.
    ColdReboot {
        /// Reboot time.
        downtime: SimDuration,
    },
    /// High score: the service restarts; down briefly and the failure is
    /// reported in near real time through the alert channel.
    RestartService {
        /// Restart time.
        downtime: SimDuration,
    },
}

impl FailureBehavior {
    /// Whether recovery ever happens.
    pub fn recovers(self) -> bool {
        !matches!(self, FailureBehavior::Hang)
    }

    /// Whether the failure is reported through the alert channel.
    pub fn reports_failure(self) -> bool {
        matches!(self, FailureBehavior::RestartService { .. })
    }

    /// Downtime duration (infinite for hang).
    pub fn downtime(self) -> SimDuration {
        match self {
            FailureBehavior::Hang => SimDuration::MAX,
            FailureBehavior::ColdReboot { downtime }
            | FailureBehavior::RestartService { downtime } => downtime,
        }
    }
}

/// Outcome of offering work to a station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Work completes at the given time.
    Done(SimTime),
    /// Backlog full — work shed.
    Dropped,
    /// The component is failed/down; work silently lost.
    Failed,
}

/// A finite-capacity FIFO service station with overload-triggered failure.
#[derive(Debug, Clone)]
pub struct ServiceStation {
    /// Name for diagnostics.
    pub name: &'static str,
    capacity_ops: f64,
    max_backlog: SimDuration,
    busy_until: SimTime,
    counters: StageCounters,
    /// Offered/dropped within the current one-second bucket.
    bucket: (u64, u32, u32),
    /// Fraction of a second's offered work that, if shed, kills the
    /// component (the lethal-dose trigger).
    lethal_drop_ratio: f64,
    behavior: FailureBehavior,
    down_until: Option<SimTime>,
    failures: u32,
    ops_done: f64,
}

impl ServiceStation {
    /// A station retiring `capacity_ops` per second, shedding work beyond
    /// `max_backlog`, failing per `behavior` once the shed fraction within
    /// one second exceeds `lethal_drop_ratio` (with at least
    /// [`Self::LETHAL_MIN_OFFERED`] offers in that second).
    pub fn new(
        name: &'static str,
        capacity_ops: f64,
        max_backlog: SimDuration,
        lethal_drop_ratio: f64,
        behavior: FailureBehavior,
    ) -> Self {
        assert!(capacity_ops > 0.0, "station capacity must be positive");
        assert!(
            lethal_drop_ratio > 0.0 && lethal_drop_ratio <= 1.0,
            "lethal drop ratio must be in (0, 1]"
        );
        Self {
            name,
            capacity_ops,
            max_backlog,
            busy_until: SimTime::ZERO,
            counters: StageCounters::default(),
            bucket: (0, 0, 0),
            lethal_drop_ratio,
            behavior,
            down_until: None,
            failures: 0,
            ops_done: 0.0,
        }
    }

    /// Minimum offers within a second before the lethal trigger can arm
    /// (keeps a lone drop on an idle station from counting as a dose).
    pub const LETHAL_MIN_OFFERED: u32 = 1000;

    /// Offer `ops` of work at `now`.
    pub fn serve(&mut self, now: SimTime, ops: f64) -> ServeOutcome {
        self.counters.offered += 1;
        if let Some(until) = self.down_until {
            if now < until {
                self.counters.dropped += 1;
                return ServeOutcome::Failed;
            }
            // Recovered: backlog was lost in the failure.
            self.down_until = None;
            self.busy_until = now;
            self.bucket = (0, 0, 0);
        }
        // Roll the one-second accounting bucket.
        let second = now.as_nanos() / 1_000_000_000;
        if self.bucket.0 != second {
            self.bucket = (second, 0, 0);
        }
        self.bucket.1 += 1;
        let backlog = self.busy_until.saturating_since(now);
        if backlog > self.max_backlog {
            self.counters.dropped += 1;
            self.bucket.2 += 1;
            if self.bucket.1 >= Self::LETHAL_MIN_OFFERED
                && f64::from(self.bucket.2) / f64::from(self.bucket.1) > self.lethal_drop_ratio
            {
                self.fail(now);
            }
            return ServeOutcome::Dropped;
        }
        let start = self.busy_until.max(now);
        let done = start + SimDuration::from_secs_f64(ops / self.capacity_ops);
        self.busy_until = done;
        self.counters.processed += 1;
        self.ops_done += ops;
        ServeOutcome::Done(done)
    }

    fn fail(&mut self, now: SimTime) {
        self.failures += 1;
        self.down_until = Some(match self.behavior {
            FailureBehavior::Hang => SimTime::MAX,
            b => now + b.downtime(),
        });
    }

    /// Whether the station is currently down.
    pub fn is_down(&self, now: SimTime) -> bool {
        self.down_until.is_some_and(|t| now < t)
    }

    /// Times the station has failed.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Configured failure behavior.
    pub fn behavior(&self) -> FailureBehavior {
        self.behavior
    }

    /// Work counters.
    pub fn counters(&self) -> StageCounters {
        self.counters
    }

    /// Mean utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (self.ops_done / self.capacity_ops / span).min(1.0)
    }

    /// Configured capacity in ops/second.
    pub fn capacity_ops(&self) -> f64 {
        self.capacity_ops
    }
}

/// Load-balancing strategy (paper §2.2 and the Scalable Load-balancing
/// metric's anchors: none / static placement / intelligent dynamic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalanceStrategy {
    /// No balancing: everything goes to sensor 0.
    None,
    /// Static: sensors own address partitions (placement by subnet).
    StaticPartition,
    /// Session-aware hashing: both directions of a connection reach the
    /// same sensor, load spreads across all sensors.
    SessionHash,
    /// Naive per-packet round robin — spreads load but breaks session
    /// affinity (the ablation case for the session-awareness requirement).
    RoundRobin,
}

/// The load-balancing subprocess.
#[derive(Debug)]
pub struct LoadBalancer {
    /// Service station (in-line LBs add latency through it).
    pub station: ServiceStation,
    strategy: BalanceStrategy,
    sensors: usize,
    rr_next: usize,
}

impl LoadBalancer {
    /// A balancer over `sensors` downstream sensors.
    pub fn new(station: ServiceStation, strategy: BalanceStrategy, sensors: usize) -> Self {
        assert!(sensors > 0, "a balancer needs at least one sensor");
        Self { station, strategy, sensors, rr_next: 0 }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> BalanceStrategy {
        self.strategy
    }

    /// Pick the sensor for `packet`.
    pub fn route(&mut self, packet: &idse_net::Packet) -> usize {
        match self.strategy {
            BalanceStrategy::None => 0,
            BalanceStrategy::StaticPartition => {
                // Partition by destination address (placement by subnet).
                (u32::from(packet.ip.dst) as usize) % self.sensors
            }
            BalanceStrategy::SessionHash => {
                (idse_net::FlowKey::of(packet).session_hash() as usize) % self.sensors
            }
            BalanceStrategy::RoundRobin => {
                let s = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.sensors;
                s
            }
        }
    }
}

/// The monitoring subprocess: the operator-facing alert sink.
#[derive(Debug)]
pub struct Monitor {
    /// Alert-processing station.
    pub station: ServiceStation,
    alerts: Vec<Alert>,
    /// Extra delay between analysis verdict and operator visibility
    /// (console refresh, notification path).
    notification_delay: SimDuration,
}

impl Monitor {
    /// A monitor with the given processing station and notification delay.
    pub fn new(station: ServiceStation, notification_delay: SimDuration) -> Self {
        Self { station, alerts: Vec::new(), notification_delay }
    }

    /// Offer an alert for presentation at `now`; returns when the operator
    /// sees it (if the monitor keeps up).
    pub fn present(&mut self, now: SimTime, mut alert: Alert) -> Option<SimTime> {
        match self.station.serve(now, 200.0) {
            ServeOutcome::Done(t) => {
                let visible = t + self.notification_delay;
                alert.raised_at = visible;
                self.alerts.push(alert);
                Some(visible)
            }
            _ => None,
        }
    }

    /// Alerts the operator has seen.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Drain alerts (for the evaluation harness).
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }
}

/// Automated response capabilities of the management console (Table 3's
/// Firewall/Router/SNMP Interaction metrics).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ResponseCapabilities {
    /// Can push block entries to a firewall.
    pub firewall: bool,
    /// Can redirect traffic at a router (e.g. to a honeypot).
    pub router: bool,
    /// Can emit SNMP traps.
    pub snmp: bool,
}

/// The managing subprocess: configuration plus automated response.
#[derive(Debug)]
pub struct ManagementConsole {
    caps: ResponseCapabilities,
    /// Latency from alert visibility to filter installation.
    response_delay: SimDuration,
    /// Sources blocked at the perimeter, with install time.
    blocked: Vec<(Ipv4Addr, SimTime)>,
    blocked_set: HostSet,
    snmp_traps: u32,
}

impl ManagementConsole {
    /// A console with the given capabilities and response delay.
    pub fn new(caps: ResponseCapabilities, response_delay: SimDuration) -> Self {
        Self {
            caps,
            response_delay,
            blocked: Vec::new(),
            blocked_set: HostSet::default(),
            snmp_traps: 0,
        }
    }

    /// Capabilities.
    pub fn capabilities(&self) -> ResponseCapabilities {
        self.caps
    }

    /// Latency from alert visibility to filter installation.
    pub fn response_delay(&self) -> SimDuration {
        self.response_delay
    }

    /// React to a visible alert: block the offending source (if a firewall
    /// is attached) and emit an SNMP trap. Only High/Critical alerts
    /// trigger blocking — the policy maps threats to automated actions.
    pub fn react(&mut self, alert: &Alert) {
        if alert.severity >= crate::alert::Severity::High {
            if self.caps.snmp {
                self.snmp_traps += 1;
            }
            if self.caps.firewall {
                let src = alert.flow.src;
                if self.blocked_set.add_host(src) {
                    self.blocked.push((src, alert.raised_at + self.response_delay));
                }
            }
        }
    }

    /// Whether `src` is blocked as of `now`.
    pub fn is_blocked(&self, now: SimTime, src: Ipv4Addr) -> bool {
        self.blocked_set.has_host(src) && self.blocked.iter().any(|&(a, t)| a == src && now >= t)
    }

    /// All blocked sources with install times.
    pub fn blocked_sources(&self) -> &[(Ipv4Addr, SimTime)] {
        &self.blocked
    }

    /// SNMP traps emitted.
    pub fn snmp_traps(&self) -> u32 {
        self.snmp_traps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{DetectionSource, Severity};
    use idse_net::packet::{IpProtocol, Ipv4Header, TcpFlags, TcpHeader};
    use idse_net::{FlowKey, Packet};

    fn station(behavior: FailureBehavior) -> ServiceStation {
        ServiceStation::new("test", 1000.0, SimDuration::from_millis(10), 0.5, behavior)
    }

    #[test]
    fn station_serves_fifo() {
        let mut s = station(FailureBehavior::Hang);
        match s.serve(SimTime::ZERO, 100.0) {
            ServeOutcome::Done(t) => assert_eq!(t, SimTime::from_millis(100)),
            _ => panic!("must serve"),
        }
    }

    #[test]
    fn station_sheds_beyond_backlog() {
        let mut s =
            station(FailureBehavior::RestartService { downtime: SimDuration::from_secs(1) });
        // 100 ops = 100 ms service; backlog bound 10 ms.
        assert!(matches!(s.serve(SimTime::ZERO, 100.0), ServeOutcome::Done(_)));
        assert!(matches!(s.serve(SimTime::ZERO, 100.0), ServeOutcome::Dropped));
        assert_eq!(s.counters().dropped, 1);
    }

    #[test]
    fn sustained_overload_trips_failure_then_recovers() {
        let mut s =
            station(FailureBehavior::RestartService { downtime: SimDuration::from_secs(1) });
        s.serve(SimTime::ZERO, 10_000.0); // 10 s of work: station saturated
                                          // A lethal second: >1000 offers, nearly all shed.
        for i in 0..2500u64 {
            s.serve(SimTime::from_micros(i * 10), 10.0);
        }
        assert_eq!(s.failures(), 1);
        assert!(s.is_down(SimTime::from_millis(500)));
        // After downtime it serves again (backlog flushed).
        assert!(matches!(s.serve(SimTime::from_millis(1200), 10.0), ServeOutcome::Done(_)));
        assert!(!s.is_down(SimTime::from_millis(1200)));
    }

    #[test]
    fn hang_never_recovers() {
        let mut s = station(FailureBehavior::Hang);
        s.serve(SimTime::ZERO, 1e9);
        for i in 0..2500u64 {
            s.serve(SimTime::from_micros(i * 10), 10.0);
        }
        assert_eq!(s.failures(), 1);
        assert!(matches!(s.serve(SimTime::from_secs(3600), 10.0), ServeOutcome::Failed));
        assert!(!FailureBehavior::Hang.recovers());
        assert!(FailureBehavior::RestartService { downtime: SimDuration::ZERO }.reports_failure());
    }

    fn pkt(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16) -> Packet {
        Packet::tcp(
            Ipv4Header::simple(src, dst),
            TcpHeader {
                src_port: sport,
                dst_port: dport,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 0,
            },
            Vec::new(),
        )
    }

    #[test]
    fn session_hash_routes_both_directions_together() {
        let mut lb =
            LoadBalancer::new(station(FailureBehavior::Hang), BalanceStrategy::SessionHash, 4);
        let a = pkt(Ipv4Addr::new(1, 1, 1, 1), 1000, Ipv4Addr::new(2, 2, 2, 2), 80);
        let b = pkt(Ipv4Addr::new(2, 2, 2, 2), 80, Ipv4Addr::new(1, 1, 1, 1), 1000);
        assert_eq!(lb.route(&a), lb.route(&b));
    }

    #[test]
    fn round_robin_breaks_affinity_but_spreads() {
        let mut lb =
            LoadBalancer::new(station(FailureBehavior::Hang), BalanceStrategy::RoundRobin, 4);
        let a = pkt(Ipv4Addr::new(1, 1, 1, 1), 1000, Ipv4Addr::new(2, 2, 2, 2), 80);
        let routes: Vec<usize> = (0..8).map(|_| lb.route(&a)).collect();
        assert_eq!(routes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn session_hash_spreads_distinct_flows() {
        let mut lb =
            LoadBalancer::new(station(FailureBehavior::Hang), BalanceStrategy::SessionHash, 4);
        let mut used = std::collections::BTreeSet::new();
        for i in 0..64u16 {
            let p = pkt(
                Ipv4Addr::new(1, 1, 1, (i % 250) as u8 + 1),
                1000 + i,
                Ipv4Addr::new(2, 2, 2, 2),
                80,
            );
            used.insert(lb.route(&p));
        }
        assert_eq!(used.len(), 4, "64 flows should hit all 4 sensors");
    }

    fn alert(severity: Severity) -> Alert {
        Alert {
            raised_at: SimTime::from_millis(10),
            observed_at: SimTime::from_millis(9),
            trigger: 0,
            flow: FlowKey {
                protocol: IpProtocol::Tcp,
                src: Ipv4Addr::new(66, 1, 1, 1),
                src_port: 999,
                dst: Ipv4Addr::new(10, 0, 0, 1),
                dst_port: 80,
            },
            class_guess: idse_net::trace::AttackClass::PayloadExploit,
            severity,
            source: DetectionSource::Signature,
            sensor: 0,
            detector: "t".into(),
        }
    }

    #[test]
    fn monitor_stamps_visibility_time() {
        let mut m = Monitor::new(
            ServiceStation::new(
                "mon",
                10_000.0,
                SimDuration::from_secs(1),
                0.9,
                FailureBehavior::Hang,
            ),
            SimDuration::from_millis(50),
        );
        let t = m.present(SimTime::from_millis(10), alert(Severity::High)).unwrap();
        assert!(t >= SimTime::from_millis(60));
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].raised_at, t);
    }

    #[test]
    fn console_blocks_on_high_severity_only() {
        let mut c = ManagementConsole::new(
            ResponseCapabilities { firewall: true, router: false, snmp: true },
            SimDuration::from_millis(100),
        );
        c.react(&alert(Severity::Info));
        assert!(c.blocked_sources().is_empty());
        c.react(&alert(Severity::Critical));
        assert_eq!(c.blocked_sources().len(), 1);
        assert_eq!(c.snmp_traps(), 1);
        let src = Ipv4Addr::new(66, 1, 1, 1);
        assert!(!c.is_blocked(SimTime::from_millis(50), src), "before install");
        assert!(c.is_blocked(SimTime::from_millis(200), src), "after install");
    }

    #[test]
    fn console_without_firewall_never_blocks() {
        let mut c = ManagementConsole::new(ResponseCapabilities::default(), SimDuration::ZERO);
        c.react(&alert(Severity::Critical));
        assert!(c.blocked_sources().is_empty());
        assert_eq!(c.snmp_traps(), 0);
    }
}
