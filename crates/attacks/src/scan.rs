//! Reconnaissance: port scans and host sweeps.
//!
//! Scans are the easiest attack class for both detection mechanisms — a
//! burst of SYNs to many ports (or many hosts) is both a known signature
//! pattern and a rate/entropy anomaly — so they anchor the "easy" end of
//! the per-class detection table in the evaluation.

use crate::Scenario;
use idse_net::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use idse_net::trace::{AttackClass, GroundTruth, Trace};
use idse_net::Cidr;
use idse_sim::{RngStream, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// A TCP SYN scan of many ports on one target.
#[derive(Debug, Clone)]
pub struct PortScan {
    /// Scanning host.
    pub attacker: Ipv4Addr,
    /// Scanned host.
    pub target: Ipv4Addr,
    /// First port probed.
    pub first_port: u16,
    /// Number of ports probed.
    pub port_count: u16,
    /// Probes per second.
    pub rate: f64,
}

impl PortScan {
    /// A default fast scan of the first 256 ports at 200 probes/s.
    pub fn new(attacker: Ipv4Addr, target: Ipv4Addr) -> Self {
        Self { attacker, target, first_port: 1, port_count: 256, rate: 200.0 }
    }
}

impl Scenario for PortScan {
    fn class(&self) -> AttackClass {
        AttackClass::PortScan
    }

    fn generate(&self, start: SimTime, attack_id: u32, rng: &mut RngStream) -> Trace {
        let mut trace = Trace::new();
        let truth = GroundTruth { attack_id, class: self.class() };
        let gap = SimDuration::from_secs_f64(1.0 / self.rate.max(1e-6));
        let mut t = start;
        for i in 0..self.port_count {
            let port = self.first_port.wrapping_add(i);
            let syn = Packet::tcp(
                Ipv4Header::simple(self.attacker, self.target),
                TcpHeader {
                    src_port: 40000 + (rng.uniform_u64(0, 20000) as u16),
                    dst_port: port,
                    seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: 1024,
                },
                Vec::new(),
            );
            trace.push_attack(t, syn, truth);
            // Closed ports answer RST (attributable to the scan instance).
            if rng.chance(0.9) {
                let rst = Packet::tcp(
                    Ipv4Header::simple(self.target, self.attacker),
                    TcpHeader {
                        src_port: port,
                        dst_port: 40000,
                        seq: 0,
                        ack: 0,
                        flags: TcpFlags::RST,
                        window: 0,
                    },
                    Vec::new(),
                );
                trace.push_attack(t + SimDuration::from_micros(300), rst, truth);
            }
            t += gap;
        }
        trace.finish();
        trace
    }
}

/// A sweep of one port across many hosts in a block.
#[derive(Debug, Clone)]
pub struct HostSweep {
    /// Scanning host.
    pub attacker: Ipv4Addr,
    /// Block being swept.
    pub block: Cidr,
    /// Number of hosts probed.
    pub host_count: u32,
    /// The service port probed on every host.
    pub port: u16,
    /// Probes per second.
    pub rate: f64,
}

impl Scenario for HostSweep {
    fn class(&self) -> AttackClass {
        AttackClass::HostSweep
    }

    fn generate(&self, start: SimTime, attack_id: u32, rng: &mut RngStream) -> Trace {
        let mut trace = Trace::new();
        let truth = GroundTruth { attack_id, class: self.class() };
        let gap = SimDuration::from_secs_f64(1.0 / self.rate.max(1e-6));
        let mut t = start;
        for i in 1..=self.host_count {
            let target = self.block.host(i);
            let syn = Packet::tcp(
                Ipv4Header::simple(self.attacker, target),
                TcpHeader {
                    src_port: 40000 + (rng.uniform_u64(0, 20000) as u16),
                    dst_port: self.port,
                    seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: 1024,
                },
                Vec::new(),
            );
            trace.push_attack(t, syn, truth);
            t += gap;
        }
        trace.finish();
        trace
    }
}

/// A stealth (low-and-slow) port scan: the same coverage as [`PortScan`],
/// but paced below one probe per detector window, so per-second distinct
/// counters never accumulate. 2002-era scanners already offered exactly
/// this ("paranoid" timing); it is the canonical evasion of windowed
/// thresholds and gives the evaluation a reconnaissance variant that is
/// *structurally* hard for every simulated product.
#[derive(Debug, Clone)]
pub struct StealthScan {
    /// Scanning host.
    pub attacker: Ipv4Addr,
    /// Scanned host.
    pub target: Ipv4Addr,
    /// First port probed.
    pub first_port: u16,
    /// Number of ports probed.
    pub port_count: u16,
    /// Gap between probes — must exceed the detectors' one-second window
    /// for the scan to be stealthy.
    pub probe_gap: SimDuration,
}

impl StealthScan {
    /// A default stealth scan: 24 ports, one probe every 2.5 seconds.
    pub fn new(attacker: Ipv4Addr, target: Ipv4Addr) -> Self {
        Self {
            attacker,
            target,
            first_port: 1,
            port_count: 24,
            probe_gap: SimDuration::from_millis(2500),
        }
    }
}

impl Scenario for StealthScan {
    fn class(&self) -> AttackClass {
        AttackClass::PortScan
    }

    fn generate(&self, start: SimTime, attack_id: u32, rng: &mut RngStream) -> Trace {
        let mut trace = Trace::new();
        let truth = GroundTruth { attack_id, class: self.class() };
        let mut t = start;
        for i in 0..self.port_count {
            let port = self.first_port.wrapping_add(i);
            let syn = Packet::tcp(
                Ipv4Header::simple(self.attacker, self.target),
                TcpHeader {
                    src_port: 40000 + (rng.uniform_u64(0, 20000) as u16),
                    dst_port: port,
                    seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: 1024,
                },
                Vec::new(),
            );
            trace.push_attack(t, syn, truth);
            // Slight jitter so the cadence itself is not a signature.
            t = t + self.probe_gap + SimDuration::from_millis(rng.uniform_u64(0, 400));
        }
        trace.finish();
        trace
    }
}

/// A distributed scan: the target set of one [`PortScan`] divided among
/// many attacking sources, each of which stays under every per-source
/// threshold. Defeats per-source counters the way the stealth scan
/// defeats per-window ones.
#[derive(Debug, Clone)]
pub struct DistributedScan {
    /// Attacking sources (each probes a slice of the port range).
    pub attackers: Vec<Ipv4Addr>,
    /// Scanned host.
    pub target: Ipv4Addr,
    /// Total ports probed across all sources.
    pub port_count: u16,
    /// Probes per second per source.
    pub per_source_rate: f64,
}

impl DistributedScan {
    /// A default 16-source scan of 256 ports.
    pub fn new(target: Ipv4Addr) -> Self {
        Self {
            attackers: (0..16).map(|i| Ipv4Addr::new(67, 44, i as u8 + 1, 9)).collect(),
            target,
            port_count: 256,
            per_source_rate: 2.0,
        }
    }
}

impl Scenario for DistributedScan {
    fn class(&self) -> AttackClass {
        AttackClass::PortScan
    }

    fn generate(&self, start: SimTime, attack_id: u32, rng: &mut RngStream) -> Trace {
        assert!(!self.attackers.is_empty(), "a distributed scan needs sources");
        let mut trace = Trace::new();
        let truth = GroundTruth { attack_id, class: self.class() };
        let gap = SimDuration::from_secs_f64(1.0 / self.per_source_rate.max(1e-6));
        for (slice, &attacker) in self.attackers.iter().enumerate() {
            let mut t = start + SimDuration::from_millis(rng.uniform_u64(0, 500));
            let mut port = self.first_port_for(slice);
            while port < self.port_count && usize::from(port) % self.attackers.len() == slice {
                // ports stride across sources: source k probes k, k+n, k+2n…
                let syn = Packet::tcp(
                    Ipv4Header::simple(attacker, self.target),
                    TcpHeader {
                        src_port: 40000 + (rng.uniform_u64(0, 20000) as u16),
                        dst_port: port + 1,
                        seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
                        ack: 0,
                        flags: TcpFlags::SYN,
                        window: 1024,
                    },
                    Vec::new(),
                );
                trace.push_attack(t, syn, truth);
                t += gap;
                port = port.saturating_add(self.attackers.len() as u16);
            }
        }
        trace.finish();
        trace
    }
}

impl DistributedScan {
    fn first_port_for(&self, slice: usize) -> u16 {
        slice as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_scan_touches_every_port() {
        let scan = PortScan {
            attacker: Ipv4Addr::new(66, 0, 0, 1),
            target: Ipv4Addr::new(10, 0, 1, 5),
            first_port: 20,
            port_count: 50,
            rate: 100.0,
        };
        let mut rng = RngStream::derive(1, "scan");
        let t = scan.generate(SimTime::ZERO, 9, &mut rng);
        let ports: std::collections::BTreeSet<u16> = t
            .records()
            .iter()
            .filter(|r| r.packet.ip.dst == scan.target)
            .filter_map(|r| r.packet.tcp_header().map(|h| h.dst_port))
            .collect();
        assert_eq!(ports.len(), 50);
        assert!(t.records().iter().all(|r| r.truth.unwrap().attack_id == 9));
        // Scan takes port_count / rate seconds.
        assert!(t.span() <= SimDuration::from_secs_f64(50.0 / 100.0 + 0.01));
    }

    #[test]
    fn stealth_scan_stays_under_one_probe_per_second() {
        let scan = StealthScan::new(Ipv4Addr::new(66, 5, 5, 5), Ipv4Addr::new(10, 0, 1, 9));
        let mut rng = RngStream::derive(6, "stealth");
        let t = scan.generate(SimTime::ZERO, 4, &mut rng);
        assert_eq!(t.len(), 24);
        // No two probes within the same one-second window.
        for w in t.records().windows(2) {
            assert!(
                w[1].at.saturating_since(w[0].at) >= SimDuration::from_secs(2),
                "stealth probes must straddle detector windows"
            );
        }
    }

    #[test]
    fn distributed_scan_covers_ports_across_sources() {
        let scan = DistributedScan::new(Ipv4Addr::new(10, 0, 1, 9));
        let mut rng = RngStream::derive(7, "dist");
        let t = scan.generate(SimTime::ZERO, 5, &mut rng);
        let ports: std::collections::BTreeSet<u16> =
            t.records().iter().filter_map(|r| r.packet.tcp_header().map(|h| h.dst_port)).collect();
        assert_eq!(ports.len(), 256, "full coverage");
        // Each source touches few ports — under per-source thresholds.
        let mut per_src: std::collections::BTreeMap<Ipv4Addr, usize> = Default::default();
        for r in t.records() {
            *per_src.entry(r.packet.ip.src).or_default() += 1;
        }
        assert_eq!(per_src.len(), 16);
        assert!(per_src.values().all(|&n| n == 16));
    }

    #[test]
    fn sweep_touches_many_hosts() {
        let sweep = HostSweep {
            attacker: Ipv4Addr::new(66, 0, 0, 2),
            block: "10.0.1.0/24".parse().unwrap(),
            host_count: 30,
            port: 22,
            rate: 50.0,
        };
        let mut rng = RngStream::derive(2, "sweep");
        let t = sweep.generate(SimTime::from_secs(5), 3, &mut rng);
        assert_eq!(t.len(), 30);
        let hosts: std::collections::BTreeSet<Ipv4Addr> =
            t.records().iter().map(|r| r.packet.ip.dst).collect();
        assert_eq!(hosts.len(), 30);
        assert!(t
            .records()
            .iter()
            .all(|r| { r.packet.tcp_header().map(|h| h.dst_port) == Some(22) }));
        assert!(t.records()[0].at >= SimTime::from_secs(5));
    }
}
