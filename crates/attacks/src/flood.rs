//! Denial of service: SYN flood.
//!
//! The flood serves two evaluation roles. As an *attack*, it is detectable
//! by half-open-connection anomaly counters. As a *load*, it is the
//! instrument for the paper's **Network Lethal Dose** metric — "observed
//! level of network or host traffic that results in a shutdown/malfunction
//! of IDS, measured in packets/sec" — because its rate is a free parameter
//! the lethal-dose search escalates until the IDS under test fails.

use crate::Scenario;
use idse_net::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use idse_net::trace::{AttackClass, GroundTruth, Trace};
use idse_net::Cidr;
use idse_sim::{RngStream, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// A SYN flood with spoofed source addresses.
#[derive(Debug, Clone)]
pub struct SynFlood {
    /// Block source addresses are spoofed from.
    pub spoof_block: Cidr,
    /// Flooded host.
    pub target: Ipv4Addr,
    /// Flooded port.
    pub port: u16,
    /// SYNs per second.
    pub rate: f64,
    /// Flood length.
    pub duration: SimDuration,
}

impl SynFlood {
    /// A default flood: 5000 SYN/s for 2 s against port 80.
    pub fn new(target: Ipv4Addr) -> Self {
        Self {
            spoof_block: "203.0.0.0/16".parse().expect("static CIDR"),
            target,
            port: 80,
            rate: 5000.0,
            duration: SimDuration::from_secs(2),
        }
    }

    /// Total SYN packets this flood will emit.
    pub fn packet_count(&self) -> u64 {
        (self.rate * self.duration.as_secs_f64()) as u64
    }
}

impl Scenario for SynFlood {
    fn class(&self) -> AttackClass {
        AttackClass::SynFlood
    }

    fn generate(&self, start: SimTime, attack_id: u32, rng: &mut RngStream) -> Trace {
        let mut trace = Trace::new();
        let truth = GroundTruth { attack_id, class: self.class() };
        let n = self.packet_count();
        let gap = SimDuration::from_secs_f64(1.0 / self.rate.max(1e-6));
        let mut t = start;
        for _ in 0..n {
            let spoofed = self.spoof_block.host(rng.uniform_u64(1, 65000) as u32);
            let syn = Packet::tcp(
                Ipv4Header::simple(spoofed, self.target),
                TcpHeader {
                    src_port: rng.uniform_u64(1024, 65536) as u16,
                    dst_port: self.port,
                    seq: rng.uniform_u64(0, u32::MAX as u64) as u32,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: 512,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_rate_and_count() {
        let f = SynFlood {
            rate: 1000.0,
            duration: SimDuration::from_secs(3),
            ..SynFlood::new(Ipv4Addr::new(10, 0, 1, 1))
        };
        assert_eq!(f.packet_count(), 3000);
        let mut rng = RngStream::derive(4, "flood");
        let t = f.generate(SimTime::ZERO, 1, &mut rng);
        assert_eq!(t.len(), 3000);
        assert!((t.mean_pps() - 1000.0).abs() < 15.0, "pps {}", t.mean_pps());
    }

    #[test]
    fn sources_are_spoofed_diverse() {
        let f = SynFlood::new(Ipv4Addr::new(10, 0, 1, 1));
        let mut rng = RngStream::derive(5, "flood2");
        let t = f.generate(SimTime::ZERO, 2, &mut rng);
        let sources: std::collections::BTreeSet<Ipv4Addr> =
            t.records().iter().map(|r| r.packet.ip.src).collect();
        assert!(sources.len() > 1000, "spoofed sources should be diverse: {}", sources.len());
        assert!(t.records().iter().all(|r| r.packet.is_syn()));
    }
}
