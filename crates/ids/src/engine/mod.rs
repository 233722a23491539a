//! Detection engines: the §2.1 taxonomy as a trait.
//!
//! "An IDS may be categorized by its detection mechanism: anomaly-based,
//! signature-based, or hybrid." Engines consume packets in time order and
//! emit [`Detection`]s; the surrounding sensor/analyzer components handle
//! queuing, capacity and failure. Every engine exposes an *Adjustable
//! Sensitivity* knob (Table 2) — the single scalar the Figure 4 error-rate
//! sweep turns.

pub mod anomaly;
pub mod host_agent;
pub mod signature;
pub mod stateful;

use crate::alert::{DetectionSource, Severity};
use idse_net::trace::AttackClass;
use idse_net::Packet;
use idse_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The sensitivity knob, in `[0, 1]`. Higher values lower detection
/// thresholds: more true positives *and* more false positives — the
/// trade-off Figure 4 plots.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Sensitivity(f64);

impl Sensitivity {
    /// The factory-default midpoint.
    pub const DEFAULT: Sensitivity = Sensitivity(0.5);

    /// Clamp into `[0, 1]`.
    pub fn new(v: f64) -> Self {
        Sensitivity(v.clamp(0.0, 1.0))
    }

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Scale a threshold: at sensitivity 0 returns `lax`, at 1 returns
    /// `strict`, linear in between. (`strict < lax` for count thresholds.)
    pub fn threshold(self, lax: f64, strict: f64) -> f64 {
        lax + (strict - lax) * self.0
    }

    /// Whether an optional noisy detector tier is enabled (top third of
    /// the sensitivity range).
    pub fn noisy_tier_enabled(self) -> bool {
        self.0 >= 0.65
    }
}

impl Default for Sensitivity {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A single engine-level detection (pre-analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// The engine's best class guess.
    pub class: AttackClass,
    /// Severity estimate.
    pub severity: Severity,
    /// Which mechanism produced it.
    pub source: DetectionSource,
    /// Detector/rule name.
    pub detector: &'static str,
}

/// What training reads from one known-benign packet, taken once per
/// record: every engine's training fold learns from this alone and never
/// touches the payload, so a stream's observations can be taken on the
/// threads that synthesize it and folded in order on one.
#[derive(Debug, Clone, PartialEq)]
pub struct BenignObservation {
    pub(crate) src: Ipv4Addr,
    pub(crate) dst: Ipv4Addr,
    /// A TCP SYN.
    pub(crate) syn: bool,
    /// The destination port of a SYN that carries a TCP header.
    pub(crate) syn_port: Option<u16>,
    pub(crate) dst_port: Option<u16>,
    /// The payload holds `Login incorrect`.
    pub(crate) failed_login: bool,
    /// The payload holds `login: `.
    pub(crate) login: bool,
    /// The payload's printable fraction, when it is non-empty and has a
    /// destination port.
    pub(crate) printable: Option<f64>,
    pub(crate) payload_len: usize,
    /// An ICMP echo request.
    pub(crate) echo_request: bool,
    /// The payload's path tokens (an `anomaly::token_list`), on the NFS
    /// port only.
    pub(crate) rpc_tokens: Vec<u8>,
}

impl BenignObservation {
    /// Observe `packet`.
    pub fn of_packet(packet: &Packet) -> Self {
        let payload = &packet.payload;
        let dst_port = packet.transport.dst_port();
        let syn = packet.is_syn();
        Self {
            src: packet.ip.src,
            dst: packet.ip.dst,
            syn,
            syn_port: packet.tcp_header().filter(|_| syn).map(|t| t.dst_port),
            dst_port,
            failed_login: crate::aho::contains(payload, b"Login incorrect"),
            login: crate::aho::contains(payload, b"login: "),
            printable: dst_port
                .filter(|_| !payload.is_empty())
                .map(|_| anomaly::printable_fraction(payload)),
            payload_len: payload.len(),
            echo_request: matches!(
                packet.transport,
                idse_net::Transport::Icmp(h) if h.kind == idse_net::packet::IcmpKind::EchoRequest
            ),
            rpc_tokens: if dst_port == Some(2049) {
                anomaly::token_list(payload)
            } else {
                Vec::new()
            },
        }
    }
}

/// A detection engine: packets in, detections out.
pub trait DetectionEngine: Send {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Adjust sensitivity.
    fn set_sensitivity(&mut self, s: Sensitivity);

    /// Inspect one packet observed at `now`; return any detections.
    fn inspect(&mut self, now: SimTime, packet: &Packet) -> Vec<Detection>;

    /// Abstract processing cost of inspecting `packet`, in host ops (for
    /// the capacity/overload model).
    fn cost_ops(&self, packet: &Packet) -> f64;

    /// Approximate retained state in bytes (the *Data Storage* metric).
    fn state_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_clamps() {
        assert_eq!(Sensitivity::new(2.0).value(), 1.0);
        assert_eq!(Sensitivity::new(-0.5).value(), 0.0);
        assert_eq!(Sensitivity::new(0.3).value(), 0.3);
    }

    #[test]
    fn threshold_interpolates() {
        let s = Sensitivity::new(0.0);
        assert_eq!(s.threshold(100.0, 10.0), 100.0);
        let s = Sensitivity::new(1.0);
        assert_eq!(s.threshold(100.0, 10.0), 10.0);
        let s = Sensitivity::new(0.5);
        assert_eq!(s.threshold(100.0, 10.0), 55.0);
    }

    #[test]
    fn noisy_tier_gating() {
        assert!(!Sensitivity::new(0.5).noisy_tier_enabled());
        assert!(Sensitivity::new(0.7).noisy_tier_enabled());
    }
}
