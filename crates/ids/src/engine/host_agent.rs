//! Host-based sensing: agents on the monitored hosts themselves.
//!
//! "An IDS that monitors a host typically examines information available
//! on the host such as log files" (§2.1). The agent sees only traffic
//! terminating at (or originating from) its own host, but it sees it
//! *post-reassembly* — the host stack has already undone fragmentation —
//! so network-level evasion does not blind it. The price is the §2.1
//! resource bill: every inspected event costs the monitored host CPU,
//! which the pipeline charges via [`idse_sim::HostCpu`].
//!
//! Detectors are log-flavoured: authentication outcomes, privileged file
//! access, and indicators of an already-successful compromise (the
//! *Analysis of Compromise* metric in Table 3).

use crate::alert::{DetectionSource, Severity};
use crate::engine::stateful::{Cooldown, RateCounter};
use crate::engine::{BenignObservation, Detection, DetectionEngine, Sensitivity};
use crate::keyed::HostSet;
use idse_net::frag::{OverlapPolicy, Reassembler};
use idse_net::trace::AttackClass;
use idse_net::Packet;
use idse_sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Host-agent configuration.
#[derive(Debug, Clone)]
pub struct HostAgentConfig {
    /// The hosts this agent set monitors.
    pub monitored: Vec<Ipv4Addr>,
}

/// A set of host agents (one logical engine covering all monitored hosts).
///
/// The learned login origins sit behind an [`Arc`], so a clone of a
/// trained agent shares them and copies only its counters, cooldowns and
/// reassembly state.
#[derive(Clone)]
pub struct HostAgentEngine {
    monitored: HostSet,
    sensitivity: Sensitivity,
    /// Origins that legitimately logged into each monitored host.
    known_login_sources: Arc<HostSet>,
    trained: bool,
    failed_logins: RateCounter<(Ipv4Addr, Ipv4Addr)>,
    cooldown: Cooldown<(&'static str, Ipv4Addr)>,
    /// The host stack's reassembly view (LastWins, like most victims).
    reassembler: Reassembler,
}

impl std::fmt::Debug for HostAgentEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostAgentEngine")
            .field("monitored", &self.monitored.host_count())
            .field("trained", &self.trained)
            .finish()
    }
}

/// Privileged file markers a 2002-era host integrity monitor watches.
const PRIVILEGED_MARKERS: &[&[u8]] = &[b"authorized_keys", b".rhosts", b"shadow", b"/etc/passwd"];

impl HostAgentEngine {
    /// Create agents for the given hosts.
    pub fn new(config: HostAgentConfig) -> Self {
        Self {
            monitored: config.monitored.into_iter().collect(),
            sensitivity: Sensitivity::DEFAULT,
            known_login_sources: Arc::default(),
            trained: false,
            failed_logins: RateCounter::new(),
            cooldown: Cooldown::new(SimDuration::from_secs(2)),
            reassembler: Reassembler::new(OverlapPolicy::LastWins),
        }
    }

    /// Start a training pass over these agents, on top of any login
    /// origins they already know.
    pub fn begin_login_training(self) -> HostAgentTraining {
        HostAgentTraining { known: (*self.known_login_sources).clone(), agents: self }
    }

    /// Whether `other` learned exactly these login origins, and how many.
    #[cfg(test)]
    pub(crate) fn same_origins(&self, other: &Self) -> Option<usize> {
        let same =
            self.trained == other.trained && self.known_login_sources == other.known_login_sources;
        same.then_some(self.known_login_sources.host_count())
    }

    fn concerns_us(&self, packet: &Packet) -> bool {
        self.monitored.has_host(packet.ip.dst) || self.monitored.has_host(packet.ip.src)
    }
}

/// A training pass over a [`HostAgentEngine`]: known-benign records in, one
/// at a time, then the trained agents out.
#[derive(Debug)]
pub struct HostAgentTraining {
    agents: HostAgentEngine,
    known: HostSet,
}

impl HostAgentTraining {
    /// Fold one known-benign record: a login to a monitored host makes its
    /// source a known origin.
    pub fn learn_login_origin(&mut self, obs: &BenignObservation) {
        if obs.login && self.agents.monitored.has_host(obs.dst) {
            self.known.add_host(obs.src);
        }
    }

    /// Finish the pass: the trained agents.
    pub fn finish_login_training(self) -> HostAgentEngine {
        let Self { mut agents, known } = self;
        agents.known_login_sources = Arc::new(known);
        agents.trained = true;
        agents
    }
}

impl DetectionEngine for HostAgentEngine {
    fn name(&self) -> &'static str {
        "host-agent"
    }

    fn set_sensitivity(&mut self, s: Sensitivity) {
        self.sensitivity = s;
    }

    fn inspect(&mut self, now: SimTime, packet: &Packet) -> Vec<Detection> {
        let mut out = Vec::new();
        if !self.concerns_us(packet) {
            return out;
        }
        // The host stack reassembles before the agent reads its logs.
        let whole;
        let packet: &Packet = if packet.ip.is_fragment() {
            match self.reassembler.push(packet) {
                Some(p) => {
                    whole = p;
                    &whole
                }
                None => return out,
            }
        } else {
            packet
        };

        let to_us = self.monitored.has_host(packet.ip.dst);
        let from_us = self.monitored.has_host(packet.ip.src);
        let src = packet.ip.src;

        // Failed-login log watching (per victim host, per source).
        if to_us && crate::aho::contains(&packet.payload, b"Login incorrect") {
            let fails = f64::from(self.failed_logins.record(now, (packet.ip.dst, src)));
            let th = self.sensitivity.threshold(20.0, 3.0);
            if fails >= th && self.cooldown.try_fire(now, ("bruteforce", src)) {
                out.push(Detection {
                    class: AttackClass::BruteForceLogin,
                    severity: Severity::High,
                    source: DetectionSource::HostAgent,
                    detector: "host-failed-logins",
                });
            }
        }

        // Successful login from an unknown origin (wtmp-style analysis).
        if to_us
            && self.trained
            && self.sensitivity.value() >= 0.3
            && crate::aho::contains(&packet.payload, b"Last login")
            && !self.known_login_sources.has_host(src)
            && self.cooldown.try_fire(now, ("origin", src))
        {
            out.push(Detection {
                class: AttackClass::Masquerade,
                severity: Severity::High,
                source: DetectionSource::HostAgent,
                detector: "host-login-origin",
            });
        }

        // Privileged-file access (file-integrity flavoured).
        if to_us {
            let hit = PRIVILEGED_MARKERS.iter().any(|m| crate::aho::contains(&packet.payload, m));
            if hit && self.cooldown.try_fire(now, ("privfile", src)) {
                out.push(Detection {
                    class: AttackClass::TrustExploit,
                    severity: Severity::Critical,
                    source: DetectionSource::HostAgent,
                    detector: "host-privileged-file",
                });
            }
        }

        // Compromise indicator leaving one of our hosts.
        if from_us
            && crate::aho::contains(&packet.payload, b"uid=0(root)")
            && self.cooldown.try_fire(now, ("compromise", packet.ip.src))
        {
            out.push(Detection {
                class: AttackClass::PayloadExploit,
                severity: Severity::Critical,
                source: DetectionSource::HostAgent,
                detector: "host-compromise-indicator",
            });
        }

        out
    }

    fn cost_ops(&self, packet: &Packet) -> f64 {
        if self.concerns_us(packet) {
            // Userspace log/audit processing is far costlier per event than
            // an in-kernel packet tap — this is why §2.1 prices host-based
            // monitoring in whole percents of the host.
            400.0 + 1.0 * packet.payload.len() as f64
        } else {
            0.0
        }
    }

    fn state_bytes(&self) -> usize {
        self.known_login_sources.host_count() * 8 + self.monitored.host_count() * 8 + 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_net::packet::{Ipv4Header, TcpFlags, TcpHeader};

    fn agent() -> HostAgentEngine {
        HostAgentEngine::new(HostAgentConfig {
            monitored: vec![Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 1, 2)],
        })
    }

    fn packet_to(dst: Ipv4Addr, payload: &[u8]) -> Packet {
        Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(66, 1, 1, 1), dst),
            TcpHeader {
                src_port: 31000,
                dst_port: 23,
                seq: 1,
                ack: 1,
                flags: TcpFlags::PSH_ACK,
                window: 512,
            },
            payload.to_vec(),
        )
    }

    #[test]
    fn ignores_unmonitored_hosts() {
        let mut a = agent();
        a.set_sensitivity(Sensitivity::new(1.0));
        let p = packet_to(Ipv4Addr::new(10, 0, 9, 9), b"Login incorrect");
        assert!(a.inspect(SimTime::ZERO, &p).is_empty());
        assert_eq!(a.cost_ops(&p), 0.0);
    }

    #[test]
    fn brute_force_on_monitored_host() {
        let mut a = agent();
        a.set_sensitivity(Sensitivity::new(1.0)); // threshold 3/s
        let victim = Ipv4Addr::new(10, 0, 1, 1);
        let mut hit = false;
        for i in 0..5 {
            let d = a.inspect(
                SimTime::from_millis(i * 100),
                &packet_to(victim, b"login: admin\r\nLogin incorrect\r\n"),
            );
            hit |= d.iter().any(|d| d.class == AttackClass::BruteForceLogin);
        }
        assert!(hit);
    }

    #[test]
    fn masquerade_detected_after_training() {
        // Train: only 10.0.5.5 logs into our hosts.
        let known = Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(10, 0, 5, 5), Ipv4Addr::new(10, 0, 1, 1)),
            TcpHeader {
                src_port: 2000,
                dst_port: 23,
                seq: 0,
                ack: 0,
                flags: TcpFlags::PSH_ACK,
                window: 512,
            },
            b"login: ops\r\nLast login: yesterday\r\n".to_vec(),
        );
        let trained = || {
            let mut training = agent().begin_login_training();
            training.learn_login_origin(&BenignObservation::of_packet(&known));
            let mut a = training.finish_login_training();
            a.set_sensitivity(Sensitivity::new(0.5));
            a
        };
        let mut a = trained();

        // Same credentials from a foreign host.
        let foreign =
            packet_to(Ipv4Addr::new(10, 0, 1, 1), b"login: ops\r\nLast login: yesterday\r\n");
        let d = a.inspect(SimTime::from_secs(1), &foreign);
        assert!(d.iter().any(|d| d.class == AttackClass::Masquerade));

        // The known host stays clean.
        let mut a2 = trained();
        assert!(a2.inspect(SimTime::from_secs(1), &known).is_empty());
    }

    #[test]
    fn privileged_file_access_fires() {
        let mut a = agent();
        let p = packet_to(Ipv4Addr::new(10, 0, 1, 2), b"WRITE /export/.ssh/authorized_keys");
        let d = a.inspect(SimTime::ZERO, &p);
        assert!(d
            .iter()
            .any(|d| d.class == AttackClass::TrustExploit && d.severity == Severity::Critical));
    }

    #[test]
    fn compromise_indicator_from_monitored_host() {
        let mut a = agent();
        let p = Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(66, 1, 1, 1)),
            TcpHeader {
                src_port: 80,
                dst_port: 31000,
                seq: 1,
                ack: 1,
                flags: TcpFlags::PSH_ACK,
                window: 512,
            },
            b"uid=0(root) gid=0(root)\r\n".to_vec(),
        );
        let d = a.inspect(SimTime::ZERO, &p);
        assert!(d.iter().any(|d| d.detector == "host-compromise-indicator"));
    }

    #[test]
    fn sees_through_fragmentation() {
        use idse_net::frag::fragment;
        let exploit = packet_to(
            Ipv4Addr::new(10, 0, 1, 1),
            b"WRITE-TO /export/.ssh/authorized_keys NOW PLEASE",
        );
        let frags = fragment(&exploit, 32);
        assert!(frags.len() > 1);
        let mut a = agent();
        let mut hit = false;
        for (i, f) in frags.iter().enumerate() {
            let d = a.inspect(SimTime::from_millis(i as u64), f);
            hit |= d.iter().any(|d| d.class == AttackClass::TrustExploit);
        }
        assert!(hit, "host stack reassembles before the agent looks");
    }
}
