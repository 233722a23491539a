//! The signature (knowledge-based) engine.
//!
//! "A signature-based IDS attempts to detect patterns in network traffic
//! that are characteristic of known attacks … it will only detect
//! previously known attacks" (§2.1). The engine is a rule database —
//! header predicates plus payload patterns compiled into one Aho–Corasick
//! automaton — fronted by Snort-style stateful preprocessors for scans,
//! sweeps, floods and login brute force.
//!
//! Structural behaviour the evaluation depends on:
//!
//! * exploits absent from the database (`in_signature_dbs: false` in the
//!   attack corpus) can never match — the engine's intrinsic false
//!   negatives;
//! * fragmentation evasion is only caught if the engine is configured with
//!   a reassembler whose overlap policy matches the victim's;
//! * the *noisy rule tier* (cleartext credentials, failed logins) only
//!   arms at high sensitivity — the engine's false-positive source.

use crate::aho::AhoCorasick;
use crate::alert::{DetectionSource, Severity};
use crate::engine::stateful::{Cooldown, DistinctCounter, RateCounter};
use crate::engine::{Detection, DetectionEngine, Sensitivity};
use idse_net::frag::{OverlapPolicy, Reassembler};
use idse_net::trace::AttackClass;
use idse_net::Packet;
use idse_sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// One signature rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable rule name.
    pub name: &'static str,
    /// Payload pattern the rule keys on.
    pub pattern: &'static [u8],
    /// Destination-port predicate (`None` = any port).
    pub dst_port: Option<u16>,
    /// Class the rule attributes matches to.
    pub class: AttackClass,
    /// Severity of a match.
    pub severity: Severity,
    /// Noisy rules arm only at the high-sensitivity tier.
    pub noisy: bool,
}

/// The 2002-era commercial rule database the simulated signature products
/// share. It covers exactly the corpus exploits flagged
/// `in_signature_dbs: true` (plus generic shellcode/recon indicators), and
/// deliberately *not* the novel variants — reproducing the knowledge-based
/// blind spot the paper describes.
pub fn standard_rule_db() -> Vec<Rule> {
    vec![
        Rule {
            name: "http-cgi-phf",
            pattern: b"/cgi-bin/phf?",
            dst_port: Some(80),
            class: AttackClass::PayloadExploit,
            severity: Severity::Critical,
            noisy: false,
        },
        Rule {
            name: "http-iis-unicode",
            pattern: b"..%c0%af..",
            dst_port: Some(80),
            class: AttackClass::PayloadExploit,
            severity: Severity::Critical,
            noisy: false,
        },
        Rule {
            name: "http-cmdexe",
            pattern: b"cmd.exe",
            dst_port: Some(80),
            class: AttackClass::PayloadExploit,
            severity: Severity::High,
            noisy: false,
        },
        Rule {
            name: "ftp-site-exec",
            pattern: b"SITE EXEC",
            dst_port: Some(21),
            class: AttackClass::PayloadExploit,
            severity: Severity::Critical,
            noisy: false,
        },
        Rule {
            name: "generic-nop-sled",
            pattern: b"\x90\x90\x90\x90\x90\x90\x90\x90",
            dst_port: None,
            class: AttackClass::PayloadExploit,
            severity: Severity::High,
            noisy: false,
        },
        Rule {
            name: "generic-binsh",
            pattern: b"/bin/sh",
            dst_port: None,
            class: AttackClass::PayloadExploit,
            severity: Severity::High,
            noisy: false,
        },
        Rule {
            name: "generic-format-string",
            pattern: b"%n%n%n",
            dst_port: None,
            class: AttackClass::PayloadExploit,
            severity: Severity::High,
            noisy: false,
        },
        Rule {
            name: "generic-etc-passwd",
            pattern: b"/etc/passwd",
            dst_port: None,
            class: AttackClass::PayloadExploit,
            severity: Severity::High,
            noisy: false,
        },
        Rule {
            name: "compromise-uid-root",
            pattern: b"uid=0(root)",
            dst_port: None,
            class: AttackClass::PayloadExploit,
            severity: Severity::Critical,
            noisy: false,
        },
        // Noisy tier: informational rules that also match benign traffic.
        Rule {
            name: "info-failed-login",
            pattern: b"Login incorrect",
            dst_port: Some(23),
            class: AttackClass::BruteForceLogin,
            severity: Severity::Info,
            noisy: true,
        },
        Rule {
            name: "info-cleartext-pass",
            pattern: b"PASS ",
            dst_port: Some(21),
            class: AttackClass::BruteForceLogin,
            severity: Severity::Info,
            noisy: true,
        },
        Rule {
            name: "info-rpc-call",
            pattern: b"\x00\x01\x86\xb8",
            dst_port: None,
            class: AttackClass::PayloadExploit,
            severity: Severity::Info,
            noisy: true,
        },
    ]
}

/// Signature engine configuration.
#[derive(Debug, Clone)]
pub struct SignatureConfig {
    /// IP-fragment reassembly policy, or `None` for no reassembly (the
    /// engine then inspects fragment payloads in isolation).
    pub reassembly: Option<OverlapPolicy>,
    /// Whether the stateful scan/flood preprocessors run.
    pub preprocessors: bool,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        Self { reassembly: Some(OverlapPolicy::FirstWins), preprocessors: true }
    }
}

/// The signature engine.
pub struct SignatureEngine {
    rules: Vec<Rule>,
    automaton: AhoCorasick,
    sensitivity: Sensitivity,
    config: SignatureConfig,
    reassembler: Option<Reassembler>,
    scan_ports: DistinctCounter<Ipv4Addr, u16>,
    sweep_hosts: DistinctCounter<Ipv4Addr, Ipv4Addr>,
    syn_rate: RateCounter<Ipv4Addr>,
    failed_logins: RateCounter<Ipv4Addr>,
    preproc_cooldown: Cooldown<(&'static str, Ipv4Addr)>,
    rule_cooldown: Cooldown<(usize, Ipv4Addr)>,
}

impl std::fmt::Debug for SignatureEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignatureEngine")
            .field("rules", &self.rules.len())
            .field("sensitivity", &self.sensitivity)
            .finish()
    }
}

impl SignatureEngine {
    /// Build the engine over a rule database.
    pub fn new(rules: Vec<Rule>, config: SignatureConfig) -> Self {
        let automaton = AhoCorasick::new(&rules.iter().map(|r| r.pattern).collect::<Vec<_>>());
        Self {
            rules,
            automaton,
            sensitivity: Sensitivity::DEFAULT,
            reassembler: config.reassembly.map(Reassembler::new),
            config,
            scan_ports: DistinctCounter::new(),
            sweep_hosts: DistinctCounter::new(),
            syn_rate: RateCounter::new(),
            failed_logins: RateCounter::new(),
            preproc_cooldown: Cooldown::new(SimDuration::from_secs(2)),
            rule_cooldown: Cooldown::new(SimDuration::from_secs(1)),
        }
    }

    /// The engine with the standard database and default config.
    pub fn standard(config: SignatureConfig) -> Self {
        Self::new(standard_rule_db(), config)
    }

    fn run_preprocessors(&mut self, now: SimTime, packet: &Packet, out: &mut Vec<Detection>) {
        let src = packet.ip.src;
        if packet.is_syn() {
            let dst_port = packet.tcp_header().map(|t| t.dst_port).unwrap_or(0);
            let ports = self.scan_ports.record(now, src, dst_port);
            let scan_th = self.sensitivity.threshold(60.0, 8.0);
            if f64::from(ports) >= scan_th && self.preproc_cooldown.try_fire(now, ("portscan", src))
            {
                out.push(Detection {
                    class: AttackClass::PortScan,
                    severity: Severity::Warning,
                    source: DetectionSource::Signature,
                    detector: "preproc-portscan",
                });
            }
            let hosts = self.sweep_hosts.record(now, src, packet.ip.dst);
            let sweep_th = self.sensitivity.threshold(40.0, 6.0);
            if f64::from(hosts) >= sweep_th
                && self.preproc_cooldown.try_fire(now, ("hostsweep", src))
            {
                out.push(Detection {
                    class: AttackClass::HostSweep,
                    severity: Severity::Warning,
                    source: DetectionSource::Signature,
                    detector: "preproc-hostsweep",
                });
            }
            let syns = self.syn_rate.record(now, packet.ip.dst);
            let flood_th = self.sensitivity.threshold(3000.0, 400.0);
            if f64::from(syns) >= flood_th
                && self.preproc_cooldown.try_fire(now, ("synflood", packet.ip.dst))
            {
                out.push(Detection {
                    class: AttackClass::SynFlood,
                    severity: Severity::High,
                    source: DetectionSource::Signature,
                    detector: "preproc-synflood",
                });
            }
        }
        // Brute-force: repeated failed logins from one source.
        if crate::aho::contains(&packet.payload, b"Login incorrect") {
            let fails = self.failed_logins.record(now, src);
            let bf_th = self.sensitivity.threshold(30.0, 3.0);
            if f64::from(fails) >= bf_th && self.preproc_cooldown.try_fire(now, ("bruteforce", src))
            {
                out.push(Detection {
                    class: AttackClass::BruteForceLogin,
                    severity: Severity::High,
                    source: DetectionSource::Signature,
                    detector: "preproc-bruteforce",
                });
            }
        }
    }

    fn match_rules(&mut self, now: SimTime, packet: &Packet, out: &mut Vec<Detection>) {
        let port = packet.transport.dst_port().unwrap_or(0);
        let noisy_enabled = self.sensitivity.noisy_tier_enabled();
        for pid in self.automaton.matching_patterns(&packet.payload) {
            let idx = pid as usize;
            let rule = &self.rules[idx];
            if rule.noisy && !noisy_enabled {
                continue;
            }
            if let Some(p) = rule.dst_port {
                // Match on either direction's service port so responses
                // (e.g. "uid=0(root)" from the victim) are still caught.
                let sport = packet.transport.src_port().unwrap_or(0);
                if p != port && p != sport {
                    continue;
                }
            }
            if self.rule_cooldown.try_fire(now, (idx, packet.ip.src)) {
                out.push(Detection {
                    class: rule.class,
                    severity: rule.severity,
                    source: DetectionSource::Signature,
                    detector: rule.name,
                });
            }
        }
    }
}

impl DetectionEngine for SignatureEngine {
    fn name(&self) -> &'static str {
        "signature"
    }

    fn set_sensitivity(&mut self, s: Sensitivity) {
        self.sensitivity = s;
    }

    fn inspect(&mut self, now: SimTime, packet: &Packet) -> Vec<Detection> {
        let mut out = Vec::new();
        if self.config.preprocessors {
            self.run_preprocessors(now, packet, &mut out);
        }
        // Payload inspection: on fragments, go through the reassembler if
        // one is configured; otherwise inspect the raw fragment bytes.
        if packet.ip.is_fragment() {
            if let Some(reasm) = self.reassembler.as_mut() {
                if let Some(whole) = reasm.push(packet) {
                    self.match_rules(now, &whole, &mut out);
                }
            } else {
                self.match_rules(now, packet, &mut out);
            }
        } else {
            self.match_rules(now, packet, &mut out);
        }
        out
    }

    fn cost_ops(&self, packet: &Packet) -> f64 {
        40.0 + 2.0 * packet.payload.len() as f64
    }

    fn state_bytes(&self) -> usize {
        self.automaton.state_count() * 1024
            + self.scan_ports.approx_bytes()
            + self.sweep_hosts.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_net::packet::{Ipv4Header, TcpFlags, TcpHeader};
    use idse_sim::RngStream;

    fn engine() -> SignatureEngine {
        SignatureEngine::standard(SignatureConfig::default())
    }

    fn tcp_packet(dst_port: u16, payload: &[u8]) -> Packet {
        Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(66, 1, 1, 1), Ipv4Addr::new(10, 0, 1, 1)),
            TcpHeader {
                src_port: 31000,
                dst_port,
                seq: 1,
                ack: 1,
                flags: TcpFlags::PSH_ACK,
                window: 1024,
            },
            payload.to_vec(),
        )
    }

    #[test]
    fn known_exploit_matches() {
        let mut e = engine();
        let p = tcp_packet(80, b"GET /cgi-bin/phf?Qalias=x HTTP/1.0\r\n\r\n");
        let d = e.inspect(SimTime::ZERO, &p);
        assert!(d.iter().any(|d| d.detector == "http-cgi-phf"));
        assert!(d.iter().any(|d| d.severity == Severity::Critical));
    }

    #[test]
    fn novel_exploit_is_missed() {
        let mut e = engine();
        e.set_sensitivity(Sensitivity::new(1.0));
        let p = tcp_packet(80, b"GET /cgi-bin/stats.pl?page=|id;uname%20-a| HTTP/1.0\r\n\r\n");
        let d = e.inspect(SimTime::ZERO, &p);
        assert!(d.is_empty(), "novel exploits must evade the database: {d:?}");
    }

    #[test]
    fn port_predicate_enforced() {
        let mut e = engine();
        // phf pattern on a non-HTTP port: the port-80 rule must not fire.
        let p = tcp_packet(9999, b"/cgi-bin/phf?Qalias");
        let d = e.inspect(SimTime::ZERO, &p);
        assert!(d.iter().all(|d| d.detector != "http-cgi-phf"));
    }

    #[test]
    fn benign_traffic_is_clean_at_default_sensitivity() {
        let mut e = engine();
        let mut rng = RngStream::derive(5, "sig");
        for i in 0..200 {
            let body = idse_traffic::payload::http_response(&mut rng, 512);
            let p = tcp_packet(80, &body);
            let d = e.inspect(SimTime::from_millis(i * 10), &p);
            assert!(d.is_empty(), "benign http must not alert: {d:?}");
        }
    }

    #[test]
    fn noisy_rules_gate_on_sensitivity() {
        let failed = tcp_packet(23, b"login: jsmith\r\npassword: ****\r\nLogin incorrect\r\n");
        let mut e = engine();
        e.set_sensitivity(Sensitivity::new(0.5));
        assert!(e.inspect(SimTime::ZERO, &failed).is_empty());
        let mut e = engine();
        e.set_sensitivity(Sensitivity::new(0.9));
        let d = e.inspect(SimTime::ZERO, &failed);
        assert!(d.iter().any(|d| d.detector == "info-failed-login"));
    }

    #[test]
    fn scan_preprocessor_fires_with_sensitivity_dependent_threshold() {
        let syn_to = |port: u16, i: u64| {
            let mut p = tcp_packet(port, b"");
            if let idse_net::Transport::Tcp(ref mut t) = p.transport {
                t.flags = TcpFlags::SYN;
                t.src_port = 31000 + i as u16;
            }
            p
        };
        // Strict sensitivity: fires after ~8 distinct ports.
        let mut e = engine();
        e.set_sensitivity(Sensitivity::new(1.0));
        let mut fired_at = None;
        for i in 0..60u64 {
            let d = e.inspect(SimTime::from_millis(i), &syn_to(i as u16 + 1, i));
            if d.iter().any(|d| d.detector == "preproc-portscan") {
                fired_at = Some(i);
                break;
            }
        }
        assert_eq!(fired_at, Some(7), "strict threshold is 8 distinct ports");

        // Lax sensitivity: needs ~60 ports.
        let mut e = engine();
        e.set_sensitivity(Sensitivity::new(0.0));
        let mut fired_at = None;
        for i in 0..100u64 {
            let d = e.inspect(SimTime::from_millis(i), &syn_to(i as u16 + 1, i));
            if d.iter().any(|d| d.detector == "preproc-portscan") {
                fired_at = Some(i);
                break;
            }
        }
        assert_eq!(fired_at, Some(59));
    }

    #[test]
    fn flood_preprocessor_counts_per_destination() {
        let mut e = engine();
        e.set_sensitivity(Sensitivity::new(1.0)); // threshold 400 SYN/s
        let mut fired = false;
        for i in 0..500u64 {
            let mut p = tcp_packet(80, b"");
            if let idse_net::Transport::Tcp(ref mut t) = p.transport {
                t.flags = TcpFlags::SYN;
            }
            // Distinct spoofed sources, same destination.
            p.ip.src = Ipv4Addr::new(203, 0, (i / 250) as u8, (i % 250) as u8 + 1);
            let d = e.inspect(SimTime::from_micros(i * 100), &p);
            if d.iter().any(|d| d.detector == "preproc-synflood") {
                fired = true;
                break;
            }
        }
        assert!(fired, "400+ SYN/s to one host must trip the flood preprocessor");
    }

    #[test]
    fn reassembly_policy_decides_evasion_outcome() {
        use idse_net::frag::fragment;
        let exploit =
            tcp_packet(80, b"GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0\r\n\r\n");
        let frags = fragment(&exploit, 32);
        assert!(frags.len() > 1);
        // Decoys at each continuation offset, sent first.
        let mut feed = vec![frags[0].clone()];
        for f in &frags[1..] {
            let mut decoy = f.clone();
            decoy.payload = std::sync::Arc::from(vec![0x20u8; f.payload.len()].into_boxed_slice());
            feed.push(decoy);
            feed.push(f.clone());
        }

        let run = |policy: Option<OverlapPolicy>| -> bool {
            let mut e = SignatureEngine::standard(SignatureConfig {
                reassembly: policy,
                preprocessors: false,
            });
            let mut hit = false;
            for (i, p) in feed.iter().enumerate() {
                let d = e.inspect(SimTime::from_millis(i as u64), p);
                hit |= d.iter().any(|d| d.detector == "http-cgi-phf");
            }
            hit
        };
        assert!(!run(None), "no reassembly → blind");
        assert!(!run(Some(OverlapPolicy::FirstWins)), "wrong policy → blind");
        assert!(run(Some(OverlapPolicy::LastWins)), "victim-matching policy → caught");
    }

    #[test]
    fn default_evasion_fragments_blind_every_engine_without_matching_reassembly() {
        use idse_attacks::evasion::{splittable_exploits, FragmentationEvasion};
        use idse_attacks::Scenario;
        for exploit in splittable_exploits() {
            let scenario = FragmentationEvasion::new(
                Ipv4Addr::new(66, 9, 9, 9),
                Ipv4Addr::new(10, 0, 1, 1),
                exploit,
            );
            let mut rng = idse_sim::RngStream::derive(77, exploit.name);
            let trace = scenario.generate(SimTime::ZERO, 1, &mut rng);
            let run =
                |policy: Option<OverlapPolicy>| -> bool {
                    let mut e = SignatureEngine::standard(SignatureConfig {
                        reassembly: policy,
                        preprocessors: false,
                    });
                    e.set_sensitivity(Sensitivity::new(0.5)); // noisy tier off
                    trace.records().iter().enumerate().any(|(i, r)| {
                        !e.inspect(SimTime::from_millis(i as u64), &r.packet).is_empty()
                    })
                };
            assert!(!run(None), "{}: per-fragment matching must be blind", exploit.name);
            assert!(
                !run(Some(OverlapPolicy::FirstWins)),
                "{}: FirstWins reassembly must be blind",
                exploit.name
            );
            assert!(
                run(Some(OverlapPolicy::LastWins)),
                "{}: victim-matching reassembly must catch it",
                exploit.name
            );
        }
    }

    #[test]
    fn cost_scales_with_payload() {
        let e = engine();
        let small = tcp_packet(80, &[0; 10]);
        let large = tcp_packet(80, &[0; 1000]);
        assert!(e.cost_ops(&large) > e.cost_ops(&small) * 10.0);
        assert!(e.state_bytes() > 0);
    }
}
