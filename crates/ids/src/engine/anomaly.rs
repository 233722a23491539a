//! The anomaly (behavior-based) engine.
//!
//! "An anomaly-based IDS attempts to detect behavior that is inconsistent
//! with 'normal' behavior … may be able to detect new attacks.
//! Distinguishing between 'normal' and 'anomalous' behavior, however, is
//! the subject of much research" (§2.1). The paper also observes that "a
//! constrained application environment may help constrain the definition
//! of normal behavior making anomaly-based systems more appropriate" for
//! distributed real-time clusters — experiment X3 tests exactly that by
//! training the same engine on two site profiles.
//!
//! The engine learns baselines from a known-benign training trace:
//!
//! * per-source behavioral rates (distinct ports, fan-out, SYN rate,
//!   failed logins) — scaled by sensitivity into thresholds;
//! * the population of hosts/prefixes that legitimately log in (origin
//!   model — catches masquerade);
//! * per-service payload character (printable fraction — catches shellcode
//!   in text protocols, including *novel* exploits no signature knows);
//! * DNS query size statistics (catches tunneling);
//! * the RPC path-token vocabulary (catches trust exploitation, weakly,
//!   and only at high sensitivity — the paper's hardest case).

use crate::alert::{DetectionSource, Severity};
use crate::engine::stateful::{Cooldown, DistinctCounter, RateCounter};
use crate::engine::{BenignObservation, Detection, DetectionEngine, Sensitivity};
use crate::keyed::{HostSet, KeyedState};
use idse_net::trace::AttackClass;
use idse_net::Packet;
use idse_sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Anomaly engine configuration: which detector families are built in.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Learn who logs in from where (masquerade detection).
    pub origin_model: bool,
    /// Learn per-service payload character (shellcode-in-text detection).
    pub payload_model: bool,
    /// Learn the RPC path vocabulary (trust-exploit detection).
    pub rpc_model: bool,
    /// DNS size/rate model (tunnel detection).
    pub dns_model: bool,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self { origin_model: true, payload_model: true, rpc_model: true, dns_model: true }
    }
}

/// Learned baselines.
#[derive(Debug, Clone, Default, PartialEq)]
struct Baselines {
    /// Max distinct destination ports per source per second seen benign.
    scan_ports: f64,
    /// Max distinct destination hosts per source per second.
    fanout_hosts: f64,
    /// Max SYN/s against one destination.
    syn_rate: f64,
    /// Max failed logins per source per second.
    failed_logins: f64,
    /// Hosts that logged in during training.
    login_hosts: HostSet,
    /// /24 prefixes that logged in during training.
    login_prefixes: KeyedState<u32, ()>,
    /// Per-destination-port minimum printable fraction (text services).
    min_printable: KeyedState<u16, f64>,
    /// DNS query payload size mean/std.
    dns_size_mean: f64,
    dns_size_std: f64,
    /// ICMP echo payload size mean/std (the other covert carrier).
    icmp_size_mean: f64,
    icmp_size_std: f64,
    /// Path tokens seen in RPC payloads.
    rpc_tokens: KeyedState<Vec<u8>, ()>,
    trained: bool,
}

/// The anomaly engine.
///
/// The learned baselines sit behind an [`Arc`]: a clone of a trained
/// engine shares them and copies only its counters and cooldowns, so a
/// deployment clones one trained, never-used engine into every sensor
/// instead of training each sensor on the same trace.
#[derive(Clone)]
pub struct AnomalyEngine {
    config: AnomalyConfig,
    sensitivity: Sensitivity,
    base: Arc<Baselines>,
    scan_ports: DistinctCounter<Ipv4Addr, u16>,
    fanout: DistinctCounter<Ipv4Addr, Ipv4Addr>,
    syn_rate: RateCounter<Ipv4Addr>,
    failed_logins: RateCounter<Ipv4Addr>,
    cooldown: Cooldown<(&'static str, Ipv4Addr)>,
}

impl std::fmt::Debug for AnomalyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnomalyEngine")
            .field("trained", &self.base.trained)
            .field("sensitivity", &self.sensitivity)
            .finish()
    }
}

pub(crate) fn printable_fraction(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    // Branch-free per byte, so the count vectorizes.
    let printable: usize = data
        .iter()
        .map(|&b| {
            usize::from((0x20..0x7f).contains(&b) | (b == b'\r') | (b == b'\n') | (b == b'\t'))
        })
        .sum();
    printable as f64 / data.len() as f64
}

fn prefix24(addr: Ipv4Addr) -> u32 {
    u32::from(addr) >> 8
}

/// The printable tokens of length ≥ 4 in a payload (path components,
/// identifiers), lowercased, each followed by a space: one buffer, so a
/// payload's tokens cost one allocation on the anomaly hot path.
pub(crate) fn token_list(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut start = 0;
    for &b in payload.iter().chain(b" ") {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
            out.push(b.to_ascii_lowercase());
        } else if out.len() - start >= 4 {
            out.push(b' ');
            start = out.len();
        } else {
            out.truncate(start);
        }
    }
    out
}

/// The tokens of a [`token_list`], in payload order.
pub(crate) fn listed_tokens(list: &[u8]) -> impl Iterator<Item = &[u8]> {
    list.split(|&b| b == b' ').filter(|token| !token.is_empty())
}

fn is_login_payload(payload: &[u8]) -> bool {
    crate::aho::contains(payload, b"login: ")
}

impl AnomalyEngine {
    /// An untrained engine.
    pub fn new(config: AnomalyConfig) -> Self {
        Self {
            config,
            sensitivity: Sensitivity::DEFAULT,
            base: Arc::default(),
            scan_ports: DistinctCounter::new(),
            fanout: DistinctCounter::new(),
            syn_rate: RateCounter::new(),
            failed_logins: RateCounter::new(),
            cooldown: Cooldown::new(SimDuration::from_secs(2)),
        }
    }

    /// Start a training pass over this engine, on top of any baselines it
    /// already has.
    pub fn begin_anomaly_training(self) -> AnomalyTraining {
        AnomalyTraining {
            base: (*self.base).clone(),
            engine: self,
            scan: DistinctCounter::new(),
            fanout: DistinctCounter::new(),
            syn: RateCounter::new(),
            fails: RateCounter::new(),
            dns_sizes: Vec::new(),
            icmp_sizes: Vec::new(),
        }
    }

    /// Whether `other` learned exactly these baselines.
    #[cfg(test)]
    pub(crate) fn same_baselines(&self, other: &Self) -> bool {
        self.base == other.base
    }

    /// Whether a training pass ([`AnomalyEngine::begin_anomaly_training`])
    /// has finished on this engine.
    pub fn is_trained(&self) -> bool {
        self.base.trained
    }

    /// Rate-threshold factor: how many multiples of the benign maximum a
    /// counter must reach before alerting. Strict sensitivity sits just
    /// above the benign ceiling; lax demands a large exceedance.
    fn rate_factor(&self) -> f64 {
        self.sensitivity.threshold(6.0, 1.25)
    }
}

/// A training pass over an [`AnomalyEngine`]: known-benign records in, one
/// at a time in stream order, then the trained engine out.
#[derive(Debug)]
pub struct AnomalyTraining {
    engine: AnomalyEngine,
    base: Baselines,
    scan: DistinctCounter<Ipv4Addr, u16>,
    fanout: DistinctCounter<Ipv4Addr, Ipv4Addr>,
    syn: RateCounter<Ipv4Addr>,
    fails: RateCounter<Ipv4Addr>,
    /// Payload sizes, kept so the mean and spread are computed in one
    /// order, as two passes over the trace would.
    dns_sizes: Vec<f64>,
    icmp_sizes: Vec<f64>,
}

impl AnomalyTraining {
    /// Fold one known-benign record, observed at `at`, into the baselines.
    pub fn learn_anomaly_baselines(&mut self, at: SimTime, obs: &BenignObservation) {
        let b = &mut self.base;
        if obs.syn {
            if let Some(port) = obs.syn_port {
                b.scan_ports = b.scan_ports.max(f64::from(self.scan.record(at, obs.src, port)));
            }
            b.fanout_hosts =
                b.fanout_hosts.max(f64::from(self.fanout.record(at, obs.src, obs.dst)));
            b.syn_rate = b.syn_rate.max(f64::from(self.syn.record(at, obs.dst)));
        }
        if obs.failed_login {
            b.failed_logins = b.failed_logins.max(f64::from(self.fails.record(at, obs.src)));
        }
        if obs.login {
            b.login_hosts.add_host(obs.src);
            b.login_prefixes.set_state(prefix24(obs.src), ());
        }
        if let (Some(port), Some(frac)) = (obs.dst_port, obs.printable) {
            let min = b.min_printable.state_or_insert(port, || frac);
            *min = min.min(frac);
        }
        if obs.dst_port == Some(53) {
            self.dns_sizes.push(obs.payload_len as f64);
        }
        if obs.echo_request {
            self.icmp_sizes.push(obs.payload_len as f64);
        }
        for t in listed_tokens(&obs.rpc_tokens) {
            if b.rpc_tokens.state_of(t).is_none() {
                b.rpc_tokens.set_state(t.to_vec(), ());
            }
        }
    }

    /// Finish the pass: the size models and the degenerate-baseline guards,
    /// then the trained engine.
    pub fn finish_anomaly_training(self) -> AnomalyEngine {
        let Self { mut engine, base: mut b, dns_sizes, icmp_sizes, .. } = self;
        if !dns_sizes.is_empty() {
            let n = dns_sizes.len() as f64;
            let mean = dns_sizes.iter().sum::<f64>() / n;
            let var = dns_sizes.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            b.dns_size_mean = mean;
            b.dns_size_std = var.sqrt().max(1.0);
        } else {
            // No DNS during training: on such a network any DNS traffic is
            // judged against a conventional small-query prior.
            b.dns_size_mean = 48.0;
            b.dns_size_std = 16.0;
        }
        if !icmp_sizes.is_empty() {
            let n = icmp_sizes.len() as f64;
            let mean = icmp_sizes.iter().sum::<f64>() / n;
            let var = icmp_sizes.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            b.icmp_size_mean = mean;
            b.icmp_size_std = var.sqrt().max(1.0);
        } else {
            // Conventional 32-byte ping prior.
            b.icmp_size_mean = 32.0;
            b.icmp_size_std = 8.0;
        }
        // Guard against degenerate baselines from tiny training sets.
        b.scan_ports = b.scan_ports.max(2.0);
        b.fanout_hosts = b.fanout_hosts.max(2.0);
        b.syn_rate = b.syn_rate.max(5.0);
        b.failed_logins = b.failed_logins.max(1.0);
        b.trained = true;
        engine.base = Arc::new(b);
        engine
    }
}

impl DetectionEngine for AnomalyEngine {
    fn name(&self) -> &'static str {
        "anomaly"
    }

    fn set_sensitivity(&mut self, s: Sensitivity) {
        self.sensitivity = s;
    }

    fn inspect(&mut self, now: SimTime, packet: &Packet) -> Vec<Detection> {
        let mut out = Vec::new();
        if !self.base.trained {
            return out;
        }
        let factor = self.rate_factor();
        let src = packet.ip.src;

        if packet.is_syn() {
            if let Some(t) = packet.tcp_header() {
                let ports = f64::from(self.scan_ports.record(now, src, t.dst_port));
                if ports >= self.base.scan_ports * factor
                    && self.cooldown.try_fire(now, ("scan", src))
                {
                    out.push(Detection {
                        class: AttackClass::PortScan,
                        severity: Severity::Warning,
                        source: DetectionSource::Anomaly,
                        detector: "anomaly-port-fanout",
                    });
                }
            }
            let hosts = f64::from(self.fanout.record(now, src, packet.ip.dst));
            if hosts >= self.base.fanout_hosts * factor
                && self.cooldown.try_fire(now, ("fanout", src))
            {
                out.push(Detection {
                    class: AttackClass::HostSweep,
                    severity: Severity::Warning,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-host-fanout",
                });
            }
            let syns = f64::from(self.syn_rate.record(now, packet.ip.dst));
            if syns >= self.base.syn_rate * factor
                && self.cooldown.try_fire(now, ("flood", packet.ip.dst))
            {
                out.push(Detection {
                    class: AttackClass::SynFlood,
                    severity: Severity::High,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-syn-rate",
                });
            }
        }

        if crate::aho::contains(&packet.payload, b"Login incorrect") {
            let fails = f64::from(self.failed_logins.record(now, src));
            if fails >= self.base.failed_logins * factor
                && self.cooldown.try_fire(now, ("bruteforce", src))
            {
                out.push(Detection {
                    class: AttackClass::BruteForceLogin,
                    severity: Severity::High,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-failed-logins",
                });
            }
        }

        // Origin model: logins from hosts/prefixes never seen logging in.
        if self.config.origin_model && is_login_payload(&packet.payload) {
            let s = self.sensitivity.value();
            let unseen_prefix = self.base.login_prefixes.state_of(&prefix24(src)).is_none();
            let unseen_host = !self.base.login_hosts.has_host(src);
            let fire = (s >= 0.35 && unseen_prefix) || (s >= 0.75 && unseen_host);
            if fire && self.cooldown.try_fire(now, ("origin", src)) {
                out.push(Detection {
                    class: AttackClass::Masquerade,
                    severity: Severity::Warning,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-login-origin",
                });
            }
        }

        // Payload-character model: binary content on a learned text port.
        if self.config.payload_model && !packet.payload.is_empty() {
            if let Some(port) = packet.transport.dst_port() {
                if let Some(&min_benign) = self.base.min_printable.state_of(&port) {
                    let margin = self.sensitivity.threshold(0.6, 0.2);
                    let frac = printable_fraction(&packet.payload);
                    if frac < min_benign - margin && self.cooldown.try_fire(now, ("payload", src)) {
                        out.push(Detection {
                            class: AttackClass::PayloadExploit,
                            severity: Severity::High,
                            source: DetectionSource::Anomaly,
                            detector: "anomaly-payload-character",
                        });
                    }
                }
            }
        }

        // DNS model: oversized queries (tunnel carrier).
        if self.config.dns_model
            && packet.transport.dst_port() == Some(53)
            && self.base.dns_size_std > 0.0
        {
            let k = self.sensitivity.threshold(12.0, 4.0);
            let z =
                (packet.payload.len() as f64 - self.base.dns_size_mean) / self.base.dns_size_std;
            if z > k && self.cooldown.try_fire(now, ("dns", src)) {
                out.push(Detection {
                    class: AttackClass::Tunneling,
                    severity: Severity::Warning,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-dns-size",
                });
            }
        }

        // ICMP covert-carrier model: oversized echo payloads.
        if self.config.dns_model
            && matches!(
                packet.transport,
                idse_net::Transport::Icmp(h) if h.kind == idse_net::packet::IcmpKind::EchoRequest
            )
            && self.base.icmp_size_std > 0.0
        {
            let k = self.sensitivity.threshold(12.0, 4.0);
            let z =
                (packet.payload.len() as f64 - self.base.icmp_size_mean) / self.base.icmp_size_std;
            if z > k && self.cooldown.try_fire(now, ("icmp", src)) {
                out.push(Detection {
                    class: AttackClass::Tunneling,
                    severity: Severity::Warning,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-icmp-size",
                });
            }
        }

        // RPC vocabulary model: novel path tokens on the NFS port. Only
        // armed at high sensitivity — the trust-exploit trade-off of §3.3.
        if self.config.rpc_model
            && packet.transport.dst_port() == Some(2049)
            && self.sensitivity.value() >= 0.55
            && !packet.payload.is_empty()
        {
            let list = token_list(&packet.payload);
            let novel = listed_tokens(&list).any(|t| self.base.rpc_tokens.state_of(t).is_none());
            if novel && self.cooldown.try_fire(now, ("rpc", src)) {
                out.push(Detection {
                    class: AttackClass::TrustExploit,
                    severity: Severity::Warning,
                    source: DetectionSource::Anomaly,
                    detector: "anomaly-rpc-vocabulary",
                });
            }
        }

        out
    }

    fn cost_ops(&self, packet: &Packet) -> f64 {
        60.0 + 0.4 * packet.payload.len() as f64
    }

    fn state_bytes(&self) -> usize {
        self.base.login_hosts.host_count() * 8
            + self.base.login_prefixes.key_count() * 8
            + self.base.min_printable.key_count() * 16
            + self.base.rpc_tokens.total_over_states(|token, ()| token.len() + 16)
            + self.scan_ports.approx_bytes()
            + self.fanout.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_net::packet::{Ipv4Header, TcpFlags, TcpHeader, UdpHeader};
    use idse_sim::SimDuration;
    use idse_traffic::{GeneratorConfig, RecordStream, SiteProfile, StreamConfig};

    fn trained_engine(sensitivity: f64) -> AnomalyEngine {
        let cfg = GeneratorConfig::new(
            SiteProfile::realtime_cluster(),
            30.0,
            SimDuration::from_secs(20),
            1234,
        );
        let benign =
            RecordStream::new(StreamConfig::new(cfg)).expect("rate in range").collect_trace();
        let mut training = AnomalyEngine::new(AnomalyConfig::default()).begin_anomaly_training();
        for rec in benign.records() {
            training.learn_anomaly_baselines(rec.at, &BenignObservation::of_packet(&rec.packet));
        }
        let mut e = training.finish_anomaly_training();
        e.set_sensitivity(Sensitivity::new(sensitivity));
        e
    }

    fn syn(src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> Packet {
        Packet::tcp(
            Ipv4Header::simple(src, dst),
            TcpHeader {
                src_port: 40000,
                dst_port: port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 512,
            },
            Vec::new(),
        )
    }

    #[test]
    fn untrained_engine_is_silent() {
        let mut e = AnomalyEngine::new(AnomalyConfig::default());
        e.set_sensitivity(Sensitivity::new(1.0));
        let p = syn(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 10, 0, 1), 80);
        assert!(e.inspect(SimTime::ZERO, &p).is_empty());
        assert!(!e.is_trained());
    }

    #[test]
    fn detects_port_scan_after_training() {
        let mut e = trained_engine(0.8);
        let attacker = Ipv4Addr::new(66, 6, 6, 6);
        let target = Ipv4Addr::new(10, 10, 0, 9);
        let mut detected = false;
        for port in 1..200u16 {
            let d = e.inspect(SimTime::from_millis(port as u64), &syn(attacker, target, port));
            detected |= d.iter().any(|d| d.class == AttackClass::PortScan);
        }
        assert!(detected);
    }

    #[test]
    fn scan_threshold_depends_on_sensitivity() {
        let count_until_fire = |sens: f64| -> Option<u16> {
            let mut e = trained_engine(sens);
            let attacker = Ipv4Addr::new(66, 6, 6, 6);
            let target = Ipv4Addr::new(10, 10, 0, 9);
            for port in 1..500u16 {
                let d = e
                    .inspect(SimTime::from_micros(port as u64 * 100), &syn(attacker, target, port));
                if d.iter().any(|d| d.class == AttackClass::PortScan) {
                    return Some(port);
                }
            }
            None
        };
        let strict = count_until_fire(1.0).expect("strict must fire");
        let lax = count_until_fire(0.0);
        if let Some(l) = lax {
            assert!(l > strict, "lax {l} must need more ports than strict {strict}");
        } // lax may never fire in 500 probes: acceptable
    }

    #[test]
    fn detects_masquerade_via_origin_model() {
        let mut e = trained_engine(0.8);
        // Login payload from a host far outside the cluster block.
        let p = Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(198, 18, 5, 7), Ipv4Addr::new(10, 10, 0, 4)),
            TcpHeader {
                src_port: 20001,
                dst_port: 23,
                seq: 1,
                ack: 1,
                flags: TcpFlags::PSH_ACK,
                window: 512,
            },
            b"login: jsmith\r\npassword: ********\r\nLast login: Tue Apr 16\r\n".to_vec(),
        );
        let d = e.inspect(SimTime::ZERO, &p);
        assert!(d.iter().any(|d| d.class == AttackClass::Masquerade), "{d:?}");
        // At low sensitivity the origin detector is disarmed.
        let mut e = trained_engine(0.2);
        assert!(e.inspect(SimTime::ZERO, &p).is_empty());
    }

    #[test]
    fn detects_shellcode_in_text_protocol() {
        let mut e = trained_engine(0.9);
        let p = Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(66, 1, 2, 3), Ipv4Addr::new(10, 10, 0, 3)),
            TcpHeader {
                src_port: 31000,
                dst_port: 80,
                seq: 1,
                ack: 1,
                flags: TcpFlags::PSH_ACK,
                window: 512,
            },
            // Not in any signature DB, but visibly binary.
            b"\xeb\x1f\x5e\x89\x76\x08\x31\xc0\x88\x46\x07\x89\x46\x0c\xb0\x0b\x01\x02\x03\x04"
                .to_vec(),
        );
        let d = e.inspect(SimTime::ZERO, &p);
        assert!(
            d.iter().any(|d| d.class == AttackClass::PayloadExploit),
            "anomaly engine should catch novel shellcode: {d:?}"
        );
    }

    #[test]
    fn detects_dns_tunnel_by_size() {
        let mut e = trained_engine(0.9);
        let big_query = vec![b'a'; 300];
        let p = Packet::udp(
            Ipv4Header::simple(Ipv4Addr::new(10, 10, 0, 5), Ipv4Addr::new(198, 18, 1, 1)),
            UdpHeader { src_port: 5000, dst_port: 53 },
            big_query,
        );
        let d = e.inspect(SimTime::ZERO, &p);
        assert!(d.iter().any(|d| d.class == AttackClass::Tunneling), "{d:?}");
    }

    #[test]
    fn trust_exploit_needs_high_sensitivity() {
        let rpc_write = |e: &mut AnomalyEngine| {
            let mut body = Vec::new();
            body.extend_from_slice(&100003u32.to_be_bytes());
            body.extend_from_slice(b"/export/.ssh/authorized_keys");
            let p = Packet::tcp(
                Ipv4Header::simple(Ipv4Addr::new(10, 10, 0, 7), Ipv4Addr::new(10, 10, 0, 12)),
                TcpHeader {
                    src_port: 1023,
                    dst_port: 2049,
                    seq: 1,
                    ack: 1,
                    flags: TcpFlags::PSH_ACK,
                    window: 512,
                },
                body,
            );
            e.inspect(SimTime::ZERO, &p)
        };
        let mut strict = trained_engine(0.9);
        assert!(rpc_write(&mut strict).iter().any(|d| d.class == AttackClass::TrustExploit));
        let mut moderate = trained_engine(0.4);
        assert!(rpc_write(&mut moderate).is_empty(), "below the rpc-model arm point");
    }

    #[test]
    fn benign_cluster_traffic_is_mostly_clean_at_moderate_sensitivity() {
        let mut e = trained_engine(0.5);
        let cfg = GeneratorConfig::new(
            SiteProfile::realtime_cluster(),
            30.0,
            SimDuration::from_secs(10),
            999, // different seed than training
        );
        let test =
            RecordStream::new(StreamConfig::new(cfg)).expect("rate in range").collect_trace();
        let mut alerts = 0;
        for rec in test.records() {
            alerts += e.inspect(rec.at, &rec.packet).len();
        }
        let ratio = alerts as f64 / test.len() as f64;
        assert!(ratio < 0.005, "benign alert ratio {ratio} too high ({alerts} alerts)");
    }

    proptest::proptest! {
        /// The token buffer lists exactly the runs of token characters of
        /// length ≥ 4, lowercased, in order. Bytes come from a small mixed
        /// alphabet so that long runs and separators are both common.
        #[test]
        fn token_list_matches_a_split_reference(
            picks in proptest::collection::vec(0usize..9, 0..64),
        ) {
            let payload: Vec<u8> = picks.iter().map(|&i| b"aB9_-/ .\x00"[i]).collect();
            let token_char = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-';
            let reference: Vec<Vec<u8>> = payload
                .split(|b| !token_char(b))
                .filter(|t| t.len() >= 4)
                .map(<[u8]>::to_ascii_lowercase)
                .collect();
            let list = token_list(&payload);
            let got: Vec<Vec<u8>> = listed_tokens(&list).map(<[u8]>::to_vec).collect();
            proptest::prop_assert_eq!(got, reference);
        }
    }

    #[test]
    fn token_extraction() {
        let list = token_list(b"/export/.ssh/Authorized_Keys\x00\x00data");
        let toks: Vec<&[u8]> = listed_tokens(&list).collect();
        assert_eq!(
            toks,
            [&b"export"[..], b"authorized_keys", b"data"],
            "3-byte tokens are skipped"
        );
        assert!(token_list(b"abc").is_empty());
    }
}
