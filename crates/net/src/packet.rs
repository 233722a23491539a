//! The layered packet model: IPv4 + TCP/UDP/ICMP + payload.
//!
//! Packets are the unit of work everywhere in the testbed: traffic
//! generators emit them, links carry them, load balancers hash them, sensors
//! inspect them. Payloads are `Arc<[u8]>` so a packet can fan out through
//! the IDS pipeline (load balancer → sensor → analyzer) without copying the
//! body — the paper's Figure 1 architecture mirrors the same traffic to
//! several components.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// IP protocol numbers used by the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProtocol {
    /// IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
        }
    }
}

/// IPv4 header fields the testbed models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (fragment grouping).
    pub ident: u16,
    /// Don't Fragment flag.
    pub dont_fragment: bool,
    /// More Fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
}

impl Ipv4Header {
    /// A default header between two addresses: TTL 64, no fragmentation.
    pub fn simple(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        Self {
            src,
            dst,
            ttl: 64,
            ident: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
        }
    }

    /// Whether this packet is a fragment (not the sole piece of a datagram).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }
}

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
    /// Urgent pointer significant.
    pub urg: bool,
}

impl TcpFlags {
    /// Only SYN.
    pub const SYN: TcpFlags =
        TcpFlags { syn: true, ack: false, fin: false, rst: false, psh: false, urg: false };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags =
        TcpFlags { syn: true, ack: true, fin: false, rst: false, psh: false, urg: false };
    /// Only ACK.
    pub const ACK: TcpFlags =
        TcpFlags { syn: false, ack: true, fin: false, rst: false, psh: false, urg: false };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags =
        TcpFlags { syn: false, ack: true, fin: true, rst: false, psh: false, urg: false };
    /// Only RST.
    pub const RST: TcpFlags =
        TcpFlags { syn: false, ack: false, fin: false, rst: true, psh: false, urg: false };
    /// PSH+ACK (data segment).
    pub const PSH_ACK: TcpFlags =
        TcpFlags { syn: false, ack: true, fin: false, rst: false, psh: true, urg: false };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (set, name) in [
            (self.syn, "SYN"),
            (self.ack, "ACK"),
            (self.fin, "FIN"),
            (self.rst, "RST"),
            (self.psh, "PSH"),
            (self.urg, "URG"),
        ] {
            if set {
                if wrote {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                wrote = true;
            }
        }
        if !wrote {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// TCP header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

/// UDP header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// ICMP message types the testbed uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IcmpKind {
    /// Echo request (type 8).
    EchoRequest,
    /// Echo reply (type 0).
    EchoReply,
}

/// ICMP header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IcmpHeader {
    /// Message kind.
    pub kind: IcmpKind,
    /// Identifier (echo).
    pub ident: u16,
    /// Sequence number (echo).
    pub seq: u16,
}

/// The transport layer of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// TCP segment.
    Tcp(TcpHeader),
    /// UDP datagram.
    Udp(UdpHeader),
    /// ICMP message.
    Icmp(IcmpHeader),
}

impl Transport {
    /// The IP protocol number for this transport.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            Transport::Tcp(_) => IpProtocol::Tcp,
            Transport::Udp(_) => IpProtocol::Udp,
            Transport::Icmp(_) => IpProtocol::Icmp,
        }
    }

    /// Transport header length on the wire, in bytes.
    pub fn header_len(&self) -> usize {
        match self {
            Transport::Tcp(_) => 20,
            Transport::Udp(_) => 8,
            Transport::Icmp(_) => 8,
        }
    }

    /// Source port, if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            Transport::Tcp(t) => Some(t.src_port),
            Transport::Udp(u) => Some(u.src_port),
            Transport::Icmp(_) => None,
        }
    }

    /// Destination port, if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            Transport::Tcp(t) => Some(t.dst_port),
            Transport::Udp(u) => Some(u.dst_port),
            Transport::Icmp(_) => None,
        }
    }
}

/// A simulated network packet: IPv4 header, transport header, payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Packet {
    /// Network-layer header.
    pub ip: Ipv4Header,
    /// Transport-layer header.
    pub transport: Transport,
    /// Application payload; shared so pipeline fan-out never copies bodies.
    #[serde(with = "arc_bytes")]
    pub payload: Arc<[u8]>,
}

/// Ethernet framing overhead added by links: 14-byte header + 4-byte FCS.
pub const ETHERNET_OVERHEAD: usize = 18;
/// IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;

impl Packet {
    /// Build a TCP packet.
    pub fn tcp(ip: Ipv4Header, tcp: TcpHeader, payload: impl Into<Arc<[u8]>>) -> Self {
        Self { ip, transport: Transport::Tcp(tcp), payload: payload.into() }
    }

    /// Build a UDP packet.
    pub fn udp(ip: Ipv4Header, udp: UdpHeader, payload: impl Into<Arc<[u8]>>) -> Self {
        Self { ip, transport: Transport::Udp(udp), payload: payload.into() }
    }

    /// Build an ICMP packet.
    pub fn icmp(ip: Ipv4Header, icmp: IcmpHeader, payload: impl Into<Arc<[u8]>>) -> Self {
        Self { ip, transport: Transport::Icmp(icmp), payload: payload.into() }
    }

    /// IP datagram length: IP header + transport header + payload.
    pub fn ip_len(&self) -> usize {
        IPV4_HEADER_LEN + self.transport.header_len() + self.payload.len()
    }

    /// Bytes this packet occupies on an Ethernet wire (64-byte minimum
    /// frame enforced).
    pub fn wire_len(&self) -> usize {
        (self.ip_len() + ETHERNET_OVERHEAD).max(64)
    }

    /// The TCP header, if this is a TCP packet.
    pub fn tcp_header(&self) -> Option<&TcpHeader> {
        match &self.transport {
            Transport::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// Whether this is a bare SYN (connection-open attempt).
    pub fn is_syn(&self) -> bool {
        matches!(&self.transport, Transport::Tcp(t) if t.flags.syn && !t.flags.ack)
    }
}

/// Serde adapter for `Arc<[u8]>` payloads.
mod arc_bytes {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::sync::Arc;

    pub fn serialize<S: Serializer>(data: &Arc<[u8]>, s: S) -> Result<S::Ok, S::Error> {
        data.as_ref().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Arc<[u8]>, D::Error> {
        let v = Vec::<u8>::deserialize(d)?;
        Ok(Arc::from(v.into_boxed_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tcp() -> Packet {
        Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
            TcpHeader {
                src_port: 40000,
                dst_port: 80,
                seq: 1,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 65535,
            },
            Vec::new(),
        )
    }

    #[test]
    fn flag_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN+ACK");
        assert_eq!(TcpFlags::default().to_string(), "(none)");
    }

    #[test]
    fn lengths() {
        let p = sample_tcp();
        assert_eq!(p.ip_len(), 40);
        assert_eq!(p.wire_len(), 64); // padded to minimum frame
        let big = Packet::udp(p.ip, UdpHeader { src_port: 1, dst_port: 53 }, vec![0u8; 1000]);
        assert_eq!(big.ip_len(), 1028);
        assert_eq!(big.wire_len(), 1046);
    }

    #[test]
    fn syn_detection() {
        let p = sample_tcp();
        assert!(p.is_syn());
        let mut h = *p.tcp_header().unwrap();
        h.flags = TcpFlags::SYN_ACK;
        let p2 = Packet::tcp(p.ip, h, Vec::new());
        assert!(!p2.is_syn());
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(IpProtocol::Icmp.number(), 1);
        assert_eq!(IpProtocol::Tcp.number(), 6);
        assert_eq!(IpProtocol::Udp.number(), 17);
    }

    #[test]
    fn serde_round_trip() {
        let p = Packet::tcp(
            Ipv4Header::simple(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8)),
            TcpHeader {
                src_port: 1234,
                dst_port: 22,
                seq: 42,
                ack: 7,
                flags: TcpFlags::PSH_ACK,
                window: 8192,
            },
            b"hello".to_vec(),
        );
        let json = serde_json::to_string(&p).unwrap();
        let back: Packet = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
