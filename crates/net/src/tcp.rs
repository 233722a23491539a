//! TCP sessions: a synthesizer for generating well-formed connections and a
//! tracking state machine for observing them.
//!
//! Both halves serve the paper directly. The synthesizer produces the
//! connection-oriented background traffic the methodology requires
//! (realistic sessions, not random floods), and metrics like *Maximal
//! Throughput with Zero Loss* are "measured in packets/sec **or # of
//! simultaneous TCP streams**". The tracker is what gives load balancers
//! their TCP-session awareness and sensors their stream reassembly.

use crate::flow::FlowKey;
use crate::packet::{Ipv4Header, Packet, TcpFlags, TcpHeader};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Which endpoint sent a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Client → server.
    ToServer,
    /// Server → client.
    ToClient,
}

/// Parameters for synthesizing one TCP session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Client address.
    pub client: Ipv4Addr,
    /// Client ephemeral port.
    pub client_port: u16,
    /// Server address.
    pub server: Ipv4Addr,
    /// Server listening port.
    pub server_port: u16,
    /// Client initial sequence number.
    pub client_isn: u32,
    /// Server initial sequence number.
    pub server_isn: u32,
    /// Maximum segment payload size.
    pub mss: usize,
}

impl SessionSpec {
    /// A spec with conventional defaults (MSS 1460).
    pub fn new(client: Ipv4Addr, client_port: u16, server: Ipv4Addr, server_port: u16) -> Self {
        Self {
            client,
            client_port,
            server,
            server_port,
            client_isn: 0x1000,
            server_isn: 0x8000,
            mss: 1460,
        }
    }

    fn header(&self, dir: Direction) -> Ipv4Header {
        match dir {
            Direction::ToServer => Ipv4Header::simple(self.client, self.server),
            Direction::ToClient => Ipv4Header::simple(self.server, self.client),
        }
    }

    fn tcp(&self, dir: Direction, seq: u32, ack: u32, flags: TcpFlags) -> TcpHeader {
        let (sp, dp) = match dir {
            Direction::ToServer => (self.client_port, self.server_port),
            Direction::ToClient => (self.server_port, self.client_port),
        };
        TcpHeader { src_port: sp, dst_port: dp, seq, ack, flags, window: 65535 }
    }
}

/// One application-level exchange inside a session: `data` sent in `dir`.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Sender of this chunk.
    pub dir: Direction,
    /// Application bytes.
    pub data: Vec<u8>,
}

impl Exchange {
    /// Client-sent data.
    pub fn to_server(data: impl Into<Vec<u8>>) -> Self {
        Self { dir: Direction::ToServer, data: data.into() }
    }
    /// Server-sent data.
    pub fn to_client(data: impl Into<Vec<u8>>) -> Self {
        Self { dir: Direction::ToClient, data: data.into() }
    }
}

/// Synthesize a complete, well-formed TCP session: three-way handshake,
/// the given exchanges segmented at the MSS with correct seq/ack and
/// acknowledgements, and a FIN/FIN-ACK teardown. Returns the segments in
/// wire order, each tagged with its direction.
pub fn synthesize_session(spec: &SessionSpec, exchanges: &[Exchange]) -> Vec<(Direction, Packet)> {
    let mut out = Vec::new();
    let mut client_seq = spec.client_isn;
    let mut server_seq = spec.server_isn;

    // Handshake.
    out.push((
        Direction::ToServer,
        Packet::tcp(
            spec.header(Direction::ToServer),
            spec.tcp(Direction::ToServer, client_seq, 0, TcpFlags::SYN),
            Vec::new(),
        ),
    ));
    client_seq = client_seq.wrapping_add(1);
    out.push((
        Direction::ToClient,
        Packet::tcp(
            spec.header(Direction::ToClient),
            spec.tcp(Direction::ToClient, server_seq, client_seq, TcpFlags::SYN_ACK),
            Vec::new(),
        ),
    ));
    server_seq = server_seq.wrapping_add(1);
    out.push((
        Direction::ToServer,
        Packet::tcp(
            spec.header(Direction::ToServer),
            spec.tcp(Direction::ToServer, client_seq, server_seq, TcpFlags::ACK),
            Vec::new(),
        ),
    ));

    // Data exchanges.
    for ex in exchanges {
        for chunk in ex.data.chunks(spec.mss.max(1)) {
            let (dir, seq, ack) = match ex.dir {
                Direction::ToServer => (Direction::ToServer, client_seq, server_seq),
                Direction::ToClient => (Direction::ToClient, server_seq, client_seq),
            };
            out.push((
                dir,
                Packet::tcp(
                    spec.header(dir),
                    spec.tcp(dir, seq, ack, TcpFlags::PSH_ACK),
                    chunk.to_vec(),
                ),
            ));
            match ex.dir {
                Direction::ToServer => client_seq = client_seq.wrapping_add(chunk.len() as u32),
                Direction::ToClient => server_seq = server_seq.wrapping_add(chunk.len() as u32),
            }
            // Pure ACK from the receiver.
            let rdir = match ex.dir {
                Direction::ToServer => Direction::ToClient,
                Direction::ToClient => Direction::ToServer,
            };
            let (rseq, rack) = match rdir {
                Direction::ToServer => (client_seq, server_seq),
                Direction::ToClient => (server_seq, client_seq),
            };
            out.push((
                rdir,
                Packet::tcp(
                    spec.header(rdir),
                    spec.tcp(rdir, rseq, rack, TcpFlags::ACK),
                    Vec::new(),
                ),
            ));
        }
    }

    // Teardown: client FIN, server FIN-ACK, client ACK.
    out.push((
        Direction::ToServer,
        Packet::tcp(
            spec.header(Direction::ToServer),
            spec.tcp(Direction::ToServer, client_seq, server_seq, TcpFlags::FIN_ACK),
            Vec::new(),
        ),
    ));
    client_seq = client_seq.wrapping_add(1);
    out.push((
        Direction::ToClient,
        Packet::tcp(
            spec.header(Direction::ToClient),
            spec.tcp(Direction::ToClient, server_seq, client_seq, TcpFlags::FIN_ACK),
            Vec::new(),
        ),
    ));
    server_seq = server_seq.wrapping_add(1);
    out.push((
        Direction::ToServer,
        Packet::tcp(
            spec.header(Direction::ToServer),
            spec.tcp(Direction::ToServer, client_seq, server_seq, TcpFlags::ACK),
            Vec::new(),
        ),
    ));
    out
}

/// Observable state of a tracked connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnState {
    /// SYN seen, no SYN-ACK yet.
    SynSent,
    /// SYN-ACK seen, no final ACK yet.
    SynReceived,
    /// Handshake complete.
    Established,
    /// One side sent FIN.
    Closing,
    /// Both FINs (or a RST) seen.
    Closed,
}

/// Per-connection tracking record.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// Connection state.
    pub state: ConnState,
    /// Application bytes observed client→server.
    pub bytes_to_server: u64,
    /// Application bytes observed server→client.
    pub bytes_to_client: u64,
    /// Total segments observed.
    pub segments: u64,
    /// Whether a RST terminated the connection.
    pub reset: bool,
}

/// A connection tracker: feeds on TCP packets, maintains per-canonical-flow
/// state. This is the "TCP session awareness" the paper requires of load
/// balancers, and the substrate for sensor-side stream reassembly.
#[derive(Debug, Default)]
pub struct ConnTracker {
    // An ordered map, not a hash map: `idse-eval` counts open streams
    // through this tracker, and report paths must never observe
    // hash-seeded state.
    conns: BTreeMap<FlowKey, ConnRecord>,
    /// Count of completed (fully closed) connections, including reset ones.
    completed: u64,
}

impl ConnTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one packet. Non-TCP packets are ignored. Returns the state
    /// of the connection after the packet, if it is TCP.
    pub fn observe(&mut self, packet: &Packet) -> Option<ConnState> {
        let tcp = packet.tcp_header()?;
        let key = FlowKey::of(packet).canonical();
        let flags = tcp.flags;
        let payload_len = packet.payload.len() as u64;
        // Direction relative to the canonical key: canonical.src is the
        // lexicographically smaller endpoint, not necessarily the client,
        // so we track direction by comparing against the packet's own key.
        let to_canonical_dst = FlowKey::of(packet) == key;

        let entry = self.conns.entry(key).or_insert(ConnRecord {
            state: ConnState::SynSent,
            bytes_to_server: 0,
            bytes_to_client: 0,
            segments: 0,
            reset: false,
        });
        entry.segments += 1;
        if to_canonical_dst {
            entry.bytes_to_server += payload_len;
        } else {
            entry.bytes_to_client += payload_len;
        }

        let was_open = entry.state != ConnState::Closed;
        entry.state = match (entry.state, flags) {
            (_, f) if f.rst => {
                entry.reset = true;
                ConnState::Closed
            }
            (ConnState::SynSent, f) if f.syn && f.ack => ConnState::SynReceived,
            (ConnState::SynReceived, f) if f.ack && !f.syn && !f.fin => ConnState::Established,
            (ConnState::Established, f) if f.fin => ConnState::Closing,
            (ConnState::Closing, f) if f.fin => ConnState::Closed,
            (s, _) => s,
        };
        if was_open && entry.state == ConnState::Closed {
            self.completed += 1;
        }
        Some(entry.state)
    }

    /// Connections currently not closed.
    pub fn open_connections(&self) -> usize {
        self.conns.values().filter(|c| c.state != ConnState::Closed).count()
    }

    /// Connections in the half-open (SYN seen, handshake incomplete)
    /// states — the signal a SYN-flood detector watches.
    pub fn half_open(&self) -> usize {
        self.conns
            .values()
            .filter(|c| matches!(c.state, ConnState::SynSent | ConnState::SynReceived))
            .count()
    }

    /// Fully closed connections observed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Look up a connection by any directed key.
    pub fn get(&self, key: &FlowKey) -> Option<&ConnRecord> {
        self.conns.get(&key.canonical())
    }

    /// Total tracked connections (open and closed).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether nothing has been tracked.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Drop closed connections (periodic state compaction; the paper's
    /// *Data Storage* metric is about exactly this kind of retained state).
    pub fn compact(&mut self) {
        self.conns.retain(|_, c| c.state != ConnState::Closed);
    }
}

/// Reassemble the application byte stream of one direction of a synthesized
/// session from its segments (in-order delivery assumed; out-of-order and
/// overlap handling lives in [`crate::frag`] for IP and in sensor logic for
/// TCP).
pub fn reassemble_stream(segments: &[(Direction, Packet)], dir: Direction) -> Vec<u8> {
    let mut ordered: Vec<(&Packet, u32)> = segments
        .iter()
        .filter(|(d, p)| *d == dir && !p.payload.is_empty())
        .map(|(_, p)| (p, p.tcp_header().map(|t| t.seq).unwrap_or(0)))
        .collect();
    ordered.sort_by_key(|&(_, seq)| seq);
    let mut out = Vec::new();
    for (p, _) in ordered {
        out.extend_from_slice(&p.payload);
    }
    out
}

/// Convenience: build the payload `Arc` for tests and generators.
pub fn payload(bytes: &[u8]) -> Arc<[u8]> {
    Arc::from(bytes.to_vec().into_boxed_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SessionSpec {
        SessionSpec::new(Ipv4Addr::new(10, 0, 0, 5), 40123, Ipv4Addr::new(10, 0, 1, 9), 80)
    }

    /// Every segment `synthesize_session` emits is TCP by construction —
    /// the one place that invariant is asserted.
    fn tcp_of(p: &Packet) -> &TcpHeader {
        p.tcp_header().expect("synthesized segments are TCP")
    }

    #[test]
    fn handshake_then_data_then_teardown() {
        let segs = synthesize_session(
            &spec(),
            &[
                Exchange::to_server(b"GET / HTTP/1.0\r\n\r\n".to_vec()),
                Exchange::to_client(b"HTTP/1.0 200 OK\r\n\r\nhello".to_vec()),
            ],
        );
        // 3 handshake + 2*(data+ack) + 3 teardown.
        assert_eq!(segs.len(), 10);
        assert!(segs[0].1.is_syn());
        let t = tcp_of(&segs[1].1);
        assert!(t.flags.syn && t.flags.ack);
        // Last three are FIN-ACK, FIN-ACK, ACK.
        assert!(tcp_of(&segs[7].1).flags.fin);
        assert!(tcp_of(&segs[8].1).flags.fin);
        assert!(tcp_of(&segs[9].1).flags.ack);
    }

    #[test]
    fn mss_segmentation() {
        let mut s = spec();
        s.mss = 10;
        let data = vec![0x41u8; 35];
        let segs = synthesize_session(&s, &[Exchange::to_server(data.clone())]);
        let reassembled = reassemble_stream(&segs, Direction::ToServer);
        assert_eq!(reassembled, data);
        // 4 data segments of ≤10 bytes.
        let data_segs =
            segs.iter().filter(|(d, p)| *d == Direction::ToServer && !p.payload.is_empty()).count();
        assert_eq!(data_segs, 4);
    }

    #[test]
    fn seq_numbers_are_contiguous() {
        let mut s = spec();
        s.mss = 100;
        let segs = synthesize_session(&s, &[Exchange::to_server(vec![7u8; 250])]);
        let seqs: Vec<u32> = segs
            .iter()
            .filter(|(d, p)| *d == Direction::ToServer && !p.payload.is_empty())
            .map(|(_, p)| tcp_of(p).seq)
            .collect();
        assert_eq!(seqs, vec![s.client_isn + 1, s.client_isn + 101, s.client_isn + 201]);
    }

    #[test]
    fn tracker_follows_full_lifecycle() {
        let segs = synthesize_session(&spec(), &[Exchange::to_server(b"ping".to_vec())]);
        let mut tracker = ConnTracker::new();
        let mut states = Vec::new();
        for (_, p) in &segs {
            states.push(tracker.observe(p).expect("segments are TCP"));
        }
        assert_eq!(states[0], ConnState::SynSent);
        assert_eq!(states[1], ConnState::SynReceived);
        assert_eq!(states[2], ConnState::Established);
        assert_eq!(*states.last().expect("session has segments"), ConnState::Closed);
        assert_eq!(tracker.completed(), 1);
        assert_eq!(tracker.open_connections(), 0);
    }

    #[test]
    fn tracker_counts_bytes_per_direction() {
        let segs = synthesize_session(
            &spec(),
            &[Exchange::to_server(vec![1u8; 100]), Exchange::to_client(vec![2u8; 300])],
        );
        let mut tracker = ConnTracker::new();
        for (_, p) in &segs {
            tracker.observe(p);
        }
        let key = FlowKey::of(&segs[0].1);
        let rec = tracker.get(&key).expect("flow was observed");
        assert_eq!(rec.bytes_to_server + rec.bytes_to_client, 400);
        assert!(!rec.reset);
    }

    #[test]
    fn rst_closes_immediately() {
        let s = spec();
        let mut tracker = ConnTracker::new();
        let segs = synthesize_session(&s, &[]);
        tracker.observe(&segs[0].1); // SYN
        let rst = Packet::tcp(
            s.header(Direction::ToClient),
            s.tcp(Direction::ToClient, 0, 0, TcpFlags::RST),
            Vec::new(),
        );
        assert_eq!(tracker.observe(&rst), Some(ConnState::Closed));
        let rec = tracker.get(&FlowKey::of(&segs[0].1)).expect("flow was observed");
        assert!(rec.reset);
    }

    #[test]
    fn half_open_counts_syn_flood_state() {
        let mut tracker = ConnTracker::new();
        for port in 0..50u16 {
            let s = SessionSpec::new(
                Ipv4Addr::new(66, 6, 6, 6),
                10_000 + port,
                Ipv4Addr::new(10, 0, 1, 9),
                80,
            );
            let syn = Packet::tcp(
                s.header(Direction::ToServer),
                s.tcp(Direction::ToServer, 1, 0, TcpFlags::SYN),
                Vec::new(),
            );
            tracker.observe(&syn);
        }
        assert_eq!(tracker.half_open(), 50);
        assert_eq!(tracker.open_connections(), 50);
    }

    #[test]
    fn compact_drops_closed() {
        let mut tracker = ConnTracker::new();
        let segs = synthesize_session(&spec(), &[]);
        for (_, p) in &segs {
            tracker.observe(p);
        }
        assert_eq!(tracker.len(), 1);
        tracker.compact();
        assert!(tracker.is_empty());
    }

    #[test]
    fn non_tcp_is_ignored() {
        let mut tracker = ConnTracker::new();
        let p = Packet::udp(
            Ipv4Header::simple(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2)),
            crate::packet::UdpHeader { src_port: 1, dst_port: 2 },
            Vec::new(),
        );
        assert_eq!(tracker.observe(&p), None);
        assert!(tracker.is_empty());
    }
}
